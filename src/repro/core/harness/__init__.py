"""Experiment harness: system configuration, runners, and reports.

* :mod:`repro.core.harness.config` — :class:`SystemConfig`, the single
  declarative description of the simulated machine (the paper's 32,768-node
  3-D torus with its link, protocol, and processor parameters), plus the
  scaled variants the default benchmarks use.
* :mod:`repro.core.harness.experiment` — drivers regenerating the paper's
  Table II (checkpoint interval x system MTTF) and the First Impressions
  failure-mode observations.
* :mod:`repro.core.harness.report` — table formatting with side-by-side
  paper-reported values.
* :mod:`repro.core.harness.metrics` — the resilience cost/benefit metrics
  (efficiency, waste breakdown, availability, application MTTF).
* :mod:`repro.core.harness.serialize` — JSON/CSV export of results.
"""

from repro.core.harness.config import SystemConfig
from repro.core.harness.metrics import ResilienceMetrics, compute_metrics
from repro.core.harness.experiment import (
    Table2Cell,
    Table2Config,
    run_table2,
)
from repro.core.harness.report import format_table, render_table2
from repro.core.harness.serialize import (
    failure_run_record,
    simulation_result_record,
    table2_records,
    to_csv,
    to_json,
)

__all__ = [
    "ResilienceMetrics",
    "SystemConfig",
    "compute_metrics",
    "Table2Cell",
    "Table2Config",
    "format_table",
    "render_table2",
    "run_table2",
    "failure_run_record",
    "simulation_result_record",
    "table2_records",
    "to_csv",
    "to_json",
]
