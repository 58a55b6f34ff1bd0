"""Unified scenario & runtime-backend layer.

The paper's subject is co-design *exploration*: sweeping machine
parameters, fault schedules, and checkpoint/restart policies across many
simulated runs.  This package is the one place where a run is described
and launched:

* :class:`Scenario` — a frozen, serializable spec capturing one full run
  (machine, application, failure schedule, C/R policy, seed, execution
  backend, instrumentation switches) with layered resolution::

      library defaults < scenario file (TOML) < XSIM_* environment < flags

  round-trippable through TOML and fingerprinted by
  :meth:`Scenario.scenario_digest`.
* :mod:`repro.run.backends` — the runtime-backend registry.  Every way of
  executing a scenario (serial engine, in-process sharded windowed
  engine) is a named :class:`~repro.run.backends.Backend` behind one
  ``execute(scenario) -> SimulationResult`` interface.
* :mod:`repro.run.instruments` — the instrumentation attach point: one
  hook table that wires the Sanitizer, the EventTrace recorder, and the
  Observer bus onto any backend's engine/world pair, replacing per-call
  wiring at every launcher.
* :mod:`repro.run.sweep` — cartesian scenario-matrix expansion behind
  ``xsim-run sweep``, executed as scenario-backed
  :class:`~repro.core.harness.parallel.RunSpec` campaigns.

The classic entry points remain as thin facades:
:class:`~repro.core.simulator.XSim` and
:class:`~repro.core.restart.RestartDriver` accept the same arguments as
before but resolve a scenario internally and dispatch through the
registry, so a new backend or instrument is one registry entry rather
than an edit at every launcher.
"""

from repro.run.backends import (
    BACKENDS,
    Backend,
    ScenarioOutcome,
    backend_names,
    get_backend,
    register_backend,
    run_scenario,
)
from repro.run.envvars import XSIM_ENV_VARS, EnvVar
from repro.run.instruments import (
    INSTRUMENTS,
    AttachedInstruments,
    attach_instruments,
    coerce_observer,
    instrument,
    make_shard_observer,
)
from repro.run.scenario import Scenario, load_scenario_file, parse_dims
from repro.run.sweep import expand_matrix, parse_set, run_sweep

__all__ = [
    "BACKENDS",
    "AttachedInstruments",
    "Backend",
    "EnvVar",
    "INSTRUMENTS",
    "Scenario",
    "ScenarioOutcome",
    "XSIM_ENV_VARS",
    "attach_instruments",
    "backend_names",
    "coerce_observer",
    "expand_matrix",
    "get_backend",
    "instrument",
    "load_scenario_file",
    "make_shard_observer",
    "parse_dims",
    "parse_set",
    "register_backend",
    "run_scenario",
    "run_sweep",
]
