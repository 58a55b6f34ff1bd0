"""Metric definitions: names, units, direction, bounds, and what each
per-layer metric is expected to move.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/metrics.py > BENCHMARK.json``) and a test keeps the
two identical.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

RUN_SECONDS = 10

WORKLOADS = (
    ("table2-512",
     "paper Table II at 512 ranks (4 E1 + 6 C/R cells x 3 failure draws) at -j 2: "
     "restart loop, checkpoint stores, halo exchange; slowest cell sets campaign time"),
    ("e1-32k",
     "paper-exact 32,768-rank fault-free E1 row, serial: per-event cost at scale "
     "(heap, VP frames, MPI matching, torus hop costs)"),
    ("explore-cold",
     "reference exploration over 4 strategies into an empty cache: ~1,100 tiny cells, "
     "per-cell fixed cost, pool dispatch, fault overlay, cache writes"),
    ("explore-warm",
     "the same exploration served from a cache filled in set-up: cache read path and "
     "explore allocation, zero engine events"),
)

#: (name, unit, better, bound, what it is).  Pass wall time and cells per
#: second are printed but are not metrics: both follow how much work the
#: seed draws (restarts in Table II, cells in explore), which spreads them
#: across seeds by up to the bound on their own.  Simulated seconds per
#: host second divides that work out.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median of 5 set-ups (fresh-interpreter library import + input build); "
     "explore-warm adds its one cache fill"),
    ("sim_s_per_s", "s/s", "higher", 0.25,
     "simulated seconds of results delivered per host second (median over passes)"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak RSS of the benchmark process plus its largest child (pool worker)"),
)

#: (name, unit, better, which end-to-end metric on which workload it should move)
PER_LAYER = (
    ("pdes.events", "count", "lower", "sim_s_per_s on e1-32k; nothing on explore-warm"),
    ("pdes.run_s", "s", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("pdes.self_s", "s", "lower",
     "sim_s_per_s on e1-32k and table2-512 (includes app coroutine frames)"),
    ("mpi.launch_s", "s", "lower", "sim_s_per_s and peak_rss_mb on e1-32k"),
    ("mpi.post_send.calls", "count", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("mpi.post_send.self_s", "s", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("mpi.irecv.calls", "count", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("mpi.irecv.self_s", "s", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("mpi.sync_arrive.self_s", "s", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("mpi.messages", "count", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("mpi.bytes", "count", "lower", "sim_s_per_s on e1-32k and table2-512"),
    ("models.transfer_time.calls", "count", "lower", "sim_s_per_s on e1-32k"),
    ("models.transfer_time.self_s", "s", "lower", "sim_s_per_s on e1-32k"),
    ("models.transfer_time.hit_ratio", "ratio", "higher",
     "sim_s_per_s on e1-32k (12.8% at seed); table2-512 unchanged"),
    ("restart.segments", "count", "lower", "sim_s_per_s on table2-512"),
    ("restart.run_s", "s", "lower", "sim_s_per_s on table2-512"),
    ("checkpoint.writes", "count", "lower", "sim_s_per_s on table2-512"),
    ("checkpoint.write.self_s", "s", "lower", "sim_s_per_s on table2-512"),
    ("resilience.segment_store.self_s", "s", "lower", "sim_s_per_s on explore-cold"),
    ("resilience.on_abort.self_s", "s", "lower", "sim_s_per_s on explore-cold"),
    ("faults.stretch_compute.calls", "count", "lower", "sim_s_per_s on explore-cold"),
    ("faults.stretch_compute.self_s", "s", "lower", "sim_s_per_s on explore-cold"),
    ("run.scenario_digest.calls", "count", "lower", "sim_s_per_s on explore-cold and explore-warm"),
    ("run.scenario_digest.self_s", "s", "lower", "sim_s_per_s on explore-cold and explore-warm"),
    ("run.make_sim.self_s", "s", "lower", "sim_s_per_s on explore-cold"),
    ("run.cells", "count", "lower", "the sample count of run.cell_s.*"),
    ("run.cell_s.p50", "s", "lower", "sim_s_per_s on explore-cold"),
    ("run.cell_s.ptail", "s", "lower",
     "sim_s_per_s on explore-cold (p99 of ~1,100 cells; on table2-512 it is p50)"),
    ("harness.executor.run_s", "s", "lower", "sim_s_per_s on explore-cold and table2-512"),
    ("harness.dispatch_wait_s", "s", "lower", "sim_s_per_s on explore-cold"),
    ("harness.worker_busy_frac", "ratio", "higher", "sim_s_per_s on explore-cold and table2-512"),
    ("cache.store.calls", "count", "lower", "sim_s_per_s on explore-cold"),
    ("cache.store.self_s", "s", "lower", "sim_s_per_s on explore-cold"),
    ("cache.store_bytes", "count", "lower", "sim_s_per_s on explore-cold"),
    ("cache.lookup.calls", "count", "lower", "sim_s_per_s on explore-warm"),
    ("cache.lookup.self_s", "s", "lower", "sim_s_per_s on explore-warm"),
    ("cache.hit_rate", "ratio", "higher", "sim_s_per_s on explore-warm"),
    ("cache.hit_bytes", "count", "lower", "sim_s_per_s on explore-warm"),
    ("cache.degraded", "count", "lower", "the failed count on explore-cold and explore-warm"),
    ("explore.cells", "count", "lower",
     "the printed pass wall time of explore-cold and explore-warm"),
    ("explore.batches", "count", "lower",
     "the printed pass wall time of explore-cold and explore-warm"),
    ("explore.cells_ratio", "ratio", "lower",
     "the printed pass wall time of explore-cold and explore-warm"),
    ("explore.self_s", "s", "lower", "sim_s_per_s on explore-warm"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time of the same pass"),
)


def benchmark_json() -> dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


def tail(values: list[float]) -> float:
    """The highest of the 50/75/90/95/99/99.9th percentiles with at least
    ten samples beyond it; with fewer than 20 samples, the maximum."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - pct) >= 1000:
            best = pct
    if best is None:
        return ordered[-1]
    return statistics.quantiles(ordered, n=1000, method="inclusive")[int(best * 10) - 1]


def per_layer(tracer, facts: dict[str, Any], jobs: int) -> dict[str, float]:
    """Every per-layer metric from one traced pass."""
    c = tracer.counters.get
    hits, misses = c("models.transfer_time.hits", 0), c("models.transfer_time.misses", 0)
    cache_hits, cache_misses = c("cache.hits", 0), c("cache.misses", 0)
    pool_worker_s, pool_busy_s = c("harness.pool_worker_s", 0.0), c("harness.pool_busy_s", 0.0)
    cells = tracer.cell_seconds
    values = {
        "pdes.events": c("pdes.events", 0),
        "pdes.run_s": tracer.total_s("pdes.run"),
        "pdes.self_s": tracer.self_s("pdes.run"),
        "mpi.launch_s": tracer.total_s("mpi.launch"),
        "mpi.post_send.calls": tracer.calls("mpi.post_send"),
        "mpi.post_send.self_s": tracer.self_s("mpi.post_send"),
        "mpi.irecv.calls": tracer.calls("mpi.irecv"),
        "mpi.irecv.self_s": tracer.self_s("mpi.irecv"),
        "mpi.sync_arrive.self_s": tracer.self_s("mpi.sync_arrive"),
        "mpi.messages": c("mpi.messages", 0),
        "mpi.bytes": c("mpi.bytes", 0),
        "models.transfer_time.calls": tracer.calls("models.transfer_time"),
        "models.transfer_time.self_s": tracer.self_s("models.transfer_time"),
        "models.transfer_time.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "restart.segments": c("restart.segments", 0),
        "restart.run_s": tracer.total_s("restart.run"),
        "checkpoint.writes": tracer.calls("checkpoint.write"),
        "checkpoint.write.self_s": tracer.self_s("checkpoint.write"),
        "resilience.segment_store.self_s": tracer.self_s("resilience.segment_store"),
        "resilience.on_abort.self_s": tracer.self_s("resilience.on_abort"),
        "faults.stretch_compute.calls": tracer.calls("faults.stretch_compute"),
        "faults.stretch_compute.self_s": tracer.self_s("faults.stretch_compute"),
        "run.scenario_digest.calls": tracer.calls("run.scenario_digest"),
        "run.scenario_digest.self_s": tracer.self_s("run.scenario_digest"),
        "run.make_sim.self_s": tracer.self_s("run.make_sim"),
        "run.cells": len(cells),
        "run.cell_s.p50": statistics.median(cells) if cells else 0.0,
        "run.cell_s.ptail": tail(cells),
        "harness.executor.run_s": tracer.total_s("harness.executor.run"),
        "harness.dispatch_wait_s": (pool_worker_s - pool_busy_s) / jobs,
        "harness.worker_busy_frac": pool_busy_s / pool_worker_s if pool_worker_s else 0.0,
        "cache.store.calls": tracer.calls("cache.store"),
        "cache.store.self_s": tracer.self_s("cache.store"),
        "cache.store_bytes": c("cache.store_bytes", 0),
        "cache.lookup.calls": tracer.calls("cache.lookup"),
        "cache.lookup.self_s": tracer.self_s("cache.lookup"),
        "cache.hit_rate": cache_hits / (cache_hits + cache_misses)
        if cache_hits + cache_misses else 0.0,
        "cache.hit_bytes": c("cache.hit_bytes", 0),
        "cache.degraded": c("cache.corrupt", 0) + c("cache.store_errors", 0)
        + c("cache.disabled", 0),
        "explore.cells": facts.get("explore_cells", 0),
        "explore.batches": facts.get("explore_batches", 0),
        "explore.cells_ratio": facts.get("explore_cells_ratio", 0.0),
        "explore.self_s": tracer.self_s("explore.run"),
    }
    return values


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
