"""Benchmark measurement helpers behind ``xsim-run bench`` and
``benchmarks/test_scaling.py``.

Two measurements share this module:

* :func:`run_scaling` — the PDES hot-path throughput sweep (events/sec per
  simulated-rank scale, with the engine's hot-path counters);
* :func:`measure_cache` — a cold vs warm sweep through the result cache.

Both write into ``BENCH_pdes.json`` at the repository root (see
:func:`write_bench` / :func:`merge_bench`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.util.profiling import EngineProfiler

#: Default throughput-sweep scales (simulated MPI ranks).
SCALES = (64, 512, 4096)

#: Pre-optimization (seed) throughput of the 512-rank run, measured on the
#: optimization host as the best of interleaved seed/optimized runs
#: (min-of-5 per process, alternated to cancel machine drift).  Kept as a
#: reference point in BENCH_pdes.json; absolute events/sec is host-
#: dependent, the ratio on one host is what the optimization pass claims.
SEED_BASELINE_512 = {"events": 38121, "host_s": 0.337, "events_per_sec": 113119.0}

#: The authoritative speedup measurement: six alternated seed/optimized
#: process pairs (min-of-5 each) on the optimization host.  Pairing is
#: what makes the ratio trustworthy — the host's throughput drifts up to
#: ~30% over minutes, so a live run compared against the frozen baseline
#: above conflates machine drift with the optimization.  Per-round ratios
#: ranged 1.33-1.70; best-vs-best is quoted.  Identical results in every
#: run: events=38121, exit_time=5250.932204.
PAIRED_AB_512 = {
    "method": "interleaved seed/optimized processes, min-of-5 each, 6 rounds",
    "seed_best_s": 0.337,
    "optimized_best_s": 0.224,
    "speedup": 1.504,
}

BENCH_PATH = Path(__file__).resolve().parents[4] / "BENCH_pdes.json"


def rate(events: int, seconds: float) -> float:
    """events/sec with the same zero-wall guard as
    :attr:`~repro.util.profiling.ProfileReport.events_per_sec` (a
    sub-resolution ``perf_counter`` delta must read as 0, not raise)."""
    return events / seconds if seconds > 0 else 0.0


def run_scale(
    nranks: int,
    repeats: int = 1,
    checkpoint_interval: int = 500,
) -> dict:
    """One serial throughput measurement (best of ``repeats``)."""
    best = None
    for _ in range(repeats):
        system = SystemConfig.paper_system(nranks=nranks)
        wl = HeatConfig.paper_workload(
            checkpoint_interval=checkpoint_interval, nranks=nranks
        )
        sim = XSim(system)
        t0 = time.perf_counter()
        with EngineProfiler(sim.engine, world=sim.world) as prof:
            result = sim.run(heat3d, args=(wl, CheckpointStore()))
        host = time.perf_counter() - t0
        if not result.completed:
            raise RuntimeError(f"bench run at {nranks} ranks did not complete")
        if best is None or host < best["host_s"]:
            profile = prof.report().as_record()
            profile.pop("phases", None)
            best = {
                "events": result.event_count,
                "host_s": host,
                "e1": result.exit_time,
                "profile": profile,
            }
    return best


def run_scaling(
    scales=SCALES,
    reference_scale: int = 512,
    reference_repeats: int = 5,
):
    """The throughput sweep: ``{nranks: run_scale(...)}`` per scale."""
    return {
        n: run_scale(
            n,
            repeats=reference_repeats if n == reference_scale else 1,
        )
        for n in scales
    }


def full_scale_record(checkpoint_interval: int = 500) -> dict:
    """The paper-exact 32,768-rank benchmark entry (guarded behind
    ``XSIM_FULL_SCALE=1`` in the CLI/CI because it takes tens of
    seconds): one serial run at the Table II operating point."""
    r = run_scale(32768, repeats=1, checkpoint_interval=checkpoint_interval)
    return {
        "nranks": 32768,
        "checkpoint_interval": checkpoint_interval,
        "events": r["events"],
        "host_s": round(r["host_s"], 4),
        "events_per_sec": round(rate(r["events"], r["host_s"]), 1),
        "e1": r["e1"],
        "profile": r["profile"],
    }


def scaling_record(results: dict) -> dict:
    """The BENCH_pdes.json body for a :func:`run_scaling` result."""
    ref = results[512]
    ref_rate = rate(ref["events"], ref["host_s"])
    return {
        "benchmark": "pdes-hot-path",
        "workload": "heat3d paper_workload, checkpoint_interval=500",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host_cpus": os.cpu_count(),
        "scales": {
            str(n): {
                "events": r["events"],
                "host_s": round(r["host_s"], 4),
                "events_per_sec": round(rate(r["events"], r["host_s"]), 1),
                "e1": r["e1"],
                "profile": r["profile"],
            }
            for n, r in results.items()
        },
        "reference_scale": 512,
        "events_per_sec": round(ref_rate, 1),
        "seed_baseline_512": SEED_BASELINE_512,
        "speedup_vs_seed": round(ref_rate / SEED_BASELINE_512["events_per_sec"], 3),
        "paired_ab_512": PAIRED_AB_512,
        "note": (
            "paired_ab_512 is the authoritative optimization-pass figure "
            "(seed and optimized alternated within one session, cancelling "
            "machine drift); speedup_vs_seed compares this live run against "
            "the frozen baseline and moves with host load — compare it only "
            "within one host and machine state"
        ),
    }


def measure_cache(
    nranks: int = 64,
    iterations: int = 400,
    grid: "dict | None" = None,
    cache_dir: "str | None" = None,
) -> dict:
    """Cold-vs-warm A/B of one sweep through the content-addressed result
    cache (``repro.cache``): the cold pass computes and stores every cell,
    the warm pass re-runs the identical matrix and must answer every cell
    by lookup with bit-identical digests.  The figure of merit is
    ``speedup`` (cold wall / warm wall) and the warm pass's 100% hit
    rate; ``lookup`` carries the per-process cache counters so the warm
    cost (mean lookup latency) is visible next to the win.
    """
    import shutil
    import tempfile

    from repro.cache.store import ResultCache
    from repro.run.scenario import Scenario
    from repro.run.sweep import run_sweep

    # Direct construction (not .resolve): the benchmark cell set must not
    # shift with ambient XSIM_* variables.
    base = Scenario(ranks=nranks, iterations=iterations, interval=100)
    grid = {"interval": [50, 100, 200], "seed": [0, 1]} if grid is None else grid
    root = Path(tempfile.mkdtemp(prefix="xsim-cache-bench-")) if cache_dir is None else Path(cache_dir)
    try:
        cold_cache = ResultCache(root)
        t0 = time.perf_counter()
        cold = run_sweep(base, grid, cache=cold_cache)
        cold_s = time.perf_counter() - t0
        # Fresh handle on the same store: warm counters start at zero.
        warm_cache = ResultCache(root)
        t0 = time.perf_counter()
        warm = run_sweep(base, grid, cache=warm_cache)
        warm_s = time.perf_counter() - t0
        digests_equal = [s["result_digest"] for _, s in cold] == [
            s["result_digest"] for _, s in warm
        ]
        hits = sum(1 for _, s in warm if s.get("cached"))
        cells = len(cold)
        return {
            "benchmark": "result-cache",
            "workload": f"heat3d sweep, {cells} cells at {nranks} ranks",
            "cells": cells,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
            "hit_rate": round(hits / cells, 4) if cells else 0.0,
            "digests_equal": digests_equal,
            "cache_bytes": cold_cache.index_stats()["bytes"],
            "lookup": warm_cache.stats.as_record(),
            "note": (
                "cold computes and stores every cell, warm re-runs the "
                "identical matrix; every warm cell must be a lookup "
                "(hit_rate 1.0) with digests byte-equal to the cold pass — "
                "the cache-parity simcheck enforces the same property per "
                "scenario, including across serial/sharded backends"
            ),
        }
    finally:
        if cache_dir is None:
            shutil.rmtree(root, ignore_errors=True)


def merge_bench(update: dict, path: Path = BENCH_PATH) -> dict:
    """Merge ``update`` keys into the existing BENCH_pdes.json (if any)."""
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except ValueError:
            record = {}
    record.update(update)
    write_bench(record, path)
    return record


def write_bench(record: dict, path: Path = BENCH_PATH) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n")
