"""Simulator scalability: virtual-process count vs. host throughput.

xSim's headline capability is oversubscription — running orders of
magnitude more simulated MPI ranks than host cores (up to 2^27 on a
960-core cluster).  The laptop-scale equivalent claim for this
reproduction: simulated-rank count scales to tens of thousands on one
host process, with near-linear host cost per simulated event.

The measurements live in :mod:`repro.core.harness.bench` (shared with the
``xsim-run bench`` subcommand); this module adds the regression
assertions.  The test merges its record into ``BENCH_pdes.json`` at
the repository root, which CI uploads as an artifact so throughput
regressions are visible across commits.
"""

from repro.core.harness.bench import (
    PAIRED_AB_512,
    SCALES,
    merge_bench,
    run_scaling,
    scaling_record,
)

from benchmarks._util import once, report


def test_vp_count_scaling(benchmark):
    # min-of-5 at the 512-rank reference scale for a stable throughput
    # figure; single runs elsewhere (see bench.run_scaling).
    results = once(benchmark, run_scaling)

    report("", "=== Simulator scaling: virtual processes vs host cost ===",
           f"{'ranks':>6} {'events':>10} {'host':>8} {'events/s':>10} {'E1':>11}")
    for n, r in results.items():
        report(
            f"{n:>6} {r['events']:>10,} {r['host_s']:>7.2f}s "
            f"{r['events'] / r['host_s']:>10,.0f} {r['e1']:>9,.1f}s"
        )

    record = scaling_record(results)
    merge_bench(record)
    report("", f"wrote BENCH_pdes.json: {record['events_per_sec']:,.0f} events/s "
           f"at 512 ranks ({record['speedup_vs_seed']:.2f}x vs recorded seed "
           f"baseline; paired A/B: {PAIRED_AB_512['speedup']:.2f}x)")

    # events grow roughly linearly with rank count
    ev_ratio = results[4096]["events"] / results[64]["events"]
    assert 32 < ev_ratio < 128  # 64x ranks -> ~64x events
    # per-event host cost stays within 4x across two orders of magnitude
    rates = [r["events"] / r["host_s"] for r in results.values()]
    assert max(rates) / min(rates) < 4.0
    # virtual time stays at the workload's operating point at every scale
    for r in results.values():
        assert abs(r["e1"] - 5248.0) / 5248.0 < 0.05


# Re-exported for external readers of the historical record (these frozen
# figures documented the PR 1 optimization pass).
__all__ = ["SCALES", "PAIRED_AB_512"]
