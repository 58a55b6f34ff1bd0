"""EngineProfiler / ProfileReport unit tests.

Covers the zero-wall guard symmetry (every derived ratio must read as 0.0
rather than raise when its denominator is zero) and phase marks.
"""

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness import bench
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.util.profiling import EngineProfiler, PhaseStats, ProfileReport


def _zero_report(**overrides):
    base = dict(
        wall_seconds=0.0,
        event_count=0,
        events_per_sec=0.0,
        stale_skipped=0,
        coalesced_advances=0,
        match_scan_calls=0,
        match_scan_length=0,
        phases=(),
    )
    base.update(overrides)
    return ProfileReport(**base)


class TestZeroWallGuards:
    def test_zero_wall_report_has_no_division_errors(self):
        """A report built before any wall time elapsed must render, not
        raise — every ratio shares the events_per_sec guard."""
        report = _zero_report()
        assert report.events_per_sec == 0.0
        assert report.mean_match_scan == 0.0
        record = report.as_record()
        assert record["events_per_sec"] == 0.0
        assert record["mean_match_scan"] == 0.0
        assert isinstance(report.render(), str)

    def test_profiler_with_frozen_zero_wall(self):
        """EngineProfiler.report() with a zero wall measurement (coarse
        clock) applies the guard instead of dividing."""
        sim = XSim(SystemConfig.small_test_system(nranks=4))
        prof = EngineProfiler(sim.engine)
        prof._wall = 0.0  # freeze before any time elapses
        report = prof.report()
        assert report.wall_seconds == 0.0
        assert report.events_per_sec == 0.0

    def test_bench_rate_guard(self):
        assert bench.rate(1000, 0.0) == 0.0
        assert bench.rate(1000, 2.0) == 500.0


class TestPhases:
    def test_phase_marks_split_event_counts(self):
        sim = XSim(SystemConfig.small_test_system(nranks=4))
        prof = EngineProfiler(sim.engine)
        wl = HeatConfig.paper_workload(checkpoint_interval=5, nranks=4, iterations=10)
        result = sim.run(heat3d, args=(wl, CheckpointStore()))
        sim.engine.mark_phase("tail")
        report = prof.report()
        assert result.completed
        assert [p.label for p in report.phases] == ["tail"]
        assert isinstance(report.phases[0], PhaseStats)
        assert sum(p.events for p in report.phases) <= report.event_count
