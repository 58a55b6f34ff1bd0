"""Experiment drivers (Table II machinery, First Impressions) and reports."""

import pytest

from repro.apps.heat3d import HeatConfig
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import (
    PAPER_TABLE2,
    Table2Cell,
    Table2Config,
    classify_detection_phase,
    observe_failure_mode,
    run_table2,
)
from repro.core.harness.report import format_table, render_table2

# A tiny, fast Table II configuration for tests (full runs are benchmarks).
TINY = Table2Config(nranks=27, iterations=100, intervals=(50, 25), mttfs=(600.0,))


class TestPaperReference:
    def test_paper_table_complete(self):
        assert len(PAPER_TABLE2) == 7
        assert PAPER_TABLE2[(None, 1000)][0] == 5248.0

    def test_paper_mttfa_relation_holds(self):
        """The paper's own rows satisfy MTTF_a ~ E2 / (F + 1)."""
        for (mttf, _), (_, e2, f, mttf_a) in PAPER_TABLE2.items():
            if e2 is None:
                continue
            assert mttf_a == pytest.approx(e2 / (f + 1), abs=1.0)


@pytest.fixture(scope="module")
def tiny_table():
    return run_table2(TINY)


def _row(cells, mttf, interval):
    (cell,) = [c for c in cells if (c.mttf, c.interval) == (mttf, interval)]
    return cell


class TestRunRows:
    def test_e1_of_a_clean_run(self, tiny_table):
        # 100 iterations x 4096 points x 1.28 us x 1000 ~ 524 s + phases
        assert _row(tiny_table, 600.0, 50).e1 == pytest.approx(524.3, rel=0.05)

    def test_baseline_row(self, tiny_table):
        cell = tiny_table[0]
        assert (cell.mttf, cell.interval) == (None, TINY.baseline_interval)
        assert cell.e2 is None
        assert cell.f == 0
        assert cell.mttf_a is None

    def test_failure_row_invariants(self, tiny_table):
        # run_table2 raises for a run that did not complete, so a row
        # here is a completed restart loop.
        cell = _row(tiny_table, 600.0, 25)
        assert cell.e2 is not None
        assert cell.e2 >= cell.e1 or cell.f == 0
        if cell.f > 0:
            assert cell.mttf_a == pytest.approx(cell.e2 / (cell.f + 1))

    def test_rows_deterministic(self, tiny_table):
        assert run_table2(TINY) == tiny_table

    def test_shorter_interval_smaller_e2_under_failures(self):
        """The paper's headline observation, at test scale: with failures
        present, a shorter checkpoint interval reduces E2."""
        cfg = Table2Config(
            nranks=27, iterations=100, seed=1, intervals=(100, 20), mttfs=(300.0,)
        )
        cells = run_table2(cfg)
        long_c, short_c = _row(cells, 300.0, 100), _row(cells, 300.0, 20)
        if long_c.f > 0 and short_c.f > 0:
            assert short_c.e2 < long_c.e2

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_row_seed_offset_follows_the_seed(self, seed):
        cfg = Table2Config(seed=seed)
        assert cfg.cell_seed(3000.0, 500) == seed + 5
        for mttf in cfg.mttfs:
            for interval in cfg.intervals:
                if (mttf, interval) != (3000.0, 500):
                    assert cfg.cell_seed(mttf, interval) == seed

    def test_warm_rerun_is_served_from_the_cache(self, monkeypatch, tmp_path):
        from repro.cache import open_cache

        monkeypatch.setenv("XSIM_CACHE", "1")
        monkeypatch.setenv("XSIM_CACHE_DIR", str(tmp_path))
        cold = run_table2(TINY)
        stats = open_cache(tmp_path).stats
        before = (stats.lookups, stats.hits, stats.stores)
        warm = run_table2(TINY)
        after = (stats.lookups, stats.hits, stats.stores)
        # 3 fault-free E1 twins (C = 1000, 50, 25) + 2 restart cells
        assert [b - a for a, b in zip(before, after)] == [5, 5, 0]
        monkeypatch.delenv("XSIM_CACHE")
        assert warm == cold == run_table2(TINY)


class TestFailureModes:
    """Paper §V-D First Impressions."""

    def _workload(self):
        return HeatConfig.paper_workload(checkpoint_interval=25, nranks=27, iterations=100)

    def _system(self):
        return SystemConfig.paper_system(nranks=27)

    def test_compute_phase_failure_detected_in_halo_exchange(self):
        """"A failure during the computation phase is detected in the halo
        exchange due to failing communication.""" """"""
        # interval 25 x 5.24 s/iter: compute phase 1 spans ~0..131 s
        obs = observe_failure_mode(self._system(), self._workload(), rank=13, time=50.0)
        assert obs.aborted
        assert obs.detected_phase == "pt2pt"
        assert obs.activated is not None

    def test_checkpoint_phase_failure_detected_in_barrier(self):
        """"A failure during the checkpoint phase is detected in the
        following barrier.""" """"""
        from repro.models.filesystem import FileSystemModel

        system = self._system().scaled(
            filesystem=FileSystemModel.create("1GB/s", "1kB/s", "1ms")
        )
        wl = self._workload()
        # first checkpoint at iteration 25 -> t ~ 131 s; the ~33 kB write at
        # 1 kB/s takes ~33 s per rank, so t=140 lands inside the write
        obs = observe_failure_mode(system, wl, rank=13, time=140.0)
        assert obs.aborted
        assert obs.detected_phase == "collective"
        assert obs.corrupted_checkpoint  # the victim's file stayed PARTIAL

    def test_abort_leaves_checkpoint_damage(self):
        """"...always resulting in an incomplete or corrupted checkpoint,
        or ... partially deleted old checkpoints." — provoked by a failure
        landing in the checkpoint write window (slow file system).  A
        compute-phase failure no longer qualifies: posts made after the
        failure notification fail immediately, so the job aborts before
        any checkpoint I/O begins and the store stays untouched."""
        from repro.models.filesystem import FileSystemModel

        system = self._system().scaled(
            filesystem=FileSystemModel.create("1GB/s", "1kB/s", "1ms")
        )
        obs = observe_failure_mode(system, self._workload(), rank=5, time=150.0)
        assert obs.aborted
        assert (
            obs.corrupted_checkpoint
            or obs.incomplete_checkpoint
            or obs.partially_deleted_old
        )

    def test_no_failure_no_damage(self):
        obs = observe_failure_mode(
            self._system(), self._workload(), rank=5, time=10_000_000.0
        )
        assert not obs.aborted
        assert obs.activated is None
        assert obs.detected_phase is None


class TestReports:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_render_table2_with_paper_columns(self):
        cells = [Table2Cell(None, 1000, 5244.0, None, 0, None)]
        out = render_table2(cells)
        assert "paper E1" in out
        assert "5,248 s" in out  # the paper's value shown alongside
        assert "5,244 s" in out

    def test_render_table2_without_comparison(self):
        cells = [Table2Cell(6000.0, 500, 5251.0, 7882.0, 1, 3941.0)]
        out = render_table2(cells, compare_paper=False)
        assert "paper" not in out


class TestTable2Pinned:
    """The 512-rank Table II that EXPERIMENTS.md reports, pinned bit for
    bit (``float.hex``): any change to the event core, the MPI layer, the
    timing models or the restart loop that moves a virtual-time result
    shows up here first."""

    #: (mttf, interval) -> (E1, E2, F, MTTF_a) at seed 0.
    EXPECTED = {
        (None, 1000): ("0x1.48040691ea5ccp+12", None, 0, None),
        (6000.0, 500): (
            "0x1.482eea4ebda93p+12", "0x1.ec067f023e749p+12", 1,
            "0x1.ec067f023e749p+11",
        ),
        (6000.0, 250): (
            "0x1.4884b1c864527p+12", "0x1.9a70c15d2ccbdp+12", 1,
            "0x1.9a70c15d2ccbdp+11",
        ),
        (6000.0, 125): (
            "0x1.493040bbb1a49p+12", "0x1.72268dc11df4fp+12", 1,
            "0x1.72268dc11df4fp+11",
        ),
        (3000.0, 500): (
            "0x1.482eea4ebda93p+12", "0x1.483f0f2d7f7ffp+13", 2,
            "0x1.b5a96991ff554p+11",
        ),
        (3000.0, 250): (
            "0x1.4884b1c864527p+12", "0x1.ec5cd0f1f5452p+12", 2,
            "0x1.483de0a14e2e1p+11",
        ),
        (3000.0, 125): (
            "0x1.493040bbb1a49p+12", "0x1.9b1cdac68a356p+12", 2,
            "0x1.12133c845c239p+11",
        ),
    }

    def test_512_rank_table_is_bit_identical(self):
        from repro.core.harness.experiment import run_table2

        hexed = lambda v: None if v is None else v.hex()  # noqa: E731
        cells = run_table2(Table2Config(nranks=512, jobs=2))
        got = {
            (c.mttf, c.interval): (hexed(c.e1), hexed(c.e2), c.f, hexed(c.mttf_a))
            for c in cells
        }
        assert got == self.EXPECTED
