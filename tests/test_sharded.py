"""The sharded conservative-parallel engine: parity, guards, plumbing.

The engine's contract (``repro.pdes.sharded``) is *observational
equivalence with the serial engine* under the paper's timing model: for
any shard count and any lookahead within the derived safe bound, a
sharded run produces the same per-rank event sequences, the same result
digest, and the same resilience behavior (failure broadcast, detection,
abort) as ``shards=1``.  ``xsim-run simcheck`` verifies one 64-rank
configuration; this module sweeps the parameter space with Hypothesis
and exercises the integration seams (restart driver, tree collectives,
sentinel pickling).
"""

import math
import multiprocessing.process
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import result_digest
from repro.core.restart import RestartDriver
from repro.core.simulator import XSim
from repro.mpi.errhandler import ERRORS_ARE_FATAL, ERRORS_RETURN
from repro.pdes.sharded import (
    derive_lookahead,
    derive_lookahead_matrix,
    partition_ranks,
    partition_ranks_topology,
)
from repro.run import Scenario, run_scenario
from repro.util.errors import ConfigurationError

NRANKS = 16
ITERATIONS = 12
INTERVAL = 5

def paper_network(nranks, **overrides):
    """The NetworkModel of a paper system (optionally reconfigured)."""
    return XSim(SystemConfig.paper_system(nranks=nranks, **overrides)).world.network


def build_sim(nranks=NRANKS, collective="linear", **xsim_kwargs):
    system = SystemConfig.paper_system(nranks=nranks, collective_algorithm=collective)
    workload = HeatConfig.paper_workload(
        checkpoint_interval=INTERVAL, nranks=nranks, iterations=ITERATIONS
    )
    return XSim(system, **xsim_kwargs), workload


def run_heat(
    nranks=NRANKS,
    failure=None,
    collective="linear",
    la_frac=None,
    **xsim_kwargs,
):
    """One paper-timing heat3d run; returns ``(sim, result)``.

    ``la_frac`` scales the shard lookahead to a fraction of the derived
    safe bound (requires ``shards`` in ``xsim_kwargs``).
    """
    sim, workload = build_sim(nranks=nranks, collective=collective, **xsim_kwargs)
    if la_frac is not None:
        parts = partition_ranks(nranks, xsim_kwargs["shards"])
        sim.shard_lookahead = la_frac * derive_lookahead(sim.world.network, parts)
    if failure is not None:
        sim.inject_failure(*failure)
    result = sim.run(heat3d, args=(workload, CheckpointStore()))
    return sim, result


@pytest.fixture(scope="module")
def failure_point():
    """A mid-run (rank, time) failure measured off the clean exit time."""
    _, clean = run_heat()
    return (NRANKS // 3, 0.4 * clean.exit_time)


@pytest.fixture(scope="module")
def serial_digests(failure_point):
    """Serial reference digests, computed once: {with_failure: digest}."""
    return {
        False: result_digest(run_heat()[1]),
        True: result_digest(run_heat(failure=failure_point)[1]),
    }


class TestPartition:
    def test_covers_all_ranks_contiguously(self):
        for nshards in (1, 2, 3, 4, 7):
            parts = partition_ranks(64, nshards)
            assert len(parts) == nshards
            flat = [r for part in parts for r in part]
            assert flat == list(range(64))

    def test_balanced_within_one(self):
        for nranks, nshards in ((64, 4), (65, 4), (10, 3)):
            sizes = [len(p) for p in partition_ranks(nranks, nshards)]
            assert sum(sizes) == nranks
            assert max(sizes) - min(sizes) <= 1

    def test_lookahead_bounded_by_cross_shard_latency(self):
        sim, _ = build_sim()
        parts = partition_ranks(NRANKS, 4)
        la = derive_lookahead(sim.world.network, parts)
        assert la > 0.0
        # No cross-shard pair may be reachable faster than the lookahead.
        net = sim.world.network
        for k, part in enumerate(parts):
            for other in parts[k + 1 :]:
                for src in part:
                    for dst in other:
                        assert net.wire_latency(src, dst) >= la


class TestLookaheadMatrix:
    """The per-shard-pair lookahead matrix: safety and window economy.

    ``derive_lookahead_matrix`` must dominate the global bound (every
    entry is a *wider* window than ``derive_lookahead`` would grant),
    stay symmetric, satisfy the triangle inequality (a reaction relayed
    through a third shard is still covered), and — run against the same
    workload — never need *more* coordination windows than the uniform
    global scheme while keeping digests bit-identical.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        nranks=st.integers(min_value=8, max_value=96),
        nshards=st.integers(min_value=2, max_value=6),
        rpn=st.sampled_from([1, 2, 4]),
    )
    def test_dominates_global_bound_symmetric_triangular(self, nranks, nshards, rpn):
        network = paper_network(nranks, ranks_per_node=rpn)
        parts = partition_ranks(nranks, nshards)
        if len(parts) < 2:
            return
        la = derive_lookahead(network, parts)
        matrix = derive_lookahead_matrix(network, parts)
        n = len(parts)
        for j in range(n):
            assert math.isinf(matrix[j][j])
            for k in range(n):
                if j == k:
                    continue
                assert matrix[j][k] >= la
                assert matrix[j][k] == matrix[k][j]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        assert matrix[i][k] <= matrix[i][j] + matrix[j][k] + 1e-15

    def test_distant_shards_get_wider_windows(self):
        """On a torus the matrix is genuinely non-uniform: some pair's
        bound exceeds the global minimum (that is the whole point)."""
        network = paper_network(64)
        parts = partition_ranks(64, 4)
        matrix = derive_lookahead_matrix(network, parts)
        la = derive_lookahead(network, parts)
        off = [matrix[j][k] for j in range(4) for k in range(4) if j != k]
        assert min(off) == pytest.approx(la)
        assert max(off) > la

    def test_matrix_never_needs_more_windows_than_global(self):
        """Same run, matrix windows vs the uniform-global override."""
        sim_m, res_m = run_heat(nranks=64, shards=4)
        sim_g, res_g = run_heat(nranks=64, shards=4, la_frac=1.0)
        assert result_digest(res_m) == result_digest(res_g)
        assert sim_m.shard_stats.windows <= sim_g.shard_stats.windows
        assert sim_m.shard_stats.lookahead_max > sim_m.shard_stats.lookahead
        # The override collapses the matrix to the uniform global bound.
        assert sim_g.shard_stats.lookahead_max == sim_g.shard_stats.lookahead

    @pytest.mark.parametrize("scheme", ["matrix", "global"])
    def test_digest_parity_across_schemes(self, serial_digests, scheme):
        _, res = run_heat(shards=3, la_frac=1.0 if scheme == "global" else None)
        assert result_digest(res) == serial_digests[False]


class TestTopologyPartition:
    """Topology-aware shard cuts: contiguity, balance, wire awareness."""

    def test_contiguous_and_covering(self):
        network = paper_network(64)
        for nshards in (2, 3, 4, 7):
            parts = partition_ranks_topology(64, nshards, network)
            assert len(parts) == nshards
            assert [r for part in parts for r in part] == list(range(64))

    def test_balance_bounded_by_slack(self):
        for nranks, nshards in ((64, 4), (65, 4), (96, 5)):
            network = paper_network(nranks)
            parts = partition_ranks_topology(nranks, nshards, network)
            base = nranks // nshards
            width = int(base * 0.125)
            sizes = [len(p) for p in parts]
            assert sum(sizes) == nranks
            assert max(sizes) - min(sizes) <= 1 + 2 * width

    def test_cuts_land_on_node_boundaries(self):
        """With several ranks per node, splitting a node across shards
        costs more than any link cut — boundaries snap to node edges."""
        network = paper_network(64, ranks_per_node=4)
        parts = partition_ranks_topology(64, 4, network)
        for part in parts[1:]:
            assert part[0] % 4 == 0

    def test_featureless_topology_keeps_equal_split(self):
        network = paper_network(64, topology_kind="crossbar")
        assert partition_ranks_topology(64, 4, network) == partition_ranks(64, 4)

    def test_parity_with_packed_nodes(self):
        """Node-aligned cuts + per-pair lookahead on a multi-rank-per-node
        machine still reproduce the serial digest."""

        def run(**kw):
            system = SystemConfig.paper_system(nranks=32, ranks_per_node=4)
            workload = HeatConfig.paper_workload(
                checkpoint_interval=INTERVAL, nranks=32, iterations=ITERATIONS
            )
            sim = XSim(system, **kw)
            return sim.run(heat3d, args=(workload, CheckpointStore()))

        serial = run()
        sharded = run(shards=4)
        assert result_digest(sharded) == result_digest(serial)


class TestOneProcess:
    """A sharded run starts no process: every shard runs in the caller."""

    @pytest.fixture
    def no_processes(self, monkeypatch):
        # BaseProcess is the base of every multiprocessing Process class,
        # whatever the start method.
        def refuse(self):
            raise AssertionError("a sharded run started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

    def test_heat_with_failure(self, no_processes, serial_digests, failure_point):
        _, res = run_heat(failure=failure_point, shards=3)
        assert result_digest(res) == serial_digests[True]

    def test_scenario_restart_mode(self, no_processes):
        base = Scenario(ranks=8, iterations=40, interval=10, failures="3@50s")
        serial = run_scenario(base, cache=False)
        sharded = run_scenario(base.with_(shards=2), cache=False)
        assert sharded.mode == "restart" and sharded.completed
        assert sharded.metadata == {"nshards": 2}
        assert sharded.digest() == serial.digest()


class TestParityProperty:
    """Any shard count x any safe lookahead x clean/failure == serial."""

    @settings(max_examples=8, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=5),
        la_frac=st.floats(min_value=0.05, max_value=1.0),
        with_failure=st.booleans(),
    )
    def test_digest_matches_serial(
        self, serial_digests, failure_point, shards, la_frac, with_failure
    ):
        _, res = run_heat(
            failure=failure_point if with_failure else None,
            shards=shards,
            la_frac=la_frac,
        )
        assert result_digest(res) == serial_digests[with_failure]

    def test_rank_traces_match_serial_with_failure(self, failure_point):
        serial_sim, serial = run_heat(failure=failure_point, record_events=True)
        sharded_sim, sharded = run_heat(
            failure=failure_point,
            shards=4,
            record_events=True,
        )
        assert serial_sim.event_trace.diff_ranks(sharded_sim.event_trace) is None
        assert sharded.event_count == serial.event_count

    def test_tree_collectives_parity(self):
        """The bench scenario (tree collectives) holds parity too."""
        _, serial = run_heat(collective="tree")
        _, sharded = run_heat(collective="tree", shards=4)
        assert result_digest(sharded) == result_digest(serial)
        assert sharded.event_count == serial.event_count


class TestRestartCycleParity:
    """Failure -> abort -> restart-from-checkpoint, serial vs sharded."""

    def test_driver_segments_match_serial(self, failure_point):
        def driver(**kw):
            system = SystemConfig.paper_system(nranks=NRANKS)
            workload = HeatConfig.paper_workload(
                checkpoint_interval=INTERVAL, nranks=NRANKS, iterations=ITERATIONS
            )
            return RestartDriver(
                system,
                heat3d,
                make_args=lambda store: (workload, store),
                schedule=FailureSchedule.of(failure_point),
                **kw,
            )

        serial = driver().run()
        sharded = driver(shards=4).run()
        assert serial.restarts == 1  # the failure really forced a cycle
        assert sharded.completed == serial.completed
        assert sharded.restarts == serial.restarts
        assert sharded.f == serial.f
        assert sharded.e2 == serial.e2
        assert [result_digest(s.result) for s in sharded.segments] == [
            result_digest(s.result) for s in serial.segments
        ]


class TestGuards:
    def test_analytic_collectives_rejected(self):
        with pytest.raises(ConfigurationError, match="analytic"):
            run_heat(collective="analytic", shards=2)

    def test_comm_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="record_trace"):
            run_heat(shards=2, record_trace=True)

    def test_soft_errors_rejected(self):
        sim, workload = build_sim(shards=2)
        sim.soft_errors  # instantiating the injector is the opt-in
        with pytest.raises(ConfigurationError, match="soft-error"):
            sim.run(heat3d, args=(workload, CheckpointStore()))

    @pytest.mark.parametrize("bad_frac", [0.0, -1.0, 1.5])
    def test_lookahead_override_bounds(self, bad_frac):
        with pytest.raises(ConfigurationError, match="lookahead override"):
            run_heat(shards=2, la_frac=bad_frac)

    def test_unknown_transport_rejected(self):
        # The transport selector is retired: every value, the former
        # choices included, is rejected rather than silently ignored.
        for transport in ("fork", "inline", "smoke-signals"):
            with pytest.raises(ConfigurationError, match="shard_transport"):
                Scenario.resolve(
                    use_environment=False, shards=2, shard_transport=transport
                )
        with pytest.raises(TypeError, match="shard_transport"):
            run_heat(shards=2, shard_transport="inline")


class TestForkPickling:
    """Result-cache payloads and the campaign ``-j`` pool pickle
    errhandler sentinels; unpickling must return the same objects."""

    def test_errhandler_sentinels_keep_identity(self):
        for sentinel in (ERRORS_ARE_FATAL, ERRORS_RETURN):
            assert pickle.loads(pickle.dumps(sentinel)) is sentinel

