"""Communication cost model (repro.models.network.model)."""

import pytest

from repro.models.network.model import NetworkModel, NetworkTier, TierParams
from repro.models.network.topology import CrossbarTopology, TorusTopology
from repro.util.errors import ConfigurationError


def paper_net(**kw):
    return NetworkModel(TorusTopology((32, 32, 32)), **kw)


class TestProtocolSelection:
    def test_paper_eager_threshold(self):
        net = paper_net()
        assert net.eager_threshold == 256_000
        assert net.is_eager(256_000)
        assert not net.is_eager(256_001)

    def test_zero_bytes_eager(self):
        assert paper_net().is_eager(0)


class TestTiming:
    def test_one_hop_latency(self):
        net = paper_net()
        # nodes 0 and 1 are adjacent in the torus
        assert net.wire_latency(0, 1) == pytest.approx(1e-6)

    def test_multi_hop_latency_scales(self):
        net = paper_net()
        hops = net.hops(0, 2)
        assert hops == 2
        assert net.wire_latency(0, 2) == pytest.approx(2e-6)

    def test_transfer_time_includes_bandwidth(self):
        net = paper_net()
        t = net.transfer_time(32_000_000_000, 0, 1)  # 32 GB at 32 GB/s
        assert t == pytest.approx(1.0 + 1e-6)

    def test_serialization_time_excludes_latency(self):
        net = paper_net()
        assert net.serialization_time(32_000_000_000, 0, 1) == pytest.approx(1.0)

    def test_congestion_factor_scales_payload_only(self):
        net = paper_net(congestion_factor=2.0)
        t = net.transfer_time(32_000_000_000, 0, 1)
        assert t == pytest.approx(2.0 + 1e-6)

    def test_congestion_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_net(congestion_factor=0.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_net().transfer_time(-1, 0, 1)

    def test_overheads_parse_units(self):
        net = paper_net(send_overhead="2.6ms", recv_overhead="1ms")
        assert net.send_overhead == pytest.approx(2.6e-3)
        assert net.recv_overhead == pytest.approx(1e-3)


class TestPlacementAndTiers:
    def test_paper_one_rank_per_node(self):
        net = paper_net()
        assert net.node_of(5) == 5
        assert net.max_ranks() == 32768
        assert net.tier(0, 1) is NetworkTier.SYSTEM

    def test_multi_rank_placement(self):
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=4, chips_per_node=2)
        assert net.node_of(3) == 0
        assert net.node_of(4) == 1
        assert net.tier(0, 1) is NetworkTier.ON_CHIP
        assert net.tier(0, 2) is NetworkTier.ON_NODE
        assert net.tier(0, 4) is NetworkTier.SYSTEM

    def test_intra_node_zero_hops(self):
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=2)
        assert net.hops(0, 1) == 0

    def test_intra_node_faster_than_system(self):
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=2)
        assert net.transfer_time(1024, 0, 1) < net.transfer_time(1024, 0, 2)

    def test_per_tier_detection_timeouts(self):
        """Paper: each simulated network (on-chip, on-node, system) has its
        own communication timeout."""
        net = NetworkModel(
            TorusTopology((2, 2)), ranks_per_node=4, chips_per_node=2, detection_timeout="10s"
        )
        assert net.detection_timeout(0, 4) == pytest.approx(10.0)
        assert net.detection_timeout(0, 2) == pytest.approx(1.0)
        assert net.detection_timeout(0, 1) == pytest.approx(0.1)

    def test_tier_override(self):
        custom = TierParams(latency=5e-9, bandwidth=1e12, detection_timeout=0.5)
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=2, on_chip=custom, chips_per_node=1)
        assert net.detection_timeout(0, 1) == pytest.approx(0.5)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(TorusTopology((2,)), ranks_per_node=0)
        with pytest.raises(ConfigurationError):
            NetworkModel(TorusTopology((2,)), ranks_per_node=3, chips_per_node=2)

    def test_crossbar_single_hop_everywhere(self):
        net = NetworkModel(CrossbarTopology(16))
        assert net.wire_latency(0, 15) == pytest.approx(1e-6)


class TestTierParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TierParams(latency=-1.0, bandwidth=1.0, detection_timeout=1.0)
        with pytest.raises(ConfigurationError):
            TierParams(latency=1.0, bandwidth=0.0, detection_timeout=1.0)
        with pytest.raises(ConfigurationError):
            TierParams(latency=1.0, bandwidth=1.0, detection_timeout=-0.1)


class TestPerInstanceCaches:
    """The memoized cost methods must not keep the model alive.

    ``lru_cache`` around a *bound* method stored back onto the instance
    forms an instance -> cache -> bound-method -> instance cycle that only
    a cyclic gc pass can break; the engine disables gc during runs, so a
    campaign constructing one model per task used to ramp memory without
    bound.  The installed cost closures capture parameter values, never
    the instance.
    """

    def test_model_collected_without_cyclic_gc(self):
        import gc
        import weakref

        gc.disable()
        try:
            net = NetworkModel(TorusTopology((4, 4)), ranks_per_node=2)
            # Populate every cache so held entries would pin the cycle.
            net.tier(0, 9)
            net.hops(0, 9)
            net.wire_latency(0, 9)
            net.transfer_time(4096, 0, 9)
            net.serialization_time(4096, 0, 9)
            net.detection_timeout(0, 9)
            ref = weakref.ref(net)
            del net
            assert ref() is None, "NetworkModel kept alive by its own caches"
        finally:
            gc.enable()

    def test_campaign_scale_no_leak(self):
        import gc
        import weakref

        gc.disable()
        try:
            refs = []
            for _ in range(50):
                net = NetworkModel(TorusTopology((8, 8)), ranks_per_node=1)
                for dst in range(1, 32):
                    net.transfer_time(1024, 0, dst)
                refs.append(weakref.ref(net))
                del net
            assert sum(1 for r in refs if r() is not None) == 0
        finally:
            gc.enable()

    def test_invalidate_caches_picks_up_mutation(self):
        net = paper_net()
        before = net.transfer_time(1 << 20, 0, 1)
        net.congestion_factor = 2.0
        assert net.transfer_time(1 << 20, 0, 1) == pytest.approx(before)  # stale
        net.invalidate_caches()
        assert net.transfer_time(1 << 20, 0, 1) > before


class TestTracerContract:
    """The benchmark's tracer wraps ``NetworkModel._install_caches`` from
    outside the library and reads the installed ``transfer_time``'s
    ``cache_info()`` for the hit ratio it reports."""

    def test_install_hook_is_a_class_attribute(self):
        assert callable(NetworkModel.__dict__["_install_caches"])

    def test_wrapped_install_sees_every_model(self, monkeypatch):
        install = NetworkModel.__dict__["_install_caches"]
        calls = []

        def traced_install(self):
            install(self)
            lru = self.__dict__["transfer_time"]

            def timed(*args):
                calls.append(args)
                return lru(*args)

            timed.lru = lru
            self.transfer_time = timed

        monkeypatch.setattr(NetworkModel, "_install_caches", traced_install)
        net = paper_net()
        net.transfer_time(64, 0, 1)
        net.transfer_time(64, 0, 1)
        assert calls == [(64, 0, 1), (64, 0, 1)]
        assert net.transfer_time.lru.cache_info().hits == 1

    def test_transfer_time_cache_counts_hits(self):
        net = paper_net()
        before = net.transfer_time.cache_info()
        assert (before.hits, before.misses) == (0, 0)
        first = net.transfer_time(4096, 0, 500)
        assert net.transfer_time(4096, 0, 500) == first
        net.transfer_time(4096, 0, 501)
        info = net.transfer_time.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        assert info.maxsize == NetworkModel.TRANSFER_CACHE_SIZE
