"""Closed-form network costs against a brute-force reference.

:class:`NetworkModel` answers its cost queries with closures bound at
construction (an inline wrapped per-axis distance on grids).  Hypothesis
checks every cost method against a per-axis reference written from the
definitions — coordinates by repeated division, tiers from the block
placement, tier parameters from the documented derivations — for exact
float equality, on every topology kind and placement.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.network.model import NetworkModel, NetworkTier
from repro.models.network.topology import (
    CrossbarTopology,
    FatTreeTopology,
    MeshTopology,
    StarTopology,
    TorusTopology,
)
from repro.util.errors import ConfigurationError

LATENCY, BANDWIDTH, TIMEOUT = 1e-6, 32e9, 10.0
#: Valid (ranks_per_node, chips_per_node) placements.
PLACEMENTS = [(1, 1), (4, 1), (4, 2)]


def _coords(node: int, dims: tuple[int, ...]) -> list[int]:
    out = []
    for dim in reversed(dims):
        out.append(node % dim)
        node //= dim
    return out[::-1]


def reference_node_hops(topology, a: int, b: int) -> int:
    """Minimal-route hops between nodes ``a`` and ``b``, from definitions."""
    if a == b:
        return 0
    if isinstance(topology, (TorusTopology, MeshTopology)):
        total = 0
        for ca, cb, dim in zip(_coords(a, topology.dims), _coords(b, topology.dims), topology.dims):
            d = abs(ca - cb)
            if isinstance(topology, TorusTopology):
                d = min(d, dim - d)
            total += d
        return total
    if isinstance(topology, FatTreeTopology):
        digits = []
        for node in (a, b):
            ds = []
            for _ in range(topology.levels):
                ds.append(node % topology.arity)
                node //= topology.arity
            digits.append(ds[::-1])
        common = 0
        while digits[0][common] == digits[1][common]:
            common += 1
        return 2 * (topology.levels - common)
    if isinstance(topology, StarTopology):
        return 2
    assert isinstance(topology, CrossbarTopology)
    return 1


def reference_costs(topology, rpn: int, cpn: int, congestion: float, nbytes: int, src: int, dst: int):
    """(tier, hops, wire_latency, transfer_time, serialization_time,
    detection_timeout) of one message, from the model's definitions."""
    rpc = rpn // cpn
    if src // rpn != dst // rpn:
        tier, lat, bw, timeout = NetworkTier.SYSTEM, LATENCY, BANDWIDTH, TIMEOUT
        hops = reference_node_hops(topology, src // rpn, dst // rpn)
        wire = lat * max(1, hops)
    else:
        hops = 0
        if src // rpc == dst // rpc:
            tier, lat, bw, timeout = (
                NetworkTier.ON_CHIP, LATENCY / 100.0, BANDWIDTH * 16.0, TIMEOUT / 100.0
            )
        else:
            tier, lat, bw, timeout = (
                NetworkTier.ON_NODE, LATENCY / 10.0, BANDWIDTH * 4.0, TIMEOUT / 10.0
            )
        wire = lat
    serialization = congestion * nbytes / bw
    return tier, hops, wire, wire + serialization, serialization, timeout


def _model(topology, rpn, cpn, congestion=1.0):
    return NetworkModel(
        topology,
        latency=LATENCY,
        bandwidth=BANDWIDTH,
        detection_timeout=TIMEOUT,
        ranks_per_node=rpn,
        chips_per_node=cpn,
        congestion_factor=congestion,
    )


def _observed(net, nbytes, src, dst):
    return (
        net.tier(src, dst),
        net.hops(src, dst),
        net.wire_latency(src, dst),
        net.transfer_time(nbytes, src, dst),
        net.serialization_time(nbytes, src, dst),
        net.detection_timeout(src, dst),
    )


grid_dims = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)
topologies = st.one_of(
    grid_dims.map(TorusTopology),
    grid_dims.map(MeshTopology),
    st.builds(FatTreeTopology, arity=st.integers(2, 4), levels=st.integers(1, 3)),
    st.builds(StarTopology, st.integers(1, 20)),
    st.builds(CrossbarTopology, st.integers(1, 20)),
)
sizes = st.one_of(st.sampled_from([0, 1, 1536, 256_000, 256_001]), st.integers(0, 1 << 30))
congestions = st.sampled_from([1.0, 1.5, 3.0])


@given(
    topology=topologies,
    placement=st.sampled_from(PLACEMENTS),
    congestion=congestions,
    nbytes=sizes,
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_costs_equal_reference(topology, placement, congestion, nbytes, data):
    rpn, cpn = placement
    net = _model(topology, rpn, cpn, congestion)
    nranks = net.max_ranks()
    src = data.draw(st.integers(0, nranks - 1))
    dst = data.draw(st.integers(0, nranks - 1))
    expected = reference_costs(topology, rpn, cpn, congestion, nbytes, src, dst)
    assert _observed(net, nbytes, src, dst) == expected
    # A second query is answered from the transfer-time memo, unchanged.
    assert _observed(net, nbytes, src, dst) == expected


@given(
    placement=st.sampled_from(PLACEMENTS),
    nbytes=sizes,
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_paper_torus_costs_equal_reference(placement, nbytes, data):
    rpn, cpn = placement
    topology = TorusTopology((32, 32, 32))
    net = _model(topology, rpn, cpn)
    nranks = net.max_ranks()
    src = data.draw(st.integers(0, nranks - 1))
    # Neighbours, far corners and random peers alike.
    dst = data.draw(
        st.one_of(
            st.integers(0, nranks - 1),
            st.sampled_from([(src + k) % nranks for k in (1, rpn, 32 * rpn, 1024 * rpn)]),
            st.just(nranks - 1 - src),
        )
    )
    expected = reference_costs(topology, rpn, cpn, 1.0, nbytes, src, dst)
    assert _observed(net, nbytes, src, dst) == expected


def test_paper_torus_diameter_pair():
    net = _model(TorusTopology((32, 32, 32)), 1, 1)
    far = (16 * 32 + 16) * 32 + 16  # 16 hops on every axis
    assert net.hops(0, far) == 48
    assert net.wire_latency(0, far) == LATENCY * 48


@given(
    topology=topologies,
    placement=st.sampled_from(PLACEMENTS),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_out_of_range_ranks_rejected(topology, placement, data):
    rpn, cpn = placement
    net = _model(topology, rpn, cpn)
    nranks = net.max_ranks()
    bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(nranks, nranks + 2 * rpn)))
    good = data.draw(st.integers(0, nranks - 1))
    pair = data.draw(st.sampled_from([(bad, good), (good, bad), (bad, bad)]))
    for method in ("tier", "hops", "wire_latency", "detection_timeout"):
        with pytest.raises(ConfigurationError):
            getattr(net, method)(*pair)
    for method in ("transfer_time", "serialization_time"):
        with pytest.raises(ConfigurationError):
            getattr(net, method)(64, *pair)


def test_negative_size_rejected_by_both_payload_costs():
    net = _model(TorusTopology((4, 4)), 1, 1)
    for method in (net.transfer_time, net.serialization_time):
        with pytest.raises(ConfigurationError):
            method(-1, 0, 1)
