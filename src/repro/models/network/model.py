"""Communication cost model of the simulated machine.

Combines a :class:`~repro.models.network.topology.Topology` with per-tier
link parameters into the quantities the simulated MPI layer needs:

* message transfer time (per-hop latency + payload/bandwidth, optionally
  scaled by a congestion factor),
* the eager/rendezvous protocol decision (the paper sets "the simulated
  eager communication threshold ... to 256 kB, i.e., MPI payloads above
  256 kB utilize the simulated rendezvous protocol"),
* per-message software overheads paid on the (slowed-down) simulated node's
  CPU for sending and receiving — these serialize message processing at a
  rank, which is what makes linear-algorithm collectives expensive at
  32,768 ranks, and
* the per-tier failure-detection timeout ("each simulated network, such as
  the on-chip, on-node, and system-wide network, has its own network
  communication timeout simulated based on assumptions of the architectural
  features of the simulated HPC system").

Ranks are mapped onto compute nodes block-wise (``node = rank //
ranks_per_node``); the paper places one rank per node because an MPI+X
programming model is assumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.models.network.topology import Topology, _GridTopology
from repro.util.errors import ConfigurationError
from repro.util.units import parse_rate, parse_size, parse_time


class NetworkTier(enum.Enum):
    """Which simulated network a message crosses."""

    ON_CHIP = "on-chip"
    ON_NODE = "on-node"
    SYSTEM = "system"


@dataclass(frozen=True)
class TierParams:
    """Link parameters of one network tier.

    ``latency`` is per hop for the system tier and end-to-end for the
    intra-node tiers (which have no routed hops).
    """

    latency: float
    bandwidth: float
    detection_timeout: float

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0 or self.detection_timeout < 0:
            raise ConfigurationError(f"invalid tier parameters {self!r}")


class NetworkModel:
    """Cost model answering the simulated MPI layer's timing questions.

    Parameters accept the human-readable unit strings from
    :mod:`repro.util.units` (``"1us"``, ``"32GB/s"``, ``"256kB"``).

    Parameters
    ----------
    topology:
        Compute-node interconnect (hop counts for the system tier).
    latency, bandwidth:
        System-tier per-hop link latency and link bandwidth.
    eager_threshold:
        Payloads strictly above this use the rendezvous protocol.
    send_overhead, recv_overhead:
        Per-message software overhead in *simulated* seconds, i.e. already
        scaled by the node slowdown.  These advance the sender's/receiver's
        virtual clock per message and therefore serialize message
        processing at a rank.
    detection_timeout:
        System-tier failure-detection timeout: a rank blocked on
        communication with a failed peer detects the failure this long
        after the (later of) the failure and the start of its wait.
    ranks_per_node, chips_per_node:
        Rank placement; intra-node traffic uses the on-node (or on-chip)
        tier instead of the routed system network.
    on_node, on_chip:
        Tier parameter overrides; defaults are derived from the system tier
        (10x lower latency / 4x higher bandwidth on-node, 100x / 16x
        on-chip) and only matter when ``ranks_per_node > 1``.
    congestion_factor:
        Multiplier (>= 1) applied to payload transfer times, a coarse knob
        for modeling background congestion in ablation studies.

    The cost methods ``tier(src, dst)``, ``hops(src, dst)``,
    ``wire_latency(src, dst)``, ``transfer_time(nbytes, src, dst)``,
    ``serialization_time(nbytes, src, dst)`` and
    ``detection_timeout(src, dst)`` are closures bound per instance by
    :meth:`_install_caches`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        latency: float | str = "1us",
        bandwidth: float | str = "32GB/s",
        eager_threshold: int | str = "256kB",
        send_overhead: float | str = 0.0,
        recv_overhead: float | str = 0.0,
        detection_timeout: float | str = "10s",
        ranks_per_node: int = 1,
        chips_per_node: int = 1,
        on_node: TierParams | None = None,
        on_chip: TierParams | None = None,
        congestion_factor: float = 1.0,
    ):
        if ranks_per_node < 1 or chips_per_node < 1:
            raise ConfigurationError("ranks_per_node and chips_per_node must be >= 1")
        if ranks_per_node % chips_per_node != 0:
            raise ConfigurationError(
                f"ranks_per_node ({ranks_per_node}) must be divisible by "
                f"chips_per_node ({chips_per_node})"
            )
        if congestion_factor < 1.0:
            raise ConfigurationError(f"congestion_factor must be >= 1, got {congestion_factor}")
        self.topology = topology
        lat = parse_time(latency)
        bw = parse_rate(bandwidth)
        timeout = parse_time(detection_timeout)
        self.system = TierParams(latency=lat, bandwidth=bw, detection_timeout=timeout)
        self.on_node = on_node or TierParams(
            latency=lat / 10.0, bandwidth=bw * 4.0, detection_timeout=timeout / 10.0
        )
        self.on_chip = on_chip or TierParams(
            latency=lat / 100.0, bandwidth=bw * 16.0, detection_timeout=timeout / 100.0
        )
        self.eager_threshold = parse_size(eager_threshold)
        self.send_overhead = parse_time(send_overhead)
        self.recv_overhead = parse_time(recv_overhead)
        self.ranks_per_node = ranks_per_node
        self.chips_per_node = chips_per_node
        self.ranks_per_chip = ranks_per_node // chips_per_node
        self.congestion_factor = congestion_factor
        self._install_caches()

    #: Entries of the one memo kept on :meth:`transfer_time` (see
    #: :meth:`_install_caches`).
    TRANSFER_CACHE_SIZE = 1 << 16

    def _install_caches(self) -> None:
        """Bind the cost methods as closed-form closures.

        ``tier``, ``hops``, ``wire_latency``, ``transfer_time``,
        ``serialization_time`` and ``detection_timeout`` are instance
        attributes set here, not class methods.  Each closure captures the
        cost inputs (tier parameters, placement, congestion, topology) as
        plain values, so a cost query is one Python call.  On grid
        topologies the hop count is the wrapped per-axis distance computed
        inline from the ``(stride, dim)`` pairs; other topologies answer
        through their own :meth:`Topology.hops`.  Every method raises
        :class:`ConfigurationError` for a rank outside the machine.

        The closures never reference ``self``: a function stored on the
        instance that refers back to it forms a cycle only a cyclic gc
        pass can free, and the engine disables gc during runs while
        campaigns build one model per task.  A dropped model therefore
        frees by reference count alone.

        ``transfer_time`` keeps a bounded ``lru_cache``; its
        ``cache_info()`` is the hit ratio the benchmark's tracer reports.
        The inputs are read once, here: mutating cost parameters
        afterwards (tests only) requires calling :meth:`invalidate_caches`.
        """
        topology = self.topology
        nranks = self.max_ranks()
        rpn = self.ranks_per_node
        rpc = self.ranks_per_chip
        congestion = self.congestion_factor
        # Per-tier values indexed by level: 0 system, 1 on-node, 2 on-chip.
        tiers = (NetworkTier.SYSTEM, NetworkTier.ON_NODE, NetworkTier.ON_CHIP)
        params = (self.system, self.on_node, self.on_chip)
        latencies = tuple(p.latency for p in params)
        bandwidths = tuple(p.bandwidth for p in params)
        timeouts = tuple(p.detection_timeout for p in params)
        sys_lat, node_lat, chip_lat = latencies
        sys_bw, node_bw, chip_bw = bandwidths

        if isinstance(topology, _GridTopology):
            axes = tuple(zip(topology._strides, topology.dims))
            wrap = topology.wrap

            def node_hops(a: int, b: int) -> int:
                total = 0
                for stride, dim in axes:
                    d = (a // stride) % dim - (b // stride) % dim
                    if d < 0:
                        d = -d
                    if wrap and dim - d < d:
                        d = dim - d
                    total += d
                return total

        else:
            node_hops = topology.hops

        def outside(src: int, dst: int) -> None:
            raise ConfigurationError(
                f"rank pair ({src}, {dst}) outside the machine's {nranks} ranks"
            )

        def level(src: int, dst: int) -> int:
            if not (0 <= src < nranks and 0 <= dst < nranks):
                outside(src, dst)
            if src // rpn != dst // rpn:
                return 0
            return 2 if src // rpc == dst // rpc else 1

        def tier(src: int, dst: int) -> NetworkTier:
            """Which network a ``src -> dst`` message crosses."""
            return tiers[level(src, dst)]

        def hops(src: int, dst: int) -> int:
            """Routed system-network hops between the ranks' nodes (0
            intra-node)."""
            if level(src, dst):
                return 0
            return node_hops(src // rpn, dst // rpn)

        def wire_latency(src: int, dst: int) -> float:
            """End-to-end latency of a minimal (zero-payload) packet."""
            i = level(src, dst)
            if i:
                return latencies[i]
            return sys_lat * max(1, node_hops(src // rpn, dst // rpn))

        def transfer_time(nbytes: int, src: int, dst: int) -> float:
            """Wire time of a ``nbytes`` payload from ``src`` to ``dst``
            (latency plus serialization, excluding CPU software
            overheads)."""
            if nbytes < 0:
                raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
            if not (0 <= src < nranks and 0 <= dst < nranks):
                outside(src, dst)
            a = src // rpn
            b = dst // rpn
            if a != b:
                return sys_lat * max(1, node_hops(a, b)) + congestion * nbytes / sys_bw
            if src // rpc == dst // rpc:
                return chip_lat + congestion * nbytes / chip_bw
            return node_lat + congestion * nbytes / node_bw

        def serialization_time(nbytes: int, src: int, dst: int) -> float:
            """Time the payload occupies the sender's injection link
            (transfer time minus the wire latency) — what a rendezvous
            sender pays after the clear-to-send arrives."""
            if nbytes < 0:
                raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
            return congestion * nbytes / bandwidths[level(src, dst)]

        def detection_timeout(src: int, dst: int) -> float:
            """Failure-detection timeout of the tier a ``src <-> dst``
            communication uses."""
            return timeouts[level(src, dst)]

        self.tier = tier
        self.hops = hops
        self.wire_latency = wire_latency
        self.transfer_time = lru_cache(maxsize=self.TRANSFER_CACHE_SIZE)(transfer_time)
        self.serialization_time = serialization_time
        self.detection_timeout = detection_timeout

    def invalidate_caches(self) -> None:
        """Re-read the cost parameters (after mutating them) and drop the
        memoized transfer times."""
        self._install_caches()

    # ------------------------------------------------------------------
    # placement and protocol
    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Compute node hosting ``rank`` (block placement)."""
        return rank // self.ranks_per_node

    def max_ranks(self) -> int:
        """Largest rank count this model's machine can host."""
        return self.topology.nnodes * self.ranks_per_node

    def is_eager(self, nbytes: int) -> bool:
        """True when ``nbytes`` is sent with the eager protocol."""
        return nbytes <= self.eager_threshold
