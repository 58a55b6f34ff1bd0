"""The paper's target application: an iterative 3-D heat-equation solver.

Paper §V-B: "a simple MPI application that iteratively solves the heat
equation of a regular 3D grid.  It decomposes the 3D problem by splitting
it into cubes distributed across the MPI ranks.  Each rank performs the
same total number of iterations, in which each data point is updated using
the values of the surrounding data points.  A halo exchange between
neighboring cubes is performed at a certain iteration interval.  This
structures the application into distinct computation and communication
phases.  A checkpoint is written to disk at a certain iteration interval,
containing the application's configuration and the current iteration's
data.  After writing out a checkpoint, a global barrier synchronizes all
processes, such that the previous checkpoint can be deleted safely.  In
case of a failure, the application can be restarted using the same number
of MPI ranks.  It automatically loads the last checkpoint and automatically
deletes any corrupted checkpoint."

Two data modes:

* ``"modeled"`` (the Table II configuration): computation is modeled
  virtual time (points x calibrated per-point cost on the slowed node) and
  halo/checkpoint payloads are size-only.  This is what lets the simulator
  run the full 512^3-on-32,768-ranks workload.
* ``"real"``: the rank really holds its (ghosted) sub-grid, halo faces are
  real numpy arrays travelling through the simulated messages, checkpoints
  carry the grid, and restarts restore it — validated against
  :func:`heat3d_serial_reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Generator

import numpy as np

from repro.core.checkpoint.protocol import resolve_protocol
from repro.mpi.api import MpiApi
from repro.mpi.constants import PROC_NULL
from repro.util.errors import ConfigurationError

Gen = Generator[Any, Any, Any]

#: Calibrated native cost of one stencil point update on the 1.7 GHz
#: reference core.  Chosen so the paper's workload (4,096 points/rank,
#: 1000x slowdown) computes one iteration in 5.24 simulated seconds,
#: reproducing the Table II baseline E1 of ~5,248 s for 1000 iterations.
NATIVE_SECONDS_PER_POINT = 1.28e-6

#: Tag space: halo messages use 1..6 (one per face direction).
_HALO_TAGS = {(0, -1): 1, (0, +1): 2, (1, -1): 3, (1, +1): 4, (2, -1): 5, (2, +1): 6}


def factor3(n: int) -> tuple[int, int, int]:
    """Factor ``n`` into three near-equal integer factors (exactly)."""
    if n < 1:
        raise ConfigurationError(f"cannot factor {n}")
    best: tuple[int, int, int] | None = None
    a = 1
    for a in range(int(round(n ** (1 / 3))) + 1, 0, -1):
        if n % a:
            continue
        m = n // a
        for b in range(int(math.isqrt(m)), 0, -1):
            if m % b == 0:
                cand = tuple(sorted((a, b, m // b), reverse=True))
                if best is None or max(cand) < max(best):
                    best = cand  # type: ignore[assignment]
                break
        if best is not None and max(best) <= 2 * a:
            break
    assert best is not None
    return best  # type: ignore[return-value]


@dataclass(frozen=True)
class HeatConfig:
    """Workload parameters (paper §V-B: problem size, total iteration
    count, halo exchange interval, checkpoint interval)."""

    grid: tuple[int, int, int] = (512, 512, 512)
    ranks: tuple[int, int, int] = (32, 32, 32)
    iterations: int = 1000
    checkpoint_interval: int = 1000
    #: ``None``: equal to the checkpoint interval ("the halo exchange
    #: interval is set to the checkpoint interval, i.e., a halo exchange
    #: takes place right before a checkpoint").
    exchange_interval: int | None = None
    native_seconds_per_point: float = NATIVE_SECONDS_PER_POINT
    data_mode: str = "modeled"
    #: Diffusion coefficient of the explicit update (real mode); must be
    #: <= 1/6 for stability.
    alpha: float = 0.1
    item_bytes: int = 8
    checkpoint_header_bytes: int = 256

    def __post_init__(self) -> None:
        if self.data_mode not in ("modeled", "real"):
            raise ConfigurationError(f"data_mode must be modeled/real, got {self.data_mode!r}")
        if self.iterations < 1 or self.checkpoint_interval < 1:
            raise ConfigurationError("iterations and checkpoint_interval must be >= 1")
        if self.exchange_interval is not None and self.exchange_interval < 1:
            raise ConfigurationError("exchange_interval must be >= 1")
        for g, p in zip(self.grid, self.ranks):
            if p < 1 or g < p or g % p:
                raise ConfigurationError(
                    f"grid {self.grid} not divisible by rank grid {self.ranks}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def paper_workload(
        cls, checkpoint_interval: int = 1000, nranks: int = 32768, **overrides: Any
    ) -> "HeatConfig":
        """The Table II workload, optionally scaled to ``nranks`` while
        keeping 16^3 = 4,096 points per rank (so per-iteration compute time
        stays at the paper's operating point)."""
        px, py, pz = (32, 32, 32) if nranks == 32768 else factor3(nranks)
        base = cls(
            grid=(16 * px, 16 * py, 16 * pz),
            ranks=(px, py, pz),
            iterations=1000,
            checkpoint_interval=checkpoint_interval,
        )
        return replace(base, **overrides) if overrides else base

    @property
    def nranks(self) -> int:
        return self.ranks[0] * self.ranks[1] * self.ranks[2]

    @cached_property
    def local_shape(self) -> tuple[int, int, int]:
        return tuple(g // p for g, p in zip(self.grid, self.ranks))  # type: ignore[return-value]

    @property
    def points_per_rank(self) -> int:
        lx, ly, lz = self.local_shape
        return lx * ly * lz

    @property
    def effective_exchange_interval(self) -> int:
        return self.exchange_interval if self.exchange_interval is not None else self.checkpoint_interval

    def face_bytes(self, axis: int) -> int:
        """Wire size of one halo face perpendicular to ``axis``."""
        lx, ly, lz = self.local_shape
        faces = {0: ly * lz, 1: lx * lz, 2: lx * ly}
        return faces[axis] * self.item_bytes

    @cached_property
    def halo_faces(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """``(send_tag, recv_tag, face_nbytes)`` per ``(axis, step)`` face.
        The same on every rank, so computed once per config rather than
        once per rank (32,768 times at paper scale)."""
        return {
            (axis, step): (_HALO_TAGS[(axis, step)], _HALO_TAGS[(axis, -step)], self.face_bytes(axis))
            for axis, step in _HALO_TAGS
        }

    @property
    def checkpoint_nbytes(self) -> int:
        """Per-rank checkpoint file size: configuration header plus the
        current iteration's data (paper §V-B)."""
        return self.checkpoint_header_bytes + self.points_per_rank * self.item_bytes

    def validate_for(self, nranks: int) -> None:
        """Reject a decomposition that does not match the job size."""
        if self.nranks != nranks:
            raise ConfigurationError(
                f"workload decomposed for {self.nranks} ranks but the job has {nranks}"
            )


@dataclass(frozen=True)
class HeatRunStats:
    """Per-rank return value of a completed run."""

    rank: int
    iterations: int
    restarted_from: int
    checksum: float | None


# ----------------------------------------------------------------------
# decomposition helpers
# ----------------------------------------------------------------------
def rank_coords(rank: int, ranks: tuple[int, int, int]) -> tuple[int, int, int]:
    """Cube coordinates of ``rank`` (row-major: z fastest)."""
    px, py, pz = ranks
    if not 0 <= rank < px * py * pz:
        raise ConfigurationError(f"rank {rank} outside {ranks} decomposition")
    return rank // (py * pz), (rank // pz) % py, rank % pz


def coords_rank(coords: tuple[int, int, int], ranks: tuple[int, int, int]) -> int:
    """Rank at cube ``coords`` (inverse of :func:`rank_coords`)."""
    cx, cy, cz = coords
    px, py, pz = ranks
    return (cx * py + cy) * pz + cz


def neighbor_ranks(rank: int, ranks: tuple[int, int, int]) -> dict[tuple[int, int], int]:
    """Neighbors per (axis, direction); domain boundaries map to PROC_NULL
    (the heat equation's grid is regular, not periodic)."""
    coords = rank_coords(rank, ranks)
    out: dict[tuple[int, int], int] = {}
    for axis in range(3):
        for step in (-1, +1):
            c = list(coords)
            c[axis] += step
            if 0 <= c[axis] < ranks[axis]:
                out[(axis, step)] = coords_rank(tuple(c), ranks)  # type: ignore[arg-type]
            else:
                out[(axis, step)] = PROC_NULL
    return out


# ----------------------------------------------------------------------
# real-data machinery
# ----------------------------------------------------------------------
def initial_grid(cfg: HeatConfig, rank: int) -> np.ndarray:
    """This rank's ghosted sub-grid with a deterministic initial condition
    (a smooth bump keyed to global coordinates, so any two decompositions
    agree)."""
    lx, ly, lz = cfg.local_shape
    cx, cy, cz = rank_coords(rank, cfg.ranks)
    gx = np.arange(cx * lx, (cx + 1) * lx, dtype=np.float64)
    gy = np.arange(cy * ly, (cy + 1) * ly, dtype=np.float64)
    gz = np.arange(cz * lz, (cz + 1) * lz, dtype=np.float64)
    nx, ny, nz = cfg.grid
    bx = np.sin(np.pi * (gx + 0.5) / nx)
    by = np.sin(np.pi * (gy + 0.5) / ny)
    bz = np.sin(np.pi * (gz + 0.5) / nz)
    u = np.zeros((lx + 2, ly + 2, lz + 2), dtype=np.float64)
    u[1:-1, 1:-1, 1:-1] = bx[:, None, None] * by[None, :, None] * bz[None, None, :]
    return u


def stencil_step(u: np.ndarray, alpha: float) -> None:
    """One explicit heat update of the interior, in place (ghosts fixed)."""
    core = u[1:-1, 1:-1, 1:-1]
    lap = (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
        - 6.0 * core
    )
    core += alpha * lap


def heat3d_serial_reference(cfg: HeatConfig, iterations: int | None = None) -> np.ndarray:
    """Serial solution on the global grid with zero Dirichlet boundaries —
    what a real-mode run with exchange_interval=1 must reproduce."""
    nx, ny, nz = cfg.grid
    u = np.zeros((nx + 2, ny + 2, nz + 2), dtype=np.float64)
    x = np.sin(np.pi * (np.arange(nx) + 0.5) / nx)
    y = np.sin(np.pi * (np.arange(ny) + 0.5) / ny)
    z = np.sin(np.pi * (np.arange(nz) + 0.5) / nz)
    u[1:-1, 1:-1, 1:-1] = x[:, None, None] * y[None, :, None] * z[None, None, :]
    for _ in range(iterations if iterations is not None else cfg.iterations):
        stencil_step(u, cfg.alpha)
    return u[1:-1, 1:-1, 1:-1]


_FACE_SEND = {
    (0, -1): lambda u: u[1, 1:-1, 1:-1],
    (0, +1): lambda u: u[-2, 1:-1, 1:-1],
    (1, -1): lambda u: u[1:-1, 1, 1:-1],
    (1, +1): lambda u: u[1:-1, -2, 1:-1],
    (2, -1): lambda u: u[1:-1, 1:-1, 1],
    (2, +1): lambda u: u[1:-1, 1:-1, -2],
}

_FACE_RECV = {
    (0, -1): lambda u, v: u.__setitem__((0, slice(1, -1), slice(1, -1)), v),
    (0, +1): lambda u, v: u.__setitem__((-1, slice(1, -1), slice(1, -1)), v),
    (1, -1): lambda u, v: u.__setitem__((slice(1, -1), 0, slice(1, -1)), v),
    (1, +1): lambda u, v: u.__setitem__((slice(1, -1), -1, slice(1, -1)), v),
    (2, -1): lambda u, v: u.__setitem__((slice(1, -1), slice(1, -1), 0), v),
    (2, +1): lambda u, v: u.__setitem__((slice(1, -1), slice(1, -1), -1), v),
}


def exchange_plan(
    cfg: HeatConfig, neighbors: dict[tuple[int, int], int]
) -> tuple[tuple[tuple[int, int], int, int, int, int], ...]:
    """Precomputed per-face exchange schedule: ``((axis, step), peer,
    send_tag, recv_tag, face_nbytes)`` rows.  Computed once per rank so the
    per-call halo exchange avoids rebuilding face sizes and tag lookups;
    only the peers are per rank (:attr:`HeatConfig.halo_faces`)."""
    faces = cfg.halo_faces
    return tuple((key, peer, *faces[key]) for key, peer in neighbors.items())


def halo_exchange(
    mpi: MpiApi,
    cfg: HeatConfig,
    neighbors: dict[tuple[int, int], int],
    u: np.ndarray | None,
    plan: tuple[tuple[tuple[int, int], int, int, int, int], ...] | None = None,
) -> Gen:
    """Exchange the six halo faces with the neighboring cubes.

    Nonblocking receives are posted first, then sends; a failed neighbor
    surfaces here — the paper's "failure during the computation phase is
    detected in the halo exchange due to failing communication".
    """
    if plan is None:
        plan = exchange_plan(cfg, neighbors)
    recvs = []
    for key, peer, _stag, rtag, _nbytes in plan:
        recvs.append((key, mpi.irecv(peer, tag=rtag)))
    sends = []
    post = getattr(mpi, "post_isend", None)
    if post is not None:
        # Plain MpiApi facade: pay the send overhead explicitly and post
        # via the plain-call post_isend — same virtual-time behavior as
        # isend without a generator frame per message (PROC_NULL faces owe
        # no overhead, as in isend).
        overhead_adv = (
            mpi.world.send_overhead_advance if mpi.world.network.send_overhead > 0.0 else None
        )
        for key, peer, stag, _rtag, nbytes in plan:
            payload = None
            if u is not None and peer != PROC_NULL:
                payload = np.ascontiguousarray(_FACE_SEND[key](u))
            if overhead_adv is not None and peer != PROC_NULL:
                yield overhead_adv
            sends.append(post(peer, payload=payload, nbytes=nbytes, tag=stag))
    else:
        # Wrapping facades (e.g. redundancy) route every send themselves.
        for key, peer, stag, _rtag, nbytes in plan:
            payload = None
            if u is not None and peer != PROC_NULL:
                payload = np.ascontiguousarray(_FACE_SEND[key](u))
            req = yield from mpi.isend(peer, payload=payload, nbytes=nbytes, tag=stag)
            sends.append(req)
    yield from mpi.waitall(sends)
    for key, req in recvs:
        face = yield from mpi.wait(req)
        if u is not None and face is not None:
            _FACE_RECV[key](u, face)


# ----------------------------------------------------------------------
# the application
# ----------------------------------------------------------------------
def heat3d(mpi: MpiApi, cfg: HeatConfig, store: Any = None) -> Gen:
    """The paper's heat-equation application (generator coroutine).

    Per phase: compute up to the next exchange/checkpoint boundary, halo
    exchange, write the checkpoint, barrier, delete the previous
    checkpoint.  With ``store=None`` the app runs checkpoint-free (no
    barrier either), which is useful for pure communication studies.
    """
    yield from mpi.init()
    cfg.validate_for(mpi.size)
    neighbors = neighbor_ranks(mpi.rank, cfg.ranks)
    real = cfg.data_mode == "real"
    u = initial_grid(cfg, mpi.rank) if real else None
    if real:
        mpi.malloc("grid", array=u)
    else:
        mpi.malloc("grid", nbytes=cfg.points_per_rank * cfg.item_bytes)

    proto = resolve_protocol(mpi, store)
    start_iter = 0
    if proto is not None:
        cid, payload = yield from proto.restore_latest()
        if cid is not None:
            start_iter = cid
            if real:
                u = payload["data"].copy()
                mpi.malloc("grid", array=u)  # replaces the tracked region

    # Startup/restart halo exchange so the first computation phase sees its
    # neighbours' current faces.
    plan = exchange_plan(cfg, neighbors)
    yield from halo_exchange(mpi, cfg, neighbors, u, plan)

    it = start_iter
    exch = cfg.effective_exchange_interval
    ckpt = cfg.checkpoint_interval
    points = cfg.points_per_rank
    while it < cfg.iterations:
        next_exch = ((it // exch) + 1) * exch
        next_ckpt = ((it // ckpt) + 1) * ckpt
        target = min(cfg.iterations, next_exch, next_ckpt)
        steps = target - it
        if real:
            for _ in range(steps):
                stencil_step(u, cfg.alpha)  # type: ignore[arg-type]
        yield from mpi.compute_ops(steps * points, cfg.native_seconds_per_point)
        it = target
        if it == next_exch or it == cfg.iterations:
            yield from halo_exchange(mpi, cfg, neighbors, u, plan)
        if proto is not None and (it == next_ckpt or it == cfg.iterations):
            payload = {"iteration": it, "data": u.copy() if real else None}
            yield from proto.checkpoint(it, payload, cfg.checkpoint_nbytes)

    yield from mpi.finalize()
    checksum = float(u[1:-1, 1:-1, 1:-1].sum()) if real else None
    return HeatRunStats(
        rank=mpi.rank, iterations=it, restarted_from=start_iter, checksum=checksum
    )
