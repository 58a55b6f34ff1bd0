"""Virtual-process execution contexts.

Each simulated MPI rank is a :class:`VirtualProcess`: a generator coroutine
plus the per-rank simulator state xSim keeps for its user-space thread
contexts — the virtual clock, the scheduled time of failure ("initialized
to 0, i.e. fail never, on startup"; we represent *never* as ``math.inf``),
the per-process list of failed peers with their failure times, and the
lifecycle state.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Generator


class VpState(enum.Enum):
    """Lifecycle of a virtual process."""

    READY = "ready"
    """Spawned, resume event pending."""
    RUNNING = "running"
    """Currently being stepped by the engine."""
    ADVANCING = "advancing"
    """Mid clock-advance; a resume event is queued."""
    BLOCKED = "blocked"
    """Parked on a :class:`~repro.pdes.requests.Block` until woken."""
    DONE = "done"
    """Terminated normally (returned from its main function)."""
    FAILED = "failed"
    """Killed by an injected process failure."""
    ABORTED = "aborted"
    """Terminated by a simulated ``MPI_Abort``."""


#: The terminal states: a VP in any other state has a live coroutine.
_DONE, _FAILED, _ABORTED = VpState.DONE, VpState.FAILED, VpState.ABORTED


class VirtualProcess:
    """One simulated MPI rank: coroutine + virtual clock + failure state."""

    __slots__ = (
        "rank",
        "gen",
        "clock",
        "state",
        "time_of_failure",
        "time_of_abort",
        "pending_delay",
        "busy_time",
        "failed_peers",
        "wait_token",
        "wait_tag",
        "epoch",
        "end_time",
        "exit_value",
        "userdata",
    )

    def __init__(self, rank: int, gen: Generator[Any, Any, Any], start_time: float = 0.0):
        self.rank = rank
        self.gen = gen
        self.clock = start_time
        self.state = VpState.READY
        self.time_of_failure = math.inf
        self.time_of_abort = math.inf
        #: Externally injected downtime (e.g. a proactive migration pause),
        #: consumed at the VP's next execution control point.
        self.pending_delay = 0.0
        #: Accumulated CPU-busy virtual time (``Advance(..., busy=True)``),
        #: the power model's energy-accounting input.
        self.busy_time = 0.0
        #: rank -> virtual time of that peer's failure, as known to this VP
        #: (populated by the simulator-internal failure notification broadcast).
        self.failed_peers: dict[int, float] = {}
        #: Monotonic token guarding against stale wake events.
        self.wait_token = 0
        self.wait_tag = ""
        #: Incremented when the VP dies so queued events for it become no-ops.
        self.epoch = 0
        self.end_time: float | None = None
        self.exit_value: Any = None
        #: Free slot for the layers above (the MPI layer hangs per-rank
        #: matching queues here without another dict lookup per message).
        self.userdata: Any = None

    @property
    def alive(self) -> bool:
        """Whether the VP still has a live coroutine (it is not DONE,
        FAILED or ABORTED).  Identity tests: ``in`` on a set of states
        would hash the member through the Python-level ``Enum.__hash__``
        on every call."""
        state = self.state
        return state is not _DONE and state is not _FAILED and state is not _ABORTED

    def snapshot(self) -> dict[str, Any]:
        """Compact state dump for diagnostics (simcheck violation reports)."""
        return {
            "rank": self.rank,
            "state": self.state.value,
            "clock": self.clock,
            "busy_time": self.busy_time,
            "end_time": self.end_time,
            "epoch": self.epoch,
            "wait_tag": str(self.wait_tag),
            "time_of_failure": self.time_of_failure,
            "failed_peers": dict(self.failed_peers),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VP rank={self.rank} t={self.clock:.6f} {self.state.value}>"
