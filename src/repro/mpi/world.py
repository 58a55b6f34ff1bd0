"""The simulated MPI world: delivery, matching, and failure propagation.

:class:`MpiWorld` owns the global state of one simulated MPI job — the
per-rank matching queues, the communicator table, the network/processor/
file-system models — and implements the mechanics behind every MPI call:

* **Point-to-point** — eager messages are buffered at the sender and
  delivered after the modeled transfer time; payloads above the eager
  threshold use the rendezvous protocol (an RTS control message, a CTS
  after the receive is matched, then the payload transfer).  Matching
  honours MPI semantics: contexts isolate communicators, ``MPI_ANY_SOURCE``
  and ``MPI_ANY_TAG`` wildcards, and non-overtaking order per sender.
  Exact receives are matched through per-``(context, source, tag)`` indexes
  so linear-algorithm collectives stay O(N) at 32,768 ranks.
* **Failure propagation** (paper §IV-B/C) — when a virtual process fails,
  all messages directed to it are deleted, a simulator-internal broadcast
  records the failure (with its time) in every surviving rank's
  failed-process list, and every blocked or posted request involving the
  failed rank — including ``MPI_ANY_SOURCE`` receives on communicators
  containing it and rendezvous sends to it — is *released and failed* at
  ``max(failure time, post time) + detection timeout`` per the network
  model's per-tier timeout.  Requests posted after the notification fail
  from the failed-process list immediately at post time — the detection
  delay was already paid when the notification was delivered.
* **Error delivery** (paper §IV-D) — a failed request consults the
  communicator's error handler: ``MPI_ERRORS_ARE_FATAL`` (the default)
  invokes the simulated ``MPI_Abort``; ``MPI_ERRORS_RETURN`` and user
  handlers surface an :class:`~repro.mpi.errhandler.MpiError` to the
  application (the ULFM path).
* **Synchronization points** — a simulator-internal rendezvous facility
  (:meth:`MpiWorld.sync_arrive`) that completes when every *currently
  alive* expected member has arrived.  It backs the failure-tolerant ULFM
  ``MPI_Comm_shrink``/``MPI_Comm_agree`` and the analytic (O(1)-event)
  collective mode used for full-scale runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.models.filesystem import FileSystemModel
from repro.models.memory import MemoryTracker
from repro.models.network.model import NetworkModel
from repro.models.processor import ProcessorModel
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, ERR_PROC_FAILED, ERR_REVOKED, SUCCESS
from repro.mpi.errhandler import ERRORS_ARE_FATAL, ERRORS_RETURN, MpiError
from repro.mpi.group import Group
from repro.mpi.messages import EAGER, RTS, Msg, Request
from repro.pdes.context import _ABORTED, _DONE, _FAILED, VirtualProcess
from repro.pdes.engine import Engine
from repro.pdes.requests import Advance, Block
from repro.util.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpi.api import MpiApi

MatchKey = tuple[int, int, int]  # (context, source, tag)


class RankState:
    """Per-rank MPI-layer state (hangs off the VP's userdata slot)."""

    __slots__ = (
        "rank",
        "vp",
        "posted_exact",
        "posted_wild",
        "unexpected",
        "rdv_sends",
        "initialized",
        "finalized",
    )

    def __init__(self, rank: int, vp: VirtualProcess):
        self.rank = rank
        self.vp = vp
        #: Posted receives with fully specified (ctx, src, tag), FIFO per key.
        self.posted_exact: dict[MatchKey, list[Request]] = {}
        #: Posted receives using ANY_SOURCE/ANY_TAG, in post order.
        self.posted_wild: list[Request] = []
        #: Arrived-but-unmatched messages per (ctx, src, tag), sorted by seq.
        self.unexpected: dict[MatchKey, list[Msg]] = {}
        #: This rank's pending rendezvous sends (awaiting their CTS).
        self.rdv_sends: list[Request] = []
        self.initialized = False
        self.finalized = False

    def iter_posted(self) -> list[Request]:
        """All posted receives (exact and wildcard), unordered."""
        out: list[Request] = []
        for reqs in self.posted_exact.values():
            out.extend(reqs)
        out.extend(self.posted_wild)
        return out

    def remove_posted(self, req: Request) -> None:
        """Drop a posted receive from whichever index holds it."""
        if req.src != ANY_SOURCE and req.tag != ANY_TAG:
            key = (req.ctx, req.src, req.tag)
            reqs = self.posted_exact.get(key)
            if reqs and req in reqs:
                reqs.remove(req)
                if not reqs:
                    del self.posted_exact[key]
        elif req in self.posted_wild:
            self.posted_wild.remove(req)


class SyncPoint:
    """One open simulator-internal synchronization point."""

    __slots__ = ("key", "comm", "arrived", "values", "cost_fn", "completing")

    def __init__(self, key: tuple, comm: Communicator, cost_fn: Callable[[int], float]):
        self.key = key
        self.comm = comm
        #: world rank -> arrival virtual time
        self.arrived: dict[int, float] = {}
        #: world rank -> contributed value
        self.values: dict[int, Any] = {}
        self.cost_fn = cost_fn
        self.completing = False


class SyncResult:
    """Outcome of a synchronization point, delivered to every participant."""

    __slots__ = ("alive", "values", "time")

    def __init__(self, alive: tuple[int, ...], values: dict[int, Any], time: float):
        #: World ranks alive at completion, in ascending order.
        self.alive = alive
        #: Contributed values of the alive participants.
        self.values = values
        #: Virtual completion time.
        self.time = time


class MpiWorld:
    """Global state and mechanics of one simulated MPI job."""

    def __init__(
        self,
        engine: Engine,
        network: NetworkModel,
        processor: ProcessorModel | None = None,
        filesystem: FileSystemModel | None = None,
        memory: MemoryTracker | None = None,
        strict_finalize: bool = True,
        collective_algorithm: str = "linear",
        record_trace: bool = False,
    ):
        if collective_algorithm not in ("linear", "tree", "analytic"):
            raise ConfigurationError(
                f"collective_algorithm must be linear/tree/analytic, got {collective_algorithm!r}"
            )
        #: Algorithm family used by the collectives (paper: "MPI collectives
        #: utilize linear algorithms").
        self.collective_algorithm = collective_algorithm
        self.engine = engine
        self.network = network
        self.processor = processor if processor is not None else ProcessorModel()
        self.filesystem = filesystem if filesystem is not None else FileSystemModel.disabled()
        self.memory = memory if memory is not None else MemoryTracker()
        #: When True (the xSim semantic), a VP returning from its main
        #: function without having called ``MPI_Finalize`` counts as an
        #: injected process failure.
        self.strict_finalize = strict_finalize
        self.states: list[RankState] = []
        self.world_comm: Communicator | None = None
        self._ctx_counter = 0
        self._msg_seq = 0
        self._post_seq = 0
        self._launched = False
        self._sync_points: dict[tuple, SyncPoint] = {}
        #: Shared communicators produced by simulator-internal operations
        #: (e.g. shrink): first participant creates, the rest reuse.
        self.comm_cache: dict[tuple, Communicator] = {}
        # traffic statistics
        self.messages_sent = 0
        self.bytes_sent = 0
        # matching-scan statistics (wildcard-path scans only; the indexed
        # exact-match fast paths never scan).  Read by repro.util.profiling.
        self.match_scan_calls = 0
        self.match_scan_length = 0
        #: Optional :class:`repro.check.sanitizer.Sanitizer` consulted at
        #: the MPI-layer boundaries (post/match/buffer/failure/sync); off
        #: by default at the cost of one attribute test per boundary.
        self.check = None
        #: Degraded-performance fault windows (stragglers, link degrade);
        #: consulted on the compute and message-cost paths.  Empty by
        #: default at the cost of one attribute test per site.  Failure
        #: *notification* propagation (:meth:`_failure_visible`, ``revoke``)
        #: deliberately stays undegraded: notifications model an
        #: out-of-band resilience channel, and keeping them a pure function
        #: of the undegraded wire latency preserves serial/sharded parity.
        # Imported here, not at module top: ``repro.core.faults`` sits
        # under ``repro.core``, whose package init imports the simulator
        # and hence this module — a top-level import would make
        # ``import repro.mpi`` order-dependent.
        from repro.core.faults.overlay import FaultOverlay

        self.faults = FaultOverlay()
        #: Optional full communication trace (DUMPI-style; see
        #: :mod:`repro.mpi.trace`).
        self.trace = None
        if record_trace:
            from repro.mpi.trace import CommTrace

            self.trace = CommTrace()
        #: Optional :class:`repro.obs.Observer` collecting collective
        #: spans, blocking-wait spans (``detail``), and resilience
        #: instants (detect/notify/revoke).  Off by default at the cost
        #: of one attribute test per emission site.
        self.obs = None
        # Shared Advance instances for the fixed per-message software
        # overheads.  The engine only reads ``dt``/``busy`` from a yielded
        # Advance and the overheads are fixed after construction, so one
        # instance per world avoids an allocation on every send/receive.
        self.send_overhead_advance = Advance(network.send_overhead)
        self.recv_overhead_advance = Advance(network.recv_overhead)

    # ------------------------------------------------------------------
    # job launch
    # ------------------------------------------------------------------
    def alloc_context(self) -> int:
        """Allocate a fresh communicator context id."""
        self._ctx_counter += 1
        return self._ctx_counter

    def launch(self, app, nranks: int, args: tuple = ()) -> "list[MpiApi]":
        """Create ``nranks`` virtual processes running ``app(mpi, *args)``.

        ``app`` is a generator function taking the per-rank
        :class:`~repro.mpi.api.MpiApi` facade as its first argument.
        Call :meth:`Engine.run` afterwards to execute the job.
        """
        from repro.mpi.api import MpiApi  # local import: api builds on world

        if self._launched:
            raise SimulationError("MpiWorld.launch() may only be called once")
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        if nranks > self.network.max_ranks():
            raise ConfigurationError(
                f"{nranks} ranks exceed the simulated machine's capacity of "
                f"{self.network.max_ranks()} ({self.network.topology.nnodes} nodes x "
                f"{self.network.ranks_per_node} ranks/node)"
            )
        self._launched = True
        if self.trace is not None and len(self.trace) == 0:
            # The trace provably sees every message, so delivery of an
            # unknown seq is a sequencing bug, not a mid-run attach.
            self.trace.from_start = True
        self.world_comm = Communicator(Group(range(nranks)), self.alloc_context(), "MPI_COMM_WORLD")
        apis: list[MpiApi] = []
        for rank in range(nranks):
            api = MpiApi(self, rank)
            # The app generator is spawned directly (no wrapper frame): every
            # yield traverses the whole `yield from` chain, so one less frame
            # is paid on every single event of every VP.
            vp = self.engine.spawn(app(api, *args))
            if vp.rank != rank:
                raise SimulationError("engine assigned unexpected rank")
            api.vp = vp
            state = RankState(rank, vp)
            vp.userdata = state
            self.states.append(state)
            apis.append(api)
        self.engine.exit_policy = self._exit_policy
        self.engine.failure_listeners.append(self._on_failure)
        return apis

    def _exit_policy(self, vp: VirtualProcess) -> str:
        """Paper §IV-B: "returning from main() or calling exit() without
        having called MPI_Finalize()" is a process failure."""
        if self.strict_finalize and not self.states[vp.rank].finalized:
            return "failure"
        return "done"

    # ------------------------------------------------------------------
    # point-to-point: posting
    # ------------------------------------------------------------------
    def isend(
        self,
        vp: VirtualProcess,
        comm: Communicator,
        ctx: int,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
    ) -> Generator[Any, Any, Request]:
        """Post a send (world-rank ``dst``); returns the pending request.

        Pays the per-message send software overhead, then posts via
        :meth:`post_send`.
        """
        if self.network.send_overhead > 0.0:
            yield self.send_overhead_advance
        return self.post_send(vp, comm, ctx, dst, tag, payload, nbytes)

    def post_send(
        self,
        vp: VirtualProcess,
        comm: Communicator,
        ctx: int,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
    ) -> Request:
        """Post a send whose software overhead has already been paid (plain
        call, no generator frame — the point-to-point hot path).

        Either buffers an eager message (request completes locally) or
        emits a rendezvous RTS (request completes when the clear-to-send
        round-trip and payload serialization finish).
        """
        clock = vp.clock
        req = Request(Request.SEND, vp, comm, ctx, vp.rank, dst, tag, nbytes, clock)
        if comm.revoked:
            req.fail(clock, ERR_REVOKED)
            return req
        failed_at = vp.failed_peers.get(dst)
        if failed_at is not None and self._failure_visible(vp, dst, failed_at):
            self._fail_from_list(req, dst)
            return req
        network = self.network
        self._msg_seq += 1
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.trace is not None:
            self.trace.record_post(
                self._msg_seq, clock, vp.rank, dst, ctx, tag, nbytes,
                "eager" if network.is_eager(nbytes) else "rendezvous",
            )
        if isinstance(payload, np.ndarray):
            payload = payload.copy()  # eager/rendezvous buffering semantics
        engine = self.engine
        link_f = (
            self.faults.link_factor(vp.rank, dst, clock)
            if self.faults.active_links
            else 1.0
        )
        if nbytes <= network.eager_threshold:
            msg = Msg(ctx, vp.rank, dst, tag, nbytes, payload, self._msg_seq, EAGER)
            arrival = clock + link_f * network.transfer_time(nbytes, vp.rank, dst)
            req.complete(clock)
        else:
            msg = Msg(ctx, vp.rank, dst, tag, nbytes, payload, self._msg_seq, RTS, send_req=req)
            arrival = clock + link_f * network.wire_latency(vp.rank, dst)
            if failed_at is not None:
                # Posted before the failure notification became visible
                # (see :meth:`_failure_visible`): the request behaves as if
                # pre-posted — it pays the modeled detection timeout
                # instead of failing at the post.
                self._release_failed(req, dst, failed_at)
            else:
                self.states[vp.rank].rdv_sends.append(req)
        # Per-message hot path: engine.schedule minus the varargs tuple.
        if arrival < engine.now:
            raise SimulationError(f"cannot schedule into the past ({arrival} < {engine.now})")
        engine.post_event(arrival, self._arrive, msg)
        return req

    def irecv(
        self, vp: VirtualProcess, comm: Communicator, ctx: int, src: int, tag: int
    ) -> Request:
        """Post a receive (world-rank or ``ANY_SOURCE`` ``src``); local call."""
        state = self.states[vp.rank]
        req = Request(Request.RECV, vp, comm, ctx, src, vp.rank, tag, 0, vp.clock)
        self._post_seq += 1
        req.post_seq = self._post_seq
        if comm.revoked:
            req.fail(vp.clock, ERR_REVOKED)
            return req
        msg = self._match_unexpected(state, req)
        if msg is not None:
            if self.check is not None:
                self.check.on_match_unexpected(state, req, msg)
            if msg.protocol == EAGER:
                self._complete_recv(req, msg, vp.clock)
            else:
                self._rendezvous(req, msg, vp.clock)
            return req
        # No buffered match: fail from the per-process failed list
        # ("any similar receive requests waited on after receiving the
        # simulator-internal notification message fail based on the
        # per-process list of failed simulated MPI processes").  A peer
        # whose failure notification is still in flight (see
        # :meth:`_failure_visible`) is *not* on the visible list yet; such
        # a receive is posted normally and then released with the modeled
        # detection timeout, exactly as if it had been pre-posted.
        in_flight: int | None = None
        if vp.failed_peers:
            if src == ANY_SOURCE:
                failed_members = {
                    r for r, t in vp.failed_peers.items()
                    if comm.contains(r) and self._failure_visible(vp, r, t)
                } - comm.acked_failures(vp.rank)
                if failed_members:
                    self._fail_from_list(req, min(failed_members))
                    return req
                pending_members = [
                    r for r, t in vp.failed_peers.items()
                    if comm.contains(r) and not self._failure_visible(vp, r, t)
                ]
                if pending_members:
                    in_flight = min(pending_members)
            elif src in vp.failed_peers:
                if self._failure_visible(vp, src, vp.failed_peers[src]):
                    self._fail_from_list(req, src)
                    return req
                in_flight = src
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (ctx, src, tag)
            posted = state.posted_exact.get(key)
            if posted is None:
                state.posted_exact[key] = [req]
            else:
                posted.append(req)
        else:
            state.posted_wild.append(req)
        if self.check is not None:
            self.check.on_post(state, req)
        if in_flight is not None:
            state.remove_posted(req)
            self._release_failed(req, in_flight, vp.failed_peers[in_flight])
        return req

    def _failure_visible(self, vp: VirtualProcess, peer: int, failed_at: float) -> bool:
        """Whether ``vp`` has received the simulator-internal notification
        of ``peer``'s failure at ``failed_at``.

        The notification propagates like any other simulator-internal
        message — one wire latency from the failed rank (the same modeled
        delay :meth:`revoke` uses).  Making visibility a pure function of
        *time* (rather than of the engine's dispatch order among
        same-instant events) is what lets the sharded engine reproduce the
        serial engine's behavior exactly: whether the death or a
        same-instant post is dispatched first is a heap artifact, but both
        engines agree on the clocks.
        """
        return vp.clock >= failed_at + self.network.wire_latency(peer, vp.rank)

    def _fail_from_list(self, req: Request, failed_rank: int) -> None:
        """Fail a freshly posted request against a peer already known (from
        the per-process failed list) to be dead.

        The simulator-internal failure notification has been delivered to
        this rank before the post (:meth:`_failure_visible`), so no
        detection timeout is paid again: the request fails immediately at
        its post time (paper §IV-B — requests posted after the
        notification "fail based on the per-process list of failed
        simulated MPI processes").  Requests *pre-posted* when the failure
        occurred — or posted while the notification was still in flight —
        instead pay the modeled timeout in :meth:`_release_failed`.
        """
        detect = req.post_time
        req.fail(detect, ERR_PROC_FAILED, failed_rank=failed_rank)
        self.engine.log.log(
            detect,
            "detect",
            f"detected failure of rank {failed_rank} ({req.describe()})",
            rank=req.vp.rank,
        )
        if self.obs is not None:
            failed_at = req.vp.failed_peers.get(failed_rank, detect)
            self.obs.instant(
                detect, "detect", rank=req.vp.rank, track="resilience",
                args={"failed_rank": failed_rank, "latency": detect - failed_at},
            )

    def _match_unexpected(self, state: RankState, req: Request) -> Msg | None:
        """Pop the lowest-seq buffered message matching a fresh receive."""
        unexpected = state.unexpected
        if req.src != ANY_SOURCE and req.tag != ANY_TAG:
            key = (req.ctx, req.src, req.tag)
            msgs = unexpected.get(key)
            if not msgs:
                return None
            msg = msgs.pop(0)  # per-key lists are kept sorted by seq
            if not msgs:
                del unexpected[key]
            return msg
        # Wildcard: scan per-key heads for the lowest sequence number.
        self.match_scan_calls += 1
        self.match_scan_length += len(unexpected)
        best_key: MatchKey | None = None
        best: Msg | None = None
        for key, msgs in unexpected.items():
            head = msgs[0]
            if req.matches_msg(head) and (best is None or head.seq < best.seq):
                best, best_key = head, key
        if best is None:
            return None
        msgs = unexpected[best_key]
        msgs.pop(0)
        if not msgs:
            del unexpected[best_key]
        return best

    # ------------------------------------------------------------------
    # point-to-point: completion
    # ------------------------------------------------------------------
    def wait(self, vp: VirtualProcess, req: Request) -> Generator[Any, Any, Msg | None]:
        """Block until ``req`` completes; deliver its error (if any) through
        the communicator's error handler; return the received message."""
        t0 = None
        if not req.done:
            obs = self.obs
            if obs is not None and obs.detail:
                t0 = vp.clock
            req.waiting = True
            yield Block(req)  # stringified lazily, only for reports
            req.waiting = False
        # Inline of _finalize_request — this is the hot path of every
        # point-to-point completion, so it avoids a nested generator frame.
        if req.completion_time > vp.clock:
            # waiting for completion (in-flight data, detection timeout)
            yield Advance(req.completion_time - vp.clock, busy=False)
        if t0 is not None:
            self.obs.span(t0, vp.clock, "wait", rank=vp.rank)
        if self.check is not None:
            self.check.on_wait_complete(vp, req)
        if req.error == SUCCESS:
            if req.kind == Request.RECV and self.network.recv_overhead > 0.0:
                yield self.recv_overhead_advance
            return req.result
        yield from self.handle_error(
            vp, req.comm, MpiError(req.error, req.describe(), req.failed_rank)
        )
        return req.result

    def test(
        self, vp: VirtualProcess, req: Request
    ) -> Generator[Any, Any, tuple[bool, Msg | None]]:
        """Nonblocking completion check; finalizes the request when done."""
        if not req.done or req.completion_time > vp.clock:
            return False, None
        msg = yield from self._finalize_request(vp, req)
        return True, msg

    def _finalize_request(
        self, vp: VirtualProcess, req: Request
    ) -> Generator[Any, Any, Msg | None]:
        if req.completion_time > vp.clock:
            # waiting for completion (in-flight data, detection timeout)
            yield Advance(req.completion_time - vp.clock, busy=False)
        if self.check is not None:
            self.check.on_wait_complete(vp, req)
        if req.error == SUCCESS and req.kind == Request.RECV and self.network.recv_overhead > 0.0:
            yield Advance(self.network.recv_overhead)
        if req.error != SUCCESS:
            yield from self.handle_error(
                vp, req.comm, MpiError(req.error, req.describe(), req.failed_rank)
            )
        return req.result

    def _complete_recv(self, req: Request, msg: Msg, time: float) -> None:
        req.complete(time, result=msg)
        if req.waiting:
            self.engine.wake(req.vp, time)

    def _rendezvous(self, req: Request, rts: Msg, t_match: float) -> None:
        """Complete the RTS/CTS/payload hand-shake matched at ``t_match``.

        The clear-to-send travels back to the sender; the sender then
        serializes the payload onto the wire (completing its request) and
        the receiver gets it one wire-latency later.
        """
        send_req = rts.send_req
        if send_req is None:
            raise SimulationError("rendezvous RTS without a send request")
        src, dst = rts.src, rts.dst
        # Link degradation scales the whole hand-shake, evaluated once at
        # the match instant so serial and sharded engines agree exactly.
        link_f = (
            self.faults.link_factor(src, dst, t_match)
            if self.faults.active_links
            else 1.0
        )
        t_cts = t_match + link_f * self.network.wire_latency(dst, src)
        t_send_done = t_cts + link_f * self.network.serialization_time(rts.nbytes, src, dst)
        t_recv_done = t_cts + link_f * self.network.transfer_time(rts.nbytes, src, dst)
        sender_state = self.states[src]
        if send_req in sender_state.rdv_sends:
            sender_state.rdv_sends.remove(send_req)
        send_req.complete(t_send_done)
        if send_req.waiting:
            self.engine.wake(send_req.vp, t_send_done)
        req.complete(t_recv_done, result=rts)
        if req.waiting:
            self.engine.wake(req.vp, t_recv_done)

    def _arrive(self, msg: Msg) -> None:
        """Delivery event: the message reached the destination NIC."""
        state = self.states[msg.dst]
        vp_state = state.vp.state  # inline of VirtualProcess.alive
        if vp_state is _DONE or vp_state is _FAILED or vp_state is _ABORTED:
            # "all messages directed to this simulated MPI process are deleted"
            if self.trace is not None:
                self.trace.record_delivery(msg.seq, self.engine.now, dropped=True)
            return
        if msg.protocol == RTS and not self.states[msg.src].vp.alive:
            if self.trace is not None:
                self.trace.record_delivery(msg.seq, self.engine.now, dropped=True)
            return  # sender died in flight; the hand-shake can never complete
        if self.trace is not None:
            self.trace.record_delivery(msg.seq, self.engine.now, dropped=False)
        msg.arrival = self.engine.now
        req = self._match_posted(state, msg)
        if req is not None:
            if self.check is not None:
                self.check.on_match_posted(state, msg, req)
            if msg.protocol == EAGER:
                self._complete_recv(req, msg, msg.arrival)
            else:
                self._rendezvous(req, msg, msg.arrival)
            return
        # Buffer, keeping each per-key list sorted by send sequence so
        # matching preserves non-overtaking order even when a larger,
        # earlier message arrives after a smaller, later one.
        msgs = state.unexpected.setdefault((msg.ctx, msg.src, msg.tag), [])
        if msgs and msgs[-1].seq > msg.seq:
            i = len(msgs) - 1
            while i > 0 and msgs[i - 1].seq > msg.seq:
                i -= 1
            msgs.insert(i, msg)
        else:
            msgs.append(msg)
        if self.check is not None:
            self.check.on_buffer(state, msg)

    def _match_posted(self, state: RankState, msg: Msg) -> Request | None:
        """Pop the earliest-posted receive accepting ``msg``."""
        key = (msg.ctx, msg.src, msg.tag)
        exact = state.posted_exact.get(key)
        if not state.posted_wild:
            # Fast path (no wildcard receives posted): the indexed exact
            # match is the only candidate.
            if not exact:
                return None
            req = exact.pop(0)
            if not exact:
                del state.posted_exact[key]
            return req
        self.match_scan_calls += 1
        self.match_scan_length += len(state.posted_wild)
        candidate: Request | None = exact[0] if exact else None
        wild_i = -1
        for i, req in enumerate(state.posted_wild):
            if req.matches_msg(msg):
                if candidate is None or req.post_time < candidate.post_time or (
                    req.post_time == candidate.post_time and req.post_seq < candidate.post_seq
                ):
                    candidate = req
                    wild_i = i
                break
        if candidate is None:
            return None
        if wild_i >= 0 and candidate is state.posted_wild[wild_i]:
            del state.posted_wild[wild_i]
        else:
            exact.pop(0)
            if not exact:
                del state.posted_exact[key]
        return candidate

    # ------------------------------------------------------------------
    # failure propagation (paper §IV-B/C)
    # ------------------------------------------------------------------
    def _obs_owns(self, rank: int) -> bool:
        """Whether this world emits observer events on behalf of ``rank``.

        Broadcast handlers (like :meth:`_on_failure`) run in *every* shard
        of a sharded run; the sharded world overrides this so each rank's
        events are emitted exactly once, by its owning shard.
        """
        return True

    def _on_failure(self, fvp: VirtualProcess, t_fail: float) -> None:
        f = fvp.rank
        fstate = self.states[f]
        # Delete messages directed to (and state of) the failed process.
        fstate.posted_exact.clear()
        fstate.posted_wild.clear()
        fstate.unexpected.clear()
        fstate.rdv_sends.clear()
        self.memory.free_all(f)
        # Simulator-internal notification broadcast: every VP maintains its
        # own list of failed processes and their failure times.
        obs = self.obs
        for state in self.states:
            if state.vp.alive:
                state.vp.failed_peers[f] = t_fail
                if obs is not None and self._obs_owns(state.rank):
                    # Visible one wire latency after the failure, matching
                    # _failure_visible; owner-filtered so sharded runs
                    # emit each rank's notification exactly once.
                    obs.instant(
                        t_fail + self.network.wire_latency(f, state.rank),
                        "notify", rank=state.rank, track="resilience",
                        args={"failed_rank": f},
                    )
        # Release (and fail) requests involving the failed process.
        for state in self.states:
            if not state.vp.alive:
                continue
            # Unmatched RTS messages from the dead sender can never complete.
            dead_keys = [
                key
                for key, msgs in state.unexpected.items()
                if key[1] == f and any(m.protocol == RTS for m in msgs)
            ]
            for key in dead_keys:
                kept = [m for m in state.unexpected[key] if m.protocol != RTS]
                if kept:
                    state.unexpected[key] = kept
                else:
                    del state.unexpected[key]
            released: list[Request] = []
            if state.posted_exact:
                dead_exact = [key for key in state.posted_exact if key[1] == f]
                for key in dead_exact:
                    released.extend(state.posted_exact.pop(key))
            if state.posted_wild:
                # Single pass, preserving the release order (ANY_SOURCE
                # receives on communicators containing f first, then
                # specific-source receives from f) — the order determines
                # engine event sequence numbers and hence tie-breaking.
                kept: list[Request] = []
                rel_any: list[Request] = []
                rel_src: list[Request] = []
                for req in state.posted_wild:
                    if req.src == ANY_SOURCE and req.comm.contains(f):
                        rel_any.append(req)
                    elif req.src == f:
                        rel_src.append(req)
                    else:
                        kept.append(req)
                if rel_any or rel_src:
                    state.posted_wild[:] = kept
                    released.extend(rel_any)
                    released.extend(rel_src)
            for req in released:
                self._release_failed(req, f, t_fail)
            if state.rdv_sends:
                kept_sends: list[Request] = []
                for req in state.rdv_sends:
                    if req.dst == f:
                        self._release_failed(req, f, t_fail)
                    else:
                        kept_sends.append(req)
                state.rdv_sends[:] = kept_sends
        # Re-check open synchronization points that were waiting on it.
        for key in list(self._sync_points):
            sp = self._sync_points.get(key)
            if sp is not None and sp.comm.contains(f):
                self._check_sync(sp)
        if self.check is not None:
            self.check.on_failure(f, t_fail)

    def _release_failed(self, req: Request, failed_rank: int, t_fail: float) -> None:
        """Release-and-fail a request after the failure-detection timeout.

        "The simulated network communication time of the waiting simulated
        MPI process is adjusted for the time of failure, simulating a
        configurable network communication timeout according to the network
        model."
        """
        timeout = self.network.detection_timeout(req.vp.rank, failed_rank)
        detect = max(t_fail, req.post_time) + timeout
        req.fail(detect, ERR_PROC_FAILED, failed_rank=failed_rank)
        self.engine.log.log(
            detect,
            "detect",
            f"detected failure of rank {failed_rank} ({req.describe()})",
            rank=req.vp.rank,
        )
        if self.obs is not None:
            self.obs.instant(
                detect, "detect", rank=req.vp.rank, track="resilience",
                args={"failed_rank": failed_rank, "latency": detect - t_fail},
            )
        if req.waiting:
            self.engine.wake(req.vp, detect)

    # ------------------------------------------------------------------
    # revocation (ULFM)
    # ------------------------------------------------------------------
    def revoke(self, comm: Communicator, t: float, initiator: int) -> None:
        """Mark ``comm`` revoked and interrupt its pending operations.

        Members learn of the revocation one wire latency after ``t``
        (xSim-style simulator-internal propagation with a modeled delay).
        """
        if comm.revoked:
            return
        comm.revoked = True
        self.engine.log.log(t, "revoke", f"{comm.name} revoked", rank=initiator)
        if self.obs is not None:
            self.obs.instant(
                t, "revoke", rank=initiator, track="resilience",
                args={"comm": comm.name},
            )
        ctxs = (comm.context_id * 2, comm.context_id * 2 + 1)
        for state in self.states:
            if not state.vp.alive or not comm.contains(state.rank):
                continue
            notify = (
                t
                if state.rank == initiator
                else t + self.network.wire_latency(initiator, state.rank)
            )
            for req in [r for r in state.iter_posted() if r.ctx in ctxs]:
                state.remove_posted(req)
                req.fail(max(notify, req.post_time), ERR_REVOKED)
                if req.waiting:
                    self.engine.wake(req.vp, req.completion_time)
            for req in [r for r in state.rdv_sends if r.ctx in ctxs]:
                state.rdv_sends.remove(req)
                req.fail(max(notify, req.post_time), ERR_REVOKED)
                if req.waiting:
                    self.engine.wake(req.vp, req.completion_time)

    # ------------------------------------------------------------------
    # error delivery (paper §IV-D)
    # ------------------------------------------------------------------
    def handle_error(
        self, vp: VirtualProcess, comm: Communicator, err: MpiError
    ) -> Generator[Any, Any, None]:
        """Run the communicator's error handler for ``err`` at ``vp``.

        Under ``MPI_ERRORS_ARE_FATAL`` this invokes the simulated
        ``MPI_Abort`` and never returns (the VP is terminated at its
        current clock).  Otherwise :class:`MpiError` is raised into the
        application.
        """
        handler = comm.get_errhandler(vp.rank)
        if handler is ERRORS_ARE_FATAL:
            self.engine.request_abort(vp.clock, vp.rank)
            yield Block("aborting")
            raise SimulationError("aborted VP resumed")  # pragma: no cover
        if handler is ERRORS_RETURN:
            raise err
        handler(comm, err)  # user handler; returning falls through to raise
        raise err

    # ------------------------------------------------------------------
    # simulator-internal synchronization points
    # ------------------------------------------------------------------
    def sync_arrive(
        self,
        vp: VirtualProcess,
        comm: Communicator,
        kind: str,
        seq: int,
        value: Any = None,
        cost_fn: Callable[[int], float] | None = None,
    ) -> Generator[Any, Any, SyncResult]:
        """Join synchronization point ``(comm, kind, seq)`` and block until
        every *currently alive* member of ``comm`` has joined.

        Members that fail while the point is open are dropped from the
        expectation, so the point still completes — the property ULFM
        shrink/agree need.  All participants are woken at
        ``max(arrival times) + cost_fn(n_alive)`` with the same
        :class:`SyncResult`.
        """
        key = (comm.context_id, kind, seq)
        sp = self._sync_points.get(key)
        if sp is None:
            sp = SyncPoint(key, comm, cost_fn or self.default_sync_cost)
            self._sync_points[key] = sp
        sp.arrived[vp.rank] = vp.clock
        sp.values[vp.rank] = value
        if not sp.completing:
            # Defer: the arriving VP must yield Block before any wake.
            sp.completing = True
            self.engine.schedule(vp.clock, self._check_sync_deferred, key)
        result = yield Block(f"sync {kind}#{seq} on {comm.name}")
        if not isinstance(result, SyncResult):
            raise SimulationError(f"sync point delivered {result!r}")
        return result

    def _check_sync_deferred(self, key: tuple) -> None:
        sp = self._sync_points.get(key)
        if sp is not None:
            sp.completing = False
            self._check_sync(sp)

    def _check_sync(self, sp: SyncPoint) -> None:
        alive = [r for r in sp.comm.group if self.states[r].vp.alive]
        if not alive:
            del self._sync_points[sp.key]
            return
        if any(r not in sp.arrived for r in alive):
            return  # still waiting for members
        # Completion waits for the last arrival — or, when a failure is what
        # unblocked the point, for the failure to become known (now).
        t_done = max(max(sp.arrived[r] for r in alive), self.engine.now) + sp.cost_fn(len(alive))
        result = SyncResult(
            alive=tuple(alive),
            values={r: sp.values[r] for r in alive},
            time=t_done,
        )
        if self.check is not None:
            self.check.on_sync_complete(sp, result)
        del self._sync_points[sp.key]
        for r in alive:
            self.engine.wake(self.states[r].vp, t_done, value=result)

    def default_sync_cost(self, n: int) -> float:
        """Modeled cost of a simulator-internal agreement among ``n`` ranks:
        a binomial-tree reduce-broadcast over the system network."""
        rounds = 2 * max(1, math.ceil(math.log2(max(2, n))))
        per_round = self.network.system.latency + self.network.send_overhead + self.network.recv_overhead
        return rounds * per_round

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def alive_ranks(self) -> list[int]:
        """Ranks whose virtual process is still alive."""
        return [s.rank for s in self.states if s.vp.alive]

    def pending_requests(self, rank: int) -> list[Request]:
        """This rank's posted receives and pending rendezvous sends."""
        state = self.states[rank]
        return state.iter_posted() + list(state.rdv_sends)

    def traffic_summary(self) -> dict[str, int]:
        """Cumulative message/byte counters."""
        return {"messages_sent": self.messages_sent, "bytes_sent": self.bytes_sent}
