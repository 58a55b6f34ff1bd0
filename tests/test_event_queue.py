"""The engine's time-bucketed event queue.

The queue keeps a heap of distinct timestamps and a FIFO of entries per
timestamp.  Its contract is the one a binary heap of ``(time, seq, ...)``
tuples gives: events dispatch in ``(time, seq)`` order, including events
pushed at the current instant during dispatch, and guarded events whose
VP changed epoch are skipped.  These tests drive the queue with schedules
that are mostly timestamp ties and compare it against a plain-heap
reference, through the serial loop and the windowed (sharded) interface.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.sanitizer import Sanitizer
from repro.pdes.context import VirtualProcess
from repro.pdes.engine import Engine
from repro.pdes.requests import Advance

#: Few distinct offsets, so most events tie with others on their timestamp;
#: 0.0 makes a child fire at the instant its parent dispatches.
_DTS = [0.0, 0.0, 0.25, 1.0]


@dataclass(frozen=True)
class Node:
    """What dispatching one event does: queue ``children`` (offsets from
    now), guarded by guard VP ``guard`` (``None``: unguarded), then bump
    guard VP ``kill``'s epoch (``None``: none), staling its queued events."""

    children: tuple[float, ...]
    guard: int | None
    kill: int | None


node_strategy = st.builds(
    Node,
    children=st.lists(st.sampled_from(_DTS), max_size=3).map(tuple),
    guard=st.one_of(st.none(), st.integers(0, 2)),
    kill=st.one_of(st.none(), st.none(), st.integers(0, 2)),
)
roots_strategy = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]), st.one_of(st.none(), st.integers(0, 2))),
    min_size=1,
    max_size=12,
)
programs_strategy = st.lists(
    st.lists(st.sampled_from([0.0, 0.25, 0.25, 1.0]), max_size=5), max_size=4
)


class Recorder:
    """An ``event_trace`` stand-in keeping ``(time, seq)`` per dispatch."""

    def __init__(self) -> None:
        self.dispatched: list[tuple[float, int]] = []
        self.coalesced: list[float] = []

    def record_dispatch(self, time, seq, gvp, fn, args) -> None:
        self.dispatched.append((time, seq))

    def record_coalesced(self, time, rank) -> None:
        self.coalesced.append(time)


class SpecRun:
    """Queues the node-spec events on ``engine``; records dispatched ids."""

    def __init__(self, engine: Engine, nodes: list[Node], cap: int = 80):
        self.engine = engine
        self.nodes = nodes
        self.cap = cap
        self.guards = [VirtualProcess(rank=100 + i, gen=None) for i in range(3)]
        self.order: list[int] = []
        self.created = 0

    def push(self, time: float, guard: int | None) -> None:
        eid = self.created
        self.created += 1
        if guard is None:
            self.engine.schedule(time, self.fire, eid)
        else:
            self.engine._schedule_vp(time, self.guards[guard], self.fire, eid)

    def fire(self, eid: int) -> None:
        self.order.append(eid)
        if eid >= len(self.nodes):
            return
        node = self.nodes[eid]
        for dt in node.children:
            if self.created < self.cap:
                self.push(self.engine.now + dt, node.guard)
        if node.kill is not None:
            self.guards[node.kill].epoch += 1


def reference_order(roots, nodes: list[Node], cap: int = 80) -> list[int]:
    """The same spec on a binary heap of ``(time, seq, ...)`` tuples."""
    heap: list = []
    epochs = [0, 0, 0]
    state = {"created": 0, "seq": 0}
    order: list[int] = []

    def push(time, guard):
        eid = state["created"]
        state["created"] += 1
        state["seq"] += 1
        epoch = None if guard is None else epochs[guard]
        heapq.heappush(heap, (time, state["seq"], guard, epoch, eid))

    for time, guard in roots:
        push(time, guard)
    while heap:
        now, _seq, guard, epoch, eid = heapq.heappop(heap)
        if guard is not None and epochs[guard] != epoch:
            continue
        order.append(eid)
        if eid < len(nodes):
            node = nodes[eid]
            for dt in node.children:
                if state["created"] < cap:
                    push(now + dt, node.guard)
            if node.kill is not None:
                epochs[node.kill] += 1
    return order


def _vp_main(program):
    for dt in program:
        yield Advance(dt)


def _build(roots, nodes, programs, coalesce):
    engine = Engine(coalesce_advances=coalesce)
    engine.event_trace = Recorder()
    for program in programs:
        engine.spawn(_vp_main(program))
    spec = SpecRun(engine, nodes)
    for time, guard in roots:
        spec.push(time, guard)
    return engine, spec


@given(
    roots=roots_strategy,
    nodes=st.lists(node_strategy, max_size=40),
    programs=programs_strategy,
    coalesce=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_dispatch_order_is_time_then_seq(roots, nodes, programs, coalesce):
    engine, spec = _build(roots, nodes, programs, coalesce)
    result = engine.run()
    dispatched = engine.event_trace.dispatched
    # Strictly increasing (time, seq): same-instant pushes made during
    # dispatch run after every earlier-queued event of that instant.
    assert dispatched == sorted(dispatched)
    assert len(set(dispatched)) == len(dispatched)
    # The spec events run in exactly the plain-heap order, stale ones
    # skipped (VP events interleave without changing their relative order).
    assert spec.order == reference_order(roots, nodes)
    assert engine.stale_skipped == spec.created - len(spec.order)
    assert engine.queue_size() == 0
    assert result.event_count == len(dispatched) + len(engine.event_trace.coalesced)
    if not coalesce:
        assert engine.coalesced_advances == 0


@given(
    roots=roots_strategy,
    nodes=st.lists(node_strategy, max_size=40),
    programs=programs_strategy,
)
@settings(max_examples=60, deadline=None)
def test_coalescing_does_not_reorder_queued_events(roots, nodes, programs):
    slow, slow_spec = _build(roots, nodes, programs, coalesce=False)
    fast, fast_spec = _build(roots, nodes, programs, coalesce=True)
    base, quick = slow.run(), fast.run()
    assert fast_spec.order == slow_spec.order
    assert quick.event_count == base.event_count
    assert quick.end_times == base.end_times
    assert quick.exit_time == base.exit_time


@given(
    roots=roots_strategy,
    nodes=st.lists(node_strategy, max_size=40),
    programs=programs_strategy,
    window=st.sampled_from([0.0, 0.25, 0.5, 2.0]),
    coalesce=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_windowed_dispatch_matches_run(roots, nodes, programs, window, coalesce):
    """run_window / run_exact / next_event_time dispatch exactly what run()
    does, in the same order, whatever the window width."""
    serial, serial_spec = _build(roots, nodes, programs, coalesce)
    base = serial.run()

    engine, spec = _build(roots, nodes, programs, coalesce)
    engine.begin_windowed_run()
    try:
        for _ in range(1000):  # every round dispatches at least one event
            t = engine.next_event_time()
            if t == math.inf:
                break
            if window == 0.0:
                engine.run_exact(t)
            else:
                engine.run_window(t + window)
        else:
            raise AssertionError("windowed dispatch stopped making progress")
    finally:
        engine.finish_windowed_run()
    result = engine._result()
    assert spec.order == serial_spec.order
    if not coalesce:
        # (Window bounds cap inline coalescing, so with it on the split
        # between queued and inline resumes may differ; counts may not.)
        assert engine.event_trace.dispatched == serial.event_trace.dispatched
    assert result.event_count == base.event_count
    assert result.end_times == base.end_times
    assert engine.stale_skipped == serial.stale_skipped


def test_next_event_time_prunes_stale_heads():
    engine = Engine()
    vp = VirtualProcess(rank=7, gen=None)
    fired = []
    engine._schedule_vp(1.0, vp, fired.append, "stale-a")
    engine._schedule_vp(1.0, vp, fired.append, "stale-b")
    engine.schedule(1.0, fired.append, "live")
    engine._schedule_vp(0.5, vp, fired.append, "stale-c")
    vp.epoch += 1
    engine.begin_windowed_run()
    # The stale 0.5 bucket and the two stale heads of the 1.0 bucket go.
    assert engine.next_event_time() == 1.0
    assert engine.stale_skipped == 3
    assert engine.queue_size() == 1
    engine.run_exact(1.0)
    engine.finish_windowed_run()
    assert fired == ["live"]
    assert engine.next_event_time() == math.inf


def test_deactivate_remote_keeps_owned_events_in_order():
    programs = [[0.25, 0.25, 1.0], [0.25, 1.0], [1.0, 0.25], [0.25]]
    serial = Engine()
    for program in programs:
        serial.spawn(_vp_main(program))
    serial.inject_delay(1, 0.25, 0.5)
    serial.inject_delay(2, 0.25, 0.5)
    base = serial.run()

    engine = Engine()
    engine.event_trace = Recorder()
    for program in programs:
        engine.spawn(_vp_main(program))
    fired = []
    engine.schedule(0.25, fired.append, "first")
    engine.inject_delay(1, 0.25, 0.5)  # rank 1 is remote: dropped
    engine.inject_delay(2, 0.25, 0.5)  # rank 2 is owned: kept
    engine.schedule(0.25, fired.append, "second")
    before = engine.heap_head(20)
    engine.deactivate_remote(frozenset({0, 2}))
    after = engine.heap_head(20)
    # Owned starts (ranks 0, 2), the kept delay and both unguarded events,
    # in their original (time, seq) order.
    kept = [r for r in before if r["rank"] in (0, 2) or (r["rank"] is None and r["seq"] != 6)]
    assert after == kept
    assert engine.queue_size() == len(kept) == 5
    engine.begin_windowed_run()
    for _ in range(100):
        if (t := engine.next_event_time()) == math.inf:
            break
        engine.run_window(t + 0.5)
    engine.finish_windowed_run()
    assert engine.next_event_time() == math.inf
    assert fired == ["first", "second"]
    result = engine._result()
    for rank in (0, 2):
        assert result.end_times[rank] == base.end_times[rank]
    assert engine.event_trace.dispatched == sorted(engine.event_trace.dispatched)


def test_sanitizer_dump_keeps_heap_shape():
    engine = Engine()
    vp = VirtualProcess(rank=3, gen=None)
    noop = lambda *args: None  # noqa: E731
    for i in range(30):
        engine.schedule(float(i % 3), noop, i)  # ten events on each of 3 times
    engine._schedule_vp(0.5, vp, noop)
    dump = Sanitizer(engine).dump()
    assert dump["heap_size"] == 31
    head = dump["heap_head"]
    assert len(head) == 20
    assert set(head[0]) == {"time", "seq", "rank", "fn"}
    keys = [(r["time"], r["seq"]) for r in head]
    assert keys == sorted(keys)
    assert [r["time"] for r in head] == [0.0] * 10 + [0.5] + [1.0] * 9
    assert head[10]["rank"] == 3 and head[0]["rank"] is None
    assert head[0]["fn"] == "<lambda>"
    assert engine.heap_head(0) == []
