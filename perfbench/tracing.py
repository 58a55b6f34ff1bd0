"""Per-layer tracing for the benchmark, installed from outside the library.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of each layer with timing wrappers, so a
traced run records, per layer:

* a call count, the total time inside the call, and the *self* time (the
  total minus the time covered by nested traced calls);
* a span record ``(name, start, end, parent, cell, pid)`` for the coarse
  boundaries (campaigns, cells, engine runs, restart loops, cache I/O).
  Hot per-message functions (``post_send``, ``transfer_time``, ...) are
  aggregated only: keeping one record per call would hold millions of
  tuples in memory at 32k ranks.

Generator functions (``sync_arrive``, checkpoint writes) are timed per
resumption, so their self time is the time spent inside their frames.

Campaign cells run in forked pool workers, which inherit the wrappers.
After every cell a worker appends its records to ``<spool>/<pid>.jsonl``
and resets them; :meth:`Tracer.collect` merges those files into the
parent's totals after each campaign.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Names whose every call is kept as a span record (the rest aggregate).
SPAN_NAMES = frozenset(
    {
        "explore.run",
        "harness.executor.run",
        "run.cell",
        "run.make_sim",
        "pdes.run",
        "mpi.launch",
        "restart.run",
        "cache.lookup",
        "cache.store",
    }
)


class Tracer:
    """Span stack, per-name aggregates, counters and span records of one
    process.  A forked worker inherits a copy and spools it per cell."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.owner_pid = self.pid = os.getpid()
        self.cell: Any = None
        #: Open frames: ``[span id, start, child seconds, pid]``.
        self.stack: list[list] = []
        self._next_id = 0
        self._reset()

    def _reset(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.cell_seconds: list[float] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, perf_counter(), 0.0, self.pid]
        self.stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[1] += duration
        entry[2] += duration - frame[2]
        if name in SPAN_NAMES:
            parent = f"{stack[-1][3]}:{stack[-1][0]}" if stack else None
            self.spans.append(
                (name, frame[1], end, f"{self.pid}:{frame[0]}", parent, self.cell, self.pid)
            )

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A timing wrapper around ``fn`` (plain or generator function)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.agg.setdefault(name, [0, 0.0, 0.0])[0] += 1
                return _TimedGenerator(tracer, name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame)
                tracer.agg[name][0] += 1

        return wrapper

    # -- worker spooling -------------------------------------------------
    def in_worker(self) -> bool:
        return self.pid != self.owner_pid

    def enter_process(self) -> None:
        """Drop the parent's records a freshly forked worker inherited
        (open parent frames stay, so worker spans keep their parent)."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self._reset()

    def flush_worker(self) -> None:
        """Append this worker's records to its spool file and reset."""
        record = {
            "agg": self.agg,
            "counters": self.counters,
            "spans": self.spans,
            "cell_seconds": self.cell_seconds,
        }
        with open(self.spool / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self._reset()

    def collect(self) -> None:
        """Merge (and delete) every worker spool file into this tracer."""
        for path in sorted(self.spool.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for name, (calls, total, own) in record["agg"].items():
                    entry = self.agg.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
                for name, value in record["counters"].items():
                    self.count(name, value)
                self.spans.extend(tuple(s) for s in record["spans"])
                self.cell_seconds.extend(record["cell_seconds"])
            path.unlink()

    # -- reading -------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def write_spans(self, path: Path) -> None:
        """Write every span record as one JSON object per line."""
        keys = ("name", "start", "end", "id", "parent", "cell", "pid")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _TimedGenerator:
    """Delegates to a generator, timing each resumption as one frame."""

    __slots__ = ("_tracer", "_name", "_gen")

    def __init__(self, tracer: Tracer, name: str, gen):
        self._tracer = tracer
        self._name = name
        self._gen = gen

    def __iter__(self):
        return self

    def _step(self, method, *args):
        tracer = self._tracer
        frame = tracer._enter()
        try:
            return method(*args)
        finally:
            tracer._leave(self._name, frame)

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *args):
        return self._step(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _patch(owner: type, attr: str, tracer: Tracer, name: str, undo: list) -> None:
    original = owner.__dict__[attr]
    undo.append((owner, attr, original))
    setattr(owner, attr, tracer.wrap(original, name))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer boundary; returns the function that
    restores the originals."""
    from repro.cache.store import ResultCache
    from repro.core.checkpoint.protocol import CheckpointProtocol
    from repro.core.faults.overlay import FaultOverlay
    from repro.core.harness import parallel
    from repro.core.restart import RestartDriver
    from repro.core.simulator import XSim
    from repro.explore import sampler
    from repro.models.network.model import NetworkModel
    from repro.mpi.world import MpiWorld
    from repro.pdes.engine import Engine
    from repro.resilience import multilevel, strategy
    from repro.run import backends
    from repro.run.scenario import Scenario

    undo: list = []
    plain = [
        (Engine, "run", "pdes.run"),
        (MpiWorld, "launch", "mpi.launch"),
        (MpiWorld, "post_send", "mpi.post_send"),
        (MpiWorld, "irecv", "mpi.irecv"),
        (MpiWorld, "sync_arrive", "mpi.sync_arrive"),
        (FaultOverlay, "stretch_compute", "faults.stretch_compute"),
        (CheckpointProtocol, "write", "checkpoint.write"),
        (multilevel.MultilevelProtocol, "checkpoint", "checkpoint.write"),
        (Scenario, "scenario_digest", "run.scenario_digest"),
        (backends.Backend, "make_sim", "run.make_sim"),
        (sampler.Explorer, "run", "explore.run"),
    ]
    for owner, attr, name in plain:
        _patch(owner, attr, tracer, name, undo)
    for cls in _subclasses(strategy.ResilienceStrategy):
        for attr in ("segment_store", "on_abort"):
            if attr in cls.__dict__:
                _patch(cls, attr, tracer, f"resilience.{attr}", undo)

    # Results and counts read off the wrapped call's arguments/return.
    def observe(owner, attr, name, after):
        original = owner.__dict__[attr]
        timed = tracer.wrap(original, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            after(args, out)
            return out

        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def after_xsim_run(args, result):
        sim = args[0]
        world = sim.world
        traffic = world.traffic_summary()
        tracer.count("mpi.messages", traffic["messages_sent"])
        tracer.count("mpi.bytes", traffic["bytes_sent"])
        tracer.count("pdes.events", result.event_count)
        lru = getattr(world.network.transfer_time, "lru", None)
        if lru is not None:
            info = lru.cache_info()
            tracer.count("models.transfer_time.hits", info.hits)
            tracer.count("models.transfer_time.misses", info.misses)

    def after_restart(args, run):
        tracer.count("restart.segments", len(run.segments))

    observe(XSim, "run", "sim.run", after_xsim_run)
    observe(RestartDriver, "run", "restart.run", after_restart)

    # The network model shadows its cost methods with per-instance LRU
    # caches; wrap the installed transfer_time so its calls are timed and
    # its cache_info() stays reachable.
    install_caches = NetworkModel.__dict__["_install_caches"]

    @functools.wraps(install_caches)
    def traced_install(self):
        install_caches(self)
        lru = self.__dict__["transfer_time"]
        timed = tracer.wrap(lru, "models.transfer_time")
        timed.lru = lru
        self.transfer_time = timed

    undo.append((NetworkModel, "_install_caches", install_caches))
    NetworkModel._install_caches = traced_install

    _install_cache_wrappers(tracer, ResultCache, undo)
    _install_campaign_wrappers(tracer, parallel, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _install_cache_wrappers(tracer: Tracer, ResultCache: type, undo: list) -> None:
    """Cache I/O spans plus hit/byte/degradation counts from stats deltas
    (``CacheStats`` is per process, so deltas also work in workers)."""
    degraded_seen: set = set()

    def note_degraded(store, before_corrupt, before_errors):
        tracer.count("cache.corrupt", store.stats.corrupt - before_corrupt)
        tracer.count("cache.store_errors", store.stats.store_errors - before_errors)
        key = (os.getpid(), id(store))
        if store.disabled_reason is not None and key not in degraded_seen:
            degraded_seen.add(key)
            tracer.count("cache.disabled", 1)

    lookup = ResultCache.__dict__["lookup"]
    timed_lookup = tracer.wrap(lookup, "cache.lookup")

    @functools.wraps(lookup)
    def traced_lookup(self, scenario):
        stats = self.stats
        corrupt, errors, hit_bytes = stats.corrupt, stats.store_errors, stats.hit_bytes
        out = timed_lookup(self, scenario)
        tracer.count("cache.hits" if out is not None else "cache.misses")
        tracer.count("cache.hit_bytes", stats.hit_bytes - hit_bytes)
        note_degraded(self, corrupt, errors)
        return out

    store = ResultCache.__dict__["store"]
    timed_store = tracer.wrap(store, "cache.store")

    @functools.wraps(store)
    def traced_store(self, scenario, outcome, wall_s=0.0):
        stats = self.stats
        corrupt, errors, nbytes = stats.corrupt, stats.store_errors, stats.store_bytes
        out = timed_store(self, scenario, outcome, wall_s)
        tracer.count("cache.store_bytes", stats.store_bytes - nbytes)
        note_degraded(self, corrupt, errors)
        return out

    undo.append((ResultCache, "lookup", lookup))
    undo.append((ResultCache, "store", store))
    ResultCache.lookup = traced_lookup
    ResultCache.store = traced_store


def _install_campaign_wrappers(tracer: Tracer, parallel: Any, undo: list) -> None:
    """Cell spans (spooled from workers) and executor spans with the
    worker count each pool ran."""
    run_spec = parallel.run_spec

    @functools.wraps(run_spec)
    def traced_run_spec(spec):
        tracer.enter_process()
        previous = tracer.cell
        tracer.cell = spec.key
        frame = tracer._enter()
        try:
            return run_spec(spec)
        finally:
            tracer._leave("run.cell", frame)
            tracer.agg["run.cell"][0] += 1
            cell_s = perf_counter() - frame[1]
            tracer.cell_seconds.append(cell_s)
            tracer.cell = previous
            if tracer.in_worker():
                tracer.count("harness.pool_busy_s", cell_s)
                tracer.flush_worker()

    undo.append((parallel, "run_spec", run_spec))
    parallel.run_spec = traced_run_spec

    executor_run = parallel.CampaignExecutor.__dict__["run"]
    timed_run = tracer.wrap(executor_run, "harness.executor.run")

    @functools.wraps(executor_run)
    def traced_executor_run(self, specs):
        specs = list(specs)
        t0 = perf_counter()
        out = timed_run(self, specs)
        if self.last_mode == "pool":
            workers = min(self.max_workers, len(specs))
            tracer.count("harness.pool_worker_s", workers * (perf_counter() - t0))
        tracer.collect()
        return out

    undo.append((parallel.CampaignExecutor, "run", executor_run))
    parallel.CampaignExecutor.run = traced_executor_run
