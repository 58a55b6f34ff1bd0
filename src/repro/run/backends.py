"""The runtime-backend registry: every way of executing a scenario.

A :class:`Backend` turns a :class:`~repro.run.scenario.Scenario` into a
running simulation behind one interface — ``execute(scenario) ->
SimulationResult`` — and is registered by name:

* ``serial`` — the single-process PDES engine;
* ``sharded-inline`` — the conservative windowed engine with every shard
  replica driven in one process (bit-exact with serial; the parity
  oracle of the windowed protocol, not a speedup).

:class:`~repro.core.simulator.XSim` routes its ``run`` dispatch through
this registry, which makes a new execution mode one ``@register_backend``
entry instead of an edit at every launcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.restart import FailureRunResult
    from repro.core.simulator import XSim
    from repro.pdes.engine import SimulationResult
    from repro.run.scenario import Scenario

#: name -> Backend instance.
BACKENDS: dict[str, "Backend"] = {}


def register_backend(backend_cls: type) -> type:
    """Class decorator: instantiate and register a backend by its name."""
    backend = backend_cls()
    if backend.name in BACKENDS:
        raise ConfigurationError(f"duplicate backend {backend.name!r}")
    BACKENDS[backend.name] = backend
    return backend_cls


def backend_names() -> tuple[str, ...]:
    """Registered backend names, registration-ordered."""
    return tuple(BACKENDS)


def get_backend(name: str) -> "Backend":
    """Look a backend up by name."""
    backend = BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r} (registered: {', '.join(BACKENDS)})"
        )
    return backend


class Backend:
    """One execution mode.  Subclasses set ``name`` and implement
    :meth:`run_engine`."""

    name: str = "?"

    def make_sim(
        self,
        scenario: Scenario,
        start_time: float = 0.0,
        log_stream=None,
        observe: Any = None,
    ) -> "XSim":
        """Build a configured (not yet run) simulation for the scenario."""
        from repro.core.simulator import XSim

        return XSim(
            scenario.system_config(),
            seed=scenario.seed,
            start_time=start_time,
            log_stream=log_stream,
            check=scenario.check,
            record_events=scenario.record_events,
            shards=scenario.shards,
            observe=observe if observe is not None else (scenario.observe or None),
            trace_detail=scenario.trace_detail,
            scenario=scenario,
        )

    def execute(
        self, scenario: Scenario, *, log_stream=None, observe: Any = None
    ) -> "SimulationResult":
        """One single-segment run of the scenario on this backend: build
        the simulation, arm the explicit failure schedule, launch the
        strategy-armed app with a fresh store, and simulate to
        completion/abort."""
        sim = self.make_sim(scenario, log_stream=log_stream, observe=observe)
        schedule = scenario.schedule()
        if schedule:
            sim.inject_schedule(schedule)
        strategy = scenario.make_strategy()
        strategy.begin_run()
        app, make_args = scenario.make_app(strategy=strategy)
        return sim.run(app, args=make_args(strategy.segment_store()))

    def run_engine(self, sim: "XSim", app, args: tuple, nranks: int):
        """Drive an already-launched simulation to its result (the
        dispatch target of ``XSim.run``)."""
        raise NotImplementedError

    def describe(self, sim: "XSim") -> dict[str, Any]:
        """Backend block of ``XSim.describe_architecture``."""
        return {"name": self.name, "shards": sim.shards}


@register_backend
class SerialBackend(Backend):
    """The single-process PDES engine."""

    name = "serial"

    def run_engine(self, sim: "XSim", app, args: tuple, nranks: int):
        if sim.observer is not None:
            t0 = perf_counter()
            result = sim.engine.run()
            sim.observer.host_span(
                t0, perf_counter(), "engine-run", track="engine",
                args={"events": sim.engine.event_count},
            )
            return result
        return sim.engine.run()


@register_backend
class ShardedInlineBackend(Backend):
    """Conservative windowed shards, all driven in one process."""

    name = "sharded-inline"

    def run_engine(self, sim: "XSim", app, args: tuple, nranks: int):
        from repro.pdes.sharded import run_sharded

        return run_sharded(sim, app, args, nranks)


def backend_for(shards: int) -> Backend:
    """The backend a shard count selects."""
    return get_backend("serial" if shards <= 1 else "sharded-inline")


# ----------------------------------------------------------------------
# scenario execution (single run or full restart experiment)
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """What one scenario run produced.

    ``mode`` is ``"single"`` (one engine run; ``sim``/``result`` set) or
    ``"restart"`` (a full failure/restart experiment under
    :class:`~repro.core.restart.RestartDriver`; ``run`` set).
    """

    scenario: Scenario
    mode: str
    result: "SimulationResult | None" = None
    run: "FailureRunResult | None" = None
    sim: "XSim | None" = None
    observer: Any = None
    #: Execution facts that are *not* part of the result (and therefore
    #: never of the digest): the shard count the run used, cache hits.
    metadata: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.run.completed if self.run is not None else self.result.completed

    @property
    def last_result(self) -> "SimulationResult":
        """The (final-segment) simulation result."""
        return self.run.segments[-1].result if self.run is not None else self.result

    def digest(self) -> str:
        """Canonical result fingerprint: :func:`result_digest` of a single
        run, or the campaign digest over per-segment result digests of a
        restart experiment.  Equal across backends for equal scenarios."""
        from repro.core.harness.experiment import campaign_digest, result_digest

        if self.run is not None:
            return campaign_digest([result_digest(s.result) for s in self.run.segments])
        return result_digest(self.result)

    def summary(self) -> dict[str, Any]:
        """Primitive-only record of the outcome (campaign transport)."""
        out: dict[str, Any] = {
            "mode": self.mode,
            "backend": self.scenario.backend_name(),
            "scenario_digest": self.scenario.scenario_digest(),
            "result_digest": self.digest(),
            "completed": self.completed,
            "exit_time": self.last_result.exit_time,
            "strategy": self.scenario.strategy,
        }
        if self.run is not None:
            out.update(
                e2=self.run.e2,
                failures=self.run.f,
                restarts=self.run.restarts,
                mttf_a=self.run.mttf_a,
            )
            if self.run.strategy_facts:
                out["strategy_facts"] = dict(self.run.strategy_facts)
        else:
            out.update(failures=len(self.result.failures), restarts=0)
        return out


def _execution_metadata(stats) -> dict:
    """:attr:`ScenarioOutcome.metadata` from a run's
    :class:`~repro.pdes.sharded.ShardStats` (``{}`` for serial runs).
    Pure execution facts — deliberately excluded from the digest."""
    if stats is None:
        return {}
    return {"nshards": stats.nshards}


def run_scenario(
    scenario: Scenario,
    *,
    log_stream=None,
    observe: Any = None,
    force_single: bool = False,
    cache: Any = None,
) -> ScenarioOutcome:
    """Execute a scenario end to end on its resolved backend.

    A scenario with failure injection (an ``mttf`` or an explicit
    schedule) runs the full restart loop — one
    :class:`~repro.core.restart.RestartDriver` carrying this scenario
    across segments; otherwise (or with ``force_single=True``, the
    trace-record/replay path) it is one engine run via
    :meth:`Backend.execute`.

    ``cache`` selects the content-addressed result store consulted
    *before* dispatching to any backend (and written through after a
    computed run): ``None`` defers to the ``XSIM_CACHE`` /
    ``XSIM_CACHE_DIR`` environment policy, ``False`` disables caching
    for this call, and a :class:`~repro.cache.ResultCache` is used
    directly.  A hit is bit-identical to recomputation (result digest,
    summary, sim-domain exporter bytes — the ``cache-parity`` simcheck)
    and is marked in :attr:`ScenarioOutcome.metadata` as ``cache_hit``.
    Trace-recording runs (``record_events`` / ``force_single``) and
    calls with a caller-supplied observer bypass the cache, because a
    hit cannot repopulate live instrumentation objects.
    """
    from repro.cache import cacheable, resolve_cache

    store = resolve_cache(cache)
    use_cache = (
        store is not None
        and not force_single
        and observe is None
        and cacheable(scenario)
    )
    if use_cache:
        hit = store.lookup(scenario)
        if hit is not None:
            return hit
    t0 = perf_counter()
    backend = get_backend(scenario.backend_name())
    wants_driver = scenario.mttf is not None or bool(scenario.schedule())
    if wants_driver and not force_single:
        from repro.core.restart import RestartDriver

        driver = RestartDriver.from_scenario(
            scenario, log_stream=log_stream, observe=observe
        )
        run = driver.run()
        outcome = ScenarioOutcome(
            scenario=scenario, mode="restart", run=run, observer=driver.observer,
            metadata=_execution_metadata(getattr(driver, "shard_stats", None)),
        )
    else:
        sim = backend.make_sim(scenario, log_stream=log_stream, observe=observe)
        schedule = scenario.schedule()
        if schedule:
            sim.inject_schedule(schedule)
        strategy = scenario.make_strategy()
        strategy.begin_run()
        app, make_args = scenario.make_app(strategy=strategy)
        result = sim.run(app, args=make_args(strategy.segment_store()))
        outcome = ScenarioOutcome(
            scenario=scenario, mode="single", result=result, sim=sim,
            observer=sim.observer,
            metadata=_execution_metadata(getattr(sim, "shard_stats", None)),
        )
    if use_cache:
        if outcome.observer is not None:
            outcome.observer.host_instant(
                perf_counter(), "cache-miss", track="cache",
                args={"stored": True},
            )
        store.store(scenario, outcome, wall_s=perf_counter() - t0)
        note = store.pop_warning()
        if note is not None:
            # Surface the corruption/disable fallback in the run's own
            # SimLog (the recomputation the warning promised happened).
            outcome.last_result.log.log(0.0, "cache", note, level="warning")
    return outcome
