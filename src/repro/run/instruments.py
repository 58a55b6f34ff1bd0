"""The instrumentation attach point: one hook table for every backend.

Three cross-cutting instruments exist today — the runtime invariant
:class:`~repro.check.sanitizer.Sanitizer`, the
:class:`~repro.check.trace.EventTrace` dispatch recorder, and the
:class:`~repro.obs.Observer` telemetry bus.  Each used to be wired by hand
at every launcher (``XSim.__init__``, the sharded worker setup, the
restart driver, the campaign executor); adding a fourth meant five edit
sites.  Now every launcher calls :func:`attach_instruments` on its
engine/world pair and the table does the wiring, so a new instrument is
one :func:`instrument` registration.

An attach hook receives the host (anything with ``engine`` and ``world``
attributes, i.e. an :class:`~repro.core.simulator.XSim` or a sharded
replica) plus the instrumentation switches, wires its instrument in, and
returns the instrument object (or ``None`` when its switch is off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util.errors import ConfigurationError

#: name -> attach hook.  Iteration order is registration order.
INSTRUMENTS: dict[str, Callable[..., Any]] = {}


def instrument(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register an instrumentation attach hook under ``name``."""

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in INSTRUMENTS:
            raise ConfigurationError(f"duplicate instrument {name!r}")
        INSTRUMENTS[name] = fn
        return fn

    return register


@dataclass
class AttachedInstruments:
    """What :func:`attach_instruments` wired onto one engine/world pair."""

    checker: Any = None
    event_trace: Any = None
    observer: Any = None
    #: Results of instruments beyond the three first-class ones.
    extras: dict[str, Any] = field(default_factory=dict)


def attach_instruments(
    host: Any,
    *,
    check: bool | None = None,
    record_events: bool = False,
    observe: Any = None,
    trace_detail: bool = False,
) -> AttachedInstruments:
    """Run every registered hook against ``host`` (its ``engine`` and
    ``world``), returning the attached instrument objects.

    ``check=None`` defers to the ``XSIM_CHECK`` environment variable;
    ``observe`` accepts ``True``/``False``/``None`` or an existing
    :class:`~repro.obs.Observer` (e.g. one shared across restart
    segments).
    """
    attached = AttachedInstruments()
    switches = {
        "check": check,
        "record_events": record_events,
        "observe": observe,
        "trace_detail": trace_detail,
    }
    for name, hook in INSTRUMENTS.items():
        result = hook(host, **switches)
        if name == "sanitizer":
            attached.checker = result
        elif name == "event-trace":
            attached.event_trace = result
        elif name == "observer":
            attached.observer = result
        else:
            attached.extras[name] = result
    return attached


def coerce_observer(observe: Any, detail: bool = False):
    """``None``/``False`` -> no observer; ``True`` -> a fresh
    :class:`~repro.obs.Observer`; an Observer instance -> itself."""
    if observe is None or observe is False:
        return None
    from repro.obs import Observer

    if isinstance(observe, Observer):
        return observe
    return Observer(detail=detail)


def make_shard_observer(parent_observer):
    """A fresh shard-local bus mirroring the parent's configuration.

    Shard workers must not record into the parent observer directly (the
    shard-0 worker shares the parent sim, so events would duplicate at
    merge time); they record locally and ship events back in the shard
    report.
    """
    if parent_observer is None:
        return None
    from repro.obs import Observer

    return Observer(detail=parent_observer.detail)


# ----------------------------------------------------------------------
# the three first-class instruments
# ----------------------------------------------------------------------
@instrument("sanitizer")
def _attach_sanitizer(host: Any, *, check: bool | None = None, **_: Any):
    from repro.check import checking_enabled
    from repro.check.sanitizer import Sanitizer

    if not (check if check is not None else checking_enabled()):
        return None
    checker = Sanitizer(host.engine, host.world)
    host.engine.check = checker
    host.world.check = checker
    return checker


@instrument("event-trace")
def _attach_event_trace(host: Any, *, record_events: bool = False, **_: Any):
    from repro.check.trace import EventTrace

    if not record_events:
        return None
    trace = EventTrace()
    host.engine.event_trace = trace
    return trace


@instrument("observer")
def _attach_observer(
    host: Any, *, observe: Any = None, trace_detail: bool = False, **_: Any
):
    observer = coerce_observer(observe, detail=trace_detail)
    if observer is None:
        return None
    host.engine.obs = observer
    host.world.obs = observer
    return observer
