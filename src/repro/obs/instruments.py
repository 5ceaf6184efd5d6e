"""Per-simulator instrumentation: one object, one guard, no globals.

Every :class:`~repro.sim.kernel.Simulator` carries an ``instruments``
attribute.  It carries the rule-lifecycle trace and its metrics (a
:class:`~repro.obs.tracer.Tracer`), the per-callback profile (a
:class:`~repro.obs.profiler.Profiler`) and the kernel event tap.
Instrumentation sites bind it once and branch on its ``active`` flag::

    ins = self.sim.instruments
    if ins.active:
        ins.rule(PHASE_MSG_SENT, self.sim.now, self.name, message.xid)

By default the simulator holds :data:`NULL_INSTRUMENTS`, whose ``active``
is a class attribute ``False`` and whose ``observer`` is ``None``: a site
costs one attribute load and one false branch, and the kernel loop one
``is not None`` test per event.  Lint rule RL004 enforces the guard.

Because the object belongs to one simulator, sessions running side by side
in threads each record only their own events.  One limit stays
process-wide: a :class:`~repro.obs.profiler.Profiler` takes its per-phase
memory columns from ``tracemalloc``, which traces the whole process, so
concurrent *profiled* sessions share (and disturb) those columns.  Their
call, event and schedule counts are per simulator and stay exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import Profiler
    from repro.obs.tracer import Tracer

#: ``observer(time, callback, args)``, called before each dispatched callback.
Observer = Callable[[float, Callable, tuple], None]


class NullInstruments:
    """Disarmed instruments: ``active`` is a class attribute, methods no-ops."""

    active = False
    #: The kernel event tap; ``None`` keeps the run loop tap-free.
    observer: Optional[Observer] = None
    tracer: Optional["Tracer"] = None
    profiler: Optional["Profiler"] = None

    def bind(self, sim) -> None:
        """Called by the simulator that takes these instruments (no-op)."""

    def rule(self, phase: str, ts: float, switch: str = "",
             xid: Optional[int] = None, detail: str = "") -> None:
        """Record a lifecycle event (no-op)."""

    def fault(self, ts: float, switch: str = "", detail: str = "") -> None:
        """Record a fault-model activation (no-op)."""

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter (no-op)."""

    def gauge(self, name: str, ts: float, value: float) -> None:
        """Record a gauge sample (no-op)."""

    def observe(self, name: str, ts: float, value: float) -> None:
        """Record a histogram observation (no-op)."""

    def phase(self, name: str) -> None:
        """Open a named session phase (no-op)."""


#: The shared disarmed instance every simulator starts with.
NULL_INSTRUMENTS = NullInstruments()


class Instruments(NullInstruments):
    """Armed instruments for one simulator.

    The trace methods forward to ``tracer`` and :meth:`phase` to
    ``profiler``; whichever is absent keeps its no-op.  ``observer`` and the
    profiler's own tap are chained into one kernel ``observer``.  ``active``
    is true when a tracer or profiler is present, so a tap-only run (the
    determinism sanitizer's) skips every emission site.
    """

    def __init__(self, tracer: Optional["Tracer"] = None,
                 profiler: Optional["Profiler"] = None,
                 observer: Optional[Observer] = None) -> None:
        self.active = tracer is not None or profiler is not None
        self.tracer = tracer
        self.profiler = profiler
        if tracer is not None:
            self.rule = tracer.rule
            self.fault = tracer.fault
            self.count = tracer.count
            self.gauge = tracer.gauge
            self.observe = tracer.observe
        if profiler is not None:
            self.phase = profiler.phase
            observer = _chain(observer, profiler.tap)
        self.observer = observer

    def bind(self, sim) -> None:
        """Start the profiler on ``sim``; a profiler serves one simulator."""
        if self.profiler is not None:
            self.profiler.attach(sim)


def _chain(first: Optional[Observer], second: Observer) -> Observer:
    """One observer calling ``first`` (if any), then ``second``."""
    if first is None:
        return second

    def both(time: float, callback: Callable, args: tuple) -> None:
        first(time, callback, args)
        second(time, callback, args)

    return both
