"""The collecting rule-lifecycle tracer.

A :class:`Tracer` appends slotted :class:`~repro.obs.events.TraceEvent`
records and feeds a sim-clock :class:`~repro.obs.metrics.MetricsRegistry`.
It is armed per simulator: the session engine wraps it in
:class:`~repro.obs.instruments.Instruments`, whose guarded emission sites
forward here, and freezes it with :meth:`Tracer.finish` when the run ends.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import PHASE_FAULT, TraceEvent, TraceLog
from repro.obs.metrics import MetricsRegistry


class Tracer:
    """Collecting tracer: appends slotted events, feeds a metrics registry."""

    def __init__(self, technique: str = "", kind: str = "",
                 seed: Optional[int] = None) -> None:
        self.technique = technique
        self.kind = kind
        self.seed = seed
        self.events: list = []
        self.metrics = MetricsRegistry()

    def rule(self, phase: str, ts: float, switch: str = "",
             xid: Optional[int] = None, detail: str = "") -> None:
        self.events.append(TraceEvent(ts, phase, switch, xid, detail))

    def fault(self, ts: float, switch: str = "", detail: str = "") -> None:
        self.events.append(TraceEvent(ts, PHASE_FAULT, switch, None, detail))

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, ts: float, value: float) -> None:
        self.metrics.gauge(name).set(ts, value)

    def observe(self, name: str, ts: float, value: float) -> None:
        self.metrics.histogram(name).observe(ts, value)

    def finish(self, meta: Optional[dict] = None) -> TraceLog:
        """Freeze the collected events + metrics into a ``TraceLog``."""
        log = TraceLog(technique=self.technique, kind=self.kind,
                       seed=self.seed, events=self.events,
                       metrics=self.metrics.as_dict())
        if meta:
            log.meta.update(meta)
        return log
