"""Observability: rule-lifecycle tracing and a lightweight metrics layer.

The paper's central phenomenon is a *timing gap* — a switch acknowledges a
FIB update before (or without ever) activating it in hardware.  This package
makes that gap a first-class measurement instead of an end-of-run aggregate:

* :mod:`repro.obs.events` — typed trace events for the rule-update
  lifecycle (``update-issued → msg-sent → switch-received → ack-sent →
  ack-received`` on the control path, ``control-applied → hw-activated`` on
  the switch), each stamped with sim-time, switch id, xid and technique,
  collected into a :class:`~repro.obs.events.TraceLog`;
* :mod:`repro.obs.instruments` — the per-simulator instrumentation object
  (``sim.instruments``) every instrumented site consults.  It carries the
  trace, the profile and the kernel event tap.  The default is the shared
  :data:`~repro.obs.instruments.NULL_INSTRUMENTS`, whose ``active`` flag
  short-circuits every site, so runs with instrumentation disarmed stay
  byte-identical to a build without this package (pinned by the digest
  tests);
* :mod:`repro.obs.tracer` — the collecting :class:`~repro.obs.tracer.Tracer`
  behind traced sessions;
* :mod:`repro.obs.profiler` — the :class:`~repro.obs.profiler.Profiler`
  behind profiled sessions (per-callback wall and heap churn, per-phase
  events and memory);
* :mod:`repro.obs.metrics` — counters/gauges/histograms sampled through
  :meth:`repro.sim.kernel.Simulator.every` hooks (pending-ack queue depth,
  flow-table occupancy, kernel event-loop stats);
* :mod:`repro.obs.export` — JSONL and Chrome trace-event/Perfetto
  exporters plus a schema validator for CI.

Arm tracing declaratively with ``SessionSpec(trace=True)`` (or
``ScenarioParams(trace=True)``, or ``python -m repro.campaign run --trace``)
and profiling with ``profile=True``; the session engine builds the
simulator's instruments from those fields.  The
:class:`~repro.session.record.RunRecord` then carries the :class:`TraceLog`
(and :class:`ProfileReport`); :mod:`repro.analysis.timeline` renders
per-rule activation-gap and fault-overlay reports from the trace.  Nothing
here is process-global, so sessions may run side by side in threads.
"""

from repro.obs.events import (
    LIFECYCLE_PHASES,
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_FAULT,
    PHASE_HW_ACTIVATED,
    PHASE_MSG_SENT,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
)
from repro.obs.export import (
    trace_to_chrome,
    trace_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.instruments import NULL_INSTRUMENTS, Instruments, NullInstruments
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import ProfileReport, Profiler
from repro.obs.tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "LIFECYCLE_PHASES",
    "MetricsRegistry",
    "NULL_INSTRUMENTS",
    "NullInstruments",
    "PHASE_ACK_RECEIVED",
    "PHASE_ACK_SENT",
    "PHASE_CONTROL_APPLIED",
    "PHASE_FAULT",
    "PHASE_HW_ACTIVATED",
    "PHASE_MSG_SENT",
    "PHASE_SWITCH_RECEIVED",
    "PHASE_UPDATE_ISSUED",
    "ProfileReport",
    "Profiler",
    "TraceEvent",
    "TraceLog",
    "Tracer",
    "trace_to_chrome",
    "trace_to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
