"""Benchmark execution: wall-clock timing, event counting and peak RSS.

Every benchmark is a plain function ``fn(scale)`` (``scale`` is ``"quick"``
or ``"full"``) that runs a seeded, deterministic workload and returns a
dictionary with an optional ``events`` count (kernel callbacks, lookups,
packets — whatever the benchmark's unit of work is) plus any JSON-able
metadata.  The harness adds timing and memory measurements around it.

Peak RSS is read from ``resource.getrusage`` (no third-party dependency);
``ru_maxrss`` is a process-lifetime high-water mark, so per-benchmark values
are the peak *observed so far*, not the peak attributable to one benchmark.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence


class PhaseProfiler:
    """Accumulates per-phase wall time inside one benchmark run.

    The harness installs one around each benchmark; benchmark bodies mark
    their phases with :func:`profiled_phase`.  Re-entering the same phase
    name accumulates (loops profile naturally).
    """

    __slots__ = ("phases",)

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}

    def record(self, name: str, elapsed: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + elapsed


#: The active profiler, installed by :func:`run_spec` for the duration of one
#: benchmark.  ``None`` outside the harness, which makes ``profiled_phase``
#: a plain no-op there — benchmark functions stay callable standalone.
_ACTIVE_PHASES: Optional[PhaseProfiler] = None


@contextmanager
def profiled_phase(name: str) -> Iterator[None]:
    """Attribute the enclosed block's wall time to phase ``name``.

    No-op (beyond one global read) when no profiler is installed, so
    benchmark bodies can mark phases unconditionally.
    """
    profiler = _ACTIVE_PHASES
    if profiler is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        profiler.record(name, time.perf_counter() - start)


@dataclass
class BenchSpec:
    """One registered benchmark."""

    name: str
    fn: Callable[[str], Dict[str, object]]
    description: str = ""
    #: Reference benchmarks calibrate machine speed and are excluded from
    #: aggregate speedup / regression accounting.
    is_reference: bool = False


@dataclass
class BenchResult:
    """Measurements of one benchmark run."""

    name: str
    wall_s: float
    events: Optional[int] = None
    events_per_sec: Optional[float] = None
    peak_rss_kb: int = 0
    #: Wall time divided by the reference benchmark's wall time on the same
    #: machine — the unit used for cross-machine regression comparisons.
    normalized: Optional[float] = None
    #: Per-phase wall-time split (seconds) from :func:`profiled_phase`
    #: markers inside the benchmark body; empty for unmarked benchmarks.
    phases: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form."""
        return asdict(self)


def _peak_rss_kb() -> int:
    """Process peak RSS in kilobytes (Linux ``ru_maxrss`` unit)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        rss //= 1024
    return int(rss)


def run_spec(spec: BenchSpec, scale: str = "quick") -> BenchResult:
    """Run one benchmark and measure it."""
    global _ACTIVE_PHASES
    gc.collect()
    profiler = PhaseProfiler()
    _ACTIVE_PHASES = profiler
    start = time.perf_counter()
    try:
        outcome = spec.fn(scale) or {}
    finally:
        _ACTIVE_PHASES = None
    wall = time.perf_counter() - start
    events = outcome.pop("events", None)
    events_per_sec = None
    if events is not None and wall > 0:
        events_per_sec = events / wall
    return BenchResult(
        name=spec.name,
        wall_s=wall,
        events=events,
        events_per_sec=events_per_sec,
        peak_rss_kb=_peak_rss_kb(),
        phases={name: round(value, 6)
                for name, value in profiler.phases.items()},
        meta=dict(outcome),
    )


def run_suite(
    specs: Sequence[BenchSpec],
    scale: str = "quick",
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run the suite in order; reference benchmarks first for normalization."""
    say = progress or (lambda _message: None)
    selected = [spec for spec in specs if only is None or spec.name in only]
    # Run references first so every subsequent result can be normalized.
    selected.sort(key=lambda spec: not spec.is_reference)
    reference_wall: Optional[float] = None
    results: List[BenchResult] = []
    for spec in selected:
        say(f"running {spec.name} ({scale}) ...")
        result = run_spec(spec, scale)
        if spec.is_reference and reference_wall is None:
            reference_wall = result.wall_s
        if reference_wall and reference_wall > 0:
            result.normalized = result.wall_s / reference_wall
        results.append(result)
        say(
            f"  {result.wall_s * 1000:8.1f} ms"
            + (f"  {result.events_per_sec:12.0f} events/s"
               if result.events_per_sec else "")
            + f"  rss={result.peak_rss_kb} kB"
        )
    return results
