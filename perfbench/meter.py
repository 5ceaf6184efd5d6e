"""Per-session timing and outcome counts, in process and in campaign workers.

The campaign runner keeps only a session's flat summary, which has no
packet or acknowledgment counts.  The meter therefore wraps
``repro.campaign.runner.run_scenario`` -- one call per session, so its cost
is negligible next to a simulation -- and keeps what the ``RunRecord``
reports.  It also wraps ``run_cells_chunk``: when a worker's task returns,
the worker appends its entries (and, in the traced pass, its spans) to
files the benchmark reads back.  Workers are forked from the benchmark
process, so they inherit both wrappers.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import layers
from perfbench.spans import Recorder


def _armed_faults(encoding: object) -> List[str]:
    """Fault model names in a session's spec encoding of its fault plan."""
    if isinstance(encoding, dict):
        found = [str(encoding["fault"])] if "fault" in encoding else []
        for value in encoding.values():
            found.extend(_armed_faults(value))
        return found
    if isinstance(encoding, list):
        return [name for value in encoding for name in _armed_faults(value)]
    return []


def session_entry(record, wall_s: float) -> Dict[str, object]:
    """What the benchmark keeps of one finished session."""
    fired = record.fault_events
    armed = sorted(set(_armed_faults(record.spec.get("faults"))))
    return {
        "scenario": record.scenario,
        "technique": record.technique,
        "seed": record.seed,
        "wall_s": wall_s,
        "packets": sum(entry.packets_sent for entry in record.stats),
        "acked": record.acknowledged_rules,
        "plan": record.plan_size,
        "completed": record.completed,
        "dropped": record.dropped_packets,
        "probes": record.rum_probes_injected,
        "faults_fired": sum(fired.values()),
        "armed_unfired": sum(
            1 for name in armed
            if not any(key.startswith(name + ".") for key in fired)),
        "retransmits": int(record.recovery.get("retries", 0)),
        "reinstalled": int(record.recovery.get("rules_reinstalled", 0)),
    }


class SessionMeter:
    """Collects one :func:`session_entry` per scenario session."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.entries: List[Dict[str, object]] = []
        #: The traced pass's span recorder, flushed with each worker chunk.
        self.recorder: Optional[Recorder] = None
        self._originals: List[tuple] = []

    def install(self) -> None:
        from repro.campaign import runner

        run_scenario = runner.run_scenario
        run_cells_chunk = runner.run_cells_chunk
        meter = self

        @functools.wraps(run_scenario)
        def metered_run(*args, **kwargs):
            started = perf_counter()
            record = run_scenario(*args, **kwargs)
            meter.entries.append(session_entry(record,
                                               perf_counter() - started))
            return record

        @functools.wraps(run_cells_chunk)
        def metered_chunk(*args, **kwargs):
            # A forked worker starts with a copy of the parent's entries
            # and spans; the parent reports those itself.
            meter.entries = []
            if meter.recorder is not None:
                meter.recorder.clear()
            topology_before = layers.topology_cache_info()
            try:
                return run_cells_chunk(*args, **kwargs)
            finally:
                meter.flush_worker(topology_before)

        self._originals = [(runner, "run_scenario", run_scenario),
                           (runner, "run_cells_chunk", run_cells_chunk)]
        runner.run_scenario = metered_run
        runner.run_cells_chunk = metered_chunk

    def restore(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        self._originals = []

    def flush_worker(self, topology_before) -> None:
        """Write a worker chunk's entries and spans where the parent reads them."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"sessions-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as sink:
            for entry in self.entries:
                sink.write(json.dumps(entry) + "\n")
        self.entries = []
        if self.recorder is not None:
            layers.count_topology_cache(self.recorder, topology_before)
            self.recorder.flush(self.directory)

    def collect_workers(self) -> List[Dict[str, object]]:
        """Every entry the workers wrote since the last call."""
        entries: List[Dict[str, object]] = []
        for path in sorted(self.directory.glob("sessions-*.jsonl")):
            with path.open("r", encoding="utf-8") as source:
                entries.extend(json.loads(line) for line in source if line.strip())
            path.unlink()
        return entries

    def take(self) -> List[Dict[str, object]]:
        """The entries collected in this process since the last call."""
        entries, self.entries = self.entries, []
        return entries
