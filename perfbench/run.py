"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dataplane-flood --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the cells
of the workload's first two rounds untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, layers  # noqa: E402
from perfbench.meter import SessionMeter  # noqa: E402
from perfbench.metrics import END_TO_END_UNITS, archive_rate, end_to_end  # noqa: E402
from perfbench.spans import LayerTotals, Recorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKERS,
    WORKLOADS,
    Check,
    Workload,
    build_inputs,
    cells_of,
    outcome_digest,
    repeat_check,
    run_round,
    warm_up,
)

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Rounds whose cells the traced run replays (for control-churn: the
#: sequential stalls and one round of the four other techniques).
TRACED_ROUNDS = 2
#: Cells of the first round re-run in process to check their digests.
REPEATED_CELLS = 3
#: Scratch space inside the checkout (listed in ``.gitignore``).
WORK_DIR = ROOT / ".perfbench"

def setup_seconds(workload: Workload, seed: int, seconds: int) -> float:
    """Wall time of a fresh interpreter importing repro and building inputs."""
    started = perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                    workload.name, str(seed), str(seconds)],
                   check=True, cwd=ROOT)
    return perf_counter() - started


def merge_checks(checks: List[Check]) -> List[Check]:
    """One check per name: it passes when every round's instance passed."""
    merged: Dict[str, Check] = {}
    for check in checks:
        seen = merged.setdefault(check.name, Check(check.name, True))
        if not check.ok and seen.ok:
            merged[check.name] = check
    return list(merged.values())


def measure(workload: Workload, seed: int, seconds: int,
            directory: Path) -> Tuple[Dict[str, float], List[Check], Dict]:
    """The untraced run: every round, then the repeat check.

    The set-up probes run between rounds, spread over the run like the
    rounds themselves.
    """
    rounds = build_inputs(workload, seed, seconds)
    probe_after = {len(rounds) * index // SETUP_PROBES
                   for index in range(1, SETUP_PROBES + 1)}
    setup_samples: List[float] = []
    meter = SessionMeter(directory / "sessions")
    meter.install()
    try:
        warm_up(workload, rounds[-1], directory, meter)
        results = []
        before = hostspeed.slowdown()
        for index, specs in enumerate(rounds, start=1):
            result = run_round(workload, specs, directory / f"round-{index}",
                               meter)
            after = hostspeed.slowdown()
            result.slowdown = (before + after) / 2
            results.append(result)
            before = after
            if index in probe_after:
                setup_samples.append(setup_seconds(workload, seed, seconds)
                                     / after)
        digests = {cell: digest for result in results
                   for cell, digest in result.digests.items()}
        checks = [check for result in results for check in result.checks]
        checks.append(repeat_check(cells_of(rounds[0])[:REPEATED_CELLS],
                                   digests, meter))
    finally:
        meter.restore()
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_seconds(workload, seed, seconds)
                             / hostspeed.slowdown())
    checks = merge_checks(checks)
    metrics, facts = end_to_end(results, statistics.median(setup_samples),
                                checks)
    facts["rounds"] = len(results)
    facts["host_slowdown"] = round(statistics.median(
        result.slowdown for result in results), 4)
    facts["outcome_digest"] = outcome_digest(digests)
    return metrics, checks, facts


def measure_traced(workload: Workload, seed: int, seconds: int,
                   directory: Path) -> Tuple[Dict[str, float], List[Check], Dict]:
    """Two rounds' cells untraced, then traced; per-layer metrics and overhead."""
    rounds = build_inputs(workload, seed, seconds)
    specs = [spec for round_specs in rounds[:TRACED_ROUNDS] for spec in round_specs]
    meter = SessionMeter(directory / "sessions")
    meter.install()
    recorder = Recorder()
    try:
        warm_up(workload, rounds[-1], directory, meter)
        # Both passes start with a cold topology cache, as campaign workers do.
        layers.clear_topology_cache()
        bare = run_round(workload, specs, directory / "untraced", meter)
        layers.clear_topology_cache()
        meter.recorder = recorder
        topology_before = layers.topology_cache_info()
        layers.install(recorder)
        try:
            traced = run_round(workload, specs, directory / "traced", meter)
        finally:
            recorder.restore()
            meter.recorder = None
        layers.count_topology_cache(recorder, topology_before)
        recorder.flush(meter.directory)
    finally:
        meter.restore()
    totals = LayerTotals()
    totals.add_directory(meter.directory)
    checks = merge_checks(bare.checks + traced.checks + [
        Check("traced digests equal untraced digests",
              traced.digests == bare.digests)])
    # Simulate phases only: the archive phase waits on the disk, whose
    # latency drifts far more than tracing costs there.
    overhead = traced.simulate_s / bare.simulate_s
    metrics = layers.per_layer_metrics(
        totals, traced.sessions, traced.simulate_s,
        WORKERS if workload.campaign else 1, overhead, {
            "store.ingest_cells_per_s": (archive_rate([bare], "ingest_s")
                                         if bare.ingest_s else 0.0),
            "store.cache_cells_per_s": (archive_rate([bare], "cache_s")
                                        if bare.cache_s else 0.0),
        })
    facts = {
        "sessions": len(traced.sessions),
        "simulate_untraced_s": round(bare.simulate_s, 3),
        "simulate_traced_s": round(traced.simulate_s, 3),
        "errors": bare.errors + traced.errors,
        "outcome_digest": outcome_digest(traced.digests),
    }
    return metrics, checks, facts


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    directory = WORK_DIR / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    if args.trace:
        metrics, checks, facts = measure_traced(workload, args.seed,
                                                args.seconds, directory)
        units = layers.PER_LAYER_UNITS
        # Keep only the span files; the stores and JSONL files go.
        for child in directory.iterdir():
            if child.is_dir() and child.name != "sessions":
                shutil.rmtree(child)
            elif child.is_file():
                child.unlink()
    else:
        metrics, checks, facts = measure(workload, args.seed, args.seconds,
                                         directory)
        units = END_TO_END_UNITS
        shutil.rmtree(directory)

    print(f"workload {workload.name}: {workload.why}")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    for check in checks:
        state = "ok  " if check.ok else "FAIL"
        print(f"  check {state} {check.name}" + (
            f" ({check.detail})" if check.detail and not check.ok else ""))
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    failed = sum(1 for check in checks if not check.ok) + int(
        facts.get("errors", 0))
    attempted = int(facts["sessions"]) + len(checks)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
