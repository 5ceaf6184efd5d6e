"""The end-to-end metrics of an untraced run, from its rounds.

Every host time is first divided by its round's slowdown against the
reference host (see :mod:`perfbench.hostspeed`).  Rates are medians over
rounds of (amount / simulate-phase wall).  The session median is taken over
every session of the run, the session tail over groups of rounds
(:data:`TAIL_GROUP`).
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

from perfbench.workloads import Check, RoundResult

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "packets_per_s": "1/s",
    "rules_per_s": "1/s",
    "session_p50_s": "s",
    "session_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with ten or fewer samples the
    maximum stands in, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


#: Sessions per tail group: a run's consecutive rounds are grouped until each
#: group holds this many, and the tail is the median of the groups' tails.
#: A 96-cell campaign round is one group (its tail is p89.6); an in-process
#: run of 50-60 sessions is one group (p80-p83).  Over a whole 1000-cell
#: sweep the tail would be p99, which only measures rare host hiccups.
TAIL_GROUP = 50


def _tail_groups(walls: List[List[float]]) -> List[List[float]]:
    groups: List[List[float]] = [[]]
    for round_walls in walls:
        if len(groups[-1]) >= TAIL_GROUP:
            groups.append([])
        groups[-1].extend(round_walls)
    if len(groups) > 1 and len(groups[-1]) < TAIL_GROUP:
        groups[-2].extend(groups.pop())
    return groups


def end_to_end(rounds: List[RoundResult], setup_s: float,
               checks: List[Check]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Every end-to-end metric, plus the facts printed beside them."""
    sessions = [entry for result in rounds for entry in result.sessions]
    round_walls = [[float(entry["wall_s"]) / result.slowdown
                    for entry in result.sessions] for result in rounds]
    walls = [wall for group in round_walls for wall in group]
    tails = [tail(group) for group in _tail_groups(round_walls)]
    incomplete = sum(1 for entry in sessions if not entry["completed"])
    errors = sum(result.errors for result in rounds)
    failed_checks = sum(1 for check in checks if not check.ok)
    attempted = len(sessions) + len(checks)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    def per_round(amount) -> float:
        return statistics.median(
            amount(result) * result.slowdown / result.simulate_s
            for result in rounds)

    metrics = {
        "cells_per_s": per_round(lambda result: result.cells),
        "packets_per_s": per_round(
            lambda result: sum(entry["packets"] for entry in result.sessions)),
        "rules_per_s": per_round(
            lambda result: sum(entry["acked"] for entry in result.sessions)),
        "session_p50_s": statistics.median(walls),
        "session_tail_s": statistics.median(value for value, _, _ in tails),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - (errors + incomplete + failed_checks) / attempted,
        "setup_s": setup_s,
    }
    facts: Dict[str, object] = {
        "sessions": len(sessions),
        "tail": (f"median of {len(tails)} group tails, p"
                 f"{statistics.median(p for _, p, _ in tails):.1f} of n="
                 f"{statistics.median(n for _, _, n in tails):g}"),
        "incomplete_updates": incomplete,
        "errors": errors,
        "stalled": sorted(
            f"{entry['scenario']}/{entry['technique']} seed={entry['seed']} "
            f"acked {entry['acked']}/{entry['plan']}"
            for entry in sessions if not entry["completed"]),
    }
    if rounds[0].ingest_s:
        facts["store"] = (
            f"ingest {archive_rate(rounds, 'ingest_s'):.1f} cells/s, cached "
            f"re-run {archive_rate(rounds, 'cache_s'):.1f} cells/s (host "
            f"time, median)")
    return metrics, facts


def archive_rate(rounds: List[RoundResult], phase: str) -> float:
    """Median cells per host second of a round's ingests or cached re-runs.

    Not scaled by the host slowdown: these phases wait on the disk, whose
    latency on the reference host drifts twofold over minutes, and
    :mod:`perfbench.hostspeed` measures the CPU.
    """
    return statistics.median(result.cells / seconds for result in rounds
                             for seconds in getattr(result, phase))


