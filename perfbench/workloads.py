"""The benchmark's workloads: seeded inputs, the phases of a round, checks.

Every workload is a closed loop over campaign cells: the next session (in
process) or the next chunk (in the campaign's worker pool) starts only when
the previous one has finished.  A *round* simulates its cells into a fresh
JSONL file -- through ``CampaignRunner`` with two worker processes
(``sweep-small-cells``) or one after another through ``run_cell`` in this
process (the other two).  A campaign round then archives the file:
``RunStore.ingest`` into fresh stores, and a re-run of the same cells with
``CampaignRunner(cache=store)``, each into a fresh file.

Inputs are a pure function of ``(seed, seconds)``: the seed picks the
scenario seeds, and ``seconds`` sets the number of rounds so that a run
takes roughly that long on the reference host (2 cores).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

from repro.campaign import runner
from repro.campaign.grid import CampaignCell, CampaignSpec
from repro.core.techniques.registry import available_techniques
from repro.scenarios import SCENARIOS
from repro.store import RunStore

from perfbench.meter import SessionMeter

#: Worker processes of the campaign pool (the reference host has 2 cores).
WORKERS = 2
#: Ingests and cached re-runs of each round's records.
ARCHIVE_REPEATS = 3


def scenario_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` distinct scenario seeds drawn from the benchmark seed."""
    return random.Random(f"{workload}:{seed}").sample(range(1, 1_000_000), count)


# Each run is many short rounds, so that a few seconds of host slowdown
# (the reference host's CPU speed drifts by up to 40%) spoil a few rounds,
# whose median the rates take, rather than the whole run.  The constants are
# round lengths measured on that host.


def _sweep_rounds(seed: int, seconds: int) -> List[List[CampaignSpec]]:
    # ~1.6 s per round: a 96-cell campaign, its ingest and cached re-runs.
    rounds = max(1, round(seconds / 1.6))
    seeds = scenario_seeds("sweep-small-cells", seed, 4 * rounds)
    return [[CampaignSpec(
        scenarios=["path-migration", "link-failure", "ecmp-rebalance",
                   "firewall-rollout"],
        techniques=available_techniques(),
        seeds=seeds[4 * index:4 * (index + 1)],
        flow_count=2,
    )] for index in range(rounds)]


def _dataplane_rounds(seed: int, seconds: int) -> List[List[CampaignSpec]]:
    # ~2.2 s per round: six sessions of ~7k packets each on one seed.
    seeds = scenario_seeds("dataplane-flood", seed, max(1, round(seconds / 2.2)))
    return [[CampaignSpec(
        scenarios=["path-migration", "ecmp-rebalance"],
        techniques=["barrier", "general", "no-wait"],
        seeds=[scenario_seed],
        topology="leaf-spine",
        flow_count=16,
        rate_pps=1000.0,
    )] for scenario_seed in seeds]


#: The crash wave ``rolling-upgrade`` arms by default.  A campaign cell
#: passes its fault axis verbatim (``"none"`` disarms the wave), so the
#: cells name the wave explicitly.
ROLLING_WAVE = SCENARIOS["rolling-upgrade"].default_timeline

#: ``sequential`` probing on fat-trees often never finishes: which seeds
#: stall decides whether a session costs 0.1 s or 1.4 s of host time, so
#: drawing its sessions from the benchmark seed would make a run's cost
#: depend on how many stalls the seed happens to draw.  Every control-churn
#: run instead carries the three known stalls (251/256, 254/256 and 124/128
#: rules acknowledged) as its first round and counts them in ``ok_frac``.
SEQUENTIAL_STALLS = [
    CampaignSpec(scenarios=["path-migration"], techniques=["sequential"],
                 seeds=[1, 3], topology="fat-tree", flow_count=64,
                 rate_pps=10.0),
    CampaignSpec(scenarios=["rolling-upgrade"], techniques=["sequential"],
                 seeds=[2], faults=[ROLLING_WAVE], recoveries=["on"],
                 flow_count=32, rate_pps=10.0),
]


def _control_rounds(seed: int, seconds: int) -> List[List[CampaignSpec]]:
    # ~3.5 s for the stalls, then ~2.1 s per round of 16 sessions on one seed.
    seeds = scenario_seeds("control-churn", seed,
                           max(1, round((seconds - 3.5) / 2.1)))
    techniques = ["general", "adaptive", "barrier", "timeout"]
    fat_tree = dict(topology="fat-tree", rate_pps=10.0)
    return [SEQUENTIAL_STALLS] + [[
        CampaignSpec(scenarios=["path-migration"], techniques=techniques,
                     seeds=[scenario_seed], flow_count=64, **fat_tree),
        CampaignSpec(scenarios=["rolling-upgrade"], techniques=techniques,
                     seeds=[scenario_seed], faults=[ROLLING_WAVE],
                     recoveries=["on"], flow_count=32, rate_pps=10.0),
        CampaignSpec(scenarios=["path-migration"], techniques=techniques,
                     seeds=[scenario_seed], faults=["channel-jitter"],
                     flow_count=32, **fat_tree),
        CampaignSpec(scenarios=["path-migration"], techniques=techniques,
                     seeds=[scenario_seed], faults=["ack-loss"],
                     recoveries=["on"], flow_count=32, **fat_tree),
    ] for scenario_seed in seeds]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, seconds) -> rounds``; a round is a list of campaign grids.
    rounds: Callable[[int, int], List[List[CampaignSpec]]]
    #: Run rounds through the campaign's worker pool and archive them in a
    #: run store; otherwise sessions run one after another in this process.
    campaign: bool
    #: Fault-free probing sessions must drop no packet.
    probing_drops_nothing: bool = False


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        "sweep-small-cells",
        "cheap cells through the 2-worker campaign pool: dispatch, pickling, "
        "JSONL, heartbeats, topology cache and the run store dominate",
        _sweep_rounds, campaign=True),
    Workload(
        "dataplane-flood",
        "few rules, 16 flows at 1000 pps on leaf-spine: kernel, links, "
        "switch forwarding and flow-table lookups dominate",
        _dataplane_rounds, campaign=False,
        probing_drops_nothing=True),
    Workload(
        "control-churn",
        "256-rule fat-tree updates, crash waves, jitter and ack loss with "
        "recovery: controller, RUM, switch control plane and flow-table "
        "writes dominate",
        _control_rounds, campaign=False),
)}


def build_inputs(workload: Workload, seed: int,
                 seconds: int) -> List[List[CampaignSpec]]:
    """The workload's rounds, with every grid validated and expanded once."""
    rounds = workload.rounds(seed, seconds)
    for specs in rounds:
        for spec in specs:
            spec.cells()
    return rounds


def cells_of(specs: List[CampaignSpec]) -> List[CampaignCell]:
    return [cell for spec in specs for cell in spec.cells()]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class RoundResult:
    """Timings, session entries, digests and checks of one round."""

    cells: int
    simulate_s: float
    sessions: List[Dict[str, object]]
    #: ``cell_id -> outcome digest`` of the simulated records.
    digests: Dict[str, str]
    errors: int
    checks: List[Check]
    ingest_s: List[float] = field(default_factory=list)
    cache_s: List[float] = field(default_factory=list)
    #: The host's slowdown against the reference host around this round
    #: (see :mod:`perfbench.hostspeed`); 1.0 until measured.
    slowdown: float = 1.0


def _simulate_in_process(cells: List[CampaignCell], results: Path,
                         meter: SessionMeter) -> None:
    with results.open("a", encoding="utf-8") as sink:
        for cell in cells:
            line, _record = runner.encode_record(runner.run_cell(cell), cell)
            sink.write(line + "\n")
            if meter.recorder is not None:
                meter.recorder.flush(meter.directory)


def run_round(workload: Workload, specs: List[CampaignSpec], directory: Path,
              meter: SessionMeter) -> RoundResult:
    """Simulate one round's cells (and archive them); check the outputs."""
    directory.mkdir(parents=True)
    cells = cells_of(specs)
    results = directory / "simulated.jsonl"
    started = perf_counter()
    if workload.campaign:
        for spec in specs:
            runner.CampaignRunner(spec, results, max_workers=WORKERS).run()
    else:
        _simulate_in_process(cells, results, meter)
    simulate_s = perf_counter() - started
    sessions = meter.collect_workers() if workload.campaign else meter.take()

    records = runner.load_records(results)
    digests = {str(record["cell_id"]): str(record.get("digest"))
               for record in records}
    checks = [
        Check("every cell simulated once", len(records) == len(cells)
              and set(digests) == {cell.cell_id for cell in cells},
              f"{len(records)} records for {len(cells)} cells"),
        Check("meter saw every session", len(sessions) == len(cells),
              f"{len(sessions)} of {len(cells)}"),
    ]
    if workload.probing_drops_nothing:
        leaky = [entry for entry in sessions
                 if entry["technique"] == "general" and entry["dropped"]]
        checks.append(Check("fault-free probing sessions drop no packet",
                            not leaky, f"{len(leaky)} sessions dropped"))
    result = RoundResult(
        len(cells), simulate_s, sessions, digests,
        sum(1 for record in records if record.get("status") == "error"),
        checks)
    if workload.campaign:
        _archive(specs, results, directory, result)
    return result


def _archive(specs: List[CampaignSpec], results: Path, directory: Path,
             result: RoundResult) -> None:
    """Ingest a round's records into fresh stores; re-run it from the first."""
    for repeat in range(ARCHIVE_REPEATS):
        store = RunStore(directory / f"store-{repeat}")
        started = perf_counter()
        store.ingest(results)
        result.ingest_s.append(perf_counter() - started)
    hits = []
    for repeat in range(ARCHIVE_REPEATS):
        rerun = directory / f"cached-{repeat}.jsonl"
        started = perf_counter()
        hits.append(sum(
            runner.CampaignRunner(spec, rerun, max_workers=WORKERS,
                                  cache=directory / "store-0").run().cached
            for spec in specs))
        result.cache_s.append(perf_counter() - started)
    simulated = sorted(results.read_text(encoding="utf-8").splitlines())
    problems = RunStore(directory / "store-0").verify()
    result.checks += [
        Check("cached re-run served every cell from the store",
              all(count == result.cells for count in hits),
              f"hits per re-run {hits} of {result.cells}"),
        Check("cached re-run lines byte-identical to the simulated ones",
              all(sorted((directory / f"cached-{repeat}.jsonl").read_text(
                  encoding="utf-8").splitlines()) == simulated
                  for repeat in range(ARCHIVE_REPEATS))),
        Check("RunStore.verify() is clean", problems == [],
              "; ".join(problems[:3])),
    ]


def repeat_check(cells: List[CampaignCell], digests: Dict[str, str],
                 meter: SessionMeter) -> Check:
    """Re-run ``cells`` in this process; their digests must not change."""
    changed = [cell.cell_id for cell in cells
               if str(runner.run_cell(cell).get("digest")) != digests[cell.cell_id]]
    meter.take()
    return Check(f"{len(cells)} repeated cells reproduce their digests",
                 not changed, f"changed: {changed}")


def outcome_digest(digests: Dict[str, str]) -> str:
    """One digest over every cell's outcome digest (compare two commits)."""
    lines = "\n".join(f"{cell} {digests[cell]}" for cell in sorted(digests))
    return hashlib.sha1(lines.encode("utf-8")).hexdigest()[:16]


def warm_up(workload: Workload, specs: List[CampaignSpec], directory: Path,
            meter: SessionMeter) -> None:
    """One untimed cell grid on scenario seed 0, which no timed cell uses.

    The first campaign in a fresh process runs up to 20% slower than the
    next ones; seed 0 keeps the warm-up from filling the topology cache
    for the timed cells.
    """
    first = specs[0]
    spec = CampaignSpec(
        scenarios=first.scenarios[:1] if not workload.campaign else first.scenarios,
        techniques=first.techniques[:1] if not workload.campaign else first.techniques,
        seeds=[0], faults=first.faults, recoveries=first.recoveries,
        topology=first.topology, flow_count=first.flow_count,
        rate_pps=first.rate_pps)
    results = directory / "warm-up.jsonl"
    if workload.campaign:
        runner.CampaignRunner(spec, results, max_workers=WORKERS).run()
        meter.collect_workers()
    else:
        _simulate_in_process(spec.cells(), results, meter)
        meter.take()
