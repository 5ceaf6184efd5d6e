"""Per-simulator instruments: traced and profiled together, and side by side.

Every simulator owns its trace, profile and event tap, so one session can
be traced and profiled at once, and sessions can run concurrently in
threads without recording each other's events.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.scenarios import ScenarioParams, run_scenario

#: The metrics probe: it runs only in traced sessions, so it is the one
#: callback site a traced+profiled run adds over a profile-only run.
PROBE_SITE = "repro.sim.kernel.PeriodicProbe._fire"

#: Scenario cases of the concurrency test: (scenario, technique, params).
CASES = [
    ("path-migration", "general",
     dict(flow_count=2, seed=7, max_update_duration=5.0)),
    ("path-migration", "timeout",
     dict(topology="triangle", flow_count=2, seed=7, max_update_duration=5.0,
          faults="delay-spike(probability=1.0,spike=0.3)@S2")),
    ("path-migration", "barrier",
     dict(flow_count=2, seed=3, max_update_duration=5.0)),
    ("rolling-upgrade", "general", dict(flow_count=2, seed=7)),
]

#: Session flags per mode.
MODES = {"bare": {}, "traced": {"trace": True}, "profiled": {"profile": True}}


def _run(case, mode):
    scenario, technique, params = CASES[case]
    return run_scenario(scenario, technique,
                        ScenarioParams(**params, **MODES[mode]))


def _stripped(trace):
    """A trace without xids: they come from a process-wide counter."""
    return [(event.ts, event.phase, event.switch, event.detail)
            for event in trace.events]


def _site_counts(report):
    return {row["site"]: (row["calls"], row["scheduled"])
            for row in report.callbacks}


def test_traced_and_profiled_session_matches_each_single_instrument():
    params = dict(flow_count=4, seed=7, max_update_duration=10.0)

    def run(**flags):
        return run_scenario("path-migration", "general",
                            ScenarioParams(**params, **flags))

    bare = run()
    traced = run(trace=True)
    profiled = run(profile=True)
    both = run(trace=True, profile=True)

    assert {bare.digest(), traced.digest(), profiled.digest(),
            both.digest()} == {bare.digest()}
    assert both.trace and _stripped(both.trace) == _stripped(traced.trace)

    sites = _site_counts(both.profile)
    probe_calls, _ = sites.pop(PROBE_SITE)
    assert probe_calls > 0
    assert sites == _site_counts(profiled.profile)

    both_phases = [(row["name"], row["events"]) for row in both.profile.phases]
    alone_phases = [(row["name"], row["events"])
                    for row in profiled.profile.phases]
    assert [name for name, _ in both_phases] == [name for name, _ in alone_phases]
    extra = [mine - theirs for (_, mine), (_, theirs)
             in zip(both_phases, alone_phases)]
    assert min(extra) >= 0 and sum(extra) == probe_calls


def test_concurrent_sessions_keep_their_own_instruments():
    jobs = [(case, mode) for case in range(len(CASES)) for mode in MODES
            if not (mode == "profiled" and CASES[case][0] == "rolling-upgrade")]
    serial = {job: _run(*job) for job in jobs}

    threads = (os.cpu_count() or 1) + 2
    submitted = [jobs[index % len(jobs)]
                 for index in range(max(2 * len(jobs), 2 * threads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [(job, pool.submit(_run, *job)) for job in submitted]
            results = [(job, future.result(timeout=300))
                       for job, future in futures]
    finally:
        sys.setswitchinterval(interval)

    for job, record in results:
        expected = serial[job]
        assert record.digest() == expected.digest(), job
        if job[1] == "traced":
            assert len(record.trace) == len(expected.trace), (
                f"{job}: events leaked between sessions")
            assert _stripped(record.trace) == _stripped(expected.trace), job
        else:
            assert record.trace is None, job
        if job[1] == "profiled":
            assert (_site_counts(record.profile)
                    == _site_counts(expected.profile)), job

