"""RL004 fixture: justified suppressions on the flagged lines."""


def emit_campaign_banner(sim):
    ins = sim.instruments
    ins.count("campaign_started", 1)  # repro: noqa(RL004): one-shot campaign banner, runs once per process outside the kernel loop


def mark_session_started(sim):
    ins = sim.instruments
    ins.phase("session")  # repro: noqa(RL004): one-shot session marker, runs once per process before the kernel loop starts
