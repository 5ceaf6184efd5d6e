"""Differential tests for the event-driven rate-limited data-plane sync.

The rate-limited sync loop used to poll its empty queue every quarter apply
interval.  It now sleeps until a FlowMod arrives and is woken at the poll
tick that would first have seen it.  :class:`PolledControlPlane` keeps the
polled loop as the reference; every test here drives the same switch once
with each loop and requires identical data-plane applies, barrier replies,
controller-side messages and control-plane RNG state.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.openflow import BarrierRequest, FlowMod, Match, OutputAction
from repro.openflow.connection import Connection
from repro.sim import Simulator
from repro.switches import Switch, hp5406zl_profile, reordering_switch_profile
from repro.switches.controlplane import ControlPlane


class PolledControlPlane(ControlPlane):
    """The control plane with the polled rate-limited sync loop."""

    def _rate_limited_sync_loop(self):
        base_spacing = 1.0 / self.profile.dataplane_apply_rate
        applied = 0
        while True:
            if not self._pending_ops:
                yield base_spacing / 4
                continue
            if self.profile.reorders_across_barriers and len(self._pending_ops) > 1:
                index = self.rng.randint(0, len(self._pending_ops) - 1)
                operation = self._pending_ops[index]
                del self._pending_ops[index]
            else:
                operation = self._pending_ops.popleft()
            spacing = base_spacing * (
                1.0 + self.profile.dataplane_occupancy_slowdown * applied
            )
            earliest = operation.control_applied_at + self.profile.dataplane_extra_latency
            epoch = self.crash_epoch
            wait = max(spacing, earliest - self.sim.now)
            yield wait
            if self.crash_epoch != epoch:
                continue
            self._apply_operation(operation)
            applied += 1


def _flowmod(xid):
    return FlowMod(Match(ip_src=f"10.{xid // 250}.{xid % 250}.1", ip_dst="10.0.128.1"),
                   [OutputAction(1)], priority=100, xid=xid)


def _switch(profile, polled, datapath_id=7):
    sim = Simulator()
    switch = Switch(sim, "SW", profile, datapath_id=datapath_id)
    if polled:
        switch.controlplane.__class__ = PolledControlPlane
    return sim, switch


def _drive(steps, reorders, extra_latency, datapath_id, polled):
    """Play ``steps`` against one hardware switch over a controller channel."""
    profile = reordering_switch_profile() if reorders else hp5406zl_profile()
    if extra_latency is not None:
        profile = profile.with_overrides(dataplane_extra_latency=extra_latency)
    sim, switch = _switch(profile, polled, datapath_id)
    connection = Connection(sim, latency=0.0005)
    switch.connect_controller(connection.side_a)
    controller = connection.side_b
    received = []
    controller.on_message(lambda message: received.append(
        (sim.now, type(message).__name__, message.xid)))
    switch.start()
    xids = itertools.count(1)
    at = 0.0
    for gap, kind, count in steps:
        at += gap
        if kind == "flowmods":
            for _ in range(count):
                sim.schedule_at(at, controller.send, _flowmod(next(xids)))
        elif kind == "barrier":
            sim.schedule_at(at, controller.send, BarrierRequest(xid=10_000 + next(xids)))
        elif kind == "crash":
            sim.schedule_at(at, switch.crash, count % 2 == 0)
        else:
            sim.schedule_at(at, switch.restore)
    sim.run(until=at + 3.0)
    controlplane = switch.controlplane
    return (list(switch.dataplane.apply_log), list(controlplane.barrier_reply_log),
            dict(controlplane.control_apply_log), received,
            controlplane.rng._random.getstate(), controlplane.duplicate_flowmods,
            sim.now)


gaps = st.one_of(
    st.floats(min_value=0.0, max_value=0.003),   # bursts within a few ticks
    st.floats(min_value=0.003, max_value=0.2),
    st.floats(min_value=0.5, max_value=1.5),     # long idle stretches
)
steps = st.lists(
    st.tuples(gaps,
              st.sampled_from(["flowmods"] * 4 + ["barrier", "crash", "restore"]),
              st.integers(min_value=1, max_value=12)),
    min_size=1, max_size=16)


#: ``None`` keeps the profile's 40 ms; with none, the first apply after an
#: idle stretch lands one spacing after the wake-up tick, so an error of
#: one float ulp in that tick shows in the apply log.
extra_latencies = st.sampled_from([None, 0.0])


@settings(max_examples=80, deadline=None)
@given(steps, st.booleans(), extra_latencies,
       st.integers(min_value=1, max_value=2**16))
def test_event_driven_sync_matches_polled_loop(steps, reorders, extra_latency,
                                               datapath_id):
    args = (steps, reorders, extra_latency, datapath_id)
    assert _drive(*args, polled=False) == _drive(*args, polled=True)


# -- exact ties ---------------------------------------------------------------

def _tie_profile(flowmod_rate):
    """Dyadic timings: poll ticks at exact multiples of 1/1024 s from t=0."""
    return hp5406zl_profile().with_overrides(
        flowmod_rate=flowmod_rate,
        flowmod_jitter=0.0,
        dataplane_apply_rate=256.0,
        dataplane_extra_latency=0.0,
    )


def _run_tie(flowmod_rate, started_at, polled):
    sim, switch = _switch(_tie_profile(flowmod_rate), polled)
    switch.start()
    sim.schedule_at(started_at, switch.controlplane.receive, _flowmod(1))
    sim.run(until=0.1)
    return switch.controlplane.control_apply_log[1], switch.dataplane.apply_log


def test_tie_with_handler_started_before_the_previous_tick_applies_at_the_tie():
    # Processing takes two ticks from tick 8: the op lands exactly on tick 10,
    # whose polled wake-up was scheduled at tick 9, after the handler's sleep.
    tick = 1.0 / 1024
    appended_at, apply_log = _run_tie(512.0, 8 * tick, polled=False)
    assert appended_at == 10 * tick
    assert apply_log == [(10 * tick + 4 * tick, 1)]
    assert _run_tie(512.0, 8 * tick, polled=True) == (appended_at, apply_log)


def test_tie_with_handler_started_after_the_previous_tick_waits_one_tick():
    # Processing takes half a tick from tick 9.5: the op lands exactly on
    # tick 10, whose polled wake-up was scheduled at tick 9, before the
    # handler's sleep -- so the loop only sees the op at tick 11.
    tick = 1.0 / 1024
    appended_at, apply_log = _run_tie(2048.0, 9.5 * tick, polled=False)
    assert appended_at == 10 * tick
    assert apply_log == [(11 * tick + 4 * tick, 1)]
    assert _run_tie(2048.0, 9.5 * tick, polled=True) == (appended_at, apply_log)
