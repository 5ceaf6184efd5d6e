"""Which public functions belong to which layer, and the per-layer metrics.

Each entry of :func:`patches` names a function of one module of
``src/repro`` and the layer its span is charged to.  Layer names follow the
module tree (``sim``, ``net``, ``switches``, ``openflow``, ``controller``,
``core``, ``faults``, ``recovery``, ``session``, ``scenarios``,
``campaign``, ``store``).  Work a callback does without entering a wrapped
function stays in the self time of the span that ran it -- for a kernel
callback, ``sim``.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.spans import LayerTotals, Patch, Recorder

#: Per-layer metrics the traced pass prints, with their units.
PER_LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.events": "count",
    "net.self_s": "s",
    "net.link_transmits": "count",
    "switches.dataplane.self_s": "s",
    "switches.dataplane.packets": "count",
    "switches.controlplane.self_s": "s",
    "switches.controlplane.messages": "count",
    "openflow.lookup.self_s": "s",
    "openflow.lookup.calls": "count",
    "openflow.flowmod.self_s": "s",
    "openflow.flowmod.calls": "count",
    "openflow.connection.self_s": "s",
    "openflow.connection.sends": "count",
    "controller.self_s": "s",
    "controller.flowmods": "count",
    "core.self_s": "s",
    "core.confirmations": "count",
    "core.probe_yield": "ratio",
    "faults.self_s": "s",
    "faults.fired": "count",
    "faults.armed_unfired": "count",
    "recovery.self_s": "s",
    "recovery.retransmits": "count",
    "recovery.rules_reinstalled": "count",
    "session.setup_s": "s",
    "session.analyze_s": "s",
    "scenarios.topology_s": "s",
    "scenarios.topology_hit_ratio": "ratio",
    "campaign.worker_busy_s": "s",
    "campaign.parallel_efficiency": "ratio",
    "campaign.encode_s": "s",
    "campaign.heartbeat_s": "s",
    "store.index_s": "s",
    "store.object_write_s": "s",
    "store.cached_record_s": "s",
    "store.hit_ratio": "ratio",
    "store.ingest_cells_per_s": "1/s",
    "store.cache_cells_per_s": "1/s",
    "trace.overhead": "ratio",
}


def _process_layer(process) -> str:
    """The layer that owns a simulated process, from its name."""
    name = process.name
    if name.endswith((".controlplane", ".sync")):
        return "switches.controlplane"
    if name.startswith("traffic."):
        return "net"
    if name.startswith("rum."):
        return "core"
    return "sim"


def _confirmed(result) -> int:
    if result is None:
        return 0
    return len(result) if isinstance(result, list) else 1


def patches() -> List[Patch]:
    """Every wrapped function, as ``(owner, attribute, layer, count)``."""
    from repro.campaign import heartbeat, runner
    from repro.controller.base import Controller
    from repro.controller.update_plan import PlanExecutor
    from repro.core.rum import RumLayer
    from repro.faults.harness import ControlChannelHarness, DataPlaneFaultHarness
    from repro.faults.lifecycle import LinkFlapFault, SwitchCrashFault
    from repro.net.host import Host
    from repro.net.link import Link
    from repro.net.network import Network
    from repro.openflow.connection import ConnectionEndpoint
    from repro.openflow.flowtable import FlowTable
    from repro.recovery.manager import RecoveryManager
    from repro.scenarios import base as scenario_base
    from repro.session import engine
    from repro.session.record import RunRecord
    from repro.sim.process import Process
    from repro.store.store import RunStore
    from repro.switches.base import Switch
    from repro.switches.controlplane import ControlPlane

    return [
        (Process, "_step", _process_layer, None),
        (Link, "transmit_from", "net", "net.link_transmits"),
        (Link, "_flush_train", "net", None),
        (Host, "send", "net", "net.link_transmits"),
        (Switch, "receive_packet", "switches.dataplane",
         "switches.dataplane.packets"),
        (Switch, "_forward", "switches.dataplane", None),
        (ControlPlane, "receive", "switches.controlplane",
         "switches.controlplane.messages"),
        (FlowTable, "lookup_values", "openflow.lookup", "openflow.lookup.calls"),
        (FlowTable, "apply_flowmod", "openflow.flowmod",
         "openflow.flowmod.calls"),
        (ConnectionEndpoint, "send", "openflow.connection",
         "openflow.connection.sends"),
        (Controller, "send_flowmod", "controller", "controller.flowmods"),
        (Controller, "retransmit", "controller", "controller.flowmods"),
        (Controller, "send_barrier", "controller", None),
        (Controller, "_on_message", "controller", None),
        (PlanExecutor, "start", "controller", None),
        (PlanExecutor, "_on_acked", "controller", None),
        (RumLayer, "handle_from_controller", "core", None),
        (RumLayer, "handle_from_switch", "core", None),
        (RumLayer, "confirm_rule", "core", ("core.confirmations", _confirmed)),
        (RumLayer, "confirm_up_to", "core", ("core.confirmations", _confirmed)),
        (ControlChannelHarness, "_intercept", "faults", None),
        (DataPlaneFaultHarness, "_apply_with_faults", "faults", None),
        (SwitchCrashFault, "_crash", "faults", None),
        (SwitchCrashFault, "_restore", "faults", None),
        (LinkFlapFault, "_down", "faults", None),
        (LinkFlapFault, "_up", "faults", None),
        (RecoveryManager, "_on_switch_lifecycle", "recovery", None),
        (RecoveryManager, "flowmod_sent", "recovery", None),
        (RecoveryManager, "flowmod_acked", "recovery", None),
        (RecoveryManager, "_check_ack", "recovery", None),
        (RecoveryManager, "on_switch_reconnect", "recovery", None),
        (RecoveryManager, "_resync", "recovery", None),
        (Network, "__init__", "session.setup", None),
        (engine, "build_control_stack", "session.setup", None),
        (engine, "flow_update_stats", "session.analyze", None),
        (RunRecord, "summary", "session.analyze", None),
        (RunRecord, "digest", "session.analyze", None),
        (scenario_base, "build_topology_cached", "scenarios.topology", None),
        (runner, "encode_record", "campaign.encode", None),
        (heartbeat, "write_manifest", "campaign.heartbeat", None),
        (heartbeat.HeartbeatWriter, "__init__", "campaign.heartbeat", None),
        (heartbeat.HeartbeatWriter, "cell_started", "campaign.heartbeat", None),
        (heartbeat.HeartbeatWriter, "cell_finished", "campaign.heartbeat", None),
        (RunStore, "index_encoding", "store.index", None),
        (RunStore, "put_summary", "store.object_write", None),
        (RunStore, "cached_record", "store.cached_record",
         ("store.cache_hits", lambda result: int(result is not None))),
    ]


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary, the kernel's step counter and ``run_cell``.

    ``run_cell`` tags the spans of each cell with its ``cell_id``.
    """
    from repro.sim.kernel import Simulator

    recorder.install(patches())
    original_run = Simulator.__dict__["run"]

    def run(self, *args, **kwargs):
        before = self.steps_executed
        try:
            return original_run(self, *args, **kwargs)
        finally:
            recorder.count("sim.events", self.steps_executed - before)

    recorder.patch(Simulator, "run", "sim", replacement=run)

    from repro.campaign import runner

    spanned_cell = recorder.wrap("campaign.cell", runner.run_cell)

    def run_cell(cell, *args, **kwargs):
        recorder.set_tag(cell.cell_id)
        return spanned_cell(cell, *args, **kwargs)

    recorder.patch(runner, "run_cell", None, replacement=run_cell)


def count_topology_cache(recorder: Recorder, before) -> None:
    """Add the topology cache's hits and misses since ``before``."""
    after = topology_cache_info()
    recorder.count("scenarios.topology_hits", after.hits - before.hits)
    recorder.count("scenarios.topology_misses", after.misses - before.misses)


def topology_cache_info():
    """``cache_info()`` of this process's topology cache."""
    from repro.scenarios.generators import build_topology_cached

    return build_topology_cached.cache_info()


def clear_topology_cache() -> None:
    from repro.scenarios.generators import build_topology_cached

    build_topology_cached.cache_clear()


def per_layer_metrics(totals: LayerTotals, sessions: List[Dict[str, object]],
                      simulate_wall_s: float, workers: int,
                      overhead: float,
                      store_rates: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values of one traced pass.

    ``store_rates`` holds ``store.ingest_cells_per_s`` and
    ``store.cache_cells_per_s``, measured on the untraced pass.
    ``sessions`` are the session meter's entries for the traced pass (see
    :class:`perfbench.meter.SessionMeter`): the counts a ``RunRecord`` already reports --
    probes, fired faults, recovery actions -- come from there.
    """
    own = totals.self_s
    counts = totals.counts
    acked_probing = sum(entry["acked"] for entry in sessions if entry["probes"])
    probes = sum(entry["probes"] for entry in sessions)
    lookups = counts.get("scenarios.topology_hits", 0) + counts.get(
        "scenarios.topology_misses", 0)
    cache_calls = totals.calls.get("store.cached_record", 0)
    busy = totals.total_s.get("campaign.cell", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "sim.self_s": own.get("sim", 0.0),
        "sim.events": counts.get("sim.events", 0),
        "net.self_s": own.get("net", 0.0),
        "net.link_transmits": counts.get("net.link_transmits", 0),
        "switches.dataplane.self_s": own.get("switches.dataplane", 0.0),
        "switches.dataplane.packets": counts.get("switches.dataplane.packets", 0),
        "switches.controlplane.self_s": own.get("switches.controlplane", 0.0),
        "switches.controlplane.messages": counts.get(
            "switches.controlplane.messages", 0),
        "openflow.lookup.self_s": own.get("openflow.lookup", 0.0),
        "openflow.lookup.calls": counts.get("openflow.lookup.calls", 0),
        "openflow.flowmod.self_s": own.get("openflow.flowmod", 0.0),
        "openflow.flowmod.calls": counts.get("openflow.flowmod.calls", 0),
        "openflow.connection.self_s": own.get("openflow.connection", 0.0),
        "openflow.connection.sends": counts.get("openflow.connection.sends", 0),
        "controller.self_s": own.get("controller", 0.0),
        "controller.flowmods": counts.get("controller.flowmods", 0),
        "core.self_s": own.get("core", 0.0),
        "core.confirmations": counts.get("core.confirmations", 0),
        "core.probe_yield": ratio(acked_probing, probes),
        "faults.self_s": own.get("faults", 0.0),
        "faults.fired": sum(entry["faults_fired"] for entry in sessions),
        "faults.armed_unfired": sum(entry["armed_unfired"] for entry in sessions),
        "recovery.self_s": own.get("recovery", 0.0),
        "recovery.retransmits": sum(entry["retransmits"] for entry in sessions),
        "recovery.rules_reinstalled": sum(entry["reinstalled"]
                                          for entry in sessions),
        "session.setup_s": own.get("session.setup", 0.0),
        "session.analyze_s": own.get("session.analyze", 0.0),
        "scenarios.topology_s": own.get("scenarios.topology", 0.0),
        "scenarios.topology_hit_ratio": ratio(
            counts.get("scenarios.topology_hits", 0), lookups),
        "campaign.worker_busy_s": busy,
        "campaign.parallel_efficiency": ratio(busy, simulate_wall_s * workers),
        "campaign.encode_s": own.get("campaign.encode", 0.0),
        "campaign.heartbeat_s": own.get("campaign.heartbeat", 0.0),
        "store.index_s": own.get("store.index", 0.0),
        "store.object_write_s": own.get("store.object_write", 0.0),
        "store.cached_record_s": own.get("store.cached_record", 0.0),
        "store.hit_ratio": ratio(counts.get("store.cache_hits", 0), cache_calls),
        **store_rates,
        "trace.overhead": overhead,
    }
    return values
