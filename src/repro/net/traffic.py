"""Traffic generation.

The paper's end-to-end experiment sends 300 IP flows between two hosts at
250 packets per second each (one packet every 4 ms — that is also the
measurement precision quoted for Figure 1b).  :class:`FlowSpec` describes one
such flow; :class:`TrafficGenerator` runs a constant-rate sending loop per
flow on the source host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.host import Host
from repro.packet.fields import IP_PROTO_UDP
from repro.packet.packet import Packet, make_ip_packet
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom


@dataclass
class FlowSpec:
    """Description of one constant-rate application flow."""

    flow_id: str
    source: Host
    destination: Host
    ip_src: str
    ip_dst: str
    rate_pps: float = 250.0
    tp_src: int = 10000
    tp_dst: int = 80
    ip_proto: int = IP_PROTO_UDP
    payload_size: int = 100
    start_time: float = 0.0
    stop_time: Optional[float] = None

    @property
    def interval(self) -> float:
        """Spacing between consecutive packets of the flow."""
        if self.rate_pps <= 0:
            raise ValueError(f"flow {self.flow_id} has non-positive rate")
        return 1.0 / self.rate_pps


def flows_between(
    source: Host,
    destination: Host,
    count: int,
    *,
    rate_pps: float = 250.0,
    base_src: str = "10.0.0.0",
    base_dst: str = "10.0.128.0",
    start_time: float = 0.0,
    stop_time: Optional[float] = None,
    flow_prefix: str = "flow",
) -> List[FlowSpec]:
    """Create ``count`` flows between two hosts with distinct IP pairs.

    Flow *i* uses source ``base_src + i + 1`` and destination
    ``base_dst + i + 1`` so each flow is matched by a dedicated pair of
    forwarding rules, mirroring the per-flow paths preinstalled in the paper's
    experiment.
    """
    from repro.packet.addresses import int_to_ip, ip_to_int

    flows = []
    src_base = ip_to_int(base_src)
    dst_base = ip_to_int(base_dst)
    for index in range(count):
        flows.append(
            FlowSpec(
                flow_id=f"{flow_prefix}-{index:04d}",
                source=source,
                destination=destination,
                ip_src=int_to_ip(src_base + index + 1),
                ip_dst=int_to_ip(dst_base + index + 1),
                rate_pps=rate_pps,
                tp_dst=80,
                start_time=start_time,
                stop_time=stop_time,
            )
        )
    return flows


class TrafficGenerator:
    """Runs the sending loops for a set of flows."""

    def __init__(
        self,
        sim: Simulator,
        flows: List[FlowSpec],
        rng: Optional[SeededRandom] = None,
        desynchronise: bool = True,
    ) -> None:
        self.sim = sim
        self.flows = list(flows)
        self.rng = rng or SeededRandom(42)
        #: Spread flow start offsets inside one inter-packet interval so all
        #: flows do not fire in the same simulation instant.
        self.desynchronise = desynchronise
        self._started = False
        self.packets_generated = 0

    def start(self) -> None:
        """Start one sending loop per flow.

        Each flow is a self-rescheduling kernel callback: one scheduled
        callback starts the flow, then exactly one fires per packet (the
        last one finds the flow stopped and does not reschedule).
        """
        if self._started:
            return
        self._started = True
        for flow in self.flows:
            offset = 0.0
            if self.desynchronise:
                offset = self.rng.uniform(0.0, flow.interval)
            self.sim.schedule_callback(0.0, self._start_flow, flow, offset)

    def _start_flow(self, flow: FlowSpec, offset: float) -> None:
        # All packets of a flow share the same headers: build them once and
        # stamp copies per packet instead of re-parsing addresses every 4 ms.
        template = make_ip_packet(
            flow.ip_src,
            flow.ip_dst,
            eth_src=flow.source.mac,
            eth_dst=flow.destination.mac,
            ip_proto=flow.ip_proto,
            tp_src=flow.tp_src,
            tp_dst=flow.tp_dst,
            payload_size=flow.payload_size,
            flow_id=flow.flow_id,
        )
        delay = flow.start_time + offset
        if delay > 0:
            self.sim.schedule_callback(delay, self._send, flow, template, 0)
        else:
            self._send(flow, template, 0)

    def _send(self, flow: FlowSpec, template: Packet, sequence: int) -> None:
        """Emit packet ``sequence`` of ``flow`` and schedule the next one."""
        sim = self.sim
        now = sim._now
        if flow.stop_time is not None and now >= flow.stop_time:
            return
        flow.source.send(Packet.from_values(
            template.header_values().copy(),
            payload_size=template.payload_size,
            flow_id=flow.flow_id,
            created_at=now,
            sequence=sequence,
        ))
        self.packets_generated += 1
        sim.schedule_callback(flow.interval, self._send, flow, template,
                              sequence + 1)

    def stop_all(self, at_time: Optional[float] = None) -> None:
        """Set a stop time on every flow (defaults to 'now')."""
        stop = at_time if at_time is not None else self.sim.now
        for flow in self.flows:
            flow.stop_time = stop
