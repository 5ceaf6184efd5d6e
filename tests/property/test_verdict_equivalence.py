"""Equivalence of the switch's compiled forwarding verdicts with a reference
built on ``FlowTable.lookup_reference``, ``apply_actions`` and a copied
packet, over randomized rule sets, packets, FlowMods and table wipes.

Packets are drawn from a small pool of header templates, so most of them hit
the lookup cache; interleaving table changes with them pins that neither the
cache nor a rule's compiled verdict outlives the rules it was built from.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import (
    ControllerAction,
    DropAction,
    OutputAction,
    SetFieldAction,
    apply_actions,
)
from repro.openflow.constants import CONTROLLER_PORT, FLOOD_PORT, FlowModCommand
from repro.openflow.flowtable import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import HeaderField
from repro.packet.packet import Packet
from repro.sim import Simulator
from repro.switches import Switch, software_switch_profile

#: Ports with a recording sink attached; port 4 is deliberately left open
#: (output to it is silently lost).
_ATTACHED = (1, 2, 3)
_IPS = [(10 << 24) + index for index in range(1, 5)]
_COMMANDS = [FlowModCommand.ADD] * 4 + [
    FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT,
    FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT,
]


def _random_match(rng: random.Random) -> Match:
    """Exact (every field the packets carry) or wildcarded, prefixes included."""
    if rng.random() < 0.3:
        return Match(in_port=rng.choice(_ATTACHED), ip_src=rng.choice(_IPS),
                     ip_dst=rng.choice(_IPS), tp_dst=rng.choice([80, 443]))
    kwargs = {}
    if rng.random() < 0.3:
        kwargs["in_port"] = rng.choice(_ATTACHED)
    if rng.random() < 0.5:
        address = rng.choice(_IPS)
        if rng.random() < 0.5:
            kwargs["ip_src"] = address
        else:
            kwargs["ip_src"] = (f"10.0.0.{address & 255}", rng.choice([24, 30, 31]))
    if rng.random() < 0.4:
        kwargs["ip_dst"] = rng.choice(_IPS)
    if rng.random() < 0.3:
        kwargs["tp_dst"] = rng.choice([80, 443])
    return Match(**kwargs)


def _random_action(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return OutputAction(rng.choice([1, 2, 3, 4, 4, FLOOD_PORT]))
    if roll < 0.65:
        return ControllerAction()
    if roll < 0.9:
        field, value = rng.choice([
            (HeaderField.VLAN_ID, rng.randint(0, 4095)),
            (HeaderField.IP_TOS, rng.randint(0, 63)),
            (HeaderField.TP_DST, rng.choice([80, 443, 8080])),
            (HeaderField.IP_DST, rng.choice(_IPS)),
        ])
        return SetFieldAction(field, value)
    return DropAction()


def _random_flowmod(rng: random.Random) -> FlowMod:
    actions = [_random_action(rng) for _ in range(rng.randint(0, 4))]
    return FlowMod(_random_match(rng), actions, command=rng.choice(_COMMANDS),
                   priority=rng.choice([1, 100, 100, 500]))


def _packet_pool(rng: random.Random):
    pool = []
    for _ in range(6):
        headers = {HeaderField.IP_SRC: rng.choice(_IPS),
                   HeaderField.IP_DST: rng.choice(_IPS),
                   HeaderField.TP_DST: rng.choice([80, 443])}
        if rng.random() < 0.3:
            headers[HeaderField.VLAN_ID] = rng.randint(0, 4095)
        pool.append((headers, rng.randint(0, 1200)))
    return pool


class _Reference:
    """The switch data plane as specified: reference lookup, action list
    applied to a fresh copy, one copy per emitted output."""

    def __init__(self, mode: str) -> None:
        self.table = FlowTable(mode=mode)
        self.emitted = []
        self.captured = []
        self.processed = self.dropped = self.forwarded = self.to_controller = 0

    def forward(self, packet: Packet, in_port: int) -> None:
        self.processed += 1
        classified = packet.copy()
        classified.set(HeaderField.IN_PORT, in_port)
        entry = self.table.lookup_reference(classified)
        if entry is None:
            self.dropped += 1
            return
        entry.record_hit(packet)
        forwarded = packet.copy()
        ports = apply_actions(forwarded, entry.actions)
        if not ports:
            self.dropped += 1
        if CONTROLLER_PORT in ports:
            self.to_controller += 1
            self.captured.append((in_port, tuple(forwarded.header_values())))
        for port in ports:
            if port == CONTROLLER_PORT:
                continue
            targets = ([p for p in _ATTACHED if p != in_port]
                       if port == FLOOD_PORT else [port])
            for target in targets:
                if target in _ATTACHED:
                    self.forwarded += 1
                    self.emitted.append((target, tuple(forwarded.header_values())))


def _counters(table: FlowTable):
    return [(entry.signature(), entry.packet_count, entry.byte_count)
            for entry in table.entries]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(["priority", "install_order"]),
)
def test_verdict_path_agrees_with_reference(seed, mode):
    rng = random.Random(seed)
    sim = Simulator()
    switch = Switch(sim, "S", software_switch_profile().with_overrides(
        table_mode=mode))
    emitted = []

    def sink(port):
        def receive(packet):
            emitted.append((port, tuple(packet.header_values()), packet))
            # Scribble on the packet, as a rewrite further downstream would:
            # any other branch or PacketIn sharing this object would see it.
            packet.set(HeaderField.VLAN_PCP, 7)
        return receive

    for port in _ATTACHED:
        switch.attach_port(port, sink(port))
    packet_ins = []
    switch.controlplane.send_packet_in = packet_ins.append
    reference = _Reference(mode)
    pool = _packet_pool(rng)
    now = 0.0

    for _step in range(60):
        roll = rng.random()
        if roll < 0.25:
            flowmod = _random_flowmod(rng)
            now += rng.choice([0.0, 0.001])  # equal install times exercise ties
            switch.dataplane.apply_flowmod(flowmod, now=now)
            reference.table.apply_flowmod(flowmod, now=now)
        elif roll < 0.28:
            switch.dataplane.wipe()
            reference.table.clear()
        else:
            headers, payload = rng.choice(pool)
            in_port = rng.choice(_ATTACHED)
            before = len(emitted)
            sent = Packet(headers, payload_size=payload)
            switch.receive_packet(sent, in_port)
            sim.run()
            reference.forward(Packet(headers, payload_size=payload), in_port)
            branch = [packet for _port, _values, packet in emitted[before:]]
            # Every emitted copy is its own object: no two branches share one.
            assert len({id(packet) for packet in branch}) == len(branch)
            # Rewrites land on a copy, never on the packet the switch received.
            if not any(packet is sent for packet in branch):
                assert sent.headers == Packet(headers).headers

    assert [(port, values) for port, values, _packet in emitted] == reference.emitted
    # PacketIns are built lazily, after later packets went by: the captured
    # packet must still hold the headers it had when it hit the rule.
    captured = []
    for factory in packet_ins:
        message = factory()
        captured.append((message.in_port, tuple(message.packet.header_values())))
    assert captured == reference.captured
    assert _counters(switch.dataplane.table) == _counters(reference.table)
    dataplane = switch.dataplane
    assert (dataplane.packets_processed, dataplane.packets_dropped,
            switch.packets_forwarded, switch.packets_to_controller) == (
        reference.processed, reference.dropped, reference.forwarded,
        reference.to_controller)
