"""The switch data plane: the table packets actually hit.

The data plane owns its own :class:`~repro.openflow.flowtable.FlowTable`,
separate from the control plane's table.  The whole point of the paper is
that these two tables can disagree for hundreds of milliseconds; keeping them
as two distinct objects makes that divergence explicit and measurable
(:meth:`DataPlane.divergence_from`).

A lookup cache keyed by the packet's full header tuple (with ``in_port``)
keeps per-packet cost low for the high-rate traffic used in the end-to-end
experiments; it is cleared whenever the data-plane table changes
(:meth:`DataPlane.apply_flowmod`, :meth:`DataPlane.wipe`).  Each rule carries
its forwarding *verdict* -- its action list compiled once, on the rule's
first hit -- so the per-hop path neither re-walks the actions nor allocates
a result object.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.openflow.actions import Verdict, compile_actions
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.messages import FlowMod
from repro.packet.fields import FIELD_INDEX, HeaderField
from repro.packet.packet import HEADER_BYTES, Packet

# The cache key puts the arrival port first, in place of the packet's own
# ``in_port`` header value.
assert FIELD_INDEX[HeaderField.IN_PORT] == 0

#: Cache-miss sentinel (``None`` is a valid cached value: a table miss).
_MISS = object()


class DataPlane:
    """Data-plane forwarding state and packet processing."""

    def __init__(self, table_mode: str = "priority", capacity: Optional[int] = None,
                 name: str = "dataplane") -> None:
        self.table = FlowTable(mode=table_mode, capacity=capacity, name=name)
        self.name = name
        self._lookup_cache: Dict[Tuple, Optional[FlowEntry]] = {}
        #: (time, flowmod xid) history of when each rule became visible to
        #: packets — the measurement layer uses this as ground truth for
        #: "data plane activation".
        self.apply_log: List[Tuple[float, int]] = []
        self.packets_processed = 0
        self.packets_dropped = 0

    # -- rule application -----------------------------------------------------
    def apply_flowmod(self, flowmod: FlowMod, now: float) -> List[FlowEntry]:
        """Apply a rule modification to the data plane (cache is invalidated)."""
        entries = self.table.apply_flowmod(flowmod, now=now)
        self._lookup_cache.clear()
        self.apply_log.append((now, flowmod.xid))
        return entries

    def occupancy(self) -> int:
        """Number of rules currently visible to packets."""
        return len(self.table)

    def wipe(self) -> None:
        """Crash semantics: every rule vanishes from the data plane at once."""
        self.table.clear()
        self._lookup_cache.clear()

    # -- packet processing --------------------------------------------------------
    def verdict(self, packet: Packet, in_port: int) -> Optional[Verdict]:
        """Classify ``packet`` arriving on ``in_port`` and count it.

        Records the hit on the matching rule.  Returns ``None`` when the
        packet is dropped -- on a table miss or by a rule that sends it
        nowhere -- and the verdict otherwise.  The packet is not touched:
        applying the verdict's rewrites is the caller's job.
        """
        self.packets_processed += 1
        # The fixed field order is canonical, so the key needs no sorting.
        key = (in_port, *packet._values[1:])
        entry = self._lookup_cache.get(key, _MISS)
        if entry is _MISS:
            entry = self._lookup_cache[key] = self.table.lookup_values(list(key))
        if entry is None:
            self.packets_dropped += 1
            return None
        entry.packet_count += 1
        entry.byte_count += HEADER_BYTES + packet.payload_size
        verdict = entry.verdict
        if verdict is None:
            verdict = entry.verdict = compile_actions(entry.actions)
        if not verdict[0] and not verdict[1]:
            self.packets_dropped += 1
            return None
        return verdict

    def hit_counters(self) -> Dict[Tuple, Tuple[int, int]]:
        """``rule signature -> (packet_count, byte_count)`` of the visible rules."""
        return {entry.signature(): (entry.packet_count, entry.byte_count)
                for entry in self.table.entries}

    # -- diagnostics -----------------------------------------------------------------
    def divergence_from(self, control_table: FlowTable) -> Tuple[set, set]:
        """Rules only in the control plane and rules only in the data plane.

        Returns a pair of signature sets ``(control_only, data_only)``; both
        empty means the planes agree.
        """
        control = control_table.signature_set()
        data = self.table.signature_set()
        return control - data, data - control

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<DataPlane {self.name} rules={len(self.table)} pkts={self.packets_processed}>"
