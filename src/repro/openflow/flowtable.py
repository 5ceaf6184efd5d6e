"""Flow table with OpenFlow 1.0 add/modify/delete semantics.

Two lookup disciplines are supported:

* ``priority`` (default) — the highest-priority matching entry wins; ties are
  broken by installation order (older entry wins), which is how Open vSwitch
  behaves for equal priorities.
* ``install_order`` — priorities are ignored and the *most recently installed*
  matching entry wins.  This replicates the hardware switch used in the
  paper's prototype, which "does not support priorities but takes the rule
  installation order to define the rule importance"; the paper's prototype
  therefore "carefully place[s] the low priority rules early" so that later
  installations take precedence (Section 4).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.openflow.actions import Action, Verdict, actions_signature
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.packet import Packet

_entry_ids = itertools.count(1)


class FlowEntry:
    """One installed rule."""

    __slots__ = (
        "entry_id",
        "match",
        "actions",
        "priority",
        "cookie",
        "installed_at",
        "packet_count",
        "byte_count",
        "source_xid",
        "verdict",
    )

    def __init__(
        self,
        match: Match,
        actions: Sequence[Action],
        priority: int = 32768,
        cookie: int = 0,
        installed_at: float = 0.0,
        source_xid: int = 0,
    ) -> None:
        self.entry_id = next(_entry_ids)
        self.match = match
        self.actions: List[Action] = list(actions)
        self.priority = int(priority)
        self.cookie = int(cookie)
        self.installed_at = installed_at
        self.packet_count = 0
        self.byte_count = 0
        self.source_xid = source_xid
        #: :func:`~repro.openflow.actions.compile_actions` of :attr:`actions`,
        #: filled in by the data plane on the rule's first hit and reset
        #: whenever the actions change.
        self.verdict: Optional[Verdict] = None

    def record_hit(self, packet: Packet) -> None:
        """Update per-rule counters when a packet matches."""
        self.packet_count += 1
        self.byte_count += packet.total_size

    def signature(self) -> Tuple:
        """Hashable identity used to compare control- and data-plane state."""
        return (self.match, self.priority, actions_signature(self.actions))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<FlowEntry #{self.entry_id} prio={self.priority} {self.match!r} "
            f"-> {self.actions!r}>"
        )


class FlowTable:
    """A single-table OpenFlow pipeline."""

    __slots__ = (
        "mode",
        "capacity",
        "name",
        "_entries",
        "_install_counter",
        "_lookup_index",
    )

    def __init__(
        self,
        mode: str = "priority",
        capacity: Optional[int] = None,
        name: str = "table0",
    ) -> None:
        if mode not in ("priority", "install_order"):
            raise ValueError(f"unknown flow table mode {mode!r}")
        self.mode = mode
        self.capacity = capacity
        self.name = name
        self._entries: List[FlowEntry] = []
        self._install_counter = 0
        #: Compiled lookup structure, built lazily and dropped on mutation.
        #: ``priority`` mode: priority-descending buckets, each with an
        #: exact-match hash fast path plus compiled wildcard matchers.
        #: ``install_order`` mode: recency-ordered ``(entry, matcher)`` list.
        self._lookup_index = None

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries))

    @property
    def entries(self) -> List[FlowEntry]:
        """A copy of the current entries (stable order: installation order)."""
        return list(self._entries)

    def entries_sorted_for_lookup(self) -> List[FlowEntry]:
        """Entries in the order the lookup algorithm considers them."""
        if self.mode == "install_order":
            # Most recently installed first: priorities are ignored and later
            # installations take precedence over earlier ones.
            return sorted(
                self._entries, key=lambda entry: (-entry.installed_at, -entry.entry_id)
            )
        return sorted(
            self._entries, key=lambda entry: (-entry.priority, entry.installed_at, entry.entry_id)
        )

    def find(self, predicate: Callable[[FlowEntry], bool]) -> List[FlowEntry]:
        """All entries satisfying ``predicate``."""
        return [entry for entry in self._entries if predicate(entry)]

    def occupancy(self) -> int:
        """Number of installed rules (alias of ``len``)."""
        return len(self._entries)

    # -- mutation ------------------------------------------------------------
    def apply_flowmod(self, flowmod: FlowMod, now: float = 0.0) -> List[FlowEntry]:
        """Apply a FlowMod and return the entries that were added or modified.

        Raises :class:`TableFullError` when an ADD would exceed the capacity.
        """
        command = flowmod.command
        if command == FlowModCommand.ADD:
            return [self._add(flowmod, now)]
        if command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            return self._modify(flowmod, strict=command == FlowModCommand.MODIFY_STRICT, now=now)
        if command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            self._delete(flowmod, strict=command == FlowModCommand.DELETE_STRICT)
            return []
        raise ValueError(f"unsupported FlowMod command {command}")

    def _add(self, flowmod: FlowMod, now: float) -> FlowEntry:
        self._invalidate_index()
        # OpenFlow ADD semantics: an identical match at the same priority is
        # replaced rather than duplicated.
        for index, entry in enumerate(self._entries):
            if entry.priority == flowmod.priority and entry.match.exact_same(flowmod.match):
                replacement = FlowEntry(
                    flowmod.match,
                    flowmod.actions,
                    priority=flowmod.priority,
                    cookie=flowmod.cookie,
                    installed_at=entry.installed_at if self.mode == "install_order" else now,
                    source_xid=flowmod.xid,
                )
                self._entries[index] = replacement
                return replacement
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise TableFullError(
                f"flow table {self.name!r} full ({self.capacity} entries)"
            )
        entry = FlowEntry(
            flowmod.match,
            flowmod.actions,
            priority=flowmod.priority,
            cookie=flowmod.cookie,
            installed_at=now,
            source_xid=flowmod.xid,
        )
        self._install_counter += 1
        self._entries.append(entry)
        return entry

    def _modify(self, flowmod: FlowMod, strict: bool, now: float) -> List[FlowEntry]:
        self._invalidate_index()
        touched: List[FlowEntry] = []
        for entry in self._entries:
            if self._selected(entry, flowmod.match, flowmod.priority, strict):
                entry.actions = list(flowmod.actions)
                entry.verdict = None
                entry.cookie = flowmod.cookie
                entry.source_xid = flowmod.xid
                touched.append(entry)
        if not touched:
            # OpenFlow 1.0: MODIFY with no matching entry behaves like ADD.
            touched.append(self._add(flowmod, now))
        return touched

    def _delete(self, flowmod: FlowMod, strict: bool) -> None:
        self._invalidate_index()
        self._entries = [
            entry
            for entry in self._entries
            if not self._selected(entry, flowmod.match, flowmod.priority, strict)
        ]

    @staticmethod
    def _selected(entry: FlowEntry, match: Match, priority: int, strict: bool) -> bool:
        if strict:
            return entry.priority == priority and entry.match.exact_same(match)
        # Non-strict: the FlowMod match acts as a wildcard filter that must
        # cover the entry's match.
        return match.covers(entry.match) or match.is_match_all

    def remove_entry(self, entry: FlowEntry) -> None:
        """Remove a specific entry object (used by timeout expiry)."""
        self._invalidate_index()
        self._entries = [candidate for candidate in self._entries if candidate is not entry]

    def clear(self) -> None:
        """Remove all entries."""
        self._invalidate_index()
        self._entries.clear()

    # -- lookup -----------------------------------------------------------------
    def _invalidate_index(self) -> None:
        self._lookup_index = None

    def _build_priority_index(self):
        """Priority-descending buckets with an exact-match dict fast path.

        Each bucket holds the entries of one priority as
        ``(exact_groups, wildcard)`` where ``exact_groups`` maps a field
        signature (tuple of constrained field indices) to a hash table
        ``{field values: (order, entry)}`` for fully-specified rules, and
        ``wildcard`` lists the remaining entries as compiled matchers in
        tie-break order (``order`` is ``(installed_at, entry_id)`` — the
        equal-priority "older entry wins" rule).
        """
        by_priority: Dict[int, list] = {}
        for entry in self._entries:
            by_priority.setdefault(entry.priority, []).append(
                ((entry.installed_at, entry.entry_id), entry)
            )
        buckets = []
        for priority in sorted(by_priority, reverse=True):
            exact_groups: Dict[tuple, dict] = {}
            wildcard = []
            for order, entry in sorted(by_priority[priority]):
                match = entry.match
                constraints = match.compiled_constraints()
                if constraints and match.is_exact:
                    signature = tuple(item[0] for item in constraints)
                    group = exact_groups.setdefault(signature, {})
                    key = tuple(item[1] for item in constraints)
                    # Oldest entry wins among identical (priority, match)
                    # duplicates, mirroring the linear reference scan.
                    group.setdefault(key, (order, entry))
                else:
                    wildcard.append((order, entry, match.compiled()))
            buckets.append((list(exact_groups.items()), wildcard))
        return buckets

    def _build_install_order_index(self):
        """Recency-first compiled entry list (hardware table semantics)."""
        ordered = sorted(
            self._entries, key=lambda entry: (-entry.installed_at, -entry.entry_id)
        )
        return [(entry, entry.match.compiled()) for entry in ordered]

    def lookup_values(self, values) -> Optional[FlowEntry]:
        """Classify a fixed-order header value array (the hot path).

        ``values`` follows :data:`~repro.packet.fields.FIELD_ORDER` with
        ``None`` for absent fields (read as zero), exactly like
        ``packet._values`` with ``in_port`` filled in.
        """
        index = self._lookup_index
        if self.mode == "install_order":
            if index is None:
                index = self._lookup_index = self._build_install_order_index()
            for entry, matcher in index:
                if matcher(values):
                    return entry
            return None
        if index is None:
            index = self._lookup_index = self._build_priority_index()
        for exact_groups, wildcard in index:
            best_order = None
            best_entry = None
            for signature, group in exact_groups:
                key = tuple((values[i] or 0) for i in signature)
                hit = group.get(key)
                if hit is not None and (best_order is None or hit[0] < best_order):
                    best_order, best_entry = hit
            for order, entry, matcher in wildcard:
                if best_order is not None and order > best_order:
                    break
                if matcher(values):
                    best_order, best_entry = order, entry
                    break
            if best_entry is not None:
                return best_entry
        return None

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        """The entry that would forward ``packet``, or ``None`` (table miss)."""
        return self.lookup_values(packet._values)

    def lookup_reference(self, packet: Packet) -> Optional[FlowEntry]:
        """Reference (unoptimized) lookup: sorted linear scan.

        The original implementation, kept for equivalence testing against
        :meth:`lookup_values`' compiled index.
        """
        for entry in self.entries_sorted_for_lookup():
            if entry.match.matches_packet_reference(packet):
                return entry
        return None

    def lookup_all(self, packet: Packet) -> List[FlowEntry]:
        """Every entry matching ``packet`` in lookup order (diagnostics only)."""
        return [entry for entry in self.entries_sorted_for_lookup()
                if entry.match.matches_packet(packet)]

    # -- comparison ----------------------------------------------------------------
    def signature_set(self) -> set:
        """Set of entry signatures — used to diff control vs. data plane state."""
        return {entry.signature() for entry in self._entries}

    def dump(self) -> List[Dict]:
        """A JSON-able dump of the table (tests and debugging)."""
        return [
            {
                "priority": entry.priority,
                "match": repr(entry.match),
                "actions": [repr(action) for action in entry.actions],
                "packets": entry.packet_count,
            }
            for entry in self.entries_sorted_for_lookup()
        ]


class TableFullError(RuntimeError):
    """Raised when an ADD exceeds the flow table capacity."""


def diff_tables(reference: FlowTable, other: FlowTable) -> Tuple[set, set]:
    """Entries present only in ``reference`` and only in ``other`` (by signature)."""
    ref = reference.signature_set()
    oth = other.signature_set()
    return ref - oth, oth - ref
