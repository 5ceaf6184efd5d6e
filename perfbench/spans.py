"""In-memory span recording around the public functions of each layer.

The traced pass patches class and module attributes of :mod:`repro` with
thin wrappers before any simulation object is built, and restores them
afterwards; nothing under ``src/`` changes.  Every wrapped call appends one
span (layer name, start, end, parent span, session tag) to flat arrays, so
a span costs a few appends rather than an object.  A recorder flushes its
spans to a binary file only when no span is open: after a session in
process, and when a campaign worker's ``run_cells_chunk`` task returns.
The benchmark then reads every file back and computes each layer's self
time -- its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(owner, attribute, layer, count)``: wrap ``owner.attribute`` (a class or
#: a module) in a span named ``layer``.  ``count`` is ``None``, a counter
#: name bumped once per call, or ``(counter name, result -> int)``.
Patch = Tuple[object, str, object, object]


class Recorder:
    """Spans of one process, kept in flat arrays until flushed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.tags: List[str] = [""]
        self.counts: Dict[str, int] = {}
        self._originals: List[Tuple[object, str, object]] = []
        self._flushes = 0
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span and count (the name table is kept)."""
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag_of = array("I")
        self.counts = {}
        self._stack: List[int] = []
        self._tag_id = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def set_tag(self, tag: str) -> None:
        """Label the spans recorded from now on (a session or cell id)."""
        self.tags.append(tag)
        self._tag_id = len(self.tags) - 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------------
    def wrap(self, layer: object, fn: Callable, count: object = None) -> Callable:
        """``fn`` with a span around every call.

        ``layer`` is a span name, or a callable mapping the call's first
        argument (``self``) to one -- a process step is charged to the layer
        that owns the process.
        """
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"cannot span generator function {fn!r}")
        recorder = self
        if callable(layer):
            classify = layer
            cache: Dict[str, int] = {}

            def name_for(args) -> int:
                name = classify(args[0])
                index = cache.get(name)
                if index is None:
                    index = cache[name] = recorder.name_id(name)
                return index
        else:
            fixed = self.name_id(str(layer))

            def name_for(args) -> int:
                return fixed
        count_key, count_of = (count if isinstance(count, tuple)
                               else (count, None))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = recorder._stack
            index = len(recorder.start)
            recorder.name_of.append(name_for(args))
            recorder.parent.append(stack[-1] if stack else -1)
            recorder.tag_of.append(recorder._tag_id)
            recorder.end.append(0.0)
            stack.append(index)
            recorder.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end[index] = perf_counter()
                stack.pop()
            if count_key is not None:
                step = 1 if count_of is None else count_of(result)
                counts = recorder.counts
                counts[count_key] = counts.get(count_key, 0) + step
            return result

        return spanned

    def patch(self, owner: object, attribute: str, layer: object,
              count: object = None, replacement: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a spanned wrapper.

        The wrapper calls ``replacement`` when given (it must call the
        original itself), else the original.  With ``layer=None`` the
        replacement is installed without a span of its own.
        """
        original = (owner.__dict__[attribute] if inspect.isclass(owner)
                    else getattr(owner, attribute))
        self._originals.append((owner, attribute, original))
        if layer is None:
            setattr(owner, attribute, replacement)
        else:
            setattr(owner, attribute,
                    self.wrap(layer, replacement or original, count))

    def install(self, patches: Iterable[Patch]) -> None:
        """Apply every ``(owner, attribute, layer, count)`` patch."""
        for owner, attribute, layer, count in patches:
            self.patch(owner, attribute, layer, count)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- persistence ---------------------------------------------------------------
    def flush(self, directory: Path) -> Optional[Path]:
        """Append the recorded spans to a new file and clear them.

        Only legal with no span open, so every flushed file is a complete
        forest whose parent indices stay within the file.
        """
        if self._stack:
            raise RuntimeError("flush with an open span")
        if not len(self) and not self.counts:
            return None
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._flushes += 1
        path = directory / f"spans-{os.getpid()}-{self._flushes}.bin"
        header = {"names": self.names, "tags": self.tags,
                  "counts": self.counts, "n": len(self)}
        with path.open("wb") as sink:
            sink.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_of, self.start, self.end, self.parent,
                           self.tag_of):
                column.tofile(sink)
        self.clear()
        return path


class SpanFile:
    """One flushed span file, read back into columns."""

    def __init__(self, path: Path) -> None:
        with Path(path).open("rb") as source:
            header = json.loads(source.readline())
            n = header["n"]
            columns = []
            for code in ("H", "d", "d", "i", "I"):
                column = array(code)
                column.fromfile(source, n)
                columns.append(column)
        self.names: List[str] = header["names"]
        self.tags: List[str] = header["tags"]
        self.counts: Dict[str, int] = header["counts"]
        self.name_of, self.start, self.end, self.parent, self.tag_of = columns


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans are in start order (a child always follows its parent), so each
    parent's children arrive sorted by start and their union is a running
    merge.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for index in range(n):
        owner = parent[index]
        if owner < 0:
            continue
        begin, finish = start[index], end[index]
        if begin < reach[owner]:
            begin = reach[owner]
        if finish > begin:
            covered[owner] += finish - begin
        if finish > reach[owner]:
            reach[owner] = finish
    return [end[index] - start[index] - covered[index] for index in range(n)]


class LayerTotals:
    """Per-layer self and inclusive seconds, call counts and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def add(self, names: Sequence[str], name_of: Sequence[int],
            start: Sequence[float], end: Sequence[float],
            parent: Sequence[int], counts: Dict[str, int]) -> None:
        own = self_times(start, end, parent)
        for index, seconds in enumerate(own):
            name = names[name_of[index]]
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
            self.total_s[name] = (self.total_s.get(name, 0.0)
                                  + end[index] - start[index])
            self.calls[name] = self.calls.get(name, 0) + 1
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def add_file(self, path: Path) -> None:
        spans = SpanFile(path)
        self.add(spans.names, spans.name_of, spans.start, spans.end,
                 spans.parent, spans.counts)

    def add_directory(self, directory: Path) -> int:
        """Fold in every span file under ``directory``; returns the file count."""
        paths = sorted(Path(directory).glob("spans-*.bin"))
        for path in paths:
            self.add_file(path)
        return len(paths)
