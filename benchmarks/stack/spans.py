"""Span recorder for the traced run (kept in memory, written at exit).

One span per call the benchmark makes into a layer: name, start, end,
the span that was open when it started (its parent) and the batch
``seq`` that ties the spans of one batch together.  The harness is
single-threaded, so "the open span" is a plain stack.  A layer's *self
time* is its span's duration minus the part its direct children cover.

Untraced runs use :data:`NULL_RECORDER`, whose ``span()`` hands back one
shared no-op context manager, so the measurement code is the same code
with and without tracing and ``trace.overhead_ratio`` is the cost of
this file alone.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "NULL_RECORDER"]


class _OpenSpan:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int):
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.spans[self._index][2] = time.perf_counter_ns()
        recorder._open.pop()


class SpanRecorder:
    """Records ``[name, start_ns, end_ns, parent, seq]`` rows."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, seq: int | None = None) -> _OpenSpan:
        """Open a span; use as ``with recorder.span("layer.call", seq=i):``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        self.spans.append([name, time.perf_counter_ns(), None, parent, seq])
        return _OpenSpan(self, index)

    def durations_ns(self, name: str) -> list[int]:
        """Duration of every closed span called ``name``, in record order."""
        return [
            end - start
            for span_name, start, end, _parent, _seq in self.spans
            if span_name == name and end is not None
        ]

    def total_ns(self, name: str) -> int:
        return sum(self.durations_ns(name))

    def self_times_ns(self, ranges=None) -> dict[str, int]:
        """Self time per span name: duration minus direct children.

        ``ranges`` restricts the sum to spans whose index falls in one of
        the given ``(start, stop)`` index ranges (children are recorded
        right after their parent, so a range holds whole subtrees).
        """
        covered: dict[int, int] = defaultdict(int)
        for _name, start, end, parent, _seq in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for first, stop in ranges or [(0, len(self.spans))]:
            for index in range(first, stop):
                name, start, end, _parent, _seq = self.spans[index]
                if end is not None:
                    totals[name] += end - start - covered[index]
        return dict(totals)

    def write(self, handle, **extra) -> None:
        """Append every span to ``handle`` as one JSON object per line."""
        for index, (name, start, end, parent, seq) in enumerate(self.spans):
            handle.write(json.dumps({
                **extra, "id": index, "name": name, "start_ns": start,
                "end_ns": end, "parent": parent, "seq": seq,
            }) + "\n")


class _NullRecorder:
    enabled = False
    _span = contextlib.nullcontext()

    def span(self, name: str, seq: int | None = None):
        return self._span


NULL_RECORDER = _NullRecorder()
