"""In-memory span recording for the traced run.

Spans are recorded by the benchmark's own code around calls into public
functions of the program; nothing here reaches inside ``repro``.  A span
carries its name, start, end, the span that caused it and the id of the
operation it belongs to.  They stay in memory during the run and are
written out, if asked, when it ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional


class SpanRecorder:
    """Spans of one single-threaded driver."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index | None, op_id]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: Optional[float],
        op: Optional[int],
        parent: Optional[int] = None,
    ) -> int:
        """Record a span whose bounds the caller took; returns its index.
        ``end=None`` leaves it open for :meth:`close`."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def close(self, index: int, end: float) -> None:
        self.spans[index][2] = end

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """A span around a block, nested under the enclosing block's."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = self.add(name, time.perf_counter(), None, op, parent)
        self._stack.append(index)
        try:
            yield
        finally:
            self.close(index, time.perf_counter())
            self._stack.pop()

    def total_ms(self, scale: dict[int, float]) -> dict[str, list[float]]:
        """Per span name, each span's duration in ms times ``scale[op]``
        (the calibration factor of the operation the span belongs to)."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, op in self.spans:
            out[name].append((end - start) * 1000.0 * scale.get(op, 1.0))
        return out

    def self_ms(self, scale: dict[int, float]) -> dict[str, list[float]]:
        """As :meth:`total_ms`, minus the time the span's children cover."""
        children: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            out[name].append(
                (end - start - children[index]) * 1000.0 * scale.get(op, 1.0)
            )
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
