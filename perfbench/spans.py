"""In-memory span recording, self-time arithmetic and the percentile rule.

A span is ``(name, start, end, parent, cell)``: host-clock start and end in
seconds, the index of the enclosing span (``-1`` at the top) and the id of
the campaign cell it belongs to (``-1`` outside any cell).  Spans are kept
in flat arrays while the benchmark runs and written out once at the end.
"""

from __future__ import annotations

import math
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SpanRecorder",
    "self_times",
    "percentile",
    "reportable_percentile",
    "tail_percentile",
]


class SpanRecorder:
    """Flat, append-only span store with an open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.cells = array("l")
        self.stack: List[int] = []
        #: Cell id stamped on new spans (set by whoever opens a cell span).
        self.cell = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.cells.append(self.cell)
        self.ends.append(math.nan)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self.stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        recorder = self

        def wrapped(*args, **kwargs):
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        wrapped.__wrapped__ = fn
        return wrapped

    def durations(self, name: str) -> List[float]:
        """Wall durations (seconds) of every span called ``name``."""
        return [
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name
        ]

    def write_csv(self, path: str) -> None:
        """Write every span as one CSV line (times relative to the first)."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent,cell\n")
            for i, name in enumerate(self.names):
                handle.write(
                    f"{i},{name},{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f},"
                    f"{self.parents[i]},{self.cells[i]}\n"
                )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result is never negative and the self times of
    a tree add up to the duration of its root.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        intervals = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids if ends[k] > lo and starts[k] < hi
        )
        covered = 0.0
        run_start: Optional[float] = None
        run_end = 0.0
        for start, end in intervals:
            if run_start is None or start > run_end:
                if run_start is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        if run_start is not None:
            covered += run_end - run_start
        result[parent] = max(0.0, result[parent] - covered)
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reportable_percentile(count: int, wanted: float, beyond: int = 10) -> Optional[float]:
    """The highest percentile <= ``wanted`` with ``beyond`` samples above it.

    A percentile *p* of ``count`` samples leaves ``count * (1 - p/100)``
    samples beyond it; the rule asks for at least ``beyond`` of them.
    Returns ``None`` when not even the median qualifies.
    """
    if count <= 0:
        return None
    highest = 100.0 * (1.0 - beyond / count)
    if highest < 50.0:
        return None
    return min(wanted, highest)


def tail_percentile(
    values: Sequence[float], wanted: float, beyond: int = 10
) -> Tuple[Optional[float], Optional[float]]:
    """``(percentile used, its value)`` under :func:`reportable_percentile`."""
    used = reportable_percentile(len(values), wanted, beyond)
    if used is None:
        return None, None
    return used, percentile(values, used)
