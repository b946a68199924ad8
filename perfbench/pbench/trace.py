"""In-memory spans recorded by the benchmark around calls into each
layer of the program.

A span is ``(id, parent, name, start_ns, end_ns, op)``: ``op`` names
the program run or request the span belongs to, and every root span
(parent ``None``) is one such operation. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time

now_ns = time.perf_counter_ns


class Tracer:
    """Collects spans. Callers take their own timestamps (they need them
    for the untraced metrics too) and hand finished intervals to
    :meth:`add`, so recording costs one tuple append."""

    def __init__(self):
        self.spans: list[tuple] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int | None = None, op: str = "") -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, parent, name, start_ns, end_ns, op))
        return span_id

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1, "op": op}) + "\n")


class Op:
    """Timestamps of one operation: its own start and end, and one
    bracket taken immediately around each layer call made through
    :meth:`call`. The operation's start and end are separate
    timestamps, so work between the calls (glue without a span of its
    own) stays uncovered and shows as a gap in :func:`span_sum_check`.
    """

    def __init__(self):
        self.calls: list[tuple] = []
        self.end_ns = None
        self.start_ns = now_ns()

    def call(self, name: str, fn, *args):
        t0 = now_ns()
        value = fn(*args)
        self.calls.append((name, t0, now_ns()))
        return value

    def stop(self) -> float:
        """End the operation; returns its wall-clock seconds."""
        self.end_ns = now_ns()
        return (self.end_ns - self.start_ns) / 1e9

    def record(self, tracer: Tracer, name: str, op: str) -> dict:
        """Add the root span and one child span per call; returns the
        span id of each call by name (the last one of a name)."""
        root = tracer.add(name, self.start_ns, self.end_ns, op=op)
        return {call: tracer.add(call, t0, t1, parent=root, op=op)
                for call, t0, t1 in self.calls}


def _uncovered(interval: tuple[int, int], children) -> list[tuple]:
    """The parts of ``interval`` that no child (``(start, end, name)``,
    clipped to the interval) covers, as ``(name of the child that ends
    right before the part, or None at the start, nanoseconds)``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b), name) for a, b, name in
                     children if min(hi, b) > max(lo, a))
    parts, cursor, last = [], lo, None
    for a, b, name in clipped:
        if a > cursor:
            parts.append((last, a - cursor))
        if b > cursor:
            cursor, last = b, name
    if hi > cursor:
        parts.append((last, hi - cursor))
    return parts


def _children(spans) -> dict[int, list]:
    children: dict[int, list] = {}
    for _, parent, name, t0, t1, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1, name))
    return children


def self_times(spans) -> dict[int, int]:
    """span id -> self time in ns: the part of the span's interval that
    none of its child spans covers."""
    children = _children(spans)
    return {span_id: sum(ns for _, ns in _uncovered(
        (t0, t1), children.get(span_id, ())))
        for span_id, _, _, t0, t1, _ in spans}


def span_sum_check(spans, tol_abs_ns: int, tol_rel: float) -> dict:
    """Check that each root's children account for the root.

    A root's gap is the part of its interval no child covers. It passes
    when the gap is at most ``tol_abs_ns + tol_rel * duration``. Returns
    the number of roots, the failing roots, the largest gap and the
    summed gap by where it falls: ``<root>.start`` before the first
    child, ``<root>.after.<child>`` after a child (the layer call the
    uncovered work follows)."""
    children = _children(spans)
    failures = []
    roots = 0
    max_gap = 0
    gap_by_layer: dict[str, int] = {}
    for span_id, parent, name, t0, t1, op in spans:
        if parent is not None:
            continue
        roots += 1
        parts = _uncovered((t0, t1), children.get(span_id, ()))
        gap = sum(ns for _, ns in parts)
        max_gap = max(max_gap, gap)
        for after, ns in parts:
            key = f"{name}.after.{after}" if after else f"{name}.start"
            gap_by_layer[key] = gap_by_layer.get(key, 0) + ns
        if gap > tol_abs_ns + tol_rel * (t1 - t0):
            failures.append({"op": op, "name": name, "gap_ns": gap,
                             "duration_ns": t1 - t0})
    return {"roots": roots, "failures": failures, "max_gap_ns": max_gap,
            "gap_by_layer_ns": gap_by_layer}


def layer_seconds(spans) -> dict[str, float]:
    """Self time summed per span name, in seconds."""
    names = {span[0]: span[2] for span in spans}
    out: dict[str, float] = {}
    for span_id, ns in self_times(spans).items():
        out[names[span_id]] = out.get(names[span_id], 0.0) + ns / 1e9
    return out


def root_count(spans) -> int:
    return sum(1 for span in spans if span[1] is None)
