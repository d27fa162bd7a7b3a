"""In-memory spans of the traced run, written as JSON Lines at the end.

A span is ``{trace, span, parent, name, start, end}`` with times in seconds
on ``time.perf_counter``'s clock.  Every span of one operation (one HTTP
request, one churn event, one sweep row) shares its ``trace`` id.  A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, trace: int, start: float, end: float,
            parent: int | None = None) -> int:
        sid = len(self.spans)
        self.spans.append(
            {"trace": trace, "span": sid, "parent": parent, "name": name,
             "start": start, "end": end}
        )
        return sid

    @contextmanager
    def span(self, name: str, trace: int, parent: int | None = None):
        """Record the ``with`` body as one span; yields its id for children."""
        sid = self.add(name, trace, time.perf_counter(), 0.0, parent)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()

    def call(self, name: str, trace: int, parent: int | None, fn, *args):
        """``fn(*args)`` timed as one span; returns its result."""
        start = time.perf_counter()
        result = fn(*args)
        self.add(name, trace, start, time.perf_counter(), parent)
        return result

    def self_times(self) -> dict[str, list[float]]:
        """Self time (s) of every span, grouped by span name."""
        children: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children[s["span"]], key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["name"]].append(s["end"] - s["start"] - covered)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
