"""Request tracing: per-stage spans with a bounded ring of finished traces.

A :class:`Trace` is minted by a :class:`Tracer` when a request enters the
gateway (or adopted from an ``X-Trace-Id`` header) and rides along with the
request through the micro-batcher and kernel executor.  Each layer records
the stage it owns — ``gateway``, ``queue``, ``kernel``, ``reply``, ... —
either with the :meth:`Trace.span` context manager or by handing absolute
``perf_counter`` readings to :meth:`Trace.add_span`.  Span starts are stored
relative to the trace's own epoch so exported records are self-contained.

Finished traces land in the tracer's bounded ring (newest win) and are
served by the gateway as JSONL via ``GET /traces``.
"""

from __future__ import annotations

import json
import re
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from ..exceptions import InvalidParameterError

__all__ = ["Span", "Trace", "Tracer", "TRACE_ID_RE"]

#: Accepted shape for externally supplied (``X-Trace-Id``) trace ids.
TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclass(frozen=True)
class Span:
    """One timed stage of a request.

    ``start_s`` is relative to the owning trace's epoch, so the spans of a
    trace can be laid out on a single timeline without clock context.
    """

    stage: str
    start_s: float
    duration_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }


class Trace:
    """A single request's span accumulator.

    Thread-safe: the batcher's dispatch loop and the gateway's request
    handler may record spans for the same trace concurrently.
    """

    __slots__ = ("trace_id", "unix_time", "_t0", "_spans", "_lock", "_tracer")

    def __init__(self, trace_id: str, tracer: "Tracer | None" = None) -> None:
        self.trace_id = trace_id
        self.unix_time = time.time()
        self._t0 = time.perf_counter()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._tracer = tracer

    @property
    def t0(self) -> float:
        """The trace epoch as an absolute ``perf_counter`` reading."""
        return self._t0

    def span(self, stage: str) -> "_SpanTimer":
        """Context manager timing ``stage`` from entry to exit."""
        return _SpanTimer(self, stage)

    def add_span(self, stage: str, start: float, end: float) -> None:
        """Record a stage from absolute ``perf_counter`` readings."""
        span = Span(
            stage=stage,
            start_s=max(0.0, start - self._t0),
            duration_s=max(0.0, end - start),
        )
        with self._lock:
            self._spans.append(span)

    def spans(self) -> tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            spans = [s.as_dict() for s in self._spans]
        return {
            "trace_id": self.trace_id,
            "unix_time": self.unix_time,
            "elapsed_s": sum(s["duration_s"] for s in spans),
            "spans": spans,
        }

    def finish(self, elapsed_s: float | None = None) -> dict[str, Any]:
        """Seal the trace and push it into the owning tracer's ring.

        ``elapsed_s`` overrides the span-sum total when the caller measured
        the full request wall time itself (the gateway does).
        """
        record = self.as_dict()
        if elapsed_s is not None:
            record["elapsed_s"] = elapsed_s
        if self._tracer is not None:
            self._tracer._record(record)
        return record


class _SpanTimer:
    __slots__ = ("_trace", "_stage", "_start")

    def __init__(self, trace: Trace, stage: str) -> None:
        self._trace = trace
        self._stage = stage
        self._start = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._trace.add_span(self._stage, self._start, time.perf_counter())


class Tracer:
    """Mints traces and keeps a bounded ring of finished trace records."""

    def __init__(self, max_traces: int = 256) -> None:
        if max_traces < 1:
            raise InvalidParameterError(
                f"max_traces must be >= 1, got {max_traces}"
            )
        self._max_traces = max_traces
        self._records: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()

    def trace(self, trace_id: str | None = None) -> Trace:
        """Start a trace; mints an id unless a valid one is supplied."""
        if trace_id is None:
            trace_id = secrets.token_hex(8)
        elif not TRACE_ID_RE.match(trace_id):
            raise InvalidParameterError(
                "trace id must match [A-Za-z0-9._-]{1,64}, "
                f"got {trace_id!r}"
            )
        return Trace(trace_id, tracer=self)

    def _record(self, record: dict[str, Any]) -> None:
        with self._lock:
            # dicts preserve insertion order; pop-and-reinsert keeps the
            # newest record for a reused trace id at the ring's tail
            self._records.pop(record["trace_id"], None)
            self._records[record["trace_id"]] = record
            while len(self._records) > self._max_traces:
                self._records.pop(next(iter(self._records)))

    def get(self, trace_id: str) -> dict[str, Any] | None:
        with self._lock:
            return self._records.get(trace_id)

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Finished trace records, oldest first."""
        with self._lock:
            records = list(self._records.values())
        if limit is not None:
            records = records[-limit:]
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.recent())

    def export_jsonl(self, trace_id: str | None = None) -> str:
        """All finished traces (or one) as JSON Lines, oldest first."""
        if trace_id is not None:
            record = self.get(trace_id)
            records = [record] if record is not None else []
        else:
            records = self.recent()
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
