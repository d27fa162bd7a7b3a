"""``repro.obs`` — the unified observability layer of the serving stack.

Two small, dependency-free primitives shared by every layer:

* :mod:`repro.obs.metrics` — a thread-safe metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with label sets)
  with Prometheus text exposition and a parser for it.  The process-wide
  :data:`DEFAULT_REGISTRY` backs the kernel/sweep instrumentation; request
  -scoped owners (a gateway, a service) hold their own
  :class:`MetricsRegistry` so concurrent instances never share counters.
* :mod:`repro.obs.tracing` — request tracing: a :class:`Trace` accumulates
  per-stage :class:`Span` records (queue wait, kernel launch, reply, ...)
  and a bounded :class:`Tracer` ring keeps recently finished traces,
  exportable as JSONL (the gateway's ``GET /traces``).

Instrumentation is always on; its cost is priced like any other cost, by a
``perfbench/`` A/B of two commits (see ``perfbench/README.md``).

The registration idiom mirrors :func:`repro.engine.caches.register_cache`:
each instrumented module creates its metric handles at import time from the
registry it reports to, so the exposition endpoint can enumerate everything
without a central catalogue.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    parse_prometheus_text,
)
from .tracing import Span, Trace, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
    "get_registry",
    "parse_prometheus_text",
]
