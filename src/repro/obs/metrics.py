"""Thread-safe metrics: Counter/Gauge/Histogram families with label sets.

The model is the Prometheus client one, cut down to what the serving stack
needs: a :class:`MetricsRegistry` holds metric *families*; a family with
label names holds one *child* per label-value tuple (``labels(...)`` is
get-or-create); children carry the actual numbers behind one lock each, so
concurrent increments from the gateway's worker threads are exact — a
counter bumped ``k`` times by ``t`` threads reads exactly ``k * t``.

:class:`Histogram` serves two consumers at once: cumulative bucket counts +
sum + count for the Prometheus exposition, and a *bounded* deque of recent
samples (``max_samples``, default 4096) for the ``/stats`` p50/p99 fields —
the reservoir that replaced the gateway's previously unbounded latency
list.  Memory is O(buckets + max_samples) regardless of traffic.

Exposition (:meth:`MetricsRegistry.render`) is Prometheus text format
0.0.4: ``# HELP``/``# TYPE`` headers, escaped label values, cumulative
``_bucket{le=...}`` series ending at ``+Inf`` with ``_sum``/``_count``.
:func:`parse_prometheus_text` is the matching reader used by the
``python -m repro stats`` client and the CI scrape assertion.

Metrics are always on, so a ``/stats`` view over the registry always
reflects the traffic served.  What the instrumentation costs is measured
like any other cost, by a ``perfbench/`` A/B of two commits.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Sequence

from ..exceptions import InvalidParameterError

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prometheus_text",
]

#: Default latency buckets (seconds): sub-millisecond kernel launches up to
#: multi-second cold sweeps, roughly 2.5x apart like the Prometheus default.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_pairs(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class _Child:
    """Base for one labelled series: the lock and the label values."""

    __slots__ = ("_lock", "labelvalues")

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        self._lock = threading.Lock()
        self.labelvalues = labelvalues


class CounterChild(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidParameterError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeChild(_Child):
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramChild(_Child):
    """Bucketed distribution + a bounded window of recent raw samples."""

    __slots__ = ("_buckets", "_counts", "_sum", "_count", "_samples")

    def __init__(
        self,
        labelvalues: tuple[str, ...],
        buckets: tuple[float, ...],
        max_samples: int,
    ) -> None:
        super().__init__(labelvalues)
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # last bin is the +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._samples: deque[float] = deque(maxlen=max_samples)

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._samples.append(value)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def samples(self) -> list[float]:
        """A copy of the bounded recent-sample window (newest last)."""
        with self._lock:
            return list(self._samples)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending at ``(+Inf, count)``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        out: list[tuple[float, int]] = []
        running = 0
        for le, c in zip(self._buckets, counts):
            running += c
            out.append((le, running))
        out.append((math.inf, total))
        return out


class _MetricFamily:
    """One named metric: shared help/labelnames, one child per label tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise InvalidParameterError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise InvalidParameterError(f"invalid label name {label!r}")
        self.name = name
        self.help = str(help)
        self.labelnames = tuple(str(x) for x in labelnames)
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()

    def _make_child(self, labelvalues: tuple[str, ...]) -> _Child:
        raise NotImplementedError

    def labels(self, *labelvalues: object) -> _Child:
        """Get-or-create the child for one label-value tuple."""
        values = tuple(str(v) for v in labelvalues)
        if len(values) != len(self.labelnames):
            raise InvalidParameterError(
                f"{self.name} takes labels {self.labelnames}, got {values}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child(values)
                self._children[values] = child
            return child

    def children(self) -> list[_Child]:
        """Every labelled child, sorted by label values (stable exposition)."""
        with self._lock:
            return [self._children[k] for k in sorted(self._children)]

    # label-less convenience: a family without labelnames IS its only child
    def _default(self) -> _Child:
        return self.labels()


class Counter(_MetricFamily):
    """A monotonically increasing counter family."""

    kind = "counter"

    def _make_child(self, labelvalues: tuple[str, ...]) -> CounterChild:
        return CounterChild(labelvalues)

    def labels(self, *labelvalues: object) -> CounterChild:
        child = super().labels(*labelvalues)
        if not isinstance(child, CounterChild):  # pragma: no cover - registry guards
            raise InvalidParameterError(f"{self.name} is not a counter")
        return child

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]

    def value(self) -> float:
        return self.labels().value() if not self.labelnames else sum(
            c.value() for c in self.children() if isinstance(c, CounterChild)
        )

    def items(self) -> list[tuple[tuple[str, ...], float]]:
        """``(labelvalues, value)`` per child, sorted by label values."""
        return [
            (c.labelvalues, c.value())
            for c in self.children()
            if isinstance(c, CounterChild)
        ]


class Gauge(_MetricFamily):
    """A gauge family (set/inc/dec)."""

    kind = "gauge"

    def _make_child(self, labelvalues: tuple[str, ...]) -> GaugeChild:
        return GaugeChild(labelvalues)

    def labels(self, *labelvalues: object) -> GaugeChild:
        child = super().labels(*labelvalues)
        if not isinstance(child, GaugeChild):  # pragma: no cover - registry guards
            raise InvalidParameterError(f"{self.name} is not a gauge")
        return child

    def set(self, value: float) -> None:
        self._default().set(value)  # type: ignore[attr-defined]

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)  # type: ignore[attr-defined]

    def value(self) -> float:
        return self.labels().value()


class Histogram(_MetricFamily):
    """A histogram family: buckets + sum/count + bounded sample window."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_samples: int = 4096,
    ) -> None:
        bucket_list = sorted(float(b) for b in buckets)
        if not bucket_list:
            raise InvalidParameterError("histograms need at least one bucket bound")
        if bucket_list[-1] == math.inf:
            bucket_list.pop()  # +Inf is implicit
        if not bucket_list:
            raise InvalidParameterError("histograms need one finite bucket bound")
        if max_samples < 1:
            raise InvalidParameterError(f"max_samples must be >= 1, got {max_samples}")
        self.buckets = tuple(bucket_list)
        self.max_samples = int(max_samples)
        super().__init__(name, help, labelnames)

    def _make_child(self, labelvalues: tuple[str, ...]) -> HistogramChild:
        return HistogramChild(labelvalues, self.buckets, self.max_samples)

    def labels(self, *labelvalues: object) -> HistogramChild:
        child = super().labels(*labelvalues)
        if not isinstance(child, HistogramChild):  # pragma: no cover - registry guards
            raise InvalidParameterError(f"{self.name} is not a histogram")
        return child

    def observe(self, value: float) -> None:
        self._default().observe(value)  # type: ignore[attr-defined]

    @property
    def sum(self) -> float:
        return self.labels().sum if not self.labelnames else math.fsum(
            c.sum for c in self.children() if isinstance(c, HistogramChild)
        )

    @property
    def count(self) -> int:
        return self.labels().count if not self.labelnames else sum(
            c.count for c in self.children() if isinstance(c, HistogramChild)
        )

    def samples(self) -> list[float]:
        return self.labels().samples()


class MetricsRegistry:
    """One namespace of metric families, get-or-create by name.

    ``counter``/``gauge``/``histogram`` return the existing family when the
    name is already registered — with the *same* kind and label names, else
    :class:`~repro.exceptions.InvalidParameterError` — which is what lets
    each instrumented module self-register its handles at import time
    (the :func:`repro.engine.caches.register_cache` idiom).
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = str(namespace)
        self._metrics: dict[str, _MetricFamily] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, family: _MetricFamily) -> _MetricFamily:
        with self._lock:
            existing = self._metrics.get(family.name)
            if existing is None:
                self._metrics[family.name] = family
                return family
        if existing.kind != family.kind or existing.labelnames != family.labelnames:
            raise InvalidParameterError(
                f"metric {family.name!r} already registered as {existing.kind} "
                f"with labels {existing.labelnames}, requested {family.kind} "
                f"with {family.labelnames}"
            )
        return existing

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        family = self._get_or_create(Counter(name, help, labelnames))
        if not isinstance(family, Counter):  # pragma: no cover - guarded above
            raise InvalidParameterError(f"{name} is not a counter")
        return family

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        family = self._get_or_create(Gauge(name, help, labelnames))
        if not isinstance(family, Gauge):  # pragma: no cover - guarded above
            raise InvalidParameterError(f"{name} is not a gauge")
        return family

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_samples: int = 4096,
    ) -> Histogram:
        family = self._get_or_create(
            Histogram(name, help, labelnames, buckets=buckets, max_samples=max_samples)
        )
        if not isinstance(family, Histogram):  # pragma: no cover - guarded above
            raise InvalidParameterError(f"{name} is not a histogram")
        return family

    def collect(self) -> list[_MetricFamily]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for family in self.collect():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                labels = _label_pairs(family.labelnames, child.labelvalues)
                if isinstance(child, HistogramChild):
                    for le, cumulative in child.cumulative_buckets():
                        le_pair = f'le="{_format_value(le)}"'
                        inner = labels[1:-1] + "," + le_pair if labels else le_pair
                        lines.append(
                            f"{family.name}_bucket{{{inner}}} {cumulative}"
                        )
                    lines.append(f"{family.name}_sum{labels} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{labels} {child.count}")
                elif isinstance(child, (CounterChild, GaugeChild)):
                    lines.append(f"{family.name}{labels} {_format_value(child.value())}")
        return "\n".join(lines) + ("\n" if lines else "")


def render_registries(registries: Iterable[MetricsRegistry]) -> str:
    """Concatenate several registries into one exposition document."""
    return "".join(registry.render() for registry in registries)


#: The process-wide registry backing module-level instrumentation (kernel
#: launches, sweep trials).  Request-scoped owners — one gateway, one
#: service — construct their own :class:`MetricsRegistry` instead, so tests
#: and replicas never share counters.
DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return DEFAULT_REGISTRY


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+\d+)?$"  # optional timestamp, ignored
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse exposition text into ``{name: [(labels, value), ...]}``.

    The inverse of :meth:`MetricsRegistry.render`, used by the
    ``python -m repro stats`` pretty-printer and the CI ``/metrics`` scrape
    assertion.  Histogram series keep their expanded names
    (``X_bucket``/``X_sum``/``X_count``); comment/blank lines are skipped;
    a malformed sample line raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    out: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise InvalidParameterError(
                f"line {lineno} is not a valid exposition sample: {raw!r}"
            )
        labels_blob = match.group("labels")
        labels: dict[str, str] = {}
        if labels_blob:
            # walk pair by pair so stray text between pairs is an error, not
            # silently dropped (label VALUES may contain commas and equals)
            pos = 0
            while pos < len(labels_blob):
                pair = _LABEL_PAIR_RE.match(labels_blob, pos)
                if pair is None:
                    raise InvalidParameterError(
                        f"line {lineno} has malformed labels: {raw!r}"
                    )
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                pos = pair.end()
                if pos < len(labels_blob):
                    if labels_blob[pos] != ",":
                        raise InvalidParameterError(
                            f"line {lineno} has malformed labels: {raw!r}"
                        )
                    pos += 1
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise InvalidParameterError(
                f"line {lineno} has a non-numeric value {value_text!r}"
            ) from None
        out.setdefault(match.group("name"), []).append((labels, value))
    return out
