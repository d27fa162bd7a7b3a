"""repro.obs metrics: exact concurrent counts, valid exposition."""

import math
import threading

import pytest

from repro.exceptions import InvalidParameterError
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.metrics import render_registries


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("repro_test_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_inc_is_rejected(self, registry):
        c = registry.counter("repro_test_total", "help")
        with pytest.raises(InvalidParameterError):
            c.inc(-1)

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("repro_req_total", "help", labelnames=("endpoint",))
        c.labels("a").inc()
        c.labels("a").inc()
        c.labels("b").inc()
        assert c.items() == [(("a",), 2.0), (("b",), 1.0)]
        assert c.value() == 3.0

    def test_wrong_label_arity_is_rejected(self, registry):
        c = registry.counter("repro_req_total", "help", labelnames=("endpoint",))
        with pytest.raises(InvalidParameterError):
            c.labels("a", "b")

    def test_exact_totals_under_eight_threads(self, registry):
        # the whole point of per-child locks: k incs from t threads read k*t
        c = registry.counter("repro_hits_total", "help", labelnames=("worker",))
        h = registry.histogram("repro_lat_seconds", "help")
        per_thread, threads = 2_000, 8
        barrier = threading.Barrier(threads)

        def worker(i):
            child = c.labels("w%d" % (i % 2))  # two children, contended
            barrier.wait()
            for _ in range(per_thread):
                child.inc()
                h.observe(0.001)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert c.value() == per_thread * threads
        assert dict(c.items()) == {
            ("w0",): per_thread * threads / 2,
            ("w1",): per_thread * threads / 2,
        }
        assert h.count == per_thread * threads
        assert h.sum == pytest.approx(0.001 * per_thread * threads)


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_up", "help")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value() == 4.0


class TestHistogram:
    def test_bucket_counts_are_cumulative_and_end_at_inf(self, registry):
        hist = registry.histogram(
            "repro_h_seconds", "help", buckets=(0.01, 0.1, 1.0)
        )
        for v in (0.005, 0.05, 0.5, 5.0):
            hist.observe(v)
        pairs = hist.labels().cumulative_buckets()
        assert pairs == [(0.01, 1), (0.1, 2), (1.0, 3), (math.inf, 4)]
        counts = [c for _, c in pairs]
        assert counts == sorted(counts)  # monotone by construction
        assert pairs[-1][1] == hist.count  # +Inf bucket equals _count

    def test_boundary_value_lands_in_its_le_bucket(self, registry):
        hist = registry.histogram("repro_h_seconds", "help", buckets=(0.1, 1.0))
        hist.observe(0.1)  # le="0.1" is inclusive
        assert hist.labels().cumulative_buckets()[0] == (0.1, 1)

    def test_sample_window_is_bounded(self, registry):
        hist = registry.histogram(
            "repro_h_seconds", "help", buckets=(1.0,), max_samples=4
        )
        for v in range(10):
            hist.observe(float(v))
        assert hist.samples() == [6.0, 7.0, 8.0, 9.0]

    def test_infinite_top_bucket_is_implicit(self, registry):
        hist = registry.histogram(
            "repro_h_seconds", "help", buckets=(1.0, math.inf)
        )
        assert hist.buckets == (1.0,)

    def test_needs_a_finite_bucket(self, registry):
        with pytest.raises(InvalidParameterError):
            registry.histogram("repro_h_seconds", "help", buckets=(math.inf,))


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self, registry):
        a = registry.counter("repro_x_total", "help")
        b = registry.counter("repro_x_total", "other help ignored")
        assert a is b

    def test_kind_mismatch_is_rejected(self, registry):
        registry.counter("repro_x_total", "help")
        with pytest.raises(InvalidParameterError):
            registry.gauge("repro_x_total", "help")

    def test_labelnames_mismatch_is_rejected(self, registry):
        registry.counter("repro_x_total", "help", labelnames=("a",))
        with pytest.raises(InvalidParameterError):
            registry.counter("repro_x_total", "help", labelnames=("b",))

    def test_invalid_metric_and_label_names_are_rejected(self, registry):
        with pytest.raises(InvalidParameterError):
            registry.counter("0bad", "help")
        with pytest.raises(InvalidParameterError):
            registry.counter("repro_x_total", "help", labelnames=("le-gal",))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestExposition:
    def test_render_parse_round_trip(self, registry):
        c = registry.counter("repro_req_total", "requests", ("endpoint",))
        c.labels("POST /measure").inc(3)
        registry.gauge("repro_up_seconds", "uptime").set(1.5)
        hist = registry.histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.render()
        assert "# HELP repro_req_total requests" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_req_total"] == [({"endpoint": "POST /measure"}, 3.0)]
        assert parsed["repro_up_seconds"] == [({}, 1.5)]
        buckets = parsed["repro_lat_seconds_bucket"]
        assert [(lbl["le"], v) for lbl, v in buckets] == [
            ("0.1", 1.0), ("1", 2.0), ("+Inf", 2.0)
        ]
        assert parsed["repro_lat_seconds_count"] == [({}, 2.0)]
        assert parsed["repro_lat_seconds_sum"][0][1] == pytest.approx(0.55)

    def test_label_values_are_escaped_and_recovered(self, registry):
        c = registry.counter("repro_x_total", "help", ("shard",))
        tricky = 'debruijn(2,5)@"a\\b",c=d\nend'
        c.labels(tricky).inc()
        parsed = parse_prometheus_text(registry.render())
        assert parsed["repro_x_total"] == [({"shard": tricky}, 1.0)]

    def test_help_newlines_are_escaped(self, registry):
        registry.counter("repro_x_total", "line one\nline two").inc()
        text = registry.render()
        assert "# HELP repro_x_total line one\\nline two" in text
        parse_prometheus_text(text)  # still a valid document

    def test_malformed_sample_lines_raise(self):
        for bad in (
            "not a metric line at all!",
            'repro_x_total{shard="a" junk} 1',
            "repro_x_total notanumber",
        ):
            with pytest.raises(InvalidParameterError):
                parse_prometheus_text(bad)

    def test_render_registries_concatenates(self, registry):
        other = MetricsRegistry()
        registry.counter("repro_a_total", "help").inc()
        other.counter("repro_b_total", "help").inc(2)
        parsed = parse_prometheus_text(render_registries([registry, other]))
        assert parsed["repro_a_total"][0][1] == 1.0
        assert parsed["repro_b_total"][0][1] == 2.0


class TestFamilyConstructors:
    def test_families_usable_without_a_registry(self):
        c = Counter("repro_x_total", "help")
        c.inc(2)
        assert c.value() == 2.0
        g = Gauge("repro_g", "help")
        g.set(1)
        assert g.value() == 1.0
        hist = Histogram("repro_h_seconds", "help", buckets=(1.0,))
        hist.observe(0.5)
        assert hist.count == 1
