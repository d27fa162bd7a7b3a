"""repro.obs tracing: span recording, the bounded ring, JSONL export."""

import json
import time

import pytest

from repro.exceptions import InvalidParameterError
from repro.obs import Trace, Tracer


class TestTrace:
    def test_span_context_manager_records_a_stage(self):
        trace = Tracer().trace()
        with trace.span("gateway"):
            time.sleep(0.001)
        (span,) = trace.spans()
        assert span.stage == "gateway"
        assert span.duration_s >= 0.001
        assert span.start_s >= 0.0

    def test_add_span_stores_starts_relative_to_the_epoch(self):
        trace = Tracer().trace()
        t0 = trace.t0
        trace.add_span("kernel", t0 + 0.5, t0 + 0.75)
        (span,) = trace.spans()
        assert span.start_s == pytest.approx(0.5)
        assert span.duration_s == pytest.approx(0.25)

    def test_negative_readings_are_clamped(self):
        trace = Tracer().trace()
        trace.add_span("weird", trace.t0 - 1.0, trace.t0 - 2.0)
        (span,) = trace.spans()
        assert span.start_s == 0.0 and span.duration_s == 0.0

    def test_as_dict_sums_span_durations(self):
        trace = Tracer().trace()
        trace.add_span("a", trace.t0, trace.t0 + 0.1)
        trace.add_span("b", trace.t0 + 0.1, trace.t0 + 0.3)
        record = trace.as_dict()
        assert record["elapsed_s"] == pytest.approx(0.3)
        assert [s["stage"] for s in record["spans"]] == ["a", "b"]

    def test_finish_overrides_elapsed_and_lands_in_the_ring(self):
        tracer = Tracer()
        trace = tracer.trace()
        trace.add_span("a", trace.t0, trace.t0 + 0.1)
        record = trace.finish(elapsed_s=0.125)
        assert record["elapsed_s"] == 0.125
        assert tracer.get(trace.trace_id)["elapsed_s"] == 0.125

    def test_standalone_trace_finish_without_tracer(self):
        trace = Trace("solo")
        trace.add_span("a", trace.t0, trace.t0 + 0.1)
        assert trace.finish()["trace_id"] == "solo"


class TestTracer:
    def test_minted_ids_are_distinct_hex(self):
        tracer = Tracer()
        ids = {tracer.trace().trace_id for _ in range(32)}
        assert len(ids) == 32
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_supplied_ids_are_validated(self):
        tracer = Tracer()
        assert tracer.trace("my-trace.1_ok").trace_id == "my-trace.1_ok"
        for bad in ("", "has space", "x" * 65, 'quote"id', "new\nline"):
            with pytest.raises(InvalidParameterError):
                tracer.trace(bad)

    def test_ring_is_bounded_and_drops_oldest(self):
        tracer = Tracer(max_traces=3)
        for i in range(5):
            tracer.trace(f"t{i}").finish()
        assert len(tracer) == 3
        assert [r["trace_id"] for r in tracer.recent()] == ["t2", "t3", "t4"]
        assert tracer.get("t0") is None

    def test_reused_id_keeps_the_newest_record(self):
        tracer = Tracer(max_traces=2)
        tracer.trace("a").finish(elapsed_s=1.0)
        tracer.trace("b").finish()
        tracer.trace("a").finish(elapsed_s=2.0)
        tracer.trace("c").finish()  # evicts b (oldest), not the refreshed a
        assert tracer.get("a")["elapsed_s"] == 2.0
        assert tracer.get("b") is None

    def test_max_traces_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            Tracer(max_traces=0)


class TestExport:
    def test_jsonl_is_one_record_per_line_oldest_first(self):
        tracer = Tracer()
        for name in ("t1", "t2"):
            trace = tracer.trace(name)
            trace.add_span("a", trace.t0, trace.t0 + 0.1)
            trace.finish()
        lines = tracer.export_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["trace_id"] for r in records] == ["t1", "t2"]
        assert set(records[0]) == {"trace_id", "unix_time", "elapsed_s", "spans"}
        assert set(records[0]["spans"][0]) == {"stage", "start_s", "duration_s"}

    def test_jsonl_filter_by_id(self):
        tracer = Tracer()
        tracer.trace("keep").finish()
        tracer.trace("drop").finish()
        lines = tracer.export_jsonl("keep").splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["trace_id"] == "keep"
        assert tracer.export_jsonl("missing") == ""
