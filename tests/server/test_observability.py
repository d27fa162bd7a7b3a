"""The observability surface of the gateway: /stats compat, /metrics, traces.

Three contracts pinned here:

1. ``GET /stats`` keeps the exact PR 5 key schema — the registry became its
   backing store without changing a single key.
2. ``GET /metrics`` is valid Prometheus text exposition (0.0.4) whose
   counters agree with the traffic actually served.
3. Every ``POST /measure`` is traced end to end: the response echoes the
   trace id, and the exported span log tiles the request — at least four
   distinct stages whose durations sum to ~the reported ``elapsed_s``.
"""

import asyncio
import json

from repro.obs import parse_prometheus_text
from repro.server.client import AsyncServeClient, fire_measure
from repro.server.gateway import BatchingGateway, GatewayConfig

PAYLOAD = {"topology": "debruijn", "d": 2, "n": 8,
           "faults": [[0, 1, 0, 1, 1, 0, 1, 0]], "root": None}


def _with_gateway(coro, config=None):
    async def main():
        gateway = BatchingGateway(config or GatewayConfig(port=0))
        await gateway.start()
        host, port = gateway.address
        try:
            return await coro(gateway, host, port)
        finally:
            await gateway.close()

    return asyncio.run(main())


class TestStatsBackwardCompat:
    def test_stats_keeps_the_pr5_key_schema(self):
        async def scenario(gateway, host, port):
            await fire_measure(host, port, [PAYLOAD], concurrency=1)
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/stats")
            finally:
                await client.close()

        status, stats = _with_gateway(scenario)
        assert status == 200
        assert set(stats) == {"server", "shards", "measure_cache", "service"}
        assert set(stats["server"]) == {
            "uptime_s", "requests", "errors", "launches", "lanes",
            "batch_occupancy", "rejected", "p50_s", "p99_s",
            "degraded", "retried",
        }
        (shard,) = stats["shards"].values()
        assert set(shard) == {
            "max_batch", "max_wait_s", "max_queue", "queued", "launches",
            "lanes", "batch_occupancy", "completed", "rejected",
            "p50_s", "p99_s", "deadline_expired", "isolated_failures",
        }
        assert set(stats["service"]) == {
            "requests", "total_latency_s", "compute_latency_s",
            "avg_latency_s", "answers", "measurements", "codecs",
            "churn", "process_caches",
        }
        # counts are JSON integers, exactly as before the registry move
        assert stats["server"]["requests"]["POST /measure"] == 1
        assert isinstance(stats["server"]["errors"], int)
        assert isinstance(shard["completed"], int)


class TestMetricsEndpoint:
    def test_metrics_is_valid_exposition_and_counts_traffic(self):
        # one fault word per weight: distinct fault *units*, so none of the
        # requests collapses into another's cache entry
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 8,
             "faults": [[1] * k + [0] * (8 - k)], "root": None}
            for k in range(1, 9)
        ]

        async def scenario(gateway, host, port):
            await fire_measure(host, port, payloads, concurrency=4)
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request_raw("GET", "/metrics")
            finally:
                await client.close()

        status, content_type, text = _with_gateway(scenario)
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        parsed = parse_prometheus_text(text)  # must parse cleanly

        requests = dict(
            (labels["endpoint"], value)
            for labels, value in parsed["repro_gateway_requests_total"]
        )
        assert requests["POST /measure"] == len(payloads)
        (shard_completed,) = parsed["repro_batcher_completed_total"]
        assert shard_completed[0]["shard"] == "debruijn(2,8)"
        assert shard_completed[1] == len(payloads)
        # per-launch profiling flows from the process-wide registry
        assert "repro_kernel_launches_total" in parsed
        assert "repro_kernel_lanes_bucket" in parsed

    def test_histogram_series_are_monotone_and_consistent(self):
        async def scenario(gateway, host, port):
            await fire_measure(host, port, [PAYLOAD], concurrency=1)
            return gateway.metrics_text()

        parsed = parse_prometheus_text(_with_gateway(scenario))
        buckets = parsed["repro_gateway_request_seconds_bucket"]
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative => monotone
        assert buckets[-1][0]["le"] == "+Inf"
        assert counts[-1] == parsed["repro_gateway_request_seconds_count"][0][1]


class TestRequestTracing:
    def test_measure_response_carries_a_trace_with_tiling_spans(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                status, answer = await client.request("POST", "/measure", PAYLOAD)
                _, content_type, jsonl = await client.request_raw(
                    "GET", f"/traces?id={answer['trace_id']}"
                )
                return status, answer, content_type, jsonl
            finally:
                await client.close()

        status, answer, content_type, jsonl = _with_gateway(scenario)
        assert status == 200
        assert len(answer["trace_id"]) == 16  # minted: 8 random bytes, hex
        assert content_type == "application/x-ndjson"
        (record,) = [json.loads(line) for line in jsonl.splitlines()]
        assert record["trace_id"] == answer["trace_id"]
        stages = [span["stage"] for span in record["spans"]]
        # a cold measure crosses gateway -> mask -> queue -> kernel -> reply
        assert {"gateway", "mask", "queue", "kernel", "reply"} <= set(stages)
        assert stages.index("gateway") < stages.index("mask") < stages.index("queue")
        assert len(set(stages)) >= 4
        # the spans tile the request: their sum accounts for the bulk of the
        # reported wall time (scheduler hand-off gaps are the remainder)
        span_sum = sum(span["duration_s"] for span in record["spans"])
        assert record["elapsed_s"] > 0
        assert span_sum <= record["elapsed_s"] * 1.05
        assert span_sum >= record["elapsed_s"] * 0.5

    def test_x_trace_id_header_is_adopted(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, answer = await client.request(
                    "POST", "/measure", PAYLOAD,
                    headers={"X-Trace-Id": "caller-supplied.01"},
                )
                return answer, gateway.tracer.get("caller-supplied.01")
            finally:
                await client.close()

        answer, record = _with_gateway(scenario)
        assert answer["trace_id"] == "caller-supplied.01"
        assert record is not None and record["spans"]

    def test_invalid_x_trace_id_is_a_400(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/measure", PAYLOAD,
                    headers={"X-Trace-Id": "bad id with spaces"},
                )
            finally:
                await client.close()

        status, payload = _with_gateway(scenario)
        assert status == 400 and "trace id" in payload["error"]

    def test_traces_endpoint_lists_every_finished_trace(self):
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 8,
             "faults": [[int(b) for b in format(i, "08b")]], "root": None}
            for i in range(5)
        ]

        async def scenario(gateway, host, port):
            answers, _ = await fire_measure(host, port, payloads, concurrency=2)
            client = await AsyncServeClient.open(host, port)
            try:
                _, _, jsonl = await client.request_raw("GET", "/traces")
                return answers, jsonl
            finally:
                await client.close()

        answers, jsonl = _with_gateway(scenario)
        records = [json.loads(line) for line in jsonl.splitlines()]
        assert {r["trace_id"] for r in records} == {
            a["trace_id"] for a in answers
        }

    def test_cached_answers_are_traced_without_kernel_spans(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, cold = await client.request("POST", "/measure", PAYLOAD)
                _, warm = await client.request("POST", "/measure", PAYLOAD)
                return cold, warm, gateway.tracer.get(warm["trace_id"])
            finally:
                await client.close()

        cold, warm, record = _with_gateway(scenario)
        assert warm["cached"] and warm["trace_id"] != cold["trace_id"]
        stages = {span["stage"] for span in record["spans"]}
        assert "kernel" not in stages  # cache hits never reach the executor
        assert {"gateway", "reply"} <= stages
