"""HTTP-level tests for the micro-batching gateway."""

import asyncio
import json
import threading

import numpy as np

from repro.engine.service import EmbeddingService
from repro.server.client import AsyncServeClient, fire_measure
from repro.server.gateway import BatchingGateway, GatewayConfig


def _with_gateway(config=None):
    """Run ``coro(gateway, host, port)`` against a started ephemeral gateway."""

    def runner(coro):
        async def main():
            gateway = BatchingGateway(config or GatewayConfig(port=0))
            await gateway.start()
            host, port = gateway.address
            try:
                return await coro(gateway, host, port)
            finally:
                await gateway.close()

        return asyncio.run(main())

    return runner


class TestRoutes:
    def test_healthz(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/healthz")
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_route_is_404(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/nope")
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 404 and "error" in payload

    def test_malformed_json_is_400(self):
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = b"{not json"
            writer.write(
                (
                    f"POST /measure HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode() + body
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        assert _with_gateway()(scenario) == 400

    def test_chunked_transfer_encoding_is_refused_not_desynced(self):
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /measure HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\n{\"d\":\r\n0\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        assert _with_gateway()(scenario) == 501

    def test_unknown_topology_is_400(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/measure", {"topology": "torus", "d": 2, "n": 5}
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 400 and "torus" in payload["error"]


class TestMeasure:
    def test_answers_match_the_scalar_service_path(self):
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 6,
             "faults": [[0, 1, 0, 1, 1, 0]], "root": None},
            {"topology": "kautz", "d": 2, "n": 6, "faults": [], "root": None},
            {"topology": "hypercube", "d": 2, "n": 6,
             "faults": [[0] * 6, [1] * 6], "root": None},
        ]

        async def scenario(gateway, host, port):
            answers, _ = await fire_measure(host, port, payloads, concurrency=3)
            return answers

        answers = _with_gateway()(scenario)
        service = EmbeddingService()
        for payload, got in zip(payloads, answers):
            want = service.measure(
                payload["d"], payload["n"], faults=payload["faults"],
                topology=payload["topology"],
            ).as_dict()
            for transient in ("cached", "elapsed_s", "trace_id"):
                want.pop(transient, None), got.pop(transient, None)
            assert got == want

    def test_repeat_request_is_served_from_cache(self):
        payload = {"topology": "debruijn", "d": 2, "n": 6,
                   "faults": [[0, 0, 1, 1, 0, 1]], "root": None}

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, cold = await client.request("POST", "/measure", payload)
                _, warm = await client.request("POST", "/measure", payload)
                return cold, warm, gateway.stats()
            finally:
                await client.close()

        cold, warm, stats = _with_gateway()(scenario)
        assert not cold["cached"] and warm["cached"]
        assert warm["region_size"] == cold["region_size"]
        assert stats["measure_cache"]["hits"] == 1

    def test_rotated_faults_share_one_cache_entry(self):
        # canonical fault-unit normalisation, exactly like the service
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                base = {"topology": "debruijn", "d": 2, "n": 5, "root": None}
                _, a = await client.request(
                    "POST", "/measure", {**base, "faults": [[0, 0, 0, 1, 1]]}
                )
                _, b = await client.request(
                    "POST", "/measure", {**base, "faults": [[0, 0, 1, 1, 0]]}
                )
                return a, b
            finally:
                await client.close()

        a, b = _with_gateway()(scenario)
        assert b["cached"] and a["fault_units"] == b["fault_units"]

    def test_gateway_and_service_share_one_measurement_cache(self):
        payload = {"topology": "kautz", "d": 2, "n": 6,
                   "faults": [[0, 1, 0, 1, 2, 1]], "root": None}

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, served = await client.request("POST", "/measure", payload)
            finally:
                await client.close()
            direct = gateway.service.measure(
                2, 6, faults=payload["faults"], topology="kautz"
            )
            return served, direct, gateway.stats()

        served, direct, stats = _with_gateway()(scenario)
        assert not served["cached"] and direct.cached  # the gateway's miss filled it
        assert direct.region_size == served["region_size"]
        assert stats["measure_cache"] == stats["service"]["measurements"]
        assert stats["measure_cache"]["hits"] == 1
        assert stats["measure_cache"]["misses"] == 1


class TestEmbed:
    def test_embed_matches_direct_service_call(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/embed",
                    {"d": 2, "n": 5, "faults": [[0, 0, 0, 1, 1]]},
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 200
        direct = EmbeddingService().embed(2, 5, faults=[(0, 0, 0, 1, 1)])
        assert payload["length"] == direct.length
        assert payload["cycle"] == [list(w) for w in direct.cycle]
        assert payload["meets_guarantee"] == direct.meets_guarantee

    def test_include_cycle_false_drops_the_payload(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/embed",
                    {"d": 2, "n": 5, "faults": [], "include_cycle": False},
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 200
        assert "cycle" not in payload and payload["length"] == 32


class TestStats:
    def test_stats_shape_and_occupancy_under_concurrency(self):
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 8,
             "faults": [[i % 2] * 7 + [1]], "root": None}
            for i in range(2)
        ] + [
            {"topology": "debruijn", "d": 2, "n": 8,
             "faults": [[int(b) for b in format(i, "08b")]], "root": None}
            for i in range(40)
        ]

        async def scenario(gateway, host, port):
            await fire_measure(host, port, payloads, concurrency=16)
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/stats")
            finally:
                await client.close()

        status, stats = _with_gateway()(scenario)
        assert status == 200
        server = stats["server"]
        assert server["requests"]["POST /measure"] == len(payloads)
        assert server["batch_occupancy"] > 1.0
        assert "debruijn(2,8)" in stats["shards"]
        shard = stats["shards"]["debruijn(2,8)"]
        assert shard["completed"] == shard["lanes"] >= 1
        # the engine cache audit rides along, as the service exposes it
        assert "process_caches" in stats["service"]
        json.dumps(stats)  # everything must be JSON-serialisable

    def test_queue_limit_maps_to_503(self):
        config = GatewayConfig(port=0, queue_limit=1, max_batch=1)
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 10,
             "faults": [[int(b) for b in format(i, "010b")]], "root": None}
            for i in range(64)
        ]

        async def scenario(gateway, host, port):
            async def one(payload):
                client = await AsyncServeClient.open(host, port)
                try:
                    status, _ = await client.request("POST", "/measure", payload)
                    return status
                finally:
                    await client.close()

            return await asyncio.gather(*[one(p) for p in payloads])

        statuses = _with_gateway(config)(scenario)
        assert set(statuses) <= {200, 503}
        assert 200 in statuses
        # with a queue of 1 and 64 simultaneous requests, some must shed
        assert 503 in statuses


def _kernel_threads():
    return {t.ident for t in threading.enumerate() if t.name.startswith("repro-kernel")}


def test_distinct_roots_share_one_shard():
    """40 distinct roots on B(2,8): one shard and one executor.

    The root rides per lane, so it adds no shard, no kernel thread and no
    executor-cache entry; every answer is still the scalar service's answer
    for that root, including roots inside the faulty necklace (fallback).
    """
    from repro.engine import cache_stats
    from repro.topology import get_topology

    topo = get_topology("debruijn", 2, 8)
    faults = [[0, 0, 0, 0, 0, 0, 1, 1]]
    roots = [list(topo.decode(code)) for code in range(0, 160, 4)]
    assert len(roots) == 40 and [0, 0, 0, 0, 1, 1, 0, 0] in roots  # a dead root
    payloads = [{"topology": "debruijn", "d": 2, "n": 8, "faults": faults,
                 "root": root} for root in roots]

    async def scenario(gateway, host, port):
        before = _kernel_threads()
        misses = cache_stats()["engine.kernel_executors"]["misses"]
        answers, _ = await fire_measure(host, port, payloads, concurrency=40)
        new_threads = _kernel_threads() - before
        return answers, gateway.stats()["shards"], new_threads, (
            cache_stats()["engine.kernel_executors"]["misses"] - misses
        )

    answers, shards, new_threads, executor_misses = _with_gateway()(scenario)
    assert list(shards) == ["debruijn(2,8)"]
    assert shards["debruijn(2,8)"]["completed"] == 40
    # one shard's launches never overlap, so at most a second kernel thread
    # starts: the pool adds one when a launch is submitted before the thread
    # that ran the previous one has marked itself idle
    assert len(new_threads) <= 2
    assert executor_misses <= 1
    service = EmbeddingService()
    for root, answer in zip(roots, answers):
        want = service.measure(2, 8, faults=faults, root=root).as_dict()
        for key in ("cached", "elapsed_s"):
            del want[key], answer[key]
        del answer["trace_id"]
        assert answer == want


def test_distinct_graphs_share_the_kernel_pool():
    """Five graphs served by one gateway launch on the process-wide pool.

    Each ``(topology, d, n)`` gets its own shard, but every shard submits to
    the same kernel pool: the kernel threads are not one per graph, and
    every answer is the executor's scalar answer.
    """
    from repro.engine.executor import cached_executor
    from repro.topology import get_topology

    graphs = [("debruijn", 2, 8), ("debruijn", 3, 5), ("kautz", 2, 8),
              ("hypercube", 2, 8), ("undirected_debruijn", 2, 8)]

    async def scenario(gateway, host, port):
        before = _kernel_threads()
        counts, answers = [], []
        for key, d, n in graphs:
            topo = get_topology(key, d, n)
            codes = [3, 70, 141]
            payloads = [{"topology": key, "d": d, "n": n,
                         "faults": [list(topo.decode(c)) for c in codes[:f]],
                         "root": None} for f in range(len(codes) + 1)]
            graph_answers, _ = await fire_measure(host, port, payloads, concurrency=4)
            answers.append((topo, codes, graph_answers))
            counts.append(len(_kernel_threads() - before))
        return counts, answers, sorted(gateway.stats()["shards"])

    counts, answers, shards = _with_gateway()(scenario)
    assert len(shards) == len(graphs)
    # the graphs are served one after another, so no two launches overlap
    # and the pool starts at most two threads (see the test above)
    assert max(counts) <= 2
    for topo, codes, graph_answers in answers:
        executor = cached_executor(topo.d, topo.n, topo.key)
        for f, answer in enumerate(graph_answers):
            mask = topo.fault_unit_mask(np.asarray(codes[:f], dtype=np.int64))
            size, ecc, root = executor.measure_mask_with_root(mask)
            assert (answer["region_size"], answer["root_eccentricity"]) == (size, ecc)
            assert answer["root"] == (None if root is None else list(topo.decode(root)))


def test_shards_follow_the_executor_cache():
    """Two rounds over 13 graphs: at most 8 executors alive, one per graph.

    The executor cache (8 entries) owns every graph's tables.  A shard
    views the resident executor and is dropped once idle and evicted, so
    shards never pin an evicted executor or a second copy of a graph; a
    re-created shard continues its counters, and every answer is still
    the scalar executor's answer.
    """
    from repro.engine.executor import _EXECUTOR_CACHE, KernelExecutor
    from repro.topology import available_topologies, get_topology

    graphs = [("debruijn", 2, 6), ("debruijn", 2, 7), ("debruijn", 3, 4),
              ("kautz", 2, 6), ("kautz", 2, 7), ("kautz", 3, 4),
              ("hypercube", 2, 6), ("hypercube", 2, 7), ("hypercube", 2, 8),
              ("shuffle_exchange", 2, 6), ("shuffle_exchange", 2, 7),
              ("undirected_debruijn", 2, 6), ("undirected_debruijn", 2, 7)]
    assert {key for key, _, _ in graphs} == set(available_topologies())
    # round 0 is fault-free and round 1 faults one node, so both miss the
    # answer cache and reach a shard
    rounds = [[], [3]]

    async def scenario(gateway, host, port):
        answers = []
        for codes in rounds:
            for key, d, n in graphs:
                topo = get_topology(key, d, n)
                payload = {"topology": key, "d": d, "n": n,
                           "faults": [list(topo.decode(c)) for c in codes]}
                [answer], _ = await fire_measure(host, port, [payload], concurrency=1)
                answers.append((key, d, n, codes, answer))
        shard_executors = [b.executor for b in gateway._batchers.values()]
        return answers, shard_executors, gateway.stats()["shards"]

    answers, shard_executors, shards = _with_gateway()(scenario)
    alive = {id(e): e for e in [*shard_executors, *_EXECUTOR_CACHE._data.values()]}
    graphs_alive = [(e.topology_key, e.d, e.n) for e in alive.values()]
    assert len(alive) <= 8
    assert len(set(graphs_alive)) == len(graphs_alive)
    assert len(shards) <= 8
    # every shard left was dropped in round 0 and re-created in round 1
    assert all(shard["completed"] == len(rounds) for shard in shards.values())
    for key, d, n, codes, answer in answers:
        executor = KernelExecutor(d, n, key)
        topo = executor.topology
        mask = topo.fault_unit_mask(np.asarray(codes, dtype=np.int64))
        size, ecc, root = executor.measure_mask_with_root(mask)
        assert (answer["region_size"], answer["root_eccentricity"]) == (size, ecc)
        assert answer["root"] == list(topo.decode(root))
