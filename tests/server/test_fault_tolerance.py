"""Serving-tier fault tolerance: deadlines, isolation, degradation, chaos.

Every failure path the churn scenario driver leans on is exercised here
directly: per-request deadlines in the batcher, per-mask failure isolation
inside a coalesced launch, graceful degradation under injected saturation,
the chaos middleware's HTTP effects, client retries, and the graceful
drain of ``python -m repro serve``.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.churn.chaos import ChaosConfig
from repro.engine.executor import KernelExecutor
from repro.engine.service import EmbeddingService
from repro.exceptions import DeadlineExceededError, InvalidParameterError
from repro.server.batcher import MicroBatcher
from repro.server.client import AsyncServeClient, ServeClient
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


class TestDeadlines:
    def test_expired_request_fails_alone_while_lane_mates_complete(self):
        executor = KernelExecutor(2, 5)
        release = threading.Event()

        class SlowExecutor:
            topology_key = executor.topology_key
            topology = executor.topology
            root_code = executor.root_code

            def measure_masks_batch(self, masks, roots, traces):
                release.wait(timeout=10)
                return executor.measure_masks_batch(masks, roots, traces)

        mask = np.zeros(executor.topology.num_nodes, dtype=bool)

        async def main():
            batcher = MicroBatcher(SlowExecutor())
            # the first submit occupies the kernel thread behind ``release``;
            # the deadlined one then expires while it waits.  ``release`` is
            # set however the check ends: the kernel thread is process-wide,
            # so a stuck launch would stall every later test's launches
            slow = asyncio.ensure_future(batcher.submit(mask))
            try:
                await asyncio.sleep(0.05)
                with pytest.raises(DeadlineExceededError, match="deadline"):
                    await batcher.submit(mask, deadline_s=0.05)
            finally:
                release.set()
            answer = await slow
            stats = batcher.stats()
            await batcher.close()
            return answer, stats

        answer, stats = asyncio.run(main())
        assert answer == executor.measure_mask_with_root(mask)
        assert stats["deadline_expired"] == 1
        assert stats["completed"] == 1

    def test_deadline_must_be_positive(self):
        async def main():
            batcher = MicroBatcher(KernelExecutor(2, 4))
            try:
                with pytest.raises(InvalidParameterError, match="deadline_s"):
                    await batcher.submit(
                        np.zeros(16, dtype=bool), deadline_s=0.0
                    )
            finally:
                await batcher.close()

        asyncio.run(main())

    def test_http_deadline_maps_to_504(self):
        # a microsecond deadline on a cold shard cannot be met: the gateway
        # must answer 504 with retry: true, and count the expiry
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                status, payload = await client.request(
                    "POST", "/measure",
                    {"topology": "debruijn", "d": 2, "n": 10, "faults": [],
                     "root": None, "deadline_ms": 0.001},
                )
                return status, payload, gateway.stats()
            finally:
                await client.close()

        status, payload, stats = _with_gateway()(scenario)
        assert status == 504
        assert payload["retry"] is True
        assert "deadline" in payload["error"]
        assert stats["shards"]["debruijn(2,10)"]["deadline_expired"] == 1


class TestFailureIsolation:
    def test_one_poisoned_mask_among_63_good_fails_alone(self):
        executor = KernelExecutor(2, 6)  # 64 nodes: one full 64-lane batch
        nodes = executor.topology.num_nodes
        good = []
        for i in range(63):
            mask = np.zeros(nodes, dtype=bool)
            mask[i % nodes] = True
            good.append(mask)
        expected = [executor.measure_mask_with_root(m) for m in good]
        poisoned = np.zeros(nodes - 1, dtype=bool)  # wrong shape

        async def main():
            batcher = MicroBatcher(executor)
            results = await asyncio.gather(
                *[batcher.submit(m) for m in good],
                batcher.submit(poisoned),
                return_exceptions=True,
            )
            stats = batcher.stats()
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert isinstance(results[-1], InvalidParameterError)
        assert "shape" in str(results[-1])
        assert results[:-1] == expected
        assert stats["isolated_failures"] == 1
        assert stats["completed"] == 63
        assert stats["launches"] == 1  # everything coalesced into one launch

    def test_every_poison_kind_is_diagnosed(self):
        executor = KernelExecutor(2, 4)
        nodes = executor.topology.num_nodes

        async def main():
            batcher = MicroBatcher(executor)
            results = await asyncio.gather(
                batcher.submit([True] * nodes),  # not an ndarray
                batcher.submit(np.zeros(nodes, dtype=np.int64)),  # wrong dtype
                batcher.submit(np.zeros((2, nodes), dtype=bool)),  # wrong ndim
                batcher.submit(np.zeros(nodes, dtype=bool)),  # the control
                return_exceptions=True,
            )
            stats = batcher.stats()
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert "numpy bool array" in str(results[0])
        assert "dtype" in str(results[1])
        assert "shape" in str(results[2])
        assert results[3] == executor.measure_mask_with_root(
            np.zeros(nodes, dtype=bool)
        )
        assert stats["isolated_failures"] == 3


class TestGracefulDegradation:
    def test_saturation_yields_a_bound_only_answer(self):
        config = GatewayConfig(
            port=0, degraded=True, chaos=ChaosConfig(seed=0, saturate_p=1.0)
        )
        payload = {"topology": "debruijn", "d": 2, "n": 6,
                   "faults": [[0, 1, 0, 1, 1, 0]], "root": None}

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, first = await client.request("POST", "/measure", payload)
                _, second = await client.request("POST", "/measure", payload)
                return first, second, gateway.stats()
            finally:
                await client.close()

        first, second, stats = _with_gateway(config)(scenario)
        direct = EmbeddingService().measure(
            2, 6, faults=payload["faults"], topology="debruijn"
        )
        for answer in (first, second):
            assert answer["degraded"] is True
            assert answer["cached"] is False  # degraded answers are never cached
            assert answer["region_size"] is None
            assert answer["root_eccentricity"] is None
            assert answer["root"] is None
            # the analytic fields still match the real service's
            assert answer["guarantee_bound"] == direct.guarantee_bound
            assert answer["reference_size"] == direct.reference_size
        assert stats["server"]["degraded"] == 2

    def test_normal_answers_do_not_carry_a_degraded_key(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/measure",
                    {"topology": "debruijn", "d": 2, "n": 5, "faults": [],
                     "root": None},
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 200 and "degraded" not in payload

    def test_saturation_without_degraded_mode_sheds_as_503(self):
        config = GatewayConfig(port=0, chaos=ChaosConfig(seed=0, saturate_p=1.0))

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/measure",
                    {"topology": "debruijn", "d": 2, "n": 5, "faults": [],
                     "root": None},
                )
            finally:
                await client.close()

        status, payload = _with_gateway(config)(scenario)
        assert status == 503 and payload["retry"] is True

    def test_embed_and_churn_have_no_degraded_fallback(self):
        # bound-only answers make no sense for a cycle: saturation sheds
        # these as retryable 503s even in degraded mode
        config = GatewayConfig(
            port=0, degraded=True, chaos=ChaosConfig(seed=0, saturate_p=1.0)
        )

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                embed = await client.request(
                    "POST", "/embed", {"d": 2, "n": 5, "faults": []}
                )
                churn = await client.request(
                    "POST", "/churn", {"d": 2, "n": 5, "op": "reset"}
                )
                return embed, churn
            finally:
                await client.close()

        (embed_status, embed), (churn_status, churn) = _with_gateway(config)(scenario)
        assert embed_status == churn_status == 503
        assert embed["retry"] is True and churn["retry"] is True


class TestChaosOverHttp:
    PAYLOAD = {"topology": "debruijn", "d": 2, "n": 5, "faults": [], "root": None}

    def test_injected_error_is_a_retryable_503(self):
        config = GatewayConfig(port=0, chaos=ChaosConfig(seed=0, error_p=1.0))

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("POST", "/measure", self.PAYLOAD)
            finally:
                await client.close()

        status, payload = _with_gateway(config)(scenario)
        assert status == 503
        assert payload["retry"] is True and "chaos" in payload["error"]

    def test_injected_drop_resets_the_connection(self):
        config = GatewayConfig(port=0, chaos=ChaosConfig(seed=0, drop_p=1.0))

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                with pytest.raises(
                    (ConnectionError, asyncio.IncompleteReadError, IndexError)
                ):
                    await client.request("POST", "/measure", self.PAYLOAD)
            finally:
                await client.close()

        _with_gateway(config)(scenario)

    def test_injected_delay_still_answers_correctly(self):
        config = GatewayConfig(
            port=0, chaos=ChaosConfig(seed=0, delay_p=1.0, delay_ms=1.0)
        )

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("POST", "/measure", self.PAYLOAD)
            finally:
                await client.close()

        status, payload = _with_gateway(config)(scenario)
        assert status == 200
        direct = EmbeddingService().measure(2, 5)
        assert payload["region_size"] == direct.region_size


class TestClientRetries:
    PAYLOAD = {"topology": "debruijn", "d": 2, "n": 5, "faults": [], "root": None}

    def test_client_retries_through_errors_and_the_gateway_counts_them(self):
        # seed 2 injects error, error, then passes (see ChaosInjector
        # determinism): a client with retries succeeds on attempt 2
        config = GatewayConfig(port=0, chaos=ChaosConfig(seed=2, error_p=0.5))

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(
                host, port, retries=5, backoff_base_s=0.001
            )
            try:
                status, payload = await client.request(
                    "POST", "/measure", self.PAYLOAD
                )
                return status, payload, client.retries_total, gateway.stats()
            finally:
                await client.close()

        status, payload, retries, stats = _with_gateway(config)(scenario)
        assert status == 200
        assert retries == 2
        assert stats["server"]["retried"] == 2
        direct = EmbeddingService().measure(2, 5)
        assert payload["region_size"] == direct.region_size

    def test_exhausted_retries_surface_the_last_503(self):
        config = GatewayConfig(port=0, chaos=ChaosConfig(seed=0, error_p=1.0))

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(
                host, port, retries=3, backoff_base_s=0.001
            )
            try:
                status, _ = await client.request("POST", "/measure", self.PAYLOAD)
                return status, client.retries_total, gateway.stats()
            finally:
                await client.close()

        status, retries, stats = _with_gateway(config)(scenario)
        assert status == 503
        assert retries == 3
        assert stats["server"]["retried"] == 3

    def test_client_reconnects_through_injected_drops(self):
        # seed 2 drops the first two deliveries; the client must reopen its
        # connection each time and land the third
        config = GatewayConfig(port=0, chaos=ChaosConfig(seed=2, drop_p=0.5))

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(
                host, port, retries=5, backoff_base_s=0.001
            )
            try:
                status, payload = await client.request(
                    "POST", "/measure", self.PAYLOAD
                )
                return status, payload, client.retries_total
            finally:
                await client.close()

        status, payload, retries = _with_gateway(config)(scenario)
        assert status == 200
        assert retries == 2
        assert payload["region_size"] == EmbeddingService().measure(2, 5).region_size

    def test_backoff_schedule_is_seeded_and_exponential(self):
        from repro.server.client import _backoff_s
        import random

        a = [_backoff_s(0.05, i, random.Random(0)) for i in range(3)]
        b = [_backoff_s(0.05, i, random.Random(0)) for i in range(3)]
        assert a == b  # seeded: replays exactly
        # base * 2^attempt * (1 + jitter in [0, 1))
        for attempt, value in enumerate(a):
            assert 0.05 * 2**attempt <= value < 0.05 * 2**attempt * 2


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero_with_final_stats(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            client = ServeClient(f"http://{host}:{port}", timeout=30.0)
            answer = client.measure(2, 5)
            assert answer["region_size"] == 32  # fault-free: every node reachable
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        # the drained process leaves one final /stats snapshot on stderr
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["server"]["requests"]["POST /measure"] == 1
        assert stats["shards"]["debruijn(2,5)"]["completed"] == 1

    def test_sigterm_with_no_traffic_still_exits_zero(self):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert "listening" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["server"]["errors"] == 0
