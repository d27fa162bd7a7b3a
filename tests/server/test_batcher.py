"""Tests for the micro-batcher: coalescing, backpressure, metrics."""

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine.executor import KernelExecutor
from repro.exceptions import InvalidParameterError
from repro.server import batcher as batcher_module
from repro.server.batcher import MicroBatcher, QueueFullError, latency_percentiles
from repro.topology import get_topology


def _masks(executor, count, seed=0):
    topo = executor.topology
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = int(rng.integers(0, 5))
        codes = rng.integers(0, topo.num_nodes, size=f).astype(np.int64)
        out.append(topo.fault_unit_mask(codes))
    return out


class TestCoalescing:
    def test_concurrent_submits_share_launches_and_match_scalar(self):
        executor = KernelExecutor(2, 7)
        masks = _masks(executor, 40)
        expected = [executor.measure_mask_with_root(m) for m in masks]

        async def main():
            batcher = MicroBatcher(executor)
            try:
                results = await asyncio.gather(*[batcher.submit(m) for m in masks])
                return results, batcher.stats()
            finally:
                await batcher.close()

        results, stats = asyncio.run(main())
        assert list(results) == expected
        assert stats["completed"] == len(masks)
        # 40 concurrent submits fit one 64-lane batch
        assert stats["launches"] < len(masks)
        assert stats["batch_occupancy"] > 1.0
        assert stats["p50_s"] >= 0.0

    def test_max_batch_one_serves_every_request_alone(self):
        executor = KernelExecutor(2, 6)
        masks = _masks(executor, 10, seed=2)

        async def main():
            batcher = MicroBatcher(executor, max_batch=1)
            try:
                results = await asyncio.gather(*[batcher.submit(m) for m in masks])
                return results, batcher.stats()
            finally:
                await batcher.close()

        results, stats = asyncio.run(main())
        assert list(results) == [executor.measure_mask_with_root(m) for m in masks]
        assert stats["launches"] == len(masks)
        assert stats["batch_occupancy"] == 1.0


class TestWorkConserving:
    def test_lone_request_launches_alone_and_held_requests_form_one_launch(self):
        # the first launch is held on a gate; the lane counts of every launch
        # are recorded on the kernel thread
        executor = KernelExecutor(2, 6)
        masks = _masks(executor, 6, seed=3)
        release = threading.Event()
        lanes_per_launch = []

        class GatedExecutor:
            topology_key = executor.topology_key
            topology = executor.topology
            root_code = executor.root_code

            def measure_masks_batch(self, masks, roots, traces):
                lanes_per_launch.append(len(masks))
                if len(lanes_per_launch) == 1:
                    release.wait(timeout=10)
                return executor.measure_masks_batch(masks, roots, traces)

        async def main():
            batcher = MicroBatcher(GatedExecutor())
            try:
                first = asyncio.ensure_future(batcher.submit(masks[0]))
                # a lane-mate 1 ms later: a 2 ms wait window would merge them
                await asyncio.sleep(0.001)
                held = [asyncio.ensure_future(batcher.submit(m)) for m in masks[1:]]
                await asyncio.sleep(0.05)  # all queued behind the held launch
                assert lanes_per_launch == [1]
                release.set()
                return await asyncio.gather(first, *held)
            finally:
                release.set()
                await batcher.close()

        results = asyncio.run(main())
        assert lanes_per_launch == [1, len(masks) - 1]
        assert list(results) == [executor.measure_mask_with_root(m) for m in masks]


class TestKernelPool:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one kernel thread per core")
    def test_held_launch_on_one_graph_does_not_hold_up_another(self):
        # a launch on one shard holds a kernel thread; a second graph's
        # request still gets its answer from another thread meanwhile
        held_executor = KernelExecutor(2, 9)
        executor = KernelExecutor(2, 6)
        release = threading.Event()

        class HeldExecutor:
            topology_key = held_executor.topology_key
            topology = held_executor.topology
            root_code = held_executor.root_code

            def measure_masks_batch(self, masks, roots, traces):
                release.wait(timeout=10)
                return held_executor.measure_masks_batch(masks, roots, traces)

        held_mask = np.zeros(held_executor.topology.num_nodes, dtype=bool)
        [mask] = _masks(executor, 1, seed=5)

        async def main():
            held = MicroBatcher(HeldExecutor())
            free = MicroBatcher(executor)
            try:
                slow = asyncio.ensure_future(held.submit(held_mask))
                await asyncio.sleep(0.05)  # the held launch occupies a thread
                answer = await asyncio.wait_for(free.submit(mask), timeout=5)
                assert not slow.done()
            finally:
                release.set()
            slow_answer = await slow
            await held.close()
            await free.close()
            return answer, slow_answer

        answer, slow_answer = asyncio.run(main())
        assert answer == executor.measure_mask_with_root(mask)
        assert slow_answer == held_executor.measure_mask_with_root(held_mask)


class TestBackpressure:
    def test_full_queue_rejects_immediately(self):
        executor = KernelExecutor(2, 5)
        release = threading.Event()

        class SlowExecutor:
            """Wraps the real executor; the first launch blocks until released."""

            topology_key = executor.topology_key
            topology = executor.topology
            root_code = executor.root_code

            def measure_masks_batch(self, masks, roots, traces):
                release.wait(timeout=10)
                return executor.measure_masks_batch(masks, roots, traces)

        mask = np.zeros(executor.topology.num_nodes, dtype=bool)

        async def main():
            batcher = MicroBatcher(SlowExecutor(), max_batch=1, max_queue=2)
            first = asyncio.ensure_future(batcher.submit(mask))
            # released however the checks end: the kernel thread is shared
            # by every batcher in the process
            try:
                await asyncio.sleep(0.05)  # flusher now blocked inside the launch
                second = asyncio.ensure_future(batcher.submit(mask))
                third = asyncio.ensure_future(batcher.submit(mask))
                await asyncio.sleep(0.05)  # both queued: the queue (maxsize 2) is full
                with pytest.raises(QueueFullError):
                    await batcher.submit(mask)
                assert batcher.stats()["rejected"] == 1
            finally:
                release.set()
            results = await asyncio.gather(first, second, third)
            await batcher.close()
            return results

        results = asyncio.run(main())
        assert all(r == executor.measure_mask_with_root(mask) for r in results)

    def test_close_fails_queued_waiters_instead_of_hanging_them(self):
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
            batcher = MicroBatcher(SlowExecutor(), max_batch=1, max_queue=4)
            first = asyncio.ensure_future(batcher.submit(mask))
            try:
                await asyncio.sleep(0.05)  # flusher blocked inside the launch
                stuck = asyncio.ensure_future(batcher.submit(mask))
                await asyncio.sleep(0.05)  # now queued behind the blocked launch
                await batcher.close()
            finally:
                release.set()
            # the queued waiter must resolve (with an error), never hang
            with pytest.raises(QueueFullError, match="closed"):
                await asyncio.wait_for(stuck, timeout=5)
            first.cancel()

        asyncio.run(main())

    def test_parameters_validated(self):
        executor = KernelExecutor(2, 4)
        with pytest.raises(InvalidParameterError):
            MicroBatcher(executor, max_batch=0)
        with pytest.raises(InvalidParameterError):
            MicroBatcher(executor, max_batch=65)
        with pytest.raises(InvalidParameterError):
            MicroBatcher(executor, max_queue=0)


class TestDispatch:
    def test_close_lets_the_launch_in_flight_answer_its_lanes(self):
        executor = KernelExecutor(2, 6)
        release = threading.Event()

        class HeldExecutor:
            topology_key = executor.topology_key
            topology = executor.topology
            root_code = executor.root_code

            def measure_masks_batch(self, masks, roots, traces):
                release.wait(timeout=10)
                return executor.measure_masks_batch(masks, roots, traces)

        mask = np.zeros(executor.topology.num_nodes, dtype=bool)

        async def main():
            batcher = MicroBatcher(HeldExecutor())
            waiter = asyncio.ensure_future(batcher.submit(mask))
            try:
                await asyncio.sleep(0.05)  # the launch is held on a kernel thread
                assert batcher.pending() == 1
                await batcher.close()
            finally:
                release.set()
            answer = await asyncio.wait_for(waiter, timeout=5)
            return answer, batcher.pending()

        answer, pending = asyncio.run(main())
        assert answer == executor.measure_mask_with_root(mask)
        assert pending == 0

    def test_one_batcher_serves_successive_event_loops(self):
        executor = KernelExecutor(2, 6)
        batcher = MicroBatcher(executor)
        masks = _masks(executor, 6, seed=7)

        async def main(chunk):
            return await asyncio.gather(*[batcher.submit(m) for m in chunk])

        first = asyncio.run(main(masks[:3]))
        second = asyncio.run(main(masks[3:]))
        assert list(first) + list(second) == [
            executor.measure_mask_with_root(m) for m in masks
        ]
        assert batcher.stats()["completed"] == len(masks)

    def test_a_launch_outliving_its_loop_frees_the_shard(self):
        executor = KernelExecutor(2, 6)
        release = threading.Event()

        class HeldExecutor:
            topology_key = executor.topology_key
            topology = executor.topology
            root_code = executor.root_code

            def measure_masks_batch(self, masks, roots, traces):
                release.wait(timeout=10)
                return executor.measure_masks_batch(masks, roots, traces)

        batcher = MicroBatcher(HeldExecutor())
        mask = np.zeros(executor.topology.num_nodes, dtype=bool)

        async def abandon():
            asyncio.ensure_future(batcher.submit(mask))
            await asyncio.sleep(0.05)  # the launch is held on a kernel thread

        async def ask():
            return await asyncio.wait_for(batcher.submit(mask), timeout=5)

        try:
            asyncio.run(abandon())  # the loop closes with the launch in flight
        finally:
            release.set()
        for _ in range(500):
            if not batcher.pending():
                break
            time.sleep(0.01)
        assert batcher.pending() == 0
        assert asyncio.run(ask()) == executor.measure_mask_with_root(mask)

    def test_each_launch_hands_back_with_one_threadsafe_callback(self):
        executor = KernelExecutor(2, 6)
        masks = _masks(executor, 20, seed=8)
        handbacks = []

        async def main():
            loop = asyncio.get_running_loop()
            schedule = loop.call_soon_threadsafe

            def counted(*args, **kwargs):
                handbacks.append(threading.current_thread().name)
                return schedule(*args, **kwargs)

            loop.call_soon_threadsafe = counted
            batcher = MicroBatcher(executor, max_batch=4)
            for chunk in (masks[:9], masks[9:]):
                await asyncio.gather(*[batcher.submit(m) for m in chunk])
            return batcher.stats()

        stats = asyncio.run(main())
        assert stats["completed"] == len(masks)
        assert len(handbacks) == stats["launches"] >= 5
        assert all(name.startswith("repro-kernel") for name in handbacks)


class TestFailurePropagation:
    def test_executor_exception_reaches_every_waiter(self):
        class BrokenExecutor:
            topology_key = "broken"
            topology = get_topology("debruijn", 2, 2)
            root_code = 1

            def measure_masks_batch(self, masks, roots, traces):
                raise RuntimeError("kernel exploded")

        mask = np.zeros(4, dtype=bool)

        async def main():
            batcher = MicroBatcher(BrokenExecutor())
            try:
                results = await asyncio.gather(
                    *[batcher.submit(mask) for _ in range(3)],
                    return_exceptions=True,
                )
                return results
            finally:
                await batcher.close()

        results = asyncio.run(main())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_a_shut_down_kernel_pool_fails_every_waiter(self, monkeypatch):
        executor = KernelExecutor(2, 5)
        pool = ThreadPoolExecutor(1)
        pool.shutdown()
        monkeypatch.setattr(batcher_module, "_KERNEL_POOL", pool)
        masks = _masks(executor, 5, seed=9)

        async def main():
            batcher = MicroBatcher(executor, max_batch=2)
            results = await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(m) for m in masks], return_exceptions=True),
                timeout=5,
            )
            return results, batcher.pending()

        results, pending = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert pending == 0


class TestLatencyPercentiles:
    def test_empty_and_singleton(self):
        assert latency_percentiles([]) == {"p50_s": 0.0, "p99_s": 0.0}
        assert latency_percentiles([0.5]) == {"p50_s": 0.5, "p99_s": 0.5}

    def test_orders_samples(self):
        stats = latency_percentiles([0.3, 0.1, 0.2, 0.4])
        assert stats["p50_s"] == 0.3
        assert stats["p99_s"] == 0.4
