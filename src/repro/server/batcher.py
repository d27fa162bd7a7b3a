"""Micro-batching of concurrent measure requests onto the kernel executor.

One :class:`MicroBatcher` fronts one executor shard, i.e. one
``(topology, d, n)``.  Concurrent callers ``await submit(mask, root)``; each
queued lane carries its own root code, so requests naming different roots
share a batch.  A single flusher task drains the bounded queue and packs
everything already queued, up to ``max_batch`` (<= 64) masks, into ONE
bit-parallel kernel launch
(:meth:`repro.engine.executor.KernelExecutor.measure_masks_batch`).  The
flusher is work-conserving: it launches the moment the previous launch
returns and never holds a batch open on a timer.  Launches run on the
process-wide kernel pool, so the event loop keeps accepting requests while
a batch computes — requests arriving during a launch coalesce into the next
one, which is what keeps occupancy high under load (the HoneyBadgerMPC
program-runner shape: many concurrent tasks, one shared execution context).
A shard has at most one launch in flight; launches of different graphs run
side by side, up to one per CPU core, so a slow launch on a large graph does
not hold up a small graph's requests.

Backpressure is the bounded queue: when ``max_queue`` requests are already
waiting, :meth:`MicroBatcher.submit` raises :class:`QueueFullError`
immediately instead of buffering without limit — the gateway maps that to
HTTP 503 so load sheds at the edge.

Every answer is bit-for-bit what the scalar path
(:meth:`~repro.engine.executor.KernelExecutor.measure_mask_with_root`)
returns for the same mask and root: batching only changes how many requests
share a sweep, never what any request observes.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..graphs.msbfs import WORD_WIDTH
from ..exceptions import DeadlineExceededError, InvalidParameterError
from ..obs import MetricsRegistry
from ..obs.tracing import Trace

if TYPE_CHECKING:
    from ..engine.executor import KernelExecutor

__all__ = ["MicroBatcher", "QueueFullError", "latency_percentiles"]


#: The kernel threads every shard launches on, however many graphs are
#: served: one per core, as launches are numpy sweeps that release the GIL
#: and one thread would queue a small graph's launch behind a large graph's.
_KERNEL_POOL = ThreadPoolExecutor(os.cpu_count() or 1, thread_name_prefix="repro-kernel")


class QueueFullError(RuntimeError):
    """Raised by ``submit`` when the shard's bounded request queue is full."""


class _Lane(NamedTuple):
    """One queued request."""

    mask: np.ndarray
    root: int
    future: asyncio.Future
    enqueued: float
    trace: Trace | None
    deadline_s: float | None


def latency_percentiles(samples: Iterable[float]) -> dict[str, float]:
    """``{p50, p99}`` (seconds) of an iterable of latency samples."""
    data = sorted(samples)
    if not data:
        return {"p50_s": 0.0, "p99_s": 0.0}
    return {
        "p50_s": data[len(data) // 2],
        "p99_s": data[min(len(data) - 1, (len(data) * 99) // 100)],
    }


class MicroBatcher:
    """Coalesce concurrent mask measurements into <= 64-lane kernel launches.

    Parameters
    ----------
    executor:
        The :class:`~repro.engine.executor.KernelExecutor` shard this
        batcher dispatches to.
    max_batch:
        Lanes per kernel launch (1..64).  ``1`` serves every request with
        its own launch (single-query serving).
    max_queue:
        Bound on queued requests; beyond it ``submit`` raises
        :class:`QueueFullError` (backpressure).
    registry:
        The :class:`~repro.obs.MetricsRegistry` this shard reports to
        (private by default; the gateway passes its own so every shard
        shows up on ``/metrics`` under its ``shard`` label).
    shard:
        The ``shard`` label value for this batcher's metrics (defaults to
        the executor's topology key).

    Must be used from a running asyncio event loop; the internal queue and
    flusher task bind to the loop of the first ``submit``.
    """

    def __init__(
        self,
        executor: KernelExecutor,
        max_batch: int = WORD_WIDTH,
        max_queue: int = 1024,
        registry: MetricsRegistry | None = None,
        shard: str | None = None,
    ) -> None:
        if not 1 <= max_batch <= WORD_WIDTH:
            raise InvalidParameterError(
                f"max_batch must be in 1..{WORD_WIDTH}, got {max_batch}"
            )
        if max_queue < 1:
            raise InvalidParameterError(f"max_queue must be >= 1, got {max_queue}")
        self.executor = executor
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self._queue: asyncio.Queue | None = None
        self._flusher: asyncio.Task | None = None
        # -- metrics: one child per shard in the owning registry ---------------
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shard = shard if shard is not None else executor.topology_key
        labels = ("shard",)
        self._obs_launches = self.registry.counter(
            "repro_batcher_launches_total", "Kernel launches dispatched", labels
        ).labels(self.shard)
        self._obs_lanes = self.registry.counter(
            "repro_batcher_lanes_total", "Lanes (requests) dispatched", labels
        ).labels(self.shard)
        self._obs_completed = self.registry.counter(
            "repro_batcher_completed_total", "Requests answered", labels
        ).labels(self.shard)
        self._obs_rejected = self.registry.counter(
            "repro_batcher_rejected_total", "Requests shed by backpressure", labels
        ).labels(self.shard)
        # bounded reservoir replacing the old unbounded latency lists: the
        # p50/p99 the shard reports come from this histogram's sample window
        self._obs_wait_seconds = self.registry.histogram(
            "repro_batcher_wait_seconds",
            "Submit-to-answer wall time per request",
            labels,
        ).labels(self.shard)
        self._obs_expired = self.registry.counter(
            "repro_batcher_deadline_expired_total",
            "Requests that missed their per-request deadline",
            labels,
        ).labels(self.shard)
        self._obs_isolated = self.registry.counter(
            "repro_batcher_isolated_failures_total",
            "Invalid masks failed individually without poisoning their batch",
            labels,
        ).labels(self.shard)
        #: lanes currently inside a kernel launch (drain watches this)
        self._dispatching = 0

    # -- submission ------------------------------------------------------------
    async def submit(
        self,
        mask: np.ndarray,
        root: int | None = None,
        trace: Trace | None = None,
        deadline_s: float | None = None,
    ) -> tuple[int, int, int | None]:
        """Measure one request's removed-node mask; resolves when its batch lands.

        ``root`` is the request's root code (``None`` = the executor's
        default).  Returns ``(region_size, root_eccentricity,
        measured_root_code)`` — bit-for-bit the scalar answer for ``mask``
        and ``root`` alone.  Raises
        :class:`QueueFullError` when the shard queue is at capacity.  When a
        ``trace`` rides along it receives ``queue``/``batch`` spans here and
        ``kernel`` (plus ``fallback``) spans from the executor.

        ``deadline_s`` bounds the submit-to-answer wait: when it elapses the
        request fails with :class:`~repro.exceptions.DeadlineExceededError`
        and its mask simply *leaves the batch* — coalesced lane-mates are
        unaffected (the flusher skips expired entries at pack time; a lane
        already inside a kernel launch completes and its late answer is
        discarded).
        """
        if deadline_s is not None and deadline_s <= 0:
            raise InvalidParameterError(
                f"deadline_s must be > 0 when given, got {deadline_s}"
            )
        self._ensure_started()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if root is None:
            root = self.executor.root_code
        try:
            self._queue.put_nowait(
                _Lane(mask, root, future, time.perf_counter(), trace, deadline_s)
            )
        except asyncio.QueueFull:
            self._obs_rejected.inc()
            raise QueueFullError(
                f"shard queue full ({self.max_queue} requests pending)"
            ) from None
        if deadline_s is None:
            return await future
        try:
            return await asyncio.wait_for(future, deadline_s)
        except asyncio.TimeoutError:
            raise self._expired(deadline_s) from None

    def _expired(self, deadline_s: float) -> DeadlineExceededError:
        """Count one missed deadline and build its error: ``submit`` calls it
        when the wait times out, ``_dispatch`` when it had passed at pack time."""
        self._obs_expired.inc()
        return DeadlineExceededError(
            f"request missed its {deadline_s * 1e3:.0f} ms deadline "
            f"(shard {self.shard})"
        )

    def _ensure_started(self) -> None:
        if self._flusher is None or self._flusher.done():
            self._queue = asyncio.Queue(maxsize=self.max_queue)
            self._flusher = asyncio.get_running_loop().create_task(self._flush_loop())

    # -- the flusher -----------------------------------------------------------
    async def _flush_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._dispatch(batch)

    def _mask_error(self, mask: object) -> str | None:
        """Why ``mask`` cannot join a kernel launch (None when it can).

        Per-mask validation is what isolates a poisoned request: one bad
        mask in a 64-lane flush fails alone instead of propagating its
        exception to every coalesced neighbour.  Only shape/type problems
        are knowable here; anything deeper still fails the whole launch.
        """
        if not isinstance(mask, np.ndarray):
            return f"mask must be a numpy bool array, got {type(mask).__name__}"
        if mask.dtype != np.bool_:
            return f"mask dtype must be bool, got {mask.dtype}"
        expected = (self.executor.topology.num_nodes,)
        if mask.shape != expected:
            return f"mask shape must be {expected}, got {mask.shape}"
        return None

    async def _dispatch(self, batch: list[_Lane]) -> None:
        loop = asyncio.get_running_loop()
        dispatch_start = time.perf_counter()
        live: list[_Lane] = []
        for lane in batch:
            if lane.future.done():
                continue  # waiter cancelled (e.g. its wait_for already fired)
            if lane.deadline_s is not None and dispatch_start - lane.enqueued >= lane.deadline_s:
                # expired while queued: leave the batch, fail only this lane
                lane.future.set_exception(self._expired(lane.deadline_s))
                continue
            error = self._mask_error(lane.mask)
            if error is not None:
                self._obs_isolated.inc()
                lane.future.set_exception(InvalidParameterError(error))
                continue
            if lane.trace is not None:
                # queue wait: enqueue to the moment its batch was sealed
                lane.trace.add_span("queue", lane.enqueued, dispatch_start)
            live.append(lane)
        if not live:
            return
        self._dispatching = len(live)
        try:
            picked, results, returned = await loop.run_in_executor(
                _KERNEL_POOL, self._launch, live
            )
        except Exception as exc:  # surface the failure on every waiter
            for lane in live:
                if not lane.future.done():
                    lane.future.set_exception(exc)
            return
        finally:
            self._dispatching = 0
        self._obs_launches.inc()
        self._obs_lanes.inc(len(live))
        now = time.perf_counter()
        for lane, result in zip(live, results):
            self._obs_completed.inc()
            self._obs_wait_seconds.observe(now - lane.enqueued)
            if lane.trace is not None:
                # batch assembly and the hand-offs to and from the kernel
                # thread: everything of the launch outside the kernel itself
                lane.trace.add_span("batch", dispatch_start, picked)
                lane.trace.add_span("batch", returned, now)
            if not lane.future.done():  # the waiter may have been cancelled
                lane.future.set_result(result)

    def _launch(self, live: list[_Lane]) -> tuple[float, list[tuple[int, int, int | None]], float]:
        """One kernel launch on a kernel thread, with the moments it
        started and returned (the hand-off ends of the ``batch`` spans)."""
        picked = time.perf_counter()
        results = self.executor.measure_masks_batch(
            [lane.mask for lane in live],
            roots=[lane.root for lane in live],
            traces=[lane.trace for lane in live],
        )
        return picked, results, time.perf_counter()

    # -- lifecycle / observability ---------------------------------------------
    async def close(self) -> None:
        """Cancel the flusher and fail any still-queued waiters.

        Requests caught in the queue at shutdown get a :class:`QueueFullError`
        ("batcher closed") instead of an eternally pending future — a caller
        awaiting ``submit`` must always resolve.
        """
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        if self._queue is not None:
            while True:
                try:
                    future = self._queue.get_nowait().future
                except asyncio.QueueEmpty:
                    break
                if not future.done():
                    future.set_exception(QueueFullError("batcher closed"))

    def pending(self) -> int:
        """Requests still in flight: queued plus inside the current launch.

        The gateway's graceful drain polls this to know when the shard has
        flushed everything it accepted.
        """
        queued = self._queue.qsize() if self._queue is not None else 0
        return queued + self._dispatching

    def stats(self) -> dict:
        """Batch-occupancy, queue and latency counters of this shard.

        Every scalar is a view over this shard's children in the metrics
        registry; the key set is the stable ``/stats`` schema.
        """
        launches = int(self._obs_launches.value())
        lanes = int(self._obs_lanes.value())
        stats = {
            "max_batch": self.max_batch,
            # launches are work-conserving: no request waits on a timer
            "max_wait_s": 0.0,
            "max_queue": self.max_queue,
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "launches": launches,
            "lanes": lanes,
            "batch_occupancy": lanes / launches if launches else 0.0,
            "completed": int(self._obs_completed.value()),
            "rejected": int(self._obs_rejected.value()),
            "deadline_expired": int(self._obs_expired.value()),
            "isolated_failures": int(self._obs_isolated.value()),
        }
        stats.update(latency_percentiles(self._obs_wait_seconds.samples()))
        return stats
