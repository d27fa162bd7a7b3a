"""The shared kernel executor: one owner for tables, scratch and dispatch.

:class:`KernelExecutor` is the one owner of the measurement core: the
topology instance (and through it the gather tables), the reusable kernel
scratch buffers (:class:`~repro.graphs.msbfs.BatchWorkspace`), the
intact-distance cache behind the paper's neighbouring-root fallback, and the
one batch-vs-scalar dispatch heuristic (:data:`KernelExecutor.MIN_KERNEL_BATCH`).
Every consumer — :func:`~repro.analysis.fault_simulation.simulate_fault_row`,
the parallel engine's workers, the embedding service, and the
:mod:`repro.server` micro-batching gateway — is a thin client of this class,
so their measurements can never diverge.

Three entry shapes cover every caller:

* **seeded trials** (:meth:`run_trial` / :meth:`run_trials_batch` /
  :meth:`measure_chunk`) — the Tables 2.1/2.2 sweep path: each trial samples
  its own fault set from its own ``SeedSequence`` stream, up to 64 trials
  per bit-parallel launch, bit-for-bit identical at any batch width;
* **explicit masks** (:meth:`measure_mask` / :meth:`measure_mask_with_root`)
  — one removed-node mask, one measurement, including the neighbouring-root
  fallback (an explicit fault *set* is normalised to its mask by
  :meth:`repro.engine.service.EmbeddingService.measure`);
* **mask micro-batches** (:meth:`measure_masks_batch`) — up to 64
  *different requests'* masks packed into one kernel launch (ragged fault
  sets allowed): the serving hot path.  Each lane's answer is bit-for-bit
  what :meth:`measure_mask_with_root` returns for that mask alone.

Executors are thread-safe: the shared scratch workspace and the lazy
intact-distance table are lock-guarded, so the asyncio gateway can dispatch
from worker threads while a sweep uses the same cached executor.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..graphs.components import bfs_levels_table
from ..graphs.msbfs import (
    WORD_WIDTH,
    BatchStats,
    BatchWorkspace,
    batched_root_stats,
    lane_removed_mask,
    pack_fault_lanes,
    pack_mask_lanes,
)
from ..network.faults import sample_code_batch, sample_fault_codes
from ..obs import DEFAULT_REGISTRY
from ..obs.tracing import Trace
from ..topology import DEFAULT_TOPOLOGY, Topology, get_topology
from .cache import LRUCache
from .caches import register_cache

__all__ = ["KernelExecutor", "cached_executor"]

# Process-wide kernel profiling (the register_cache idiom: handles created at
# import, enumerable through the default registry / the gateway's /metrics).
# Lane-occupancy buckets mirror the power-of-two batch widths the dispatch
# heuristic produces; level buckets cover B(2,12)-to-Q(16)-scale diameters.
_KERNEL_LAUNCHES = DEFAULT_REGISTRY.counter(
    "repro_kernel_launches_total",
    "Bit-parallel msbfs kernel launches",
    labelnames=("topology",),
)
_KERNEL_SECONDS = DEFAULT_REGISTRY.histogram(
    "repro_kernel_launch_seconds",
    "Wall time of one bit-parallel kernel launch",
    labelnames=("topology",),
)
_KERNEL_LANES = DEFAULT_REGISTRY.histogram(
    "repro_kernel_lanes",
    "Lane occupancy (trials packed) per kernel launch",
    labelnames=("topology",),
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0),
)
_KERNEL_LEVELS = DEFAULT_REGISTRY.histogram(
    "repro_kernel_levels",
    "BFS frontier expansions (sweep depth) per kernel launch",
    labelnames=("topology",),
    buckets=(2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0),
)
_FALLBACK_SECONDS = DEFAULT_REGISTRY.histogram(
    "repro_executor_fallback_seconds",
    "Wall time of root-fallback racing for peeled micro-batch lanes",
    labelnames=("topology",),
)


class KernelExecutor:
    """Measurement executor for one topology instance and one root.

    The default backend is the paper's ``B(d, n)``; any key of the
    :mod:`repro.topology` registry (or a pre-built
    :class:`~repro.topology.base.Topology`) selects another network.
    Construction touches the shared backend instance (cached per
    ``(topology, d, n)``); every precomputed table — gather columns,
    fault-unit closure — is then amortised across all launches.  The only
    mutable state is scratch (the kernel workspace, the intact-distance
    cache), all lock-guarded, so one executor can serve concurrent callers.
    """

    #: Tail chunks narrower than this run per-trial instead of through the
    #: kernel: a bit-parallel sweep costs roughly one full-graph BFS however
    #: few lanes it carries, so it only pays for itself once several trials
    #: share it (measured crossover ~4 trials on B(4, 10); results are
    #: identical either way, so this is purely a wall-clock heuristic).
    MIN_KERNEL_BATCH = 8

    def __init__(
        self,
        d: int,
        n: int,
        root: Sequence[int] | None = None,
        topology: str | Topology = DEFAULT_TOPOLOGY,
    ) -> None:
        self.topology = get_topology(topology, d, n)
        self.topology_key = self.topology.key
        self.d, self.n = self.topology.d, self.topology.n
        #: the De Bruijn codec where the backend has one (B/UB/shuffle-exchange);
        #: ``None`` for code-native backends like the hypercube
        self.codec = getattr(self.topology, "codec", None)
        if root is None:
            self.root_code = self.topology.default_root_code
        else:
            self.root_code = self.topology.encode(tuple(int(x) for x in root))
        self.root = self.topology.decode(self.root_code)
        self._intact_dist: np.ndarray | None = None
        self._intact_lock = threading.Lock()
        # one reusable sweep workspace per executor; every kernel launch
        # that borrows it is serialised by this lock (concurrent callers —
        # the server's batcher threads vs an inline sweep — must not share
        # the frontier/next/scratch arrays mid-flight)
        self._workspace = BatchWorkspace(self.topology.num_nodes)
        self._kernel_lock = threading.Lock()
        # bound the profiling children once: per-launch cost is then one
        # histogram observe (a bisect + two adds under the child lock)
        self._obs_launches = _KERNEL_LAUNCHES.labels(self.topology_key)
        self._obs_launch_seconds = _KERNEL_SECONDS.labels(self.topology_key)
        self._obs_lanes = _KERNEL_LANES.labels(self.topology_key)
        self._obs_levels = _KERNEL_LEVELS.labels(self.topology_key)
        self._obs_fallback_seconds = _FALLBACK_SECONDS.labels(self.topology_key)

    # -- seeded trials ---------------------------------------------------------
    def run_trial(self, f: int, rng: np.random.Generator) -> tuple[int, int]:
        """Run one random trial: returns ``(region_size, root_eccentricity)``."""
        codes = sample_fault_codes(self.topology.num_nodes, f, rng)
        fault_codes = np.asarray(codes, dtype=np.int64)
        return self.measure_mask(self.topology.fault_unit_mask(fault_codes))

    def run_trials_batch(
        self, f: int, seed_seqs: Sequence[np.random.SeedSequence]
    ) -> list[tuple[int, int]]:
        """Run up to 64 trials in one bit-parallel sweep; results in trial order.

        Each element of ``seed_seqs`` seeds one trial's private stream
        (the engine passes ``SeedSequence(seed, spawn_key=(f, t))``), and
        fault sampling stays strictly per-trial, so every returned pair is
        bit-for-bit what :meth:`run_trial` yields for the same stream — the
        kernel only changes how the ``(component size, eccentricity)``
        measurements are carried out.  Trials whose root lands in a faulty
        necklace are peeled out of the packed sweep and measured by the
        scalar fallback (:meth:`measure_mask`), including the paper's
        neighbouring-root rule and the all-nodes-removed ``(0, 0)`` case.
        """
        batch = len(seed_seqs)
        if not 1 <= batch <= WORD_WIDTH:
            raise InvalidParameterError(
                f"batch size must be in 1..{WORD_WIDTH}, got {batch}"
            )
        rngs = [np.random.default_rng(seq) for seq in seed_seqs]
        codes = sample_code_batch(self.topology.num_nodes, f, rngs)
        lanes = pack_fault_lanes(self.topology, codes)
        stats = self._launch(lanes, self.root_code, batch)
        results = list(zip(stats.sizes.tolist(), stats.eccs.tolist()))
        for t, stat in self._batched_fallbacks(lanes, stats.dead_trials()).items():
            results[t] = stat
        return results

    def measure_chunk(
        self,
        f: int,
        items: Sequence[tuple[int, np.random.SeedSequence]],
        batch: int,
    ) -> list[tuple[int, int, int]]:
        """Measure one chunk of trials, ``batch`` at a time: ``(t, size, ecc)`` list.

        This is the one batch-vs-scalar dispatch heuristic in the codebase:
        ``batch=1`` takes the scalar per-trial path; ``batch>1`` packs up to
        ``batch`` trials per bit-parallel kernel call, with remnants
        narrower than :data:`MIN_KERNEL_BATCH` falling back to the scalar
        path (an explicitly small ``batch`` setting is honoured).  Which
        trials share a kernel call is irrelevant to the results — every
        trial's samples come from its own SeedSequence stream — so serial
        runs, resumed runs with scattered holes and worker shards all
        produce identical measurements.
        """
        if batch <= 1:
            return [
                (t, *self.run_trial(f, np.random.default_rng(seq))) for t, seq in items
            ]
        out: list[tuple[int, int, int]] = []
        min_kernel = min(self.MIN_KERNEL_BATCH, batch)
        for start in range(0, len(items), batch):
            part = items[start : start + batch]
            if len(part) < min_kernel:
                out.extend(
                    (t, *self.run_trial(f, np.random.default_rng(seq)))
                    for t, seq in part
                )
                continue
            stats = self.run_trials_batch(f, [seq for _, seq in part])
            out.extend((t, size, ecc) for (t, _), (size, ecc) in zip(part, stats))
        return out

    # -- explicit masks --------------------------------------------------------
    def measure_mask(self, removed: np.ndarray) -> tuple[int, int]:
        """Measure for an explicit removed-node mask (the int-coded hot path)."""
        size, ecc, _ = self.measure_mask_with_root(removed)
        return size, ecc

    def measure_mask_with_root(self, removed: np.ndarray) -> tuple[int, int, int | None]:
        """Like :meth:`measure_mask`, also returning the measured root's code.

        The root is the configured ``R`` when it survives, otherwise the
        sweep protocol's neighbouring-root fallback; ``None`` (with a
        ``(0, 0)`` measurement) when every node was removed.  Consumers that
        report the measurement root — e.g.
        :meth:`repro.engine.service.EmbeddingService.measure` — use this
        form so the reported root can never drift from the measured one.
        """
        root = self._measurement_root(removed)
        if root is None:
            return 0, 0, None
        return (*self._measure_from_root(removed, root), int(root))

    # -- mask micro-batches (the serving hot path) -----------------------------
    def measure_masks_batch(
        self,
        masks: Sequence[np.ndarray],
        traces: Sequence[Trace | None] | None = None,
    ) -> list[tuple[int, int, int | None]]:
        """Measure up to 64 *different requests'* masks in one kernel launch.

        Each entry of ``masks`` is one request's ``bool[num_nodes]``
        removed-node mask (requests may remove different numbers of fault
        units — the batch is ragged, unlike a sweep row's rectangular trial
        batch).  Lane ``t``'s answer is bit-for-bit
        :meth:`measure_mask_with_root` on ``masks[t]`` alone; requests whose
        root lies in a removed unit are peeled onto the scalar fallback,
        which also reports the fallback root the micro-batched kernel cannot.
        This is the :mod:`repro.server` gateway's dispatch target: one
        full-graph sweep amortised over every coalesced request.

        ``traces[t]`` (when given, aligned with ``masks``) receives a
        ``kernel`` span covering the shared launch and — for peeled lanes —
        a ``fallback`` span covering that request's scalar re-measurement.
        """
        batch = len(masks)
        if not 1 <= batch <= WORD_WIDTH:
            raise InvalidParameterError(
                f"batch size must be in 1..{WORD_WIDTH}, got {batch}"
            )
        if traces is not None and len(traces) != batch:
            raise InvalidParameterError(
                f"got {len(traces)} traces for {batch} masks"
            )
        lanes = pack_mask_lanes(masks, self.topology.num_nodes)
        launch_start = time.perf_counter()
        stats = self._launch(lanes, self.root_code, batch)
        launch_end = time.perf_counter()
        if traces is not None:
            for trace in traces:
                if trace is not None:
                    trace.add_span("kernel", launch_start, launch_end)
        results: list[tuple[int, int, int | None]] = [
            (size, ecc, self.root_code)
            for size, ecc in zip(stats.sizes.tolist(), stats.eccs.tolist())
        ]
        for t in stats.dead_trials():
            # rare in served regimes, and the fallback must report its root:
            # the scalar path answers both
            fb_start = time.perf_counter()
            results[t] = self.measure_mask_with_root(lane_removed_mask(lanes, t))
            fb_end = time.perf_counter()
            self._obs_fallback_seconds.observe(fb_end - fb_start)
            lane_trace = traces[t] if traces is not None else None
            if lane_trace is not None:
                lane_trace.add_span("fallback", fb_start, fb_end)
        return results

    # -- kernel launch ---------------------------------------------------------
    def _launch(self, lanes: np.ndarray, root: int | np.ndarray, batch: int) -> BatchStats:
        """One bit-parallel sweep through the executor's shared workspace."""
        with self._kernel_lock:
            start = time.perf_counter()
            stats = batched_root_stats(
                self.topology, lanes, root, batch, workspace=self._workspace
            )
            self._obs_launch_seconds.observe(time.perf_counter() - start)
        self._obs_launches.inc()
        self._obs_lanes.observe(float(batch))
        self._obs_levels.observe(float(stats.levels))
        return stats

    def _batched_fallbacks(
        self, lanes: np.ndarray, dead: Sequence[int]
    ) -> dict[int, tuple[int, int]]:
        """Fallback measurements for the batch's root-dead trials, lane-packed.

        Each dead trial contributes its fallback candidate roots as lanes
        over its own fault mask (a single candidate is just a 1-lane
        segment), so one extra kernel sweep usually resolves every peeled
        trial of the batch at once.  Per trial the result is bit-for-bit
        :meth:`_fallback_stats` (itself bit-for-bit :meth:`measure_mask`);
        a trial with more than 64 candidates falls back to chunked racing.
        """
        out: dict[int, tuple[int, int]] = {}
        pending: list[tuple[int, np.ndarray]] = []
        for t in dead:
            removed = lane_removed_mask(lanes, t)
            if not (~removed).any():
                out[t] = (0, 0)
                continue
            candidates = self._fallback_candidates(removed)
            if candidates.size > WORD_WIDTH:
                out[t] = self._fallback_stats(removed)
            else:
                # single candidates ride along too: a 1-lane segment of the
                # race sweep is exactly that root's BFS
                pending.append((t, candidates))
        group: list[tuple[int, np.ndarray]] = []
        used = 0
        for item in pending:
            if used + len(item[1]) > WORD_WIDTH:
                self._race_candidate_lanes(lanes, group, out)
                group, used = [], 0
            group.append(item)
            used += len(item[1])
        if group:
            self._race_candidate_lanes(lanes, group, out)
        return out

    def _race_candidate_lanes(
        self,
        lanes: np.ndarray,
        group: Sequence[tuple[int, np.ndarray]],
        out: dict[int, tuple[int, int]],
    ) -> None:
        """Race several trials' candidate roots in one multi-root sweep."""
        one = np.uint64(1)
        roots = np.concatenate([c for _, c in group]).astype(np.int64)
        packed = np.zeros(self.topology.num_nodes, dtype=np.uint64)
        pos = 0
        for t, candidates in group:
            # replicate trial t's removed mask into this trial's lane segment
            segment = np.uint64(((1 << len(candidates)) - 1) << pos)
            packed |= ((lanes >> np.uint64(t)) & one) * segment
            pos += len(candidates)
        stats = self._launch(packed, roots, len(roots))
        pos = 0
        for t, candidates in group:
            seg_sizes = stats.sizes[pos : pos + len(candidates)]
            # np.argmax returns the FIRST maximum: the ascending-code
            # strict-'>' scan of _measurement_root, lane-parallel.
            i = int(np.argmax(seg_sizes))
            out[t] = (int(seg_sizes[i]), int(stats.eccs[pos + i]))
            pos += len(candidates)

    # -- root fallback ---------------------------------------------------------
    def _measure_from_root(self, removed: np.ndarray, root: int) -> tuple[int, int]:
        # One directed BFS gives both the reached region and the eccentricity.
        # For De Bruijn, whole-necklace removal keeps the digraph balanced, so
        # that region is the root's component (the paper's measurement);
        # undirected backends reach their whole component by definition.
        dist = bfs_levels_table(self.topology.successor_table, removed, root)
        return int((dist >= 0).sum()), int(dist.max())

    def _intact_distances(self) -> np.ndarray:
        """Fault-free hop distances from ``R`` (either direction), cached."""
        with self._intact_lock:
            if self._intact_dist is None:
                self._intact_dist = bfs_levels_table(
                    self.topology.neighbour_table,
                    np.zeros(self.topology.num_nodes, dtype=bool),
                    self.root_code,
                )
            return self._intact_dist

    def _fallback_candidates(self, removed: np.ndarray) -> np.ndarray:
        """The paper's "neighboring node" candidates: nearest survivors, ascending."""
        alive = ~removed
        dist = self._intact_distances()
        nearest = dist[alive].min()
        return np.flatnonzero(alive & (dist == nearest))

    def _measurement_root(self, removed: np.ndarray) -> int | None:
        """The root ``R``, or the paper's "neighboring node" fallback.

        The fallback takes the surviving nodes closest to ``R`` in the
        fault-free graph (hop distance, either direction) and among those
        prefers one lying in the largest component (ties: smallest code).

        The smallest-code tie-break is a deliberate, deterministic rule; the
        historical implementation (:mod:`repro.analysis.reference`) broke
        such ties by incidental discovery order, which can pick a different
        (equally valid) root when several equally-near survivors tie on
        component size — a configuration requiring the root's necklace *and*
        all of its neighbours to die, far outside the tabulated regimes.
        """
        if not removed[self.root_code]:
            return self.root_code
        if not (~removed).any():
            return None
        candidates = self._fallback_candidates(removed)
        if candidates.size == 1:
            return int(candidates[0])
        best_root, best_size = None, -1
        succ = self.topology.successor_table
        for value in candidates.tolist():
            size = int((bfs_levels_table(succ, removed, value) >= 0).sum())
            if size > best_size:
                best_root, best_size = value, size
        return best_root

    def _fallback_stats(self, removed: np.ndarray) -> tuple[int, int]:
        """Measure a trial whose root ``R`` lies in a faulty necklace.

        Bit-for-bit the result of :meth:`measure_mask` on the same mask, but
        with the tied fallback candidates raced through ONE bit-parallel
        sweep (each candidate root in its own lane over the shared fault
        mask) instead of one scalar BFS per candidate plus a final re-sweep
        of the winner.  The scalar tie-break is preserved exactly: the
        winner is the first maximum over candidates in ascending code order.
        """
        if not (~removed).any():
            return 0, 0
        candidates = self._fallback_candidates(removed)
        if candidates.size == 1:
            return self._measure_from_root(removed, int(candidates[0]))
        best_size, best_ecc = -1, 0
        for start in range(0, candidates.size, WORD_WIDTH):
            chunk = candidates[start : start + WORD_WIDTH]
            lanes = removed.astype(np.uint64) * np.uint64(2 ** len(chunk) - 1)
            stats = self._launch(lanes, chunk, len(chunk))
            # np.argmax returns the FIRST maximum: the ascending-code strict-'>'
            # scan of _measurement_root, lane-parallel.
            i = int(np.argmax(stats.sizes))
            if int(stats.sizes[i]) > best_size:
                best_size, best_ecc = int(stats.sizes[i]), int(stats.eccs[i])
        return best_size, best_ecc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelExecutor({self.topology_key!r}, d={self.d}, n={self.n}, "
            f"root={self.root_code})"
        )


#: Bounded, observable executor cache: one entry per ``(topology, d, n, root)``
#: served.  Every layer that needs a shared executor — the sweep engine and
#: its worker processes, the embedding service (and through it the server's
#: shards) — resolves through here, so the kernel tables and scratch exist
#: once per process.
_EXECUTOR_CACHE = LRUCache(maxsize=8, name="engine.kernel_executors")
register_cache("engine.kernel_executors", _EXECUTOR_CACHE)


def cached_executor(
    d: int,
    n: int,
    root: Sequence[int] | None = None,
    topology: str = DEFAULT_TOPOLOGY,
) -> KernelExecutor:
    """The process-wide shared executor for ``(topology, d, n, root)``."""
    root_key = None if root is None else tuple(int(x) for x in root)
    key = (str(topology), int(d), int(n), root_key)
    topo = get_topology(topology, d, n)
    executor = _EXECUTOR_CACHE.get_or_create(
        key, lambda: KernelExecutor(d, n, root=root_key, topology=topo)
    )
    if executor.topology is not topo:
        # the topology LRU evicted and rebuilt the backend since: rebuild on
        # the registry's instance rather than keep a second copy of its tables
        executor = KernelExecutor(d, n, root=root_key, topology=topo)
        _EXECUTOR_CACHE.put(key, executor)
    return executor
