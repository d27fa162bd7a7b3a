"""Parallel, resumable orchestration of the Table 2.1/2.2-style fault sweeps.

:class:`ParallelSweepEngine` is the single orchestration path for the
random-fault simulations of Section 2.5.2: the public
:func:`repro.analysis.fault_simulation.simulate_fault_table`, the
``python -m repro sweep`` CLI and the table benchmarks all route through it.
The engine is topology-generic — ``topology="kautz"`` (or any other key of
the :mod:`repro.topology` registry) sweeps that backend with the same seed
streams, sharding, batching and checkpointing; the default ``debruijn``
backend reproduces the paper's tables bit-for-bit.

The engine's contract is **bit-for-bit determinism independent of worker
count**: a serial run, a 1-worker pool and an N-worker pool all produce
identical rows for the same ``(d, n, root, fault_counts, trials, seed)``.
That holds because the random stream is defined *per trial*, not per
process: trial ``t`` of the row with fault count ``f`` always draws from

``numpy.random.default_rng(SeedSequence(seed, spawn_key=(f, t)))``

— the child that ``SeedSequence(seed).spawn(f + 1)[f].spawn(t + 1)[t]``
would produce, computed row-wide by :func:`~repro.network.faults.trial_pools`
and :func:`~repro.network.faults.sample_pool_codes` — so neither the
assignment of trials to workers, the order in which shards finish, nor how
trials are grouped into bit-parallel measurement batches can change any
sample.  Rows are measured up to 64 trials per BFS sweep
(:mod:`repro.graphs.msbfs`); ``batch=1`` falls back to the scalar per-trial
path with, again, identical results.
Keying the spawn tree by *fault count* rather than row position has a
second dividend: a row's stream is independent of which other rows are
swept, so ``fault_counts=(5,)`` alone reproduces the ``f=5`` row of a full
table exactly.  (All of this replaces the pre-engine scheme of one
generator threaded sequentially through every trial, which no parallel
execution could reproduce; the sequential scheme survives unchanged in
:func:`~repro.analysis.fault_simulation.simulate_fault_row` for the
frozen-reference comparisons.)

Long sweeps — ``B(4, 10)`` has ~10^6 processors — additionally get JSON
checkpointing: completed trials are flushed to disk every
``checkpoint_every`` results (and always on the way out, even through an
exception), and a rerun with the same ``(d, n, root, seed)`` resumes from
the file and returns rows identical to an uninterrupted run — even when the
rerun adds fault counts or grows the trial count, since every stream is
keyed by ``(seed, f, t)`` alone.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    InvalidParameterError,
)
from ..graphs.msbfs import WORD_WIDTH
from ..obs import DEFAULT_REGISTRY
from ..topology import DEFAULT_TOPOLOGY, get_topology
from ..words.alphabet import integers
from ..analysis.fault_simulation import PAPER_FAULT_COUNTS, FaultSimulationRow
from .executor import cached_executor

__all__ = [
    "ParallelSweepEngine",
    "SweepProgress",
    "trial_seed_sequences",
]

#: Process-wide sweep telemetry (counted in the orchestrating process, so
#: multiprocess shards report through their parent).
_SWEEP_TRIALS = DEFAULT_REGISTRY.counter(
    "repro_sweep_trials_total",
    "Fault-sweep trials measured",
    labelnames=("topology",),
)

#: Target shards per worker per row: small enough to amortise dispatch,
#: large enough that a slow shard cannot leave the pool idle for long.
_SHARDS_PER_WORKER = 4


def trial_seed_sequences(
    seed: int, fault_counts: Sequence[int], trials: int
) -> list[list[np.random.SeedSequence]]:
    """The canonical per-trial seed tree: ``seeds[row][trial]``.

    Trial ``t`` of the row with fault count ``f`` gets the spawn-tree child
    ``SeedSequence(seed, spawn_key=(f, t))`` — exactly the grandchild that
    ``SeedSequence(seed).spawn(...)`` indexing by ``f`` then ``t`` yields,
    constructed directly.  Every execution mode derives its generators from
    this same tree, which is what makes worker count irrelevant to the
    results; keying by ``f`` makes each row's stream independent of which
    other rows are swept.
    """
    return [
        [np.random.SeedSequence(seed, spawn_key=(int(f), t)) for t in range(trials)]
        for f in fault_counts
    ]


@dataclass(frozen=True)
class SweepProgress:
    """Progress snapshot handed to the engine's callback after each batch.

    The telemetry fields (defaulted, so pre-observability constructors keep
    working) describe *this run*: resumed trials from a checkpoint count
    toward ``done_trials`` but not toward the throughput estimate.
    """

    done_trials: int
    total_trials: int
    f: int  # fault count of the batch that just completed
    elapsed_s: float = 0.0  # wall time since run() started executing
    trials_per_s: float = 0.0  # throughput over trials measured this run
    eta_s: float = 0.0  # projected seconds until the sweep completes
    checkpoint_lag: int = 0  # trials completed but not yet flushed to disk
    workers: int = 1  # processes measuring (1 = inline)

    @property
    def fraction(self) -> float:
        return self.done_trials / self.total_trials if self.total_trials else 1.0


def _run_shard(
    payload: tuple,
) -> tuple[int, list[tuple[int, int, int]]]:
    """Worker entry point: run one shard of trials for one fault count.

    ``payload`` is ``(topology, d, n, root_code, f, seed, trials, batch)``
    with ``trials`` the shard's trial indices of the row ``(seed, f)``.  The
    per-process executor is shared across shards via the bounded executor
    cache, so backend tables are built once per worker regardless of shard
    count; the batch-vs-scalar dispatch lives in
    :meth:`~repro.engine.executor.KernelExecutor.measure_chunk`.
    """
    topology, d, n, root_code, f, seed, trials, batch = payload
    executor = cached_executor(d, n, topology)
    return f, executor.measure_chunk(f, seed, trials, batch, root_code)


class _Checkpoint:
    """Atomic JSON checkpoint of a sweep's completed trials.

    Entries are keyed ``completed[f][trial]`` — by fault count, matching the
    seed tree — so a checkpoint remains valid when the swept fault counts
    *or* the trial count change: every trial stream depends only on
    ``(seed, f, t)``, so shared ``(f, t)`` pairs are reused and only the
    missing ones are computed.  The header ``(topology, d, n, root, seed)``
    — everything the trial streams and the measured graph depend on — *is*
    validated on load; a mismatch raises
    :class:`~repro.exceptions.CheckpointMismatchError` instead of silently
    aggregating rows of a different table.  (The swept fault counts and the
    trial count are recorded for provenance only — see above.)  Files
    written before the topology registry carry no ``topology`` field and are
    read as ``debruijn``, the only backend that existed then, so old
    checkpoints keep resuming.
    """

    VERSION = 1

    def __init__(self, path: str, header: dict, info: dict | None = None) -> None:
        self.path = path
        self.header = header
        #: written for provenance, never validated (see the class docstring)
        self.info = info or {}

    def load_completed(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Return ``(f, trial) -> (size, ecc)`` from disk, validating the header.

        An unparseable or structurally broken file (truncated write, disk
        corruption, concurrent scribbling) raises
        :class:`~repro.exceptions.CheckpointCorruptionError` naming the path
        and the ``--fresh`` escape hatch, instead of surfacing a raw
        ``JSONDecodeError`` stack.
        """
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptionError(self.path, f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CheckpointCorruptionError(
                self.path, f"expected a JSON object, found {type(data).__name__}"
            )
        # pre-registry checkpoints (PR 3 format) predate the topology field
        # and were all De Bruijn sweeps
        stored = {"topology": data.get("topology", DEFAULT_TOPOLOGY)}
        stored.update({k: data.get(k) for k in self.header if k != "topology"})
        if stored != self.header:
            raise CheckpointMismatchError(self.path, stored, self.header)
        completed: dict[tuple[int, int], tuple[int, int]] = {}
        try:
            for f_key, trials in data.get("completed", {}).items():
                for trial_key, (size, ecc) in trials.items():
                    completed[(int(f_key), int(trial_key))] = (int(size), int(ecc))
        except (AttributeError, TypeError, ValueError) as exc:
            raise CheckpointCorruptionError(
                self.path, f"malformed completed-trials table: {exc}"
            ) from exc
        return completed

    def save(self, completed: dict[tuple[int, int], tuple[int, int]]) -> None:
        """Write the checkpoint atomically (tmp file + rename)."""
        nested: dict[str, dict[str, list[int]]] = {}
        for (f, t), (size, ecc) in completed.items():
            nested.setdefault(str(f), {})[str(t)] = [size, ecc]
        data = dict(self.header)
        data.update(self.info)
        data["version"] = self.VERSION
        data["completed"] = nested
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            os.replace(tmp_path, self.path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


class ParallelSweepEngine:
    """Sharded, checkpointed executor for random-fault table sweeps.

    Parameters
    ----------
    d, n:
        Parameters of the swept graph, interpreted by the topology backend
        (``B(d, n)`` for the default ``debruijn``; the hypercube reads the
        dimension from ``n`` and requires ``d = 2``).
    root:
        Optional measurement root word (default: the backend's analog of
        the paper's ``0...01``).
    workers:
        ``None``, ``0`` or ``1`` runs inline in this process; ``N > 1``
        dispatches shards to a :class:`~concurrent.futures.ProcessPoolExecutor`
        of ``N`` processes.  The results are identical either way.
    checkpoint_path:
        Optional JSON file for checkpoint/resume.  Completed trials are
        flushed every ``checkpoint_every`` results and on every exit path;
        a rerun with the same ``(d, n, root, seed)`` resumes from the file —
        including reruns that add fault counts or grow the trial count,
        which recompute only the missing ``(f, trial)`` pairs.
    checkpoint_every:
        Flush cadence, in completed trials (only meaningful with a
        checkpoint path).
    progress:
        Optional callable receiving a :class:`SweepProgress` after every
        completed trial (serial) or shard (parallel).
    batch:
        Trials measured per bit-parallel kernel call (1..64, default 64):
        each call packs up to ``batch`` trials of one row into uint64 lanes
        and sweeps them with a single multi-trial BFS
        (:mod:`repro.graphs.msbfs`).  ``batch=1`` is the scalar escape
        hatch.  Results are bit-for-bit identical for every setting — only
        the wall-clock changes.
    topology:
        Registry key of the swept network (default ``"debruijn"`` — the
        compatibility anchor whose rows are bit-for-bit the pre-registry
        engine's).  Any key of :mod:`repro.topology` works: the per-trial
        seed streams, sharding, batching and checkpointing are identical
        machinery for every backend; checkpoints are keyed by the topology
        name.  A custom backend is swept by registering it
        (:func:`repro.topology.register_topology`) and passing its key, which
        is also how worker processes resolve it.
    """

    def __init__(
        self,
        d: int,
        n: int,
        root: Sequence[int] | None = None,
        workers: int | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 64,
        progress: Callable[[SweepProgress], None] | None = None,
        batch: int = WORD_WIDTH,
        topology: str = DEFAULT_TOPOLOGY,
    ) -> None:
        self.d, self.n = integers((d, n), "d and n")
        self.root = None if root is None else tuple(int(x) for x in root)
        # resolve eagerly: validates the key and the (d, n) interpretation,
        # and provides the reference column for aggregation (tables stay
        # lazy, so this is cheap even in the multiprocess parent)
        self._topology = get_topology(topology, self.d, self.n)
        self.topology = str(topology)
        self._root_code = None if self.root is None else self._topology.encode(self.root)
        if workers is not None and workers < 0:
            raise InvalidParameterError(f"workers must be >= 0, got {workers}")
        if checkpoint_every < 1:
            raise InvalidParameterError("checkpoint_every must be >= 1")
        if not 1 <= batch <= WORD_WIDTH:
            raise InvalidParameterError(
                f"batch must be in 1..{WORD_WIDTH} (the kernel word width), got {batch}"
            )
        self.workers = int(workers) if workers else 0
        self.checkpoint_path = None if checkpoint_path is None else os.fspath(checkpoint_path)
        self.checkpoint_every = int(checkpoint_every)
        self.progress = progress
        self.batch = int(batch)
        self._obs_trials = _SWEEP_TRIALS.labels(self.topology)
        self._run_started = 0.0
        self._run_initial_done = 0

    # -- public entry point ---------------------------------------------------
    def run(
        self,
        fault_counts: Iterable[int] = PAPER_FAULT_COUNTS,
        trials: int = 200,
        seed: int = 0,
        resume: bool = True,
    ) -> list[FaultSimulationRow]:
        """Run (or resume) the sweep and return one row per fault count."""
        rows = [int(f) for f in fault_counts]
        if not rows:
            return []
        if any(f < 0 for f in rows):
            raise InvalidParameterError("fault counts must be >= 0")
        if trials < 1:
            raise InvalidParameterError("at least one trial is required")
        (seed,) = integers((seed,), "seed")
        if seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {seed}")

        checkpoint = self._checkpoint(rows, trials, seed)
        completed: dict[tuple[int, int], tuple[int, int]] = {}
        if checkpoint is not None and resume:
            completed = checkpoint.load_completed()

        # the missing trial indices of each row, in ascending order
        pending = {
            f: [t for t in range(trials) if (f, t) not in completed]
            for f in dict.fromkeys(rows)
        }
        total = len(pending) * trials
        todo = sum(map(len, pending.values()))

        if todo:
            self._run_started = time.perf_counter()
            self._run_initial_done = total - todo
            try:
                if self.workers > 1:
                    self._run_parallel(seed, pending, completed, total, checkpoint)
                else:
                    self._run_serial(seed, pending, completed, total, checkpoint)
            finally:
                # Flush whatever finished, even on the way out through an
                # exception/interrupt — that is what makes resume exact.
                if checkpoint is not None:
                    checkpoint.save(completed)

        return self._aggregate(rows, trials, completed)

    # -- execution modes ------------------------------------------------------
    def _run_serial(
        self,
        seed: int,
        pending: dict[int, list[int]],
        completed: dict[tuple[int, int], tuple[int, int]],
        total: int,
        checkpoint: _Checkpoint | None,
    ) -> None:
        executor = cached_executor(self.d, self.n, self.topology)
        done = self._run_initial_done
        since_flush = 0
        for f, ts in pending.items():
            for start in range(0, len(ts), self.batch):
                part = ts[start : start + self.batch]
                results = executor.measure_chunk(f, seed, part, self.batch, self._root_code)
                for t, size, ecc in results:
                    completed[(f, t)] = (size, ecc)
                self._obs_trials.inc(len(results))
                since_flush += len(results)
                if checkpoint is not None and since_flush >= self.checkpoint_every:
                    checkpoint.save(completed)
                    since_flush = 0
                # one callback per trial, as in the scalar engine, so
                # progress consumers see the same cadence at any batch size
                for _ in results:
                    done += 1
                    self._report(done, total, f, lag=since_flush)

    def _run_parallel(
        self,
        seed: int,
        pending: dict[int, list[int]],
        completed: dict[tuple[int, int], tuple[int, int]],
        total: int,
        checkpoint: _Checkpoint | None,
    ) -> None:
        shards = []
        for f, ts in pending.items():
            shard_size = max(1, math.ceil(len(ts) / (self.workers * _SHARDS_PER_WORKER)))
            if self.batch > 1:
                # align shards to batch boundaries so the kernel runs full
                # 64-trial words wherever possible
                shard_size = math.ceil(shard_size / self.batch) * self.batch
            for start in range(0, len(ts), shard_size):
                part = ts[start : start + shard_size]
                shards.append(
                    (self.topology, self.d, self.n, self._root_code, f, seed, part,
                     self.batch)
                )

        done = self._run_initial_done
        since_flush = 0
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(_run_shard, shard) for shard in shards}
            while futures:
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    f, results = future.result()
                    for t, size, ecc in results:
                        completed[(f, t)] = (size, ecc)
                    self._obs_trials.inc(len(results))
                    done += len(results)
                    since_flush += len(results)
                    if checkpoint is not None and since_flush >= self.checkpoint_every:
                        checkpoint.save(completed)
                        since_flush = 0
                    self._report(done, total, f, lag=since_flush)

    # -- helpers --------------------------------------------------------------
    def _checkpoint(self, rows: Sequence[int], trials: int, seed: int) -> _Checkpoint | None:
        if self.checkpoint_path is None:
            return None
        # The header pins everything the trial streams depend on.  The swept
        # fault counts and the trial count are deliberately NOT validated:
        # every stream is keyed by (seed, f, t) alone, so a checkpoint stays
        # reusable when rows are added or the trial count grows.
        header = {
            "topology": self.topology,
            "d": self.d,
            "n": self.n,
            "root": None if self.root is None else list(self.root),
            "seed": int(seed),
        }
        info = {"trials": int(trials), "fault_counts": list(rows)}
        return _Checkpoint(self.checkpoint_path, header, info)

    def _report(self, done: int, total: int, f: int, lag: int = 0) -> None:
        if self.progress is None:
            return
        elapsed = time.perf_counter() - self._run_started
        measured = done - self._run_initial_done
        rate = measured / elapsed if elapsed > 0 else 0.0
        self.progress(
            SweepProgress(
                done_trials=done,
                total_trials=total,
                f=f,
                elapsed_s=elapsed,
                trials_per_s=rate,
                eta_s=(total - done) / rate if rate > 0 else 0.0,
                checkpoint_lag=lag if self.checkpoint_path is not None else 0,
                workers=self.workers if self.workers > 1 else 1,
            )
        )

    def _aggregate(
        self,
        rows: Sequence[int],
        trials: int,
        completed: dict[tuple[int, int], tuple[int, int]],
    ) -> list[FaultSimulationRow]:
        out: list[FaultSimulationRow] = []
        for f in rows:
            sizes = np.empty(trials, dtype=np.int64)
            eccs = np.empty(trials, dtype=np.int64)
            for t in range(trials):
                sizes[t], eccs[t] = completed[(f, t)]
            out.append(
                FaultSimulationRow.from_samples(
                    self.d, self.n, f, sizes, eccs,
                    reference_size=self._topology.reference_size(f),
                )
            )
        return out
