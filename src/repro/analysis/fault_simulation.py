"""Random-fault simulations reproducing Tables 2.1 and 2.2 (Section 2.5.2).

The paper's procedure: fix a source node ``R`` (``0...01``); for each fault
count ``f`` draw ``f`` faulty processors uniformly at random, remove every
necklace containing one, and record (a) the size of the component containing
``R`` — the length of the fault-free cycle the FFC algorithm would return —
and (b) the eccentricity of ``R`` within that component — the number of
broadcast steps of FFC Step 1.1.  If ``R`` itself lands in a faulty necklace
a neighbouring node is used instead.  Averages, maxima and minima over many
trials give one table row per ``f``, alongside the analytic reference
``d**n - n*f``.

The heavy lifting is done by the shared
:class:`~repro.engine.executor.KernelExecutor`; this module holds only the
row/table conventions of the reproduction.  Both are **topology-generic**:
they drive any backend of the :mod:`repro.topology` registry (``debruijn``
— the default and the compatibility anchor — ``kautz``, ``hypercube``,
``shuffle_exchange``, ``undirected_debruijn``) through the protocol's
precomputed gather tables, built once and reused across every trial of
every row:

* the removed-node mask is the backend's vectorized fault-unit closure
  (one ``isin`` over the necklace-representative table for the De Bruijn
  family, a plain scatter for single-node-unit topologies) instead of a
  Python walk per unit;
* ONE directed BFS from the measurement root yields both the size of the
  root's fault-free broadcast region and the root eccentricity.  For the
  De Bruijn graph removing whole necklaces keeps the digraph *balanced*
  (Section 2.5), so that region IS the component containing ``R`` — the
  paper's measurement, exactly; for undirected backends the same holds
  trivially;
* the per-trial statistics are accumulated into numpy arrays.

On top of the per-trial machinery sits the bit-parallel batch path
(:meth:`~repro.engine.executor.KernelExecutor.run_trials_batch`): up to 64
trials of one table row are packed into ``uint64`` lanes — one bit per trial
per node — and a single multi-trial BFS (:mod:`repro.graphs.msbfs`) measures
the whole batch with ``d`` gathers per level instead of one full BFS per
trial.  Fault
*sampling* stays strictly per-trial (each trial consumes only its own
seeded stream, via the vectorized :func:`repro.network.faults.sample_node_fault_codes`),
and trials whose root lands in a faulty necklace are peeled onto the scalar
fallback, so batched rows are bit-for-bit identical to scalar rows — the
batching only changes how fast the measurements happen (~10x single-process
on ``B(2, 12)``, pinned by ``benchmarks/test_msbfs.py``).

This is what lets ``simulate_fault_table`` scale from the paper's
``d**n ≈ 1024`` graphs to ``B(4, 10)`` with ~10^6 nodes.  The original
per-trial tuple implementation is preserved in
:mod:`repro.analysis.reference` for cross-validation and benchmarking.

Orchestration lives one layer up: ``simulate_fault_table`` routes through
:class:`repro.engine.sweep.ParallelSweepEngine`, which derives one random
stream per trial from ``numpy.random.SeedSequence(seed)`` — making rows
bit-for-bit identical for any worker count and *any* batch size
(``batch=1`` is the scalar escape hatch), and resumable from JSON
checkpoints.  ``simulate_fault_row`` with an explicit ``rng`` keeps the
older convention of threading one generator sequentially through
the trials; the frozen reference implementation shares that convention, so
the equivalence benchmarks keep comparing like with like.

The paper does not state its trial count; the default here is 200 trials per
row, configurable, with a seeded generator so every run is reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..engine.executor import cached_executor
from ..exceptions import InvalidParameterError
from ..graphs.msbfs import WORD_WIDTH
from ..topology import DEFAULT_TOPOLOGY

__all__ = [
    "FaultSimulationRow",
    "simulate_fault_row",
    "simulate_fault_table",
    "PAPER_FAULT_COUNTS",
]

#: The fault counts tabulated by the paper: 0..10 then 20, 30, 40, 50.
PAPER_FAULT_COUNTS: tuple[int, ...] = tuple(range(11)) + (20, 30, 40, 50)


@dataclass(frozen=True)
class FaultSimulationRow:
    """One row of Table 2.1/2.2: statistics over random fault sets for a fixed ``f``."""

    f: int
    trials: int
    avg_size: float
    max_size: int
    min_size: int
    reference_size: int  # d**n - n*f, the paper's analytic column
    avg_ecc: float
    max_ecc: int
    min_ecc: int

    def as_tuple(self) -> tuple:
        return (
            self.f,
            round(self.avg_size, 2),
            self.max_size,
            self.min_size,
            self.reference_size,
            round(self.avg_ecc, 2),
            self.max_ecc,
            self.min_ecc,
        )

    @classmethod
    def from_samples(
        cls,
        d: int,
        n: int,
        f: int,
        sizes: np.ndarray,
        eccs: np.ndarray,
        reference_size: int | None = None,
    ) -> "FaultSimulationRow":
        """Build a row from per-trial samples (the one place the statistics live).

        Both the legacy sequential :func:`simulate_fault_row` and the
        engine's :class:`~repro.engine.sweep.ParallelSweepEngine` aggregate
        through here, so their row statistics can never diverge.
        ``reference_size`` is the topology's analytic column
        (:meth:`repro.topology.base.Topology.reference_size`); omitted, it
        defaults to the paper's De Bruijn ``d**n - n*f``.
        """
        return cls(
            f=f,
            trials=len(sizes),
            avg_size=float(sizes.mean()),
            max_size=int(sizes.max()),
            min_size=int(sizes.min()),
            reference_size=d**n - n * f if reference_size is None else int(reference_size),
            avg_ecc=float(eccs.mean()),
            max_ecc=int(eccs.max()),
            min_ecc=int(eccs.min()),
        )


def simulate_fault_row(
    d: int,
    n: int,
    f: int,
    trials: int = 200,
    rng: np.random.Generator | None = None,
    root: Sequence[int] | None = None,
    topology: str = DEFAULT_TOPOLOGY,
) -> FaultSimulationRow:
    """Simulate one table row: ``trials`` random fault sets of size ``f``.

    Follows the paper's measurement protocol exactly, including the fallback
    to a neighbouring root when ``R`` falls inside a faulty unit.  The trials
    run one after another on the shared executor of ``(topology, d, n)``
    from the encoded ``root``, all drawing from the one generator ``rng``
    (default: seed 0) —
    the sequential convention of the frozen reference implementation.
    ``topology`` selects any registered backend (default: the paper's De
    Bruijn graph).
    """
    if trials < 1:
        raise InvalidParameterError("at least one trial is required")
    if rng is None:
        rng = np.random.default_rng(0)
    executor = cached_executor(d, n, topology)
    root_code = None if root is None else executor.topology.encode(tuple(root))
    sizes = np.empty(trials, dtype=np.int64)
    eccs = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        sizes[t], eccs[t] = executor.run_trial(f, rng, root_code)
    return FaultSimulationRow.from_samples(
        executor.d, executor.n, f, sizes, eccs,
        reference_size=executor.topology.reference_size(f),
    )


def simulate_fault_table(
    d: int,
    n: int,
    fault_counts: Iterable[int] = PAPER_FAULT_COUNTS,
    trials: int = 200,
    seed: int = 0,
    root: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    progress: Callable | None = None,
    batch: int = WORD_WIDTH,
    topology: str = DEFAULT_TOPOLOGY,
) -> list[FaultSimulationRow]:
    """Simulate a full table (Table 2.1 with ``d=2, n=10``; Table 2.2 with ``d=4, n=5``).

    Routed through :class:`repro.engine.sweep.ParallelSweepEngine`: the
    random stream of trial ``t`` of row ``r`` is derived from
    ``SeedSequence(seed)`` by spawn index, so the rows are bit-for-bit
    identical whether run inline (``workers=None``, the default), in a
    1-worker pool or across ``workers > 1`` processes.  ``checkpoint_path``
    enables JSON checkpoint/resume for long sweeps and ``progress`` receives
    a :class:`~repro.engine.sweep.SweepProgress` per completed batch.
    ``batch`` sets how many trials each bit-parallel kernel call measures at
    once (default: the full 64-trial word width; ``batch=1`` is the scalar
    escape hatch — every setting produces identical rows).  ``topology``
    selects any registered backend (``kautz``, ``hypercube``,
    ``shuffle_exchange``, ...); the default stays the paper's De Bruijn
    graph, whose rows are bit-for-bit those of the pre-registry engine.
    """
    from ..engine.sweep import ParallelSweepEngine

    engine = ParallelSweepEngine(
        d,
        n,
        root=root,
        workers=workers,
        checkpoint_path=checkpoint_path,
        progress=progress,
        batch=batch,
        topology=topology,
    )
    return engine.run(fault_counts=fault_counts, trials=trials, seed=seed)
