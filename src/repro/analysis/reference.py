"""Reference per-trial fault-sweep implementation (the pre-codec tuple path).

This module freezes the original implementation of
:func:`repro.analysis.fault_simulation.simulate_fault_row` exactly as it
stood before the integer-coded kernel
(:class:`~repro.engine.executor.KernelExecutor`) replaced it: the
faulty-necklace mask is expanded one necklace member at a time in Python,
the BFS successor/predecessor matrices are rebuilt on every sweep, the
component and the eccentricity are measured by two separate BFS passes, and
the root fallback explores the graph in tuple space.

It exists for cross-validation (the test-suite compares its rows against
:func:`~repro.analysis.fault_simulation.simulate_fault_row`'s) and as the
baseline for ``benchmarks/test_codec_speedup.py``.  Do
not use it for real sweeps — that is the whole point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..network.faults import sample_node_faults
from ..words.alphabet import Word, word_to_int
from ..words.necklaces import faulty_necklaces
from .fault_simulation import FaultSimulationRow

__all__ = ["simulate_fault_row_reference"]


def _successor_matrix_ref(d: int, n: int) -> np.ndarray:
    size = d**n
    base = (np.arange(size, dtype=np.int64) * d) % size
    return base[:, None] + np.arange(d, dtype=np.int64)[None, :]


def _predecessor_matrix_ref(d: int, n: int) -> np.ndarray:
    size = d**n
    high = d ** (n - 1)
    base = np.arange(size, dtype=np.int64) // d
    return base[:, None] + np.arange(d, dtype=np.int64)[None, :] * high


def _bfs_levels_ref(
    d: int, n: int, removed_mask: np.ndarray, root: int, direction: str
) -> np.ndarray:
    """The original BFS: matrices rebuilt per call, sort-based frontier dedup."""
    size = d**n
    matrices = []
    if direction in ("out", "both"):
        matrices.append(_successor_matrix_ref(d, n))
    if direction in ("in", "both"):
        matrices.append(_predecessor_matrix_ref(d, n))
    dist = np.full(size, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt_parts = [m[frontier].ravel() for m in matrices]
        nxt = np.unique(np.concatenate(nxt_parts)) if len(nxt_parts) > 1 else np.unique(nxt_parts[0])
        fresh = nxt[(dist[nxt] == -1) & (~removed_mask[nxt])]
        dist[fresh] = level
        frontier = fresh
    return dist


def _removed_mask_ref(d: int, n: int, faults: list[Word]) -> np.ndarray:
    """The original mask construction: Python expansion of every faulty necklace."""
    mask = np.zeros(d**n, dtype=bool)
    for nk in faulty_necklaces(faults, d):
        for member in nk.node_set:
            mask[word_to_int(member, d)] = True
    return mask


def _live_root_ref(d: int, n: int, removed_mask: np.ndarray, root_word: Word) -> int | None:
    """The original tuple-space fallback to "a neighboring node"."""
    root_int = word_to_int(root_word, d)
    if not removed_mask[root_int]:
        return root_int

    def component_size(value: int) -> int:
        dist = _bfs_levels_ref(d, n, removed_mask, value, "both")
        return int((dist >= 0).sum())

    visited = {root_word}
    frontier = [root_word]
    while frontier:
        nxt: list[Word] = []
        alive_here: list[int] = []
        for node in frontier:
            neighbours = [node[1:] + (a,) for a in range(d)] + [(a,) + node[:-1] for a in range(d)]
            for candidate in sorted(neighbours):
                if candidate in visited:
                    continue
                visited.add(candidate)
                value = word_to_int(candidate, d)
                if not removed_mask[value]:
                    alive_here.append(value)
                else:
                    nxt.append(candidate)
        if alive_here:
            return max(alive_here, key=component_size)
        frontier = nxt
    return None


def simulate_fault_row_reference(
    d: int,
    n: int,
    f: int,
    trials: int = 200,
    rng: np.random.Generator | None = None,
    root: Sequence[int] | None = None,
) -> FaultSimulationRow:
    """One table row via the original per-trial tuple pipeline."""
    if trials < 1:
        raise InvalidParameterError("at least one trial is required")
    if rng is None:
        rng = np.random.default_rng(0)
    # the paper's R = 0...01 unless another root is given
    root_word = (0,) * (n - 1) + (1,) if root is None else tuple(int(x) for x in root)
    sizes: list[int] = []
    eccs: list[int] = []
    for _ in range(trials):
        faults = sample_node_faults(d, n, f, rng)
        mask = _removed_mask_ref(d, n, faults)
        measure_root = _live_root_ref(d, n, mask, root_word)
        if measure_root is None:
            sizes.append(0)
            eccs.append(0)
            continue
        comp = _bfs_levels_ref(d, n, mask, measure_root, "both") >= 0
        out_dist = _bfs_levels_ref(d, n, mask, measure_root, "out")
        sizes.append(int(comp.sum()))
        eccs.append(int(out_dist[out_dist >= 0].max()))
    return FaultSimulationRow(
        f=f,
        trials=trials,
        avg_size=float(np.mean(sizes)),
        max_size=int(np.max(sizes)),
        min_size=int(np.min(sizes)),
        reference_size=d**n - n * f,
        avg_ecc=float(np.mean(eccs)),
        max_ecc=int(np.max(eccs)),
        min_ecc=int(np.min(eccs)),
    )
