"""Answer checks, run after the timed window.

* ``/measure`` answers are compared with a scalar
  ``KernelExecutor.measure_mask_with_root`` on the same fault mask, computed
  in this process;
* ``/embed`` and ``/churn`` rings are checked structurally: every
  consecutive pair (and the closing pair) is a ``B(d, n)`` edge, no node
  repeats, no node lies in a faulty necklace, and the length equals
  ``build_bstar(...).size``;
* sweep rows are compared with the scalar path (``batch=1``).

Necklace representatives are computed here independently of the program
(the least rotation of the code), so a normalisation bug cannot hide itself.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import D, N, word


def necklace_reps(codes, d: int = D, n: int = N) -> np.ndarray:
    """The least rotation of every code (the canonical necklace member)."""
    codes = np.asarray(codes, dtype=np.int64)
    best = codes.copy()
    cur = codes.copy()
    high = d ** (n - 1)
    for _ in range(n - 1):
        cur = (cur % high) * d + cur // high
        np.minimum(best, cur, out=best)
    return best


class MeasureChecker:
    """Expected ``/measure`` answers on ``B(2, 14)``, memoised by necklace set."""

    def __init__(self) -> None:
        from repro.engine.executor import KernelExecutor

        self.executor = KernelExecutor(D, N)
        self.topology = self.executor.topology
        self._memo: dict[tuple[int, ...], tuple] = {}

    def expected(self, codes: list[int]) -> tuple:
        """``(region_size, root_eccentricity, root word, fault_units)``."""
        reps = tuple(sorted(set(necklace_reps(codes).tolist())))
        if reps not in self._memo:
            mask = self.topology.fault_unit_mask(np.asarray(codes, dtype=np.int64))
            size, ecc, root = self.executor.measure_mask_with_root(mask)
            self._memo[reps] = (
                int(size), int(ecc), None if root is None else word(root),
                [word(r) for r in reps],
            )
        return self._memo[reps]

    def check(self, codes: list[int], body: bytes) -> str | None:
        """``None`` when the reply is right, otherwise what is wrong."""
        try:
            got = json.loads(body)
            answer = (got["region_size"], got["root_eccentricity"], got["root"],
                      got["fault_units"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable reply: {exc!r}"
        want = self.expected(codes)
        return None if answer == want else f"got {answer[:3]}, want {want[:3]}"


class RingChecker:
    """Structural checks of fault-free rings of ``B(d, n)``."""

    def __init__(self, d: int = D, n: int = N) -> None:
        self.d, self.n = d, n
        self._powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._bstar_size: dict[tuple[int, ...], int] = {}

    def bstar_size(self, codes: list[int]) -> int:
        from repro.core.necklace_graph import build_bstar

        reps = tuple(sorted(set(necklace_reps(codes, self.d, self.n).tolist())))
        if reps not in self._bstar_size:
            faults = [word(c, self.d, self.n) for c in codes]
            self._bstar_size[reps] = build_bstar(self.d, self.n, faults).size
        return self._bstar_size[reps]

    def check(self, codes: list[int], body: bytes) -> str | None:
        try:
            got = json.loads(body)
            cycle = np.asarray(got["cycle"], dtype=np.int64)
            length = int(got["length"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable reply: {exc!r}"
        if cycle.ndim != 2 or cycle.shape[1] != self.n or len(cycle) != length:
            return f"cycle has shape {cycle.shape}, length field {length}"
        ring = cycle @ self._powers
        nxt = np.roll(ring, -1)
        if not np.all(nxt // self.d == ring % self.d ** (self.n - 1)):
            return "consecutive ring nodes are not joined by an edge"
        if np.unique(ring).size != len(ring):
            return "ring visits a node twice"
        faulty = necklace_reps(codes, self.d, self.n) if codes else np.empty(0, np.int64)
        if np.isin(necklace_reps(ring, self.d, self.n), faulty).any():
            return "ring visits a faulty necklace"
        want = self.bstar_size(codes)
        return None if len(ring) == want else f"ring length {len(ring)}, B* has {want}"


def check_sweep_row(d: int, n: int, f: int, seed: int, trials: int, row) -> str | None:
    """Compare one timed row with the scalar path on the same trial streams."""
    from repro.engine.sweep import ParallelSweepEngine

    (want,) = ParallelSweepEngine(d, n, workers=1, batch=1).run(
        fault_counts=(f,), trials=trials, seed=seed
    )
    return None if row == want else f"B({d},{n}) f={f} seed={seed}: {row} != {want}"
