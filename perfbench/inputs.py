"""Seeded workload inputs.

Everything the program under test receives is generated here from the run's
``--seed`` with numpy alone: the same seed gives byte-identical request
bodies.  A fault set is a list of distinct node codes of ``B(d, n)``; on the
wire each node is its base-``d`` digit word, most significant digit first.
"""

from __future__ import annotations

import json

import numpy as np

#: The serving graph of the HTTP workloads: B(2, 14), 16384 nodes.
D, N = 2, 14
#: Faults per request are uniform in 1..MAX_FAULTS.
MAX_FAULTS = 8
#: The measure-hot pool is 4x the gateway's default 256-entry answer LRU.
HOT_POOL = 1024
ZIPF_S = 1.1


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per ``(seed, stream...)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=stream))


def word(code: int, d: int = D, n: int = N) -> list[int]:
    return [(int(code) // d ** (n - 1 - i)) % d for i in range(n)]


def fault_set(rng: np.random.Generator, d: int = D, n: int = N) -> list[int]:
    f = int(rng.integers(1, MAX_FAULTS + 1))
    return [int(c) for c in rng.choice(d**n, size=f, replace=False)]


def rotate(code: int, r: int, d: int = D, n: int = N) -> int:
    """The code of ``word(code)`` rotated left by ``r`` (same necklace)."""
    high = d ** (n - r)
    return (code % high) * d**r + code // high


def measure_body(codes: list[int]) -> bytes:
    return json.dumps(
        {"topology": "debruijn", "d": D, "n": N, "faults": [word(c) for c in codes]}
    ).encode()


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> list[float]:
    """Arrival offsets (s) of a Poisson process of ``rate``/s over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    times = np.cumsum(gaps)
    return times[times < seconds].tolist()


class MeasureStream:
    """The fault sets of ``measure-cold`` (all distinct) or ``measure-hot``.

    ``measure-hot`` draws Zipf(s=1.1) ranks over a seeded pool of 1024 fault
    sets and sends every fault word under a fresh random rotation, so only
    the server's necklace normalisation turns a repeat into a cache hit.
    """

    def __init__(self, seed: int, hot: bool) -> None:
        self.hot = hot
        self.seed = seed
        if hot:
            pool_rng = rng_for(seed, 0)
            self.pool = [fault_set(pool_rng) for _ in range(HOT_POOL)]
            weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_S
            self.weights = weights / weights.sum()

    def draw(self, stream: int, count: int) -> list[list[int]]:
        """``count`` fault sets of sub-stream ``stream``."""
        rng = rng_for(self.seed, 1, stream)
        if not self.hot:
            return [fault_set(rng) for _ in range(count)]
        ranks = rng.choice(HOT_POOL, size=count, p=self.weights)
        rotations = rng.integers(0, N, size=(count, MAX_FAULTS))
        return [
            [rotate(c, int(r)) for c, r in zip(self.pool[k], rotations[i])]
            for i, k in enumerate(ranks.tolist())
        ]
