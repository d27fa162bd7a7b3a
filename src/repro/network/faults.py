"""Random fault injection for the simulations of Section 2.5.2.

The paper's Tables 2.1 and 2.2 are produced by repeatedly drawing ``f``
faulty processors uniformly at random; this module centralises that sampling
(seeded ``numpy`` generators, so every experiment in the benchmark harness is
reproducible) and the equivalent sampling of faulty links for the Chapter 3
experiments.

The node sampler is vectorized with an exact determinism contract: the
rejection sampling that historically drew one value at a time now draws one
*chunk* per round (chunk size = faults still needed), which consumes the
generator stream value-for-value identically — same accepted codes, same
draw count, same generator state afterwards.  Seeded sweeps, the legacy
sequential-rng rows and resumed PR-2-era checkpoints therefore all remain
bit-for-bit reproducible, while the hot path gets whole-batch draws and
never round-trips through the tuple encoding
(:func:`sample_node_fault_codes`); tuples stay the public boundary of
:func:`sample_node_faults`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, int_to_word, word_to_int

__all__ = [
    "sample_node_faults",
    "sample_node_fault_codes",
    "sample_fault_codes",
    "sample_fault_code_batch",
    "sample_code_batch",
    "sample_edge_faults",
]


def _require_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalise the ``rng`` argument: a Generator, or an explicit seed.

    ``None`` is rejected.  Historically these samplers fell back to an
    *unseeded* ``np.random.default_rng()``, which silently broke the
    package-wide determinism contract (every stream descends from an
    explicit seed) for any caller that forgot to pass one — the exact
    failure mode the REP002 lint rule now guards against.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise InvalidParameterError(
        "fault sampling requires an explicit np.random.Generator or integer "
        "seed (rng=None would draw from an unseeded, irreproducible stream)"
    )


def sample_fault_codes(
    total: int,
    f: int,
    rng: np.random.Generator | int | None = None,
    exclude_codes: Sequence[int] = (),
) -> list[int]:
    """Draw ``f`` distinct faulty codes from ``range(total)``, in acceptance order.

    The topology-generic core of :func:`sample_node_fault_codes` (``total``
    is the backend's node count — ``d**n`` in the De Bruijn case, so the
    consumed stream is unchanged): uniform rejection sampling, drawing one
    chunk of ``f - got`` values per generator call.  In the final round
    every remaining draw is accepted (a round of ``r`` draws yields ``r``
    accepts only if none is rejected), so the stream consumption matches the
    one-value-at-a-time loop *exactly* — accepted codes and the generator's
    final state are identical, which is what keeps sequentially-threaded
    generators (the frozen-reference rows) and per-trial streams
    reproducible alike.
    """
    rng = _require_rng(rng)
    total = int(total)
    rejected = set(int(c) for c in exclude_codes)
    if f < 0 or f > total - len(rejected):
        raise InvalidParameterError(f"cannot place {f} faults among {total} nodes")
    if f == 0:
        return []
    draws = rng.integers(0, total, size=f).tolist()
    if not rejected and len(set(draws)) == f:
        # bulk accept: with no exclusions and no collisions the scalar loop
        # would take these same f draws verbatim
        return draws
    codes: list[int] = []
    while True:
        for value in draws:
            if value in rejected:
                continue
            rejected.add(value)
            codes.append(value)
        if len(codes) == f:
            return codes
        draws = rng.integers(0, total, size=f - len(codes)).tolist()


def sample_node_fault_codes(
    d: int,
    n: int,
    f: int,
    rng: np.random.Generator | int | None = None,
    exclude_codes: Sequence[int] = (),
) -> list[int]:
    """Draw ``f`` distinct faulty node codes of ``B(d, n)``, in acceptance order.

    The int-coded hot path of :func:`sample_node_faults`; thin De Bruijn
    boundary over :func:`sample_fault_codes` with ``total = d**n``.
    """
    try:
        return sample_fault_codes(d**n, f, rng, exclude_codes=exclude_codes)
    except InvalidParameterError:
        raise InvalidParameterError(f"cannot place {f} faults in B({d},{n})") from None


def sample_code_batch(
    total: int, f: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Draw one trial's fault codes per generator: a ``(len(rngs), f)`` array.

    Sampling stays strictly per-trial — trial ``t`` consumes only ``rngs[t]``
    and draws exactly what :func:`sample_fault_codes` would — so the batched
    measurement kernel remains bit-for-bit identical to the scalar path
    however trials are grouped into batches.
    """
    out = np.empty((len(rngs), f), dtype=np.int64)
    for t, rng in enumerate(rngs):
        out[t] = sample_fault_codes(total, f, rng)
    return out


def sample_fault_code_batch(
    d: int, n: int, f: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """De Bruijn boundary over :func:`sample_code_batch` (``total = d**n``)."""
    return sample_code_batch(d**n, f, rngs)


def sample_node_faults(
    d: int,
    n: int,
    f: int,
    rng: np.random.Generator | int | None = None,
    exclude: tuple[Word, ...] = (),
) -> list[Word]:
    """Draw ``f`` distinct faulty processors of ``B(d, n)`` uniformly at random.

    ``exclude`` lists nodes that must stay healthy (e.g. the measurement root
    when reproducing the paper's tables is *not* excluded — the paper instead
    falls back to a neighbouring root — so the default excludes nothing).
    Tuple boundary over :func:`sample_node_fault_codes`: same draws, with the
    accepted codes decoded to words on the way out.
    """
    rng = _require_rng(rng)
    total = d**n
    excluded = {w for w in exclude}
    if f < 0 or f > total - len(excluded):
        raise InvalidParameterError(f"cannot place {f} faults in B({d},{n})")
    exclude_codes = []
    for w in excluded:
        if len(w) == n and all(0 <= int(x) < d for x in w):
            exclude_codes.append(word_to_int(w, d))
        # words that are not valid B(d, n) nodes can never be drawn, so they
        # are (and always were) excluded vacuously.
    codes = sample_node_fault_codes(d, n, f, rng, exclude_codes=exclude_codes)
    return [int_to_word(value, d, n) for value in codes]


def sample_edge_faults(
    d: int,
    n: int,
    f: int,
    rng: np.random.Generator | int | None = None,
    allow_loops: bool = False,
) -> list[Word]:
    """Draw ``f`` distinct faulty links of ``B(d, n)``, returned as ``(n+1)``-tuple labels.

    Loop edges are excluded by default since no Hamiltonian cycle ever uses
    them (their failure is irrelevant to ring embedding).
    """
    rng = _require_rng(rng)
    total = d ** (n + 1)
    if f < 0 or f > total:
        raise InvalidParameterError(f"cannot place {f} edge faults in B({d},{n})")
    faults: list[Word] = []
    chosen: set[int] = set()
    while len(faults) < f:
        value = int(rng.integers(0, total))
        if value in chosen:
            continue
        label = int_to_word(value, d, n + 1)
        if not allow_loops and len(set(label)) == 1:
            continue
        chosen.add(value)
        faults.append(label)
    return faults
