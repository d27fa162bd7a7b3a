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

The sweep's seed tree (trial ``t`` of row ``f`` draws from
``default_rng(SeedSequence(seed, spawn_key=(f, t)))``) is unchanged but
computed row-wide: :func:`trial_pools` hashes a row's SeedSequence pools as
one array and :func:`sample_pool_codes` draws every trial's codes from them,
bit for bit what :func:`sample_fault_codes` draws from that trial's generator.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, pairwise, repeat

import numpy as np

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, int_to_word, word_to_int

__all__ = [
    "sample_node_faults",
    "sample_node_fault_codes",
    "sample_fault_codes",
    "sample_code_batch",
    "sample_pool_codes",
    "trial_pools",
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


# SeedSequence's hash constants (numpy.random.bit_generator): the hashmix
# walks of mix_entropy (A) and generate_state (B), and mix's multipliers
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4  # SeedSequence's default, in uint32 words
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence words: 32-bit limbs, least significant first."""
    return [value >> shift & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_walk(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """The ``(xor, multiplier)`` pair of each successive hashmix call."""
    return pairwise(accumulate(repeat(mult), lambda c, m: c * m & _M32, initial=const))


def _hashmix(value, walk: Iterator[tuple[int, int]]):
    """SeedSequence's ``hashmix`` of an int or a uint32 array."""
    xor, mult = next(walk)
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of ints or uint32 arrays (``x`` may be an int)."""
    result = ((_MIX_L * x & _M32) - _MIX_R * y) & _M32
    return result ^ result >> 16


def trial_pools(seed: int, f: int, trials: Sequence[int]) -> np.ndarray:
    """``uint32[B, 4]``: ``SeedSequence(seed, spawn_key=(f, t)).pool`` per ``t`` in ``trials``.

    All of SeedSequence's ``mix_entropy`` but its last word, ``t``, is shared
    by the row, so it is hashed once in ints; ``t`` is mixed in as an array.
    """
    seed, f = int(seed), int(f)
    if seed < 0 or f < 0:
        raise InvalidParameterError(f"seed and fault count must be >= 0, got {seed}, {f}")
    run = _uint32_words(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(f)
    walk = _hash_walk(_INIT_A, _MULT_A)
    pool = [_hashmix(word, walk) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], walk))
    for word in [*entropy[_POOL_SIZE:], np.asarray(trials, dtype=np.uint32)]:
        pool = [_mix(p, _hashmix(word, walk)) for p in pool]
    return np.stack(pool, axis=1)


def _pcg64_states(pools: np.ndarray) -> list[dict]:
    """The ``PCG64.state`` that ``default_rng`` seeds from each pool row.

    ``generate_state(4, uint64)`` runs on all rows at once (the pool size is
    the array's width); the 128-bit set-seed, two LCG steps, runs in ints.
    """
    walk = _hash_walk(_INIT_B, _MULT_B)
    halves = np.stack([_hashmix(pools[:, i % pools.shape[1]], walk) for i in range(8)], axis=1)
    states = []
    # uint64 word k is halves 2k (low) and 2k+1 (high), on any byte order
    for s_hi, s_lo, i_hi, i_lo in halves.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def sample_pool_codes(total: int, f: int, pools: np.ndarray) -> np.ndarray:
    """Draw one trial's fault codes per pool row: an ``int64[B, f]`` array.

    Row ``i`` is bit for bit ``sample_fault_codes(total, f, default_rng(seq))``
    for the ``SeedSequence`` whose ``pool`` is ``pools[i]``.  The low-first
    32-bit halves of ``ceil(f / 2)`` raw PCG64 words are the stream numpy's
    bounded ``integers`` reads for ``total <= 2**32``; Lemire's ``(u32 *
    total) >> 32`` maps them to draws.  A trial whose draws collide, or whose
    low product word falls below Lemire's rejection threshold, is redrawn by
    :func:`sample_fault_codes` from its seeded generator.
    """
    total, f = int(total), int(f)
    if f < 0 or f > total:
        raise InvalidParameterError(f"cannot place {f} faults among {total} nodes")
    out = np.empty((len(pools), f), dtype=np.int64)
    if f == 0 or not len(pools):
        return out
    states = _pcg64_states(pools)
    bitgen = np.random.PCG64(0)  # every use below first sets a trial's state
    if total <= 1 << 32:
        words = (f + 1) // 2
        raw = np.empty((len(states), words), dtype=np.uint64)
        for row, state in enumerate(states):
            bitgen.state = state
            raw[row] = bitgen.random_raw(words)
        u32 = np.stack([raw & np.uint64(_M32), raw >> np.uint64(32)], axis=2)
        product = u32.reshape(len(raw), -1)[:, :f] * np.uint64(total)
        out[:] = product >> np.uint64(32)
        threshold = np.uint64((2**32 - total) % total)
        ordered = np.sort(out, axis=1)
        slow = (product & np.uint64(_M32) < threshold).any(axis=1)
        slow |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        redraw = np.flatnonzero(slow).tolist()
    else:
        redraw = range(len(states))  # numpy draws 64-bit values here
    rng = np.random.Generator(bitgen)
    for row in redraw:
        bitgen.state = states[row]
        out[row] = sample_fault_codes(total, f, rng)
    return out


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
