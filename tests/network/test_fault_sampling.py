"""Determinism contract of the vectorized fault sampler (network/faults.py).

The chunked rejection sampler must consume the generator stream
value-for-value identically to the historical one-draw-at-a-time loop:
same accepted codes, same draw count, same generator state afterwards.
That is what keeps sequentially-threaded generators (the frozen-reference
rows of :mod:`repro.analysis.reference`) and the engine's per-trial streams
bit-for-bit reproducible across this refactor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidParameterError
from repro.network import faults
from repro.network.faults import (
    sample_code_batch,
    sample_fault_codes,
    sample_node_fault_codes,
    sample_node_faults,
    sample_pool_codes,
    trial_pools,
)
from repro.words.alphabet import int_to_word


def _legacy_sample_words(d, n, f, rng, exclude=()):
    """The pre-vectorization loop, verbatim: the behavioural reference."""
    total = d**n
    excluded = {w for w in exclude}
    faults, chosen = [], set()
    while len(faults) < f:
        value = int(rng.integers(0, total))
        if value in chosen:
            continue
        word = int_to_word(value, d, n)
        if word in excluded:
            continue
        chosen.add(value)
        faults.append(word)
    return faults


class TestDrawParity:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 4),
        n=st.integers(2, 5),
        f_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_codes_and_generator_state_match_legacy(self, d, n, f_fraction, seed):
        f = int(f_fraction * d**n)
        legacy_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        legacy = _legacy_sample_words(d, n, f, legacy_rng)
        codes = sample_node_fault_codes(d, n, f, new_rng)
        assert [int_to_word(c, d, n) for c in codes] == legacy
        # identical post-state: the next draw agrees, so sequentially
        # threaded generators (run_row, the frozen reference) are unshifted
        assert int(legacy_rng.integers(0, 2**30)) == int(new_rng.integers(0, 2**30))

    def test_word_boundary_matches_legacy(self):
        for seed in range(25):
            a = _legacy_sample_words(2, 10, 50, np.random.default_rng(seed))
            b = sample_node_faults(2, 10, 50, np.random.default_rng(seed))
            assert a == b

    def test_exclude_parity_including_junk_words(self):
        # junk excluded words (wrong length / digits) can never be drawn;
        # they must not shift the stream, exactly as in the legacy loop
        exclude = ((0, 0, 0, 1), (1, 1, 1, 1), (9, 9), (0, 1))
        for seed in range(25):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            a = _legacy_sample_words(2, 4, 10, r1, exclude)
            b = sample_node_faults(2, 4, 10, r2, exclude)
            assert a == b
            assert int(r1.integers(0, 99)) == int(r2.integers(0, 99))


class TestBatchSampling:
    def test_batch_equals_per_trial_calls(self):
        seqs = [np.random.SeedSequence(0, spawn_key=(5, t)) for t in range(16)]
        batch = sample_code_batch(2**6, 5, [np.random.default_rng(s) for s in seqs])
        for t, seq in enumerate(seqs):
            alone = sample_node_fault_codes(2, 6, 5, np.random.default_rng(seq))
            assert batch[t].tolist() == alone

    def test_zero_faults(self):
        assert sample_node_fault_codes(2, 4, 0, np.random.default_rng(0)) == []
        batch = sample_code_batch(2**4, 0, [np.random.default_rng(0)])
        assert batch.shape == (1, 0)

    def test_codes_are_distinct_and_in_range(self):
        codes = sample_node_fault_codes(3, 4, 80, np.random.default_rng(1))
        assert len(set(codes)) == 80
        assert all(0 <= c < 81 for c in codes)

    def test_exclude_codes_respected(self):
        codes = sample_node_fault_codes(
            2, 3, 6, np.random.default_rng(2), exclude_codes=(0, 7)
        )
        assert set(codes) == set(range(1, 7))


class TestValidation:
    def test_negative_and_oversized_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_node_fault_codes(2, 3, -1)
        with pytest.raises(InvalidParameterError):
            sample_node_fault_codes(2, 3, 9)
        with pytest.raises(InvalidParameterError):
            sample_node_fault_codes(2, 3, 8, exclude_codes=(0,))


def _stream(seed, f, t):
    return np.random.SeedSequence(seed, spawn_key=(f, t))


def _per_trial_codes(total, f, seqs):
    """The oracle: one SeedSequence and Generator per trial."""
    return [sample_fault_codes(total, f, np.random.default_rng(seq)) for seq in seqs]


def _fast_path_outcome(total, f, seq):
    """``(rejected, collided)`` of the first ``f`` raw draws of ``seq``'s stream."""
    raw = np.random.default_rng(seq).bit_generator.random_raw((f + 1) // 2)
    u32 = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1)
    product = u32.reshape(-1)[:f].astype(object) * total
    threshold = (2**32 - total) % total
    rejected = any(p & 0xFFFFFFFF < threshold for p in product)
    return rejected, len({p >> 32 for p in product}) < f


class TestRowStreams:
    """Row-wide pools and draws are bit for bit the per-trial SeedSequence path."""

    # one- to four-word seeds (a 97-bit one), and one longer than the pool
    SEEDS = (0, 7, 2**32 - 1, 2**32, 2**70 + 5, (1 << 96) + 12345, 2**200 + 3)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("f", (0, 1, 2**32 + 1))
    def test_pools_equal_seed_sequence_pools(self, seed, f):
        trials = [0, 3, 4, 9, 63, 64, 65, 1000, 12]  # resume holes, out of order
        expected = np.array([_stream(seed, f, t).pool for t in trials])
        pools = trial_pools(seed, f, trials)
        assert pools.dtype == np.uint32 and pools.shape == (len(trials), 4)
        assert (pools == expected).all()

    def test_negative_seed_or_fault_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            trial_pools(-1, 3, range(2))
        with pytest.raises(InvalidParameterError):
            trial_pools(0, -3, range(2))

    @pytest.mark.parametrize("total,fs", [
        (2**16, (0, 1, 2, 3, 31, 32, 200)),
        (768, (0, 1, 2, 38, 384, 767, 768)),  # K(2,9)
        (3 * 2**19 + 1, (0, 1, 2, 32, 101)),
        (10, tuple(range(11))),
        (2**40, (0, 1, 3)),  # beyond 32-bit draws: every trial is redrawn
    ])
    def test_codes_equal_per_trial_draws(self, total, fs):
        for seed in (0, 2**32 + 5):
            for f in fs:
                trials = range(5, 70, 3)
                codes = sample_pool_codes(total, f, trial_pools(seed, f, trials))
                assert codes.dtype == np.int64 and codes.shape == (len(trials), f)
                expected = _per_trial_codes(total, f, [_stream(seed, f, t) for t in trials])
                assert codes.tolist() == expected

    def test_both_slow_paths_run_and_agree(self, monkeypatch):
        """A collision and a Lemire rejection each send a trial to the oracle."""
        calls = []
        oracle = faults.sample_fault_codes

        def counted(total, f, rng, *args):
            calls.append((total, f))
            return oracle(total, f, rng, *args)

        monkeypatch.setattr(faults, "sample_fault_codes", counted)
        found = set()
        for total, f in ((2**16, 32), (3 * 2**19 + 1, 32)):
            for seed in range(200):
                seqs = [_stream(seed, f, t) for t in range(64)]
                outcomes = [_fast_path_outcome(total, f, seq) for seq in seqs]
                slow = [o for o in outcomes if any(o)]
                if not slow:
                    continue
                del calls[:]
                codes = sample_pool_codes(total, f, trial_pools(seed, f, range(64)))
                assert codes.tolist() == _per_trial_codes(total, f, seqs)
                assert len(calls) == len(slow)
                found.update(kind for o in slow for kind, hit in
                             zip(("rejection", "collision"), o) if hit)
                if "rejection" in found and "collision" in found:
                    return
        pytest.fail(f"slow paths seen: {sorted(found)}")

    def test_oversized_fault_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_pool_codes(10, 11, trial_pools(0, 11, range(2)))

    @pytest.mark.parametrize("seqs", [
        np.random.SeedSequence(5).spawn(3),
        [np.random.SeedSequence([1, 2, t]) for t in range(4)],
        [np.random.SeedSequence(9, spawn_key=(t,), pool_size=8) for t in range(5)],
    ], ids=["spawned", "list-entropy", "pool-size-8"])
    def test_run_trials_batch_equals_run_trial_per_stream(self, seqs):
        from repro.engine.executor import KernelExecutor

        executor = KernelExecutor(2, 6)
        for f in (0, 3, 20):
            expected = [executor.run_trial(f, np.random.default_rng(seq)) for seq in seqs]
            assert executor.run_trials_batch(f, seqs) == expected
