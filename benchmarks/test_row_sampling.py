"""E-ROWDRAW — drawing a sweep row's fault sets row-wide vs per trial.

The sweep's seed tree gives trial ``t`` of the row with fault count ``f`` the
stream ``default_rng(SeedSequence(seed, spawn_key=(f, t)))``.  Acceptance
criteria of the row-wide sampler (``trial_pools`` + ``sample_pool_codes``):

* on the benchmark's eight sweep rows (``B(2,16)`` with f = 2, 8, 16, 32 and
  ``B(4,8)`` with f = 1, 5, 20, 50; 64 trials each) it draws exactly the
  codes of one ``SeedSequence`` and ``Generator`` per trial
  (``trial_seed_sequences`` + ``default_rng`` + ``sample_code_batch``);
* it draws those eight rows at least **2.5x faster** (best of a few
  repeats; the median speedup is typically 3-4x).

The equality assertion always runs; the wall-clock assertion is disabled
under ``--benchmark-disable`` and re-measures on a noisy miss.
"""

import time

import numpy as np
import pytest

from repro.engine.sweep import trial_seed_sequences
from repro.network.faults import sample_code_batch, sample_pool_codes, trial_pools

ROWS = [(2**16, f) for f in (2, 8, 16, 32)] + [(4**8, f) for f in (1, 5, 20, 50)]
TRIALS = 64
REQUIRED_SPEEDUP = 2.5
ATTEMPTS = 5
REPEATS = 10


@pytest.fixture
def timing_enabled(request) -> bool:
    """False under ``--benchmark-disable`` (see benchmarks/test_codec_speedup.py)."""
    return not request.config.getoption("benchmark_disable", default=False)


def _per_trial(seed):
    return [
        sample_code_batch(
            total, f,
            [np.random.default_rng(seq) for seq in trial_seed_sequences(seed, [f], TRIALS)[0]],
        )
        for total, f in ROWS
    ]


def _row_wide(seed):
    return [sample_pool_codes(total, f, trial_pools(seed, f, range(TRIALS)))
            for total, f in ROWS]


def _best_time(fn, seeds):
    best = float("inf")
    for seed in seeds:
        t0 = time.perf_counter()
        fn(seed)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**63 + 11])
def test_row_wide_codes_equal_per_trial_codes(seed):
    for old, new in zip(_per_trial(seed), _row_wide(seed)):
        assert new.dtype == np.int64
        assert np.array_equal(old, new)


def test_row_wide_draw_is_faster(timing_enabled):
    if not timing_enabled:
        pytest.skip("timing disabled (--benchmark-disable)")
    _row_wide(0), _per_trial(0)  # warm both paths
    ratios = []
    for attempt in range(ATTEMPTS):
        seeds = range(attempt * REPEATS, (attempt + 1) * REPEATS)
        old = _best_time(_per_trial, seeds)
        new = _best_time(_row_wide, seeds)
        ratios.append(old / new)
        if ratios[-1] >= REQUIRED_SPEEDUP:
            break
    print(f"\nrow-wide draw speedup over per-trial streams: {max(ratios):.2f}x "
          f"(attempts: {', '.join(f'{r:.2f}' for r in ratios)})")
    assert max(ratios) >= REQUIRED_SPEEDUP
