"""E-MSBFS — the bit-parallel multi-trial BFS kernel vs the scalar path (ISSUE 3).

Acceptance criteria of the batched traversal kernel:

* the batched engine (``batch=64``) reproduces the scalar engine's
  (``batch=1``) rows **bit-for-bit** — same seeds, any batch size, including
  resuming a checkpoint written by the scalar path;
* a multi-row ``B(2, 12)`` sweep is at least **8x faster** single-process
  with the 64-trial kernel than with the per-trial scalar path.

The equality assertions always run.  The wall-clock assertion, like the
other speedup gates, is disabled under ``--benchmark-disable`` (the CI
import/API smoke job) and re-measures on a noisy miss.
"""

import time

import pytest

from repro.engine import ParallelSweepEngine

#: The pinned multi-row sweep: four fault counts spanning the paper's light
#: and heavy regimes, enough trials for stable timing, small enough for CI.
SPEEDUP_SWEEP = {"fault_counts": (2, 8, 16, 32), "trials": 128, "seed": 0}
REQUIRED_SPEEDUP = 8.0
#: The kernel typically clears 9-10x; a loaded shared runner can depress a
#: single ratio below the 8x floor, so a miss re-measures with fresh samples.
ATTEMPTS = 5
BEST_OF = 3


@pytest.fixture
def timing_enabled(request) -> bool:
    """False under ``--benchmark-disable`` (see benchmarks/test_codec_speedup.py)."""
    return not request.config.getoption("benchmark_disable", default=False)


def _best_time(fn, repeats=BEST_OF):
    """Minimum wall time over ``repeats`` runs (noise only ever inflates)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.parametrize("d,n", [(2, 10), (4, 5)])
def test_batched_rows_equal_scalar_rows(d, n):
    """batch=64, batch=7 and batch=1 engines agree bit-for-bit, row for row."""
    kwargs = {"fault_counts": (0, 1, 3, 8, 50), "trials": 40, "seed": 0}
    scalar = ParallelSweepEngine(d, n, batch=1).run(**kwargs)
    batched = ParallelSweepEngine(d, n, batch=64).run(**kwargs)
    ragged = ParallelSweepEngine(d, n, batch=7).run(**kwargs)
    assert batched == scalar
    assert ragged == scalar


def test_batched_resume_of_scalar_checkpoint(tmp_path):
    """A checkpoint written by the scalar path resumes exactly on the batched path."""
    path = tmp_path / "sweep.json"
    kwargs = {"fault_counts": (1, 4), "trials": 30, "seed": 2}
    full = ParallelSweepEngine(2, 8, batch=1).run(**kwargs)

    class _Stop(Exception):
        pass

    def interrupt(progress):
        if progress.done_trials == 17:
            raise _Stop

    scalar_engine = ParallelSweepEngine(
        2, 8, batch=1, checkpoint_path=path, checkpoint_every=1, progress=interrupt
    )
    with pytest.raises(_Stop):
        scalar_engine.run(**kwargs)
    resumed = ParallelSweepEngine(2, 8, batch=64, checkpoint_path=path).run(**kwargs)
    assert resumed == full


def test_eightfold_speedup_b2_12(benchmark, timing_enabled):
    scalar_engine = ParallelSweepEngine(2, 12, batch=1)
    batched_engine = ParallelSweepEngine(2, 12, batch=64)
    scalar_engine.run((1,), trials=2)  # warm the codec tables

    speedup, scalar_time, batched_time = 0.0, 0.0, 0.0
    scalar_rows, batched_rows = None, None
    for _ in range(ATTEMPTS):
        scalar_time, scalar_rows = _best_time(lambda: scalar_engine.run(**SPEEDUP_SWEEP))
        batched_time, batched_rows = _best_time(lambda: batched_engine.run(**SPEEDUP_SWEEP))
        assert batched_rows == scalar_rows  # never buy speedup with a behaviour change
        speedup = scalar_time / batched_time
        if speedup >= REQUIRED_SPEEDUP:
            break

    trials = len(SPEEDUP_SWEEP["fault_counts"]) * SPEEDUP_SWEEP["trials"]
    print(f"\nB(2,12) sweep ({trials} trials): scalar {scalar_time*1e3:.0f} ms, "
          f"64-trial kernel {batched_time*1e3:.0f} ms, speedup {speedup:.1f}x")
    if timing_enabled:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"bit-parallel kernel is only {speedup:.1f}x faster than the scalar path"
        )
    benchmark.pedantic(
        lambda: batched_engine.run(**SPEEDUP_SWEEP), iterations=1, rounds=1
    )
