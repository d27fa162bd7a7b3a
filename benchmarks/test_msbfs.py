"""E-MSBFS — the bit-parallel multi-trial BFS kernel vs the scalar path (ISSUE 3).

Acceptance criteria of the batched traversal kernel:

* the batched engine (``batch=64``) reproduces the scalar engine's
  (``batch=1``) rows **bit-for-bit** — same seeds, any batch size, including
  resuming a checkpoint written by the scalar path;
* a multi-row ``B(2, 12)`` sweep is at least **8x faster** single-process
  with the 64-trial kernel than with the per-trial scalar path;
* 64-lane ``B(4, 8)`` launches pulling by the De Bruijn shift are at least
  **1.75x faster** than the same launches through the gather form, with
  identical stats.  A dense level alone pulls 3-5x faster; the sparse
  levels, setup and lane count that both forms share hold the whole launch
  to about 2x.

The equality assertions always run.  The wall-clock assertion, like the
other speedup gates, is disabled under ``--benchmark-disable`` (the CI
import/API smoke job) and re-measures on a noisy miss.
"""

import time

import numpy as np
import pytest

from repro.engine import ParallelSweepEngine
from repro.graphs.msbfs import WORD_WIDTH, BatchWorkspace, batched_root_stats, pack_fault_lanes
from repro.topology import get_topology

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


class _GatherOnly:
    """``B(4, 8)``'s tables without ``predecessor_shift``: the gather form."""

    def __init__(self, source):
        self.size = source.size
        self.predecessor_columns = source.predecessor_columns
        self.successor_table = source.successor_table


#: The fault counts of the B(4,8) rows of perfbench's ``sweep`` workload.
PULL_FAULT_COUNTS = (1, 5, 20, 50)
#: The two forms measure about 1.9-2.4x apart on a shared 2-CPU x86 host;
#: a 2x floor failed 4 of 23 runs there.
REQUIRED_PULL_SPEEDUP = 1.75


def test_shift_pull_halves_b4_8_launches(benchmark, timing_enabled):
    topology = get_topology("debruijn", 4, 8)
    gather_only = _GatherOnly(topology)
    workspace = BatchWorkspace(topology.num_nodes)
    rows = [
        pack_fault_lanes(
            topology, np.random.default_rng(f).integers(0, topology.num_nodes, (WORD_WIDTH, f))
        )
        for f in PULL_FAULT_COUNTS
    ]

    def launch(source, lanes):
        s = batched_root_stats(source, lanes, 1, WORD_WIDTH, workspace=workspace)
        return s.sizes.tolist(), s.eccs.tolist(), s.root_dead, s.levels

    speedup, pull_time, gather_time = 0.0, 0.0, 0.0
    for _ in range(ATTEMPTS):
        # per row, the best of alternating launches, so a burst of host noise
        # hits both forms and inflates neither row's minimum
        pull_time = gather_time = 0.0
        for lanes in rows:
            pull_best = gather_best = float("inf")
            for _ in range(20):
                elapsed, pulled = _best_time(lambda: launch(topology, lanes), repeats=1)
                pull_best = min(pull_best, elapsed)
                elapsed, gathered = _best_time(lambda: launch(gather_only, lanes), repeats=1)
                gather_best = min(gather_best, elapsed)
                assert pulled == gathered
            pull_time += pull_best
            gather_time += gather_best
        speedup = gather_time / pull_time
        if speedup >= REQUIRED_PULL_SPEEDUP:
            break

    print(f"\nB(4,8) 64-lane launches x{len(rows)}: gather form {gather_time*1e3:.1f} ms, "
          f"shift pull {pull_time*1e3:.1f} ms, speedup {speedup:.2f}x")
    if timing_enabled:
        assert speedup >= REQUIRED_PULL_SPEEDUP, (
            f"the shift pull is only {speedup:.2f}x faster than the gather form"
        )
    benchmark.pedantic(
        lambda: [launch(topology, lanes) for lanes in rows], iterations=1, rounds=1
    )
