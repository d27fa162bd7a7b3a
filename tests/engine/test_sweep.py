"""Determinism and checkpoint/resume tests for the parallel sweep engine.

The engine's contract (see :mod:`repro.engine.sweep`): rows are bit-for-bit
identical for any worker count, and a checkpointed run interrupted mid-sweep
resumes to exactly the rows of an uninterrupted run.
"""

import json

import pytest

from repro.analysis import simulate_fault_table
from repro.engine import ParallelSweepEngine, SweepProgress, trial_seed_sequences
from repro.exceptions import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    InvalidParameterError,
)

FAULT_COUNTS = (0, 1, 3)
TRIALS = 6
SEED = 9


class TestSeedTree:
    def test_per_trial_streams_are_distinct_and_reproducible(self):
        a = trial_seed_sequences(5, (0, 4), 3)
        b = trial_seed_sequences(5, (0, 4), 3)
        states = set()
        for row_a, row_b in zip(a, b):
            for seq_a, seq_b in zip(row_a, row_b):
                assert seq_a.generate_state(2).tolist() == seq_b.generate_state(2).tolist()
                states.add(tuple(seq_a.generate_state(2).tolist()))
        assert len(states) == 6  # every (f, trial) pair gets its own stream

    def test_streams_match_the_spawn_tree(self):
        # spawn_key=(f, t) is exactly the spawn()-derived grandchild
        import numpy as np

        direct = trial_seed_sequences(7, (2,), 3)[0][1]
        spawned = np.random.SeedSequence(7).spawn(3)[2].spawn(2)[1]
        assert direct.generate_state(4).tolist() == spawned.generate_state(4).tolist()

    def test_row_streams_independent_of_other_rows(self):
        # sweeping f=3 alone reproduces the f=3 row of a wider sweep
        alone = ParallelSweepEngine(2, 6).run((3,), trials=5, seed=SEED)
        wide = ParallelSweepEngine(2, 6).run((0, 3, 5), trials=5, seed=SEED)
        assert alone[0] == wide[1]

    def test_duplicate_fault_counts_give_identical_rows(self):
        rows = ParallelSweepEngine(2, 6).run((2, 2), trials=4, seed=0)
        assert rows[0] == rows[1]


class TestWorkerCountInvariance:
    def test_serial_one_worker_and_two_workers_identical(self):
        serial = ParallelSweepEngine(2, 6).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        one = ParallelSweepEngine(2, 6, workers=1).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        two = ParallelSweepEngine(2, 6, workers=2).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        three = ParallelSweepEngine(2, 6, workers=3).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        assert serial == one == two == three

    def test_engine_matches_simulate_fault_table(self):
        # simulate_fault_table is routed through the engine: same rows by
        # construction, for the serial and the multiprocess path alike.
        lib = simulate_fault_table(2, 6, fault_counts=FAULT_COUNTS, trials=TRIALS, seed=SEED)
        eng = ParallelSweepEngine(2, 6, workers=2).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        assert lib == eng

    def test_simulate_fault_table_workers_param(self):
        a = simulate_fault_table(2, 6, fault_counts=(2,), trials=5, seed=1)
        b = simulate_fault_table(2, 6, fault_counts=(2,), trials=5, seed=1, workers=2)
        assert a == b

    def test_custom_root_respected_across_workers(self):
        root = (1, 0, 1, 0, 1, 0)
        serial = ParallelSweepEngine(2, 6, root=root).run((2,), trials=4, seed=3)
        parallel = ParallelSweepEngine(2, 6, root=root, workers=2).run((2,), trials=4, seed=3)
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = ParallelSweepEngine(2, 6).run((3,), trials=8, seed=0)
        b = ParallelSweepEngine(2, 6).run((3,), trials=8, seed=1)
        assert a != b


class _StopSweep(Exception):
    pass


def _interrupt_after(trials_done: int):
    state = {"count": 0}

    def callback(progress: SweepProgress) -> None:
        assert isinstance(progress, SweepProgress)
        state["count"] += 1
        if state["count"] == trials_done:
            raise _StopSweep

    return callback


class TestCheckpointResume:

    def test_resume_equals_uninterrupted(self, tmp_path):
        path = tmp_path / "sweep.json"
        full = ParallelSweepEngine(2, 6).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)

        interrupted = ParallelSweepEngine(
            2, 6, checkpoint_path=path, checkpoint_every=2,
            progress=_interrupt_after(7),
        )
        with pytest.raises(_StopSweep):
            interrupted.run(FAULT_COUNTS, trials=TRIALS, seed=SEED)

        on_disk = json.loads(path.read_text())
        partial = sum(len(v) for v in on_disk["completed"].values())
        assert 0 < partial < len(FAULT_COUNTS) * TRIALS  # genuinely mid-sweep

        resumed = ParallelSweepEngine(2, 6, checkpoint_path=path).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert resumed == full

    def test_parallel_resume_after_serial_interrupt(self, tmp_path):
        path = tmp_path / "sweep.json"
        full = ParallelSweepEngine(2, 6).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        interrupted = ParallelSweepEngine(
            2, 6, checkpoint_path=path, checkpoint_every=1,
            progress=_interrupt_after(5),
        )
        with pytest.raises(_StopSweep):
            interrupted.run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        resumed = ParallelSweepEngine(2, 6, checkpoint_path=path, workers=2).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert resumed == full

    def test_finished_checkpoint_resumes_instantly(self, tmp_path):
        path = tmp_path / "sweep.json"
        first = ParallelSweepEngine(2, 6, checkpoint_path=path).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        again = ParallelSweepEngine(2, 6, checkpoint_path=path).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert first == again

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        # (d, n, root, seed) pin the trial streams; a mismatch must refuse
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=0)
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=1)
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 6, root=(1, 0, 1, 0, 1, 0), checkpoint_path=path).run(
                (1,), trials=3, seed=0
            )

    def test_checkpoint_reusable_when_trials_grow(self, tmp_path):
        # streams depend only on (seed, f, t): growing the trial count reuses
        # every completed trial and computes only the new tail
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=SEED)
        ran = []
        grown = ParallelSweepEngine(2, 6, checkpoint_path=path, progress=ran.append).run(
            (1,), trials=6, seed=SEED
        )
        fresh = ParallelSweepEngine(2, 6).run((1,), trials=6, seed=SEED)
        assert grown == fresh
        assert len(ran) == 3  # only trials 3..5 were computed

    def test_no_resume_starts_fresh_and_overwrites(self, tmp_path):
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=0)
        ran = []
        rows = ParallelSweepEngine(2, 6, checkpoint_path=path, progress=ran.append).run(
            (1,), trials=4, seed=0, resume=False
        )
        assert rows[0].trials == 4
        assert len(ran) == 4  # nothing reused from the existing file
        assert json.loads(path.read_text())["trials"] == 4

    def test_checkpoint_reusable_when_rows_added(self, tmp_path):
        # rows are keyed and seeded by f, so a checkpoint from a narrower
        # sweep seeds a wider one: the shared row is not recomputed.
        path = tmp_path / "sweep.json"
        narrow = ParallelSweepEngine(2, 6, checkpoint_path=path).run(
            (1,), trials=4, seed=SEED
        )
        recomputed = []
        wide = ParallelSweepEngine(2, 6, checkpoint_path=path, progress=recomputed.append).run(
            (1, 3), trials=4, seed=SEED
        )
        assert wide[0] == narrow[0]
        assert all(p.f == 3 for p in recomputed)  # only the new row ran


class TestBatchInvariance:
    """The bit-parallel batch width can never change a row (ISSUE 3)."""

    def test_all_batch_sizes_identical(self):
        runs = [
            ParallelSweepEngine(2, 6, batch=b).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
            for b in (1, 2, 7, 64)
        ]
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_batched_parallel_equals_scalar_serial(self):
        scalar = ParallelSweepEngine(2, 6, batch=1).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        batched = ParallelSweepEngine(2, 6, workers=2, batch=64).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert scalar == batched

    def test_simulate_fault_table_batch_param(self):
        a = simulate_fault_table(2, 6, fault_counts=(2,), trials=9, seed=1, batch=1)
        b = simulate_fault_table(2, 6, fault_counts=(2,), trials=9, seed=1, batch=64)
        assert a == b

    def test_resume_across_batch_sizes(self, tmp_path):
        # a checkpoint written by a scalar run resumes exactly on a batched
        # engine (and vice versa): results depend only on (seed, f, t)
        path = tmp_path / "sweep.json"
        full = ParallelSweepEngine(2, 6, batch=64).run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        interrupted = ParallelSweepEngine(
            2, 6, batch=1, checkpoint_path=path, checkpoint_every=1,
            progress=_interrupt_after(7),
        )
        with pytest.raises(_StopSweep):
            interrupted.run(FAULT_COUNTS, trials=TRIALS, seed=SEED)
        resumed = ParallelSweepEngine(2, 6, batch=64, checkpoint_path=path).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert resumed == full

    def test_invalid_batch_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 5, batch=0)
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 5, batch=65)


class TestProgressAndValidation:
    def test_progress_reaches_total(self):
        seen = []
        engine = ParallelSweepEngine(2, 5, progress=seen.append)
        engine.run((0, 2), trials=4, seed=0)
        assert seen[-1].done_trials == seen[-1].total_trials == 8
        assert seen[-1].fraction == 1.0
        assert len(seen) == 8  # serial mode: one callback per trial

    def test_empty_fault_counts(self):
        assert ParallelSweepEngine(2, 5).run(()) == []

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 5, workers=-1)
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 5, checkpoint_every=0)
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 5).run((-1,))
        with pytest.raises(InvalidParameterError):
            ParallelSweepEngine(2, 5).run((1,), trials=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_negative_or_non_integral_seed_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            ParallelSweepEngine(2, 5).run((1,), trials=2, seed=seed)


class TestCheckpointCorruption:
    """Corrupt checkpoint files surface as CheckpointCorruptionError —
    named path, --fresh escape hatch — never a raw JSONDecodeError."""

    def _engine(self, path):
        return ParallelSweepEngine(2, 5, checkpoint_path=path)

    def test_truncated_json_is_diagnosed(self, tmp_path):
        path = tmp_path / "ck.json"
        self._engine(path).run((1,), trials=2, seed=0)
        path.write_text(path.read_text()[:-20])  # torn write
        with pytest.raises(CheckpointCorruptionError, match="--fresh") as excinfo:
            self._engine(path).run((1,), trials=2, seed=0)
        assert str(path) in str(excinfo.value)

    def test_garbage_bytes_are_diagnosed(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(b"\x00\xff not json at all")
        with pytest.raises(CheckpointCorruptionError, match="not valid JSON"):
            self._engine(path).run((1,), trials=2, seed=0)

    def test_non_object_payload_is_diagnosed(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointCorruptionError, match="JSON object"):
            self._engine(path).run((1,), trials=2, seed=0)

    def test_malformed_completed_table_is_diagnosed(self, tmp_path):
        path = tmp_path / "ck.json"
        self._engine(path).run((1,), trials=2, seed=0)
        data = json.loads(path.read_text())
        data["completed"] = {"1": "definitely-not-a-row-list"}
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointCorruptionError, match="completed-trials"):
            self._engine(path).run((1,), trials=2, seed=0)

    def test_corruption_is_a_mismatch_subclass(self):
        # callers already catching CheckpointMismatchError keep working
        assert issubclass(CheckpointCorruptionError, CheckpointMismatchError)
        error = CheckpointCorruptionError("/tmp/ck.json", "torn write")
        assert error.path == "/tmp/ck.json"
        assert error.detail == "torn write"


class TestNonIntegralParameters:
    """``d`` and ``n`` are refused unless integer-valued, never truncated."""

    @pytest.mark.parametrize("d, n", [(2.7, 6.9), (2, 6.5), (2.5, 6)])
    def test_engine_refuses(self, d, n):
        with pytest.raises(InvalidParameterError, match="must be integers"):
            ParallelSweepEngine(d, n)

    def test_simulate_fault_table_refuses(self):
        with pytest.raises(InvalidParameterError, match="must be integers"):
            simulate_fault_table(2.5, 6, fault_counts=(1,), trials=2)

    def test_simulate_fault_row_refuses(self):
        from repro.analysis import simulate_fault_row

        with pytest.raises(InvalidParameterError, match="must be integers"):
            simulate_fault_row(2, 6.5, 1, trials=2)

    def test_integral_floats_name_the_same_graph(self):
        kwargs = {"fault_counts": (1,), "trials": 3, "seed": 0}
        engine = ParallelSweepEngine(2.0, 6.0)
        assert (engine.d, engine.n) == (2, 6)
        assert engine.run(**kwargs) == ParallelSweepEngine(2, 6).run(**kwargs)
