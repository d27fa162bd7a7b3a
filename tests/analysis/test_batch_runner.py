"""Batched-vs-scalar equivalence of the fault-sweep kernel executor.

``KernelExecutor.run_trials_batch`` must be bit-for-bit identical to
per-trial ``run_trial`` calls on the same seed streams — in particular in
the *root-fallback regime*: trials where the measurement root ``R`` lands
in a faulty necklace and the paper's neighbouring-root rule (with the
multi-candidate largest-component / smallest-code tie-break of
``_measurement_root``) decides the measurement, and the all-nodes-removed
``(0, 0)`` edge case.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.executor import KernelExecutor
from repro.engine.sweep import trial_seed_sequences
from repro.graphs.msbfs import pack_fault_lanes


def _scalar_results(executor, f, seqs, root=None):
    return [executor.run_trial(f, np.random.default_rng(seq), root) for seq in seqs]


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 3),
    n=st.integers(3, 4),
    f_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    batch=st.integers(1, 64),
)
def test_batched_equals_scalar_property(d, n, f_fraction, seed, batch):
    """Random (d, n, f, seed, batch): batched == scalar, trial for trial."""
    executor = KernelExecutor(d, n)
    f = int(f_fraction * d**n)  # spans 0 .. all-nodes-faulty
    seqs = trial_seed_sequences(seed, (f,), batch)[0]
    assert executor.run_trials_batch(f, seqs) == _scalar_results(executor, f, seqs)


class TestRootFallbackRegime:
    def test_fallback_trials_occur_and_agree(self):
        """With f = total/2 the root necklace dies often; every trial agrees."""
        from repro.network.faults import sample_node_fault_codes

        executor = KernelExecutor(2, 4)
        f = 8
        peeled = 0
        for seed in range(30):
            seqs = trial_seed_sequences(seed, (f,), 16)[0]
            assert executor.run_trials_batch(f, seqs) == _scalar_results(executor, f, seqs)
            for seq in seqs:
                trial_codes = sample_node_fault_codes(
                    2, 4, f, np.random.default_rng(seq)
                )
                removed = executor.topology.codec.faulty_necklace_mask(
                    np.asarray(trial_codes, dtype=executor.topology.codec.dtype)
                )
                if removed[executor.root_code]:
                    peeled += 1
        assert peeled > 0, "fault rate failed to exercise the fallback regime"

    def test_multi_candidate_tie_break_matches_scalar(self):
        """Crafted masks with several tied nearest candidates: batch == scalar.

        In B(2, 4), killing R's necklace {0001, 0010, 0100, 1000} leaves the
        two distance-1 survivors 0000 and 0011 as tied candidates; extra
        necklaces make the tie configurations more varied.
        """
        executor = KernelExecutor(2, 4)
        codec = executor.topology.codec
        fault_sets = [
            [1],            # R's necklace only: candidates 0000 and 0011
            [1, 3],         # also kill {0011, 0110, 1100, 1001}
            [1, 0],         # also kill the loop necklace {0000}
            [1, 5],         # also kill {0101, 1010}
            [1, 3, 5],      # heavy damage, root and many neighbours dead
            [1, 0, 3, 5],
        ]
        codes = np.asarray([fs + [fs[0]] * (4 - len(fs)) for fs in fault_sets])
        # rectangular batch via repetition: duplicated faults remove the same
        # necklaces, so each row's mask is exactly its fault set's mask
        lanes = pack_fault_lanes(codec, codes)
        results = executor._batched_fallbacks(
            lanes, list(range(len(fault_sets))), executor.root_code
        )
        for t, fs in enumerate(fault_sets):
            removed = codec.faulty_necklace_mask(np.asarray(fs, dtype=codec.dtype))
            assert removed[executor.root_code], "crafted mask must kill the root"
            assert results[t] == executor.measure_mask_with_root(removed)[:2], fs

    def test_all_nodes_removed_yields_zero_zero(self):
        """f = d**n removes every node: every trial reports (0, 0)."""
        executor = KernelExecutor(2, 3)
        seqs = trial_seed_sequences(0, (8,), 20)[0]
        results = executor.run_trials_batch(8, seqs)
        assert results == [(0, 0)] * 20
        assert results == _scalar_results(executor, 8, seqs)

    def test_batch_size_validation(self):
        executor = KernelExecutor(2, 3)
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            executor.run_trials_batch(1, [])
        with pytest.raises(InvalidParameterError):
            executor.run_trials_batch(1, trial_seed_sequences(0, (1,), 65)[0])


def test_custom_root_batched_equals_scalar():
    executor = KernelExecutor(2, 5)
    root = executor.topology.encode((1, 0, 1, 0, 1))
    for f in (0, 2, 16, 31):
        seqs = trial_seed_sequences(9, (f,), 32)[0]
        assert executor.run_trials_batch(f, seqs, root) == _scalar_results(
            executor, f, seqs, root
        )
