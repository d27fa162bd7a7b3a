"""Tests for the experiment harness (Tables 2.1/2.2, registry, reporting)."""

import numpy as np
import pytest

from repro.analysis import (
    PAPER_FAULT_COUNTS,
    available_experiments,
    compare_hypercube_debruijn,
    format_fault_table,
    format_mapping_table,
    format_table,
    run_experiment,
    simulate_fault_row,
    simulate_fault_table,
)
from repro.exceptions import InvalidParameterError


class TestFaultSimulation:
    def test_zero_faults_row_is_exact(self):
        row = simulate_fault_row(2, 10, 0, trials=3, rng=np.random.default_rng(0))
        assert row.avg_size == row.max_size == row.min_size == 1024
        assert row.avg_ecc == row.max_ecc == row.min_ecc == 10
        assert row.reference_size == 1024

    def test_single_fault_row_b45(self):
        # every single fault in B(4,5) kills one aperiodic length-5 necklace,
        # except the 4 constant words (length-1 necklaces) and the 4+4+... short
        # ones; the dominant value is 1019, matching the paper's row
        row = simulate_fault_row(4, 5, 1, trials=30, rng=np.random.default_rng(1))
        assert row.reference_size == 1019
        assert 1019 <= row.max_size <= 1023
        assert row.min_size >= 1019

    def test_rows_track_reference_for_small_f(self):
        rows = simulate_fault_table(2, 10, fault_counts=(1, 2, 5), trials=15, seed=3)
        for row in rows:
            assert abs(row.avg_size - row.reference_size) <= 12
            assert row.min_size <= row.avg_size <= row.max_size
            assert row.min_ecc <= row.avg_ecc <= row.max_ecc

    def test_root_fallback_used_when_root_necklace_dies(self):
        # force the fault onto the root's own necklace
        row = simulate_fault_row(
            2, 6, 1, trials=1, rng=np.random.default_rng(0), root=(0, 0, 0, 0, 0, 1)
        )
        assert row.max_size > 0  # some surviving root was found regardless

    def test_paper_fault_counts_constant(self):
        assert PAPER_FAULT_COUNTS == tuple(range(11)) + (20, 30, 40, 50)

    def test_invalid_trials(self):
        with pytest.raises(InvalidParameterError):
            simulate_fault_row(2, 5, 1, trials=0)

    def test_seeded_tables_are_reproducible(self):
        a = simulate_fault_table(2, 6, fault_counts=(2,), trials=5, seed=9)
        b = simulate_fault_table(2, 6, fault_counts=(2,), trials=5, seed=9)
        assert a[0] == b[0]


class TestHypercubeComparison:
    def test_paper_headline_numbers(self):
        cmp = compare_hypercube_debruijn(trials=2, seed=0)
        assert cmp.nodes == 4096
        assert cmp.hypercube_cycle_bound == 4092
        assert cmp.debruijn_cycle_bound == 4084
        assert cmp.hypercube_edges == 24576
        assert cmp.debruijn_edges == 16384
        assert cmp.debruijn_cycle_worst_case == 4084
        assert cmp.debruijn_cycle_random_avg >= 4084
        assert len(cmp.as_rows()) == 5

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            compare_hypercube_debruijn(n_cube=10, d=4, n=6)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_fault_table_contains_columns(self):
        rows = simulate_fault_table(2, 5, fault_counts=(0, 1), trials=2, seed=0)
        text = format_fault_table(rows, title="T")
        assert "Avg. Size" in text and "d^n - nf" in text and text.startswith("T")

    def test_format_mapping_table(self):
        text = format_mapping_table({2: 1, 3: 1, 4: 3}, "d", "psi(d)")
        assert "psi(d)" in text and "3" in text


class TestRegistry:
    def test_available_experiments_cover_all_tables_and_figures(self):
        names = available_experiments()
        for required in [
            "table_2_1", "table_2_2", "table_3_1", "table_3_2",
            "figure_1_graphs", "figure_2_ffc_example", "figure_3_3_decomposition",
            "hypercube_comparison", "chapter_4_examples", "disjoint_hc_summary",
        ]:
            assert required in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table_9_9")

    @pytest.mark.parametrize(
        "name", ["table_3_1", "table_3_2", "figure_1_graphs", "figure_2_ffc_example", "chapter_4_examples"]
    )
    def test_cheap_experiments_run(self, name):
        description, text = run_experiment(name)
        assert description
        assert text.strip()

    def test_table_2_2_experiment_accepts_trials(self):
        description, text = run_experiment("table_2_2", trials=2, seed=1)
        assert "B(4,5)" in description
        assert "1019" in text


class TestMeasureValidation:
    def test_measure_rejects_wrong_length_faults(self):
        from repro.engine import EmbeddingService

        with pytest.raises(InvalidParameterError):
            EmbeddingService().measure(2, 6, faults=[(1, 0, 1)])  # length 3 in B(2, 6)

    def test_measure_rejects_out_of_alphabet_faults(self):
        from repro.engine import EmbeddingService
        from repro.exceptions import AlphabetError

        with pytest.raises(AlphabetError):
            EmbeddingService().measure(2, 6, faults=[(0, 0, 0, 0, 0, 3)])

    def test_measure_matches_run_trial_statistics(self):
        from repro.engine import EmbeddingService

        response = EmbeddingService().measure(3, 4, faults=[(0, 1, 2, 2)])
        assert response.region_size == 3**4 - 4  # one aperiodic necklace removed
        assert response.root_eccentricity >= 4
