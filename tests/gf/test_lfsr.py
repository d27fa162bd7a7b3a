"""Unit and property tests for repro.gf.lfsr (shift-register sequences)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.gf import (
    GF,
    AffineRecurrence,
    LinearRecurrence,
    default_maximal_cycle_recurrence,
    maximal_cycle,
    sequence_period,
    shifted_cycle,
)


def windows(seq, n):
    """All length-n circular windows of a sequence."""
    k = len(seq)
    return [tuple(seq[(i + j) % k] for j in range(n)) for i in range(k)]


class TestAffineRecurrence:
    def test_paper_example_3_1_sequence(self):
        # s_{2+i} = s_{1+i} + 3 s_i over GF(5), s0=0, s1=1 gives the maximal
        # cycle [0,1,1,4,2,4,0,2,2,3,4,3,0,4,4,1,3,1,0,3,3,2,1,2]
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        seq = rec.sequence((0, 1), 24)
        assert seq == [0, 1, 1, 4, 2, 4, 0, 2, 2, 3, 4, 3, 0, 4, 4, 1, 3, 1, 0, 3, 3, 2, 1, 2]

    def test_next_digit_matches_sequence(self):
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        seq = rec.sequence((0, 1), 30)
        for i in range(28):
            assert rec.next_digit(seq[i : i + 2]) == seq[i + 2]

    def test_window_length_checked(self):
        f = GF(3)
        rec = LinearRecurrence(f, (1, 1))
        with pytest.raises(InvalidParameterError):
            rec.next_digit((1,))

    def test_invalid_coefficients_rejected(self):
        f = GF(3)
        with pytest.raises(InvalidParameterError):
            AffineRecurrence(f, (3, 1))
        with pytest.raises(InvalidParameterError):
            AffineRecurrence(f, (), 0)

    def test_coefficient_sum_omega(self):
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        assert rec.coefficient_sum == 4  # omega = 3 + 1

    def test_shifted_recurrence_lemma_3_2(self):
        # the shifted sequence s + C satisfies the affine recurrence with
        # constant s*(1 - omega)
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        base = rec.sequence((0, 1), 24)
        for s in range(5):
            shifted = shifted_cycle(base, s, f)
            affine = rec.shifted(s)
            expected_constant = f.mul(s, f.sub(1, rec.coefficient_sum))
            assert affine.constant == expected_constant
            regenerated = affine.sequence(shifted[:2], 24)
            assert regenerated == shifted

    def test_period_of_maximal_recurrence(self):
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        assert rec.period((0, 1)) == 24

    def test_period_of_zero_state_linear(self):
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        assert rec.period((0, 0)) == 1

    def test_period_bad_initial_length(self):
        f = GF(3)
        rec = LinearRecurrence(f, (1, 1))
        with pytest.raises(InvalidParameterError):
            rec.period((1,))

    def test_sequence_negative_length_rejected(self):
        f = GF(3)
        rec = LinearRecurrence(f, (1, 1))
        with pytest.raises(InvalidParameterError):
            rec.sequence((0, 1), -1)

    def test_characteristic_polynomial_roundtrip(self):
        f = GF(7)
        rec = LinearRecurrence(f, (2, 5, 1))
        assert rec.characteristic_polynomial().recurrence_coefficients() == (2, 5, 1)


class TestMaximalCycle:
    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (13, 2)])
    def test_maximal_cycle_visits_all_nonzero_nodes_once(self, d, n):
        cycle = maximal_cycle(d, n)
        assert len(cycle) == d**n - 1
        nodes = windows(cycle, n)
        assert len(set(nodes)) == len(nodes)
        assert (0,) * n not in nodes

    def test_default_recurrence_is_primitive(self):
        from repro.gf import is_primitive

        rec = default_maximal_cycle_recurrence(4, 3)
        assert is_primitive(rec.characteristic_polynomial())

    def test_explicit_recurrence_accepted(self):
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        cycle = maximal_cycle(5, 2, recurrence=rec, initial=(0, 1))
        assert cycle == [0, 1, 1, 4, 2, 4, 0, 2, 2, 3, 4, 3, 0, 4, 4, 1, 3, 1, 0, 3, 3, 2, 1, 2]

    def test_mismatched_recurrence_rejected(self):
        f = GF(5)
        rec = LinearRecurrence(f, (3, 1))
        with pytest.raises(InvalidParameterError):
            maximal_cycle(5, 3, recurrence=rec)

    def test_non_primitive_recurrence_rejected(self):
        f = GF(3)
        # x^2 + 1 is irreducible but not primitive over GF(3)
        rec = LinearRecurrence(f, (2, 0))  # x^2 - 0x - 2 = x^2+1
        with pytest.raises(InvalidParameterError):
            maximal_cycle(3, 2, recurrence=rec)

    def test_zero_initial_state_rejected(self):
        with pytest.raises(InvalidParameterError):
            maximal_cycle(3, 2, initial=(0, 0))

    def test_affine_recurrence_rejected(self):
        f = GF(5)
        rec = AffineRecurrence(f, (3, 1), 2)
        with pytest.raises(InvalidParameterError):
            maximal_cycle(5, 2, recurrence=rec)


class TestShiftedCycle:
    def test_shift_by_zero_is_identity(self):
        f = GF(7)
        cycle = maximal_cycle(7, 2)
        assert shifted_cycle(cycle, 0, f) == cycle

    def test_shifts_are_cycles(self):
        # Lemma 3.1: the shift of a cycle is a cycle
        f = GF(5)
        cycle = maximal_cycle(5, 2)
        for s in range(5):
            shifted = shifted_cycle(cycle, s, f)
            nodes = windows(shifted, 2)
            assert len(set(nodes)) == len(nodes)

    def test_shifts_are_pairwise_edge_disjoint(self):
        # Lemma 3.3: the d shifted cycles are pairwise edge-disjoint
        for d, n in [(4, 2), (5, 2), (3, 3)]:
            f = GF(d)
            cycle = maximal_cycle(d, n)
            edge_sets = []
            for s in range(d):
                shifted = shifted_cycle(cycle, s, f)
                edge_sets.append(set(windows(shifted, n + 1)))
            for i in range(d):
                for j in range(i + 1, d):
                    assert not (edge_sets[i] & edge_sets[j])

    def test_shift_misses_exactly_s_to_the_n(self):
        # every node except s^n appears in s + C
        d, n = 5, 2
        f = GF(d)
        cycle = maximal_cycle(d, n)
        for s in range(d):
            nodes = set(windows(shifted_cycle(cycle, s, f), n))
            assert (s,) * n not in nodes
            assert len(nodes) == d**n - 1

    def test_invalid_shift_element(self):
        f = GF(5)
        with pytest.raises(InvalidParameterError):
            shifted_cycle([0, 1], 5, f)


class TestSequencePeriod:
    def test_examples(self):
        assert sequence_period([0, 1, 0, 1]) == 2
        assert sequence_period([1, 1, 1]) == 1
        assert sequence_period([0, 1, 2]) == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            sequence_period([])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    def test_period_divides_length(self, seq):
        assert len(seq) % sequence_period(seq) == 0


class TestDefaultRecurrence:
    # the lexicographically smallest primitive polynomial of degree n over
    # GF(d), as recurrence coefficients (a_0, ..., a_{n-1})
    PINNED = {
        (2, 1): (1,), (2, 2): (1, 1), (2, 3): (1, 0, 1), (2, 4): (1, 0, 0, 1),
        (2, 5): (1, 0, 0, 1, 0), (2, 6): (1, 0, 0, 0, 0, 1),
        (3, 1): (2,), (3, 2): (1, 2), (3, 3): (2, 0, 1), (3, 4): (1, 0, 0, 2),
        (3, 5): (2, 0, 0, 0, 1),
        (4, 1): (2,), (4, 2): (2, 1), (4, 3): (2, 1, 1), (4, 4): (2, 0, 1, 1),
        (5, 1): (3,), (5, 2): (3, 4), (5, 3): (3, 0, 4), (5, 4): (3, 0, 3, 4),
        (7, 1): (5,), (7, 2): (4, 6), (7, 3): (5, 6, 6),
        (8, 1): (2,), (8, 2): (2, 1), (8, 3): (2, 0, 2),
        (9, 1): (8,), (9, 2): (8, 6),
    }

    @pytest.mark.parametrize("d,n", sorted(PINNED))
    def test_coefficients_pinned(self, d, n):
        rec = default_maximal_cycle_recurrence(d, n)
        assert rec.field.order == d
        assert tuple(rec.coeffs) == self.PINNED[(d, n)]

    def test_repeat_call_is_a_cache_hit(self):
        from repro.gf.primitive import primitive_polynomial_coefficients

        default_maximal_cycle_recurrence(4, 3)
        before = primitive_polynomial_coefficients.cache_info()
        default_maximal_cycle_recurrence(4, 3)
        after = primitive_polynomial_coefficients.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
