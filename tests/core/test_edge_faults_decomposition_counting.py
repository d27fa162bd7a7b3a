"""Tests for edge-fault embedding (3.3), butterfly transfer (3.4), MB decomposition
(3.2.3) and necklace counting (Chapter 4)."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    brute_force_necklace_count,
    butterfly_disjoint_hamiltonian_cycles,
    butterfly_edge_fault_free_hc,
    count_necklaces_by_type,
    count_necklaces_by_type_total,
    count_necklaces_by_weight,
    count_necklaces_by_weight_total,
    count_necklaces_of_length,
    count_necklaces_total,
    dary_tuples_of_weight,
    edge_fault_phi,
    edge_fault_tolerance,
    edge_fault_free_hc_prime_power,
    edges_of_sequence,
    find_edge_fault_free_hc,
    is_hamiltonian_sequence,
    modified_debruijn_decomposition,
    nodes_of_sequence,
    normalize_edge_faults,
    project_butterfly_edge,
    psi,
)
from repro.exceptions import FaultBudgetExceededError, InvalidParameterError
from repro.graphs import ButterflyGraph, DeBruijnGraph
from repro.words import iter_words, weight
from oracles.networkx_graphs import to_networkx


class TestNormalizeEdgeFaults:
    def test_accepts_labels_and_pairs(self):
        labels = normalize_edge_faults(3, 2, [(0, 1, 2), ((1, 2), (2, 0))])
        assert labels == {(0, 1, 2), (1, 2, 0)}

    def test_rejects_non_edges(self):
        with pytest.raises(InvalidParameterError):
            normalize_edge_faults(3, 2, [((0, 1), (0, 1))])
        with pytest.raises(InvalidParameterError):
            normalize_edge_faults(3, 2, [(0, 1)])
        with pytest.raises(InvalidParameterError):
            normalize_edge_faults(3, 2, [(0, 1, 3)])


class TestEdgeFaultHC:
    @pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (5, 2), (4, 3), (7, 2), (8, 2), (9, 2), (5, 3)])
    def test_prime_power_tolerates_d_minus_2_faults(self, d, n):
        # adversarial-ish fault set: d-2 edges all incident to the node 0^n
        faults = [(a,) + (0,) * n for a in range(1, d - 1)]
        seq = edge_fault_free_hc_prime_power(d, n, faults, strict=True)
        assert is_hamiltonian_sequence(seq, d, n)
        assert not (set(edges_of_sequence(seq, n)) & normalize_edge_faults(d, n, faults))

    def test_prime_power_strict_rejects_excess(self):
        faults = [(a,) + (0, 0) for a in range(1, 4)]
        with pytest.raises(FaultBudgetExceededError):
            edge_fault_free_hc_prime_power(4, 2, faults, strict=True)

    @pytest.mark.parametrize("d,n", [(6, 2), (10, 2), (12, 2), (15, 2), (6, 3)])
    def test_composite_tolerates_phi_faults(self, d, n):
        rng = np.random.default_rng(d * 100 + n)
        budget = edge_fault_phi(d)
        g = DeBruijnGraph(d, n)
        faults = set()
        while len(faults) < budget:
            label = tuple(int(x) for x in rng.integers(0, d, size=n + 1))
            if len(set(label)) > 1:  # avoid loop edges, which no HC uses anyway
                faults.add(label)
        seq = find_edge_fault_free_hc(d, n, faults, method="shifted", strict=True)
        assert is_hamiltonian_sequence(seq, d, n)
        assert not (set(edges_of_sequence(seq, n)) & faults)
        assert g.is_hamiltonian_cycle(nodes_of_sequence(seq, n))

    def test_prop_3_4_tolerance_via_auto(self):
        # d = 28 is the one value where the disjoint-HC route beats phi(d);
        # use a smaller stand-in (d=8, psi-1=6 = phi(8)=6) and check 'auto'
        # handles tolerance-many faults for several d.
        for d, n in [(4, 2), (8, 2), (9, 2)]:
            tolerance = edge_fault_tolerance(d)
            rng = np.random.default_rng(d)
            faults = set()
            while len(faults) < tolerance:
                label = tuple(int(x) for x in rng.integers(0, d, size=n + 1))
                if len(set(label)) > 1:
                    faults.add(label)
            seq = find_edge_fault_free_hc(d, n, faults, method="auto", strict=True)
            assert is_hamiltonian_sequence(seq, d, n)
            assert not (set(edges_of_sequence(seq, n)) & faults)

    def test_disjoint_method(self):
        d, n = 4, 2
        faults = [(0, 1, 2)]
        seq = find_edge_fault_free_hc(d, n, faults, method="disjoint")
        assert is_hamiltonian_sequence(seq, d, n)
        assert (0, 1, 2) not in edges_of_sequence(seq, n)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            find_edge_fault_free_hc(4, 2, [], method="magic")

    def test_strict_auto_rejects_more_than_tolerance(self):
        d, n = 4, 2
        faults = {(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)}
        assert len(faults) > edge_fault_tolerance(d)
        with pytest.raises(FaultBudgetExceededError):
            find_edge_fault_free_hc(d, n, faults, strict=True)

    def test_single_fault_any_d(self):
        # every non-binary De Bruijn graph tolerates one edge fault
        for d in [3, 4, 5, 6, 7, 9, 10]:
            seq = find_edge_fault_free_hc(d, 2, [(0, 1, 1)], strict=True)
            assert is_hamiltonian_sequence(seq, d, 2)
            assert (0, 1, 1) not in edges_of_sequence(seq, 2)


class TestButterflyTransfer:
    def test_projection_matches_lemma_3_8(self):
        f = ButterflyGraph(2, 3)
        b = DeBruijnGraph(2, 3)
        for src, dst in itertools.islice(f.edges(), 100):
            label = project_butterfly_edge(src, dst, 2)
            assert b.has_edge(label[:-1], label[1:])

    def test_projection_rejects_non_edges(self):
        with pytest.raises(InvalidParameterError):
            project_butterfly_edge((0, (0, 1)), (0, (1, 1)), 2)

    @pytest.mark.parametrize("d,n", [(3, 2), (2, 3), (4, 3), (5, 2)])
    def test_fault_free_hc_avoids_butterfly_faults(self, d, n):
        butterfly = ButterflyGraph(d, n)
        faulty = list(itertools.islice(butterfly.edges(), 1))
        cycle = butterfly_edge_fault_free_hc(d, n, faulty)
        assert butterfly.is_hamiltonian_cycle(cycle)
        cycle_edges = set(zip(cycle, cycle[1:] + cycle[:1]))
        assert not (cycle_edges & set(faulty))

    def test_requires_coprime_parameters(self):
        with pytest.raises(InvalidParameterError):
            butterfly_edge_fault_free_hc(2, 4, [])
        with pytest.raises(InvalidParameterError):
            butterfly_disjoint_hamiltonian_cycles(3, 3)

    @pytest.mark.parametrize("d,n", [(4, 3), (3, 2), (5, 2)])
    def test_disjoint_butterfly_hcs(self, d, n):
        butterfly = ButterflyGraph(d, n)
        cycles = butterfly_disjoint_hamiltonian_cycles(d, n)
        assert len(cycles) >= psi(d)
        edge_sets = []
        for cycle in cycles:
            assert butterfly.is_hamiltonian_cycle(cycle)
            edge_sets.append(set(zip(cycle, cycle[1:] + cycle[:1])))
        for i in range(len(edge_sets)):
            for j in range(i + 1, len(edge_sets)):
                assert not (edge_sets[i] & edge_sets[j])


class TestHamiltonianDecomposition:
    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (9, 2)])
    def test_decomposition_properties(self, d, n):
        dec = modified_debruijn_decomposition(d, n)
        assert len(dec.cycles) == d
        assert dec.is_decomposition()
        assert dec.is_regular()
        assert dec.undirected_contains_ub()

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (5, 2)])
    def test_is_regular_matches_networkx_degrees(self, d, n):
        dec = modified_debruijn_decomposition(d, n)
        first = dec.cycles[0]
        broken = [
            dec,
            dataclasses.replace(dec, cycles=dec.cycles[1:]),  # a cycle short
            dataclasses.replace(dec, cycles=(first[1:] + first[:1],) + dec.cycles[1:]),
            dataclasses.replace(dec, cycles=(first[:-1] + first[:1],) + dec.cycles[1:]),
            dataclasses.replace(dec, cycles=(first[:-1],) + dec.cycles[1:]),
        ]
        for candidate in broken:
            g = to_networkx(candidate)
            expected = g.number_of_nodes() == d**n and all(
                deg == d for _, deg in [*g.in_degree(), *g.out_degree()]
            )
            assert candidate.is_regular() == expected
        assert [c.is_regular() for c in broken] == [True, False, True, False, False]

    def test_edge_disjoint_for_n_at_least_3(self):
        for d, n in [(2, 3), (3, 3), (5, 3)]:
            assert modified_debruijn_decomposition(d, n).cycles_edge_disjoint()

    def test_example_3_6_binary_cycles(self):
        # Example 3.6: C from c_{i+3} = c_{i+2} + c_i with (0,0,1) gives
        # [0,0,1,1,1,0,1]; H_0 inserts 000 between 100 and 001; H_1 removes
        # 000 from 1+C and routes 010 -> 000 -> 111 -> 101.
        from repro.gf import GF, LinearRecurrence

        rec = LinearRecurrence(GF(2), (1, 0, 1))
        dec = modified_debruijn_decomposition(2, 3, recurrence=rec, initial=(0, 0, 1))
        h0, h1 = dec.cycles
        assert set(h0) == set(iter_words(2, 3))
        assert set(h1) == set(iter_words(2, 3))
        # H_0 is a genuine De Bruijn Hamiltonian cycle
        assert DeBruijnGraph(2, 3).is_hamiltonian_cycle(h0)
        # H_1 contains the detour 010 -> 000 -> 111 -> 101
        i = h1.index((0, 1, 0))
        k = len(h1)
        assert h1[(i + 1) % k] == (0, 0, 0)
        assert h1[(i + 2) % k] == (1, 1, 1)
        assert h1[(i + 3) % k] == (1, 0, 1)
        assert dec.replaced_p_edges[1] == ((0, 1, 0), (1, 0, 1))

    def test_binary_n2_rejected(self):
        with pytest.raises(InvalidParameterError):
            modified_debruijn_decomposition(2, 2)

    def test_even_prime_power_above_two_rejected(self):
        with pytest.raises(InvalidParameterError):
            modified_debruijn_decomposition(4, 3)

    def test_composite_rejected(self):
        from repro.exceptions import NotPrimePowerError

        with pytest.raises(NotPrimePowerError):
            modified_debruijn_decomposition(6, 3)


class TestCounting:
    def test_paper_example_length_6_in_b2_12(self):
        assert count_necklaces_of_length(2, 12, 6) == 9

    def test_paper_example_total_b2_12(self):
        assert count_necklaces_total(2, 12) == 352

    def test_paper_example_weight_4_length_6(self):
        assert count_necklaces_by_weight(2, 12, 4, 6) == 2

    def test_paper_example_weight_4_total(self):
        assert count_necklaces_by_weight_total(2, 12, 4) == 43

    def test_paper_example_ternary_weight_4_length_4(self):
        assert count_necklaces_by_weight(3, 4, 4, 4) == 4

    def test_length_not_dividing_n_gives_zero(self):
        assert count_necklaces_of_length(2, 12, 5) == 0
        assert count_necklaces_by_weight(2, 12, 4, 5) == 0

    def test_totals_match_enumeration(self):
        for d, n in [(2, 6), (2, 8), (3, 4), (3, 5), (4, 4), (5, 3)]:
            assert count_necklaces_total(d, n) == brute_force_necklace_count(d, n)

    def test_by_length_matches_enumeration(self):
        for d, n in [(2, 8), (3, 6), (4, 4)]:
            from repro.gf import divisors

            for t in divisors(n):
                assert count_necklaces_of_length(d, n, t) == brute_force_necklace_count(
                    d, n, length=t
                )

    def test_by_weight_matches_enumeration(self):
        for d, n in [(2, 6), (2, 8), (3, 4), (3, 6), (4, 3)]:
            for k in range(n * (d - 1) + 1):
                assert count_necklaces_by_weight_total(d, n, k) == brute_force_necklace_count(
                    d, n, weight_k=k
                ), (d, n, k)

    def test_by_type_matches_enumeration(self):
        d, n = 3, 6
        for k0 in range(n + 1):
            for k1 in range(n - k0 + 1):
                k2 = n - k0 - k1
                type_k = (k0, k1, k2)
                assert count_necklaces_by_type_total(d, n, type_k) == brute_force_necklace_count(
                    d, n, type_k=type_k
                ), type_k

    def test_by_type_example_from_paper(self):
        # 312211 is of type [0,3,2,1] (paper's example); count necklaces of
        # that type in B(4,6) and cross-check by enumeration
        type_k = (0, 3, 2, 1)
        total = count_necklaces_by_type_total(4, 6, type_k)
        assert total == brute_force_necklace_count(4, 6, type_k=type_k)

    def test_binary_type_equals_weight(self):
        # when d = 2, type (n-k, k) corresponds exactly to weight k
        d, n = 2, 8
        for k in range(n + 1):
            assert count_necklaces_by_type_total(d, n, (n - k, k)) == \
                count_necklaces_by_weight_total(d, n, k)

    def test_dary_tuples_of_weight_matches_enumeration(self):
        for d, n in [(2, 6), (3, 4), (4, 3), (5, 3)]:
            by_weight = {}
            for w in iter_words(d, n):
                by_weight[weight(w)] = by_weight.get(weight(w), 0) + 1
            for k in range(n * (d - 1) + 1):
                assert dary_tuples_of_weight(d, n, k) == by_weight.get(k, 0)

    def test_dary_tuples_out_of_range_weight(self):
        assert dary_tuples_of_weight(3, 4, 100) == 0
        assert dary_tuples_of_weight(3, 4, -1) == 0

    def test_weight_counts_sum_to_total(self):
        d, n = 3, 6
        total = sum(count_necklaces_by_weight_total(d, n, k) for k in range(n * (d - 1) + 1))
        assert total == count_necklaces_total(d, n)

    def test_length_counts_sum_to_total(self):
        from repro.gf import divisors

        for d, n in [(2, 12), (3, 6), (4, 6)]:
            total = sum(count_necklaces_of_length(d, n, t) for t in divisors(n))
            assert total == count_necklaces_total(d, n)

    def test_type_vector_validation(self):
        with pytest.raises(InvalidParameterError):
            count_necklaces_by_type(3, 4, (1, 1), 4)
        with pytest.raises(InvalidParameterError):
            count_necklaces_by_type_total(3, 4, (1, 1, 1))

    def test_necklace_count_equals_histogram(self):
        from repro.words import necklace_lengths_histogram

        for d, n in [(2, 10), (3, 5)]:
            hist = necklace_lengths_histogram(d, n)
            for t, count in hist.items():
                assert count_necklaces_of_length(d, n, t) == count


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 6), st.data())
def test_counting_weight_property(d, n, data):
    k = data.draw(st.integers(0, n * (d - 1)))
    assert count_necklaces_by_weight_total(d, n, k) == brute_force_necklace_count(
        d, n, weight_k=k
    )
