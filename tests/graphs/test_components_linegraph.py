"""Tests for residual-graph analysis and the line-graph correspondence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.graphs import (
    DeBruijnGraph,
    ResidualGraph,
    bfs_levels,
    circuit_to_cycle,
    component_of,
    component_sizes,
    component_stats_from_root,
    cycle_to_circuit,
    diameter,
    eccentricity,
    is_balanced_after_removal,
    is_circuit,
    lower_edge_to_node,
    node_to_lower_edge,
    residual_after_node_faults,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.words import word_to_int
from oracles.networkx_graphs import subgraph_without


class TestResidualConstruction:
    def test_no_faults(self):
        r = residual_after_node_faults(2, 4, [])
        assert r.num_alive == 16
        assert r.num_removed == 0

    def test_whole_necklace_removed(self):
        # fault 020 in B(3,3) removes the necklace {020, 200, 002}
        r = residual_after_node_faults(3, 3, [(0, 2, 0)])
        assert r.num_removed == 3
        assert not r.is_alive(word_to_int((2, 0, 0), 3))
        assert r.is_alive(word_to_int((0, 0, 0), 3))

    def test_example_2_1_removal(self):
        r = residual_after_node_faults(3, 3, [(0, 2, 0), (1, 1, 2)])
        assert r.num_alive == 21

    def test_int_encoded_faults_accepted(self):
        r1 = residual_after_node_faults(3, 3, [word_to_int((0, 2, 0), 3)])
        r2 = residual_after_node_faults(3, 3, [(0, 2, 0)])
        assert np.array_equal(r1.removed_mask, r2.removed_mask)

    def test_only_faulty_nodes_removed_when_flag_off(self):
        r = residual_after_node_faults(3, 3, [(0, 2, 0)], remove_whole_necklaces=False)
        assert r.num_removed == 1

    def test_alive_words_roundtrip(self):
        r = residual_after_node_faults(2, 3, [(0, 1, 1)])
        words = r.alive_words()
        assert len(words) == r.num_alive
        assert (0, 1, 1) not in words


class TestBFS:
    def test_bfs_from_root_in_full_graph(self):
        r = residual_after_node_faults(2, 4, [])
        dist = bfs_levels(r, 0, direction="out")
        assert dist[0] == 0
        assert dist.max() <= 4  # diameter of B(2,4) is n = 4
        assert (dist >= 0).all()

    def test_bfs_direction_in(self):
        r = residual_after_node_faults(2, 3, [])
        out_d = bfs_levels(r, 1, direction="out")
        in_d = bfs_levels(r, 1, direction="in")
        assert out_d[1] == 0 and in_d[1] == 0
        assert (in_d >= 0).all()

    def test_bfs_invalid_direction(self):
        r = residual_after_node_faults(2, 3, [])
        with pytest.raises(InvalidParameterError):
            bfs_levels(r, 0, direction="sideways")

    def test_bfs_removed_root_rejected(self):
        r = residual_after_node_faults(2, 3, [(0, 0, 0)])
        with pytest.raises(InvalidParameterError):
            bfs_levels(r, 0)

    def test_distances_match_networkx(self):
        import networkx as nx

        d, n = 2, 5
        faults = [(0, 1, 0, 1, 1), (1, 1, 0, 0, 0)]
        r = residual_after_node_faults(d, n, faults)
        g = DeBruijnGraph(d, n)
        from repro.words import faulty_necklaces

        removed = set()
        for nk in faulty_necklaces(faults, d):
            removed |= nk.node_set
        sub = subgraph_without(g, removed)
        root_word = (0, 0, 0, 0, 1)
        root = word_to_int(root_word, d)
        dist = bfs_levels(r, root, direction="out")
        nx_dist = nx.single_source_shortest_path_length(sub, root_word)
        for word, dd in nx_dist.items():
            assert dist[word_to_int(word, d)] == dd
        # nodes unreachable in networkx must be -1 or removed
        for value in range(2**n):
            if dist[value] == -1 and not r.removed_mask[value]:
                from repro.words import int_to_word

                assert int_to_word(value, d, n) not in nx_dist


class TestComponents:
    def test_full_graph_single_component(self):
        r = residual_after_node_faults(3, 3, [])
        comps = weakly_connected_components(r)
        assert len(comps) == 1
        assert len(comps[0]) == 27

    def test_component_sizes_sorted(self):
        r = residual_after_node_faults(2, 6, [(0, 1, 0, 1, 0, 1)])
        sizes = component_sizes(r)
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == r.num_alive

    def test_weak_equals_strong_after_necklace_removal(self):
        # removing whole necklaces keeps the graph balanced, so weak and
        # strong components coincide (Section 2.5 line-graph argument)
        for d, n, faults in [
            (2, 5, [(0, 0, 1, 1, 1)]),
            (3, 3, [(0, 2, 0), (1, 1, 2)]),
            (2, 6, [(0, 0, 0, 0, 0, 1), (0, 1, 1, 1, 1, 1)]),
        ]:
            r = residual_after_node_faults(d, n, faults)
            weak = sorted(len(c) for c in weakly_connected_components(r))
            strong = sorted(len(c) for c in strongly_connected_components(r))
            assert weak == strong

    def test_component_of_root(self):
        r = residual_after_node_faults(3, 3, [(0, 2, 0), (1, 1, 2)])
        root = word_to_int((0, 0, 1), 3)
        comp = component_of(r, root)
        assert len(comp) == 21  # Example 2.1: B* has 21 nodes

    def test_single_fault_binary_isolates_at_most_one_node(self):
        # Proposition 2.3's surrounding discussion
        for fault in [(0, 0, 1, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0, 1)]:
            r = residual_after_node_faults(2, 5, [fault])
            sizes = component_sizes(r)
            assert sizes[0] >= r.num_alive - 1


class TestEccentricityDiameter:
    def test_eccentricity_of_full_graph_root(self):
        r = residual_after_node_faults(2, 5, [])
        ecc = eccentricity(r, word_to_int((0, 0, 0, 0, 1), 2))
        assert ecc == 5  # B(2,n) has diameter n

    def test_diameter_full_graph(self):
        for d, n in [(2, 4), (3, 2)]:
            r = residual_after_node_faults(d, n, [])
            assert diameter(r) == n

    def test_prop_2_2_diameter_bound(self):
        # with f <= d-2 faults, the diameter of B* is at most 2n
        d, n = 4, 3
        r = residual_after_node_faults(d, n, [(0, 1, 2), (3, 3, 1)])
        assert diameter(r) <= 2 * n

    def test_component_stats_consistency(self):
        r = residual_after_node_faults(3, 3, [(0, 2, 0), (1, 1, 2)])
        root = word_to_int((0, 0, 1), 3)
        stats = component_stats_from_root(r, root)
        assert stats.component_size == 21
        assert stats.root_eccentricity <= 2 * 3
        assert stats.root == root

    def test_empty_residual_diameter_raises(self):
        mask = np.ones(8, dtype=bool)
        r = ResidualGraph(2, 3, mask)
        with pytest.raises(InvalidParameterError):
            diameter(r)


class TestLineGraph:
    def test_node_edge_correspondence(self):
        assert node_to_lower_edge((0, 1, 2), 3) == ((0, 1), (1, 2))
        assert lower_edge_to_node((0, 1), (1, 2), 3) == (0, 1, 2)

    def test_node_to_lower_edge_requires_length_two(self):
        with pytest.raises(InvalidParameterError):
            node_to_lower_edge((1,), 2)

    def test_lower_edge_to_node_rejects_non_edge(self):
        with pytest.raises(InvalidParameterError):
            lower_edge_to_node((0, 1), (0, 1), 2)

    def test_paper_cycle_circuit_example(self):
        # cycle (012,122,221,212,120,201) in B(3,3) <-> circuit (01,12,22,21,12,20)
        cycle = [(0, 1, 2), (1, 2, 2), (2, 2, 1), (2, 1, 2), (1, 2, 0), (2, 0, 1)]
        circuit = cycle_to_circuit(cycle, 3)
        assert circuit == [(0, 1), (1, 2), (2, 2), (2, 1), (1, 2), (2, 0)]
        assert is_circuit(circuit, 3)
        assert circuit_to_cycle(circuit, 3) == cycle

    def test_roundtrip_on_hamiltonian_cycle(self):
        g = DeBruijnGraph(2, 3)
        seq = [0, 0, 0, 1, 0, 1, 1, 1]
        hc = [tuple(seq[(i + j) % 8] for j in range(3)) for i in range(8)]
        circuit = cycle_to_circuit(hc, 2)
        assert is_circuit(circuit, 2)
        assert circuit_to_cycle(circuit, 2) == hc
        assert g.is_hamiltonian_cycle(hc)

    def test_is_circuit_rejects_repeated_edge(self):
        # walking 00 -> 00 -> 00 repeats the loop edge
        assert not is_circuit([(0, 0), (0, 0)], 2)

    def test_balanced_after_removal(self):
        cycle = [(0, 1, 2), (1, 2, 2), (2, 2, 1), (2, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert is_balanced_after_removal(3, 3, cycle)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3), st.integers(3, 5), st.data())
def test_random_fault_component_stats_are_consistent(d, n, data):
    num_faults = data.draw(st.integers(0, 3))
    faults = [
        tuple(data.draw(st.integers(0, d - 1)) for _ in range(n)) for _ in range(num_faults)
    ]
    r = residual_after_node_faults(d, n, faults)
    root_candidates = r.alive_nodes()
    if len(root_candidates) == 0:
        return
    root = int(root_candidates[0])
    stats = component_stats_from_root(r, root)
    comp = component_of(r, root)
    assert stats.component_size == len(comp)
    assert 0 <= stats.root_eccentricity < r.num_total
    assert sum(component_sizes(r)) == r.num_alive


def test_residual_rejects_wrong_length_faults():
    """A fault word of the wrong length must not silently map to another node."""
    import pytest
    from repro.exceptions import InvalidParameterError
    from repro.graphs import residual_after_node_faults

    with pytest.raises(InvalidParameterError):
        residual_after_node_faults(2, 4, [(0, 1)])
    with pytest.raises(InvalidParameterError):
        residual_after_node_faults(2, 4, [(0, 1, 0, 1, 0)], remove_whole_necklaces=False)
