"""Unit and property tests for repro.graphs.debruijn."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.graphs import (
    DeBruijnGraph,
    edge_label,
    is_debruijn_edge,
    predecessor_matrix,
    predecessors,
    successor_matrix,
    successors,
)
from repro.words import int_to_word, word_to_int
from oracles.networkx_graphs import subgraph_without, to_networkx

small_dn = st.tuples(st.integers(2, 4), st.integers(1, 5))


class TestModuleFunctions:
    def test_successors_of_node(self):
        assert successors((1, 0, 1), 2) == [(0, 1, 0), (0, 1, 1)]

    def test_predecessors_of_node(self):
        assert predecessors((1, 0, 1), 2) == [(0, 1, 0), (1, 1, 0)]

    def test_edge_detection(self):
        assert is_debruijn_edge((0, 1, 2), (1, 2, 0), 3)
        assert not is_debruijn_edge((0, 1, 2), (2, 1, 0), 3)

    def test_edge_label(self):
        assert edge_label((0, 1, 2), (1, 2, 0), 3) == (0, 1, 2, 0)
        with pytest.raises(InvalidParameterError):
            edge_label((0, 1, 2), (2, 1, 0), 3)

    @given(small_dn, st.data())
    @settings(max_examples=30, deadline=None)
    def test_successor_predecessor_duality(self, dn, data):
        d, n = dn
        value = data.draw(st.integers(0, d**n - 1))
        w = int_to_word(value, d, n)
        for s in successors(w, d):
            assert w in predecessors(s, d)
        for p in predecessors(w, d):
            assert w in successors(p, d)


class TestGraphBasics:
    def test_counts_b23(self):
        g = DeBruijnGraph(2, 3)
        assert g.num_nodes == 8
        assert g.num_edges == 16
        assert g.num_loops == 2

    def test_counts_b46(self):
        # the 4096-node example of Chapter 2's introduction: the paper counts
        # 16384 edges for B(4,6), i.e. d**(n+1) directed edges
        g = DeBruijnGraph(4, 6)
        assert g.num_nodes == 4096
        assert g.num_edges == 16384

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            DeBruijnGraph(1, 3)
        with pytest.raises(InvalidParameterError):
            DeBruijnGraph(2, 0)

    def test_equality_and_hash(self):
        assert DeBruijnGraph(2, 3) == DeBruijnGraph(2, 3)
        assert DeBruijnGraph(2, 3) != DeBruijnGraph(2, 4)
        assert hash(DeBruijnGraph(3, 2)) == hash(DeBruijnGraph(3, 2))

    def test_contains(self):
        g = DeBruijnGraph(3, 2)
        assert (2, 1) in g
        assert (3, 1) not in g
        assert (1, 1, 1) not in g
        assert "11" not in g

    def test_node_int_roundtrip(self):
        g = DeBruijnGraph(3, 4)
        assert g.node_from_int(42) == (1, 1, 2, 0)
        assert g.node_to_int((1, 1, 2, 0)) == 42

    def test_nodes_enumeration(self):
        g = DeBruijnGraph(2, 3)
        nodes = list(g.nodes())
        assert len(nodes) == 8
        assert nodes[0] == (0, 0, 0)
        assert nodes[-1] == (1, 1, 1)

    def test_wrong_length_node_rejected(self):
        g = DeBruijnGraph(2, 3)
        with pytest.raises(InvalidParameterError):
            g.successors((0, 1))
        with pytest.raises(InvalidParameterError):
            g.in_degree((0, 1, 0, 1))


class TestEdges:
    def test_figure_1_1a_edges(self):
        # a few edges read off Figure 1.1(a): B(2,3)
        g = DeBruijnGraph(2, 3)
        assert g.has_edge((0, 0, 0), (0, 0, 1))
        assert g.has_edge((0, 0, 1), (0, 1, 0))
        assert g.has_edge((1, 0, 1), (0, 1, 1))
        assert g.has_edge((1, 1, 1), (1, 1, 1))  # loop
        assert not g.has_edge((0, 0, 1), (1, 0, 0))

    def test_edge_count_matches_enumeration(self):
        g = DeBruijnGraph(3, 2)
        assert sum(1 for _ in g.edges()) == g.num_edges

    def test_every_node_has_d_successors_and_predecessors(self):
        g = DeBruijnGraph(3, 3)
        for w in g.nodes():
            assert len(g.successors(w)) == 3
            assert len(g.predecessors(w)) == 3
            assert g.in_degree(w) == 3
            assert g.out_degree(w) == 3

    def test_loops_only_at_constant_words(self):
        g = DeBruijnGraph(3, 2)
        loops = [w for w in g.nodes() if g.has_edge(w, w)]
        assert loops == [(0, 0), (1, 1), (2, 2)]
        for w in g.nodes():
            assert g.has_loop(w) == (w in loops)

    def test_edge_labels_roundtrip(self):
        g = DeBruijnGraph(2, 3)
        labels = list(g.edge_labels())
        assert len(labels) == g.num_edges
        for lab in labels:
            src, dst = g.edge_from_label(lab)
            assert g.has_edge(src, dst)

    def test_edge_from_label_wrong_length(self):
        g = DeBruijnGraph(2, 3)
        with pytest.raises(InvalidParameterError):
            g.edge_from_label((0, 1, 0))


class TestMatrices:
    @given(small_dn)
    @settings(max_examples=20, deadline=None)
    def test_successor_matrix_matches_tuples(self, dn):
        d, n = dn
        g = DeBruijnGraph(d, n)
        S = successor_matrix(d, n)
        assert S.shape == (d**n, d)
        for value in range(min(d**n, 64)):
            w = int_to_word(value, d, n)
            expected = sorted(word_to_int(s, d) for s in g.successors(w))
            assert sorted(int(x) for x in S[value]) == expected

    @given(small_dn)
    @settings(max_examples=20, deadline=None)
    def test_predecessor_matrix_matches_tuples(self, dn):
        d, n = dn
        g = DeBruijnGraph(d, n)
        P = predecessor_matrix(d, n)
        for value in range(min(d**n, 64)):
            w = int_to_word(value, d, n)
            expected = sorted(word_to_int(p, d) for p in g.predecessors(w))
            assert sorted(int(x) for x in P[value]) == expected

    def test_matrix_duality(self):
        d, n = 3, 3
        S = successor_matrix(d, n)
        P = predecessor_matrix(d, n)
        for x in range(d**n):
            for y in S[x]:
                assert x in P[int(y)]

    def test_matrix_dtype(self):
        assert successor_matrix(2, 5).dtype == np.int64


class TestCycleVerification:
    def test_known_cycle(self):
        g = DeBruijnGraph(3, 3)
        cycle = [(0, 1, 2), (1, 2, 2), (2, 2, 1), (2, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert g.is_cycle(cycle)

    def test_loop_is_single_node_cycle(self):
        g = DeBruijnGraph(2, 3)
        assert g.is_cycle([(1, 1, 1)])
        assert not g.is_cycle([(0, 1, 1)])

    def test_non_cycle_rejected(self):
        g = DeBruijnGraph(2, 3)
        assert not g.is_cycle([(0, 0, 1), (0, 1, 0), (0, 0, 1)])  # repeat
        assert not g.is_cycle([(0, 0, 1), (1, 1, 1)])  # not an edge
        assert not g.is_cycle([])

    def test_path_detection(self):
        g = DeBruijnGraph(2, 3)
        assert g.is_path([(0, 0, 1), (0, 1, 0), (1, 0, 1)])
        assert not g.is_path([(0, 0, 1), (1, 0, 1)])

    def test_hamiltonian_cycle_detection(self):
        # standard binary De Bruijn sequence 00010111 for B(2,3)
        g = DeBruijnGraph(2, 3)
        seq = [0, 0, 0, 1, 0, 1, 1, 1]
        cycle = [tuple(seq[(i + j) % 8] for j in range(3)) for i in range(8)]
        assert g.is_hamiltonian_cycle(cycle)
        assert not g.is_hamiltonian_cycle(cycle[:-1])


class TestConversions:
    def test_to_networkx_counts(self):
        g = DeBruijnGraph(2, 3)
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 8
        assert nxg.number_of_edges() == 16
        no_loops = to_networkx(g, remove_loops=True)
        assert no_loops.number_of_edges() == 14

    def test_subgraph_without_nodes(self):
        g = DeBruijnGraph(3, 3)
        removed = [(0, 2, 0), (2, 0, 0), (0, 0, 2)]
        sub = subgraph_without(g, removed)
        assert sub.number_of_nodes() == 24
        assert all(w not in sub for w in removed)
        for src, dst in sub.edges():
            assert g.has_edge(src, dst)
