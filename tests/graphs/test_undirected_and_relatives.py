"""Tests for UB(d,n), Kautz, shuffle-exchange and hypercube graphs."""

import networkx as nx
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import (
    DeBruijnGraph,
    HypercubeGraph,
    KautzGraph,
    ShuffleExchangeGraph,
    UndirectedDeBruijnGraph,
    degree_census,
    fault_free_cycle_bound,
    gray_code_cycle,
    longest_fault_free_cycle_bruteforce,
)
from oracles.networkx_graphs import to_networkx


class TestUndirectedDeBruijn:
    def test_figure_1_2_ub23(self):
        g = UndirectedDeBruijnGraph(2, 3)
        assert g.num_nodes == 8
        # 000-100, 000-001, 001-010, 001-011, 010-100, 010-101, 011-101,
        # 011-111, 100-110, 101-110, 110-111, 001-100(?) ... verified via census
        census = g.degree_census()
        assert census == degree_census(2, 3)

    def test_degree_census_formula_matches_measurement(self):
        for d, n in [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
            g = UndirectedDeBruijnGraph(d, n)
            assert g.degree_census() == degree_census(d, n)

    def test_census_class_sizes_from_paper(self):
        # d nodes of degree 2d-2, d(d-1) of degree 2d-1, d^n - d^2 of degree 2d
        census = degree_census(3, 3)
        assert census[4] == 3
        assert census[5] == 6
        assert census[6] == 27 - 9

    def test_degree_of_constant_and_alternating_words(self):
        g = UndirectedDeBruijnGraph(3, 3)
        assert g.degree((0, 0, 0)) == 4
        assert g.degree((0, 1, 0)) == 5
        assert g.degree((0, 1, 2)) == 6

    def test_no_loops(self):
        g = UndirectedDeBruijnGraph(2, 4)
        nxg = to_networkx(g)
        assert nx.number_of_selfloops(nxg) == 0

    def test_connected(self):
        for d, n in [(2, 3), (2, 5), (3, 3)]:
            assert UndirectedDeBruijnGraph(d, n).is_connected()

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 4), (3, 3), (4, 2)])
    def test_adjacency_matches_networkx_oracle(self, d, n):
        g = UndirectedDeBruijnGraph(d, n)
        oracle = to_networkx(DeBruijnGraph(d, n), remove_loops=True).to_undirected()
        assert list(g.nodes()) == list(oracle.nodes())
        assert {frozenset(e) for e in g.edges()} == {frozenset(e) for e in oracle.edges()}
        assert g.num_edges == oracle.number_of_edges()
        for w in oracle.nodes():
            assert sorted(g.neighbors(w)) == sorted(oracle.neighbors(w))
            assert g.degree(w) == oracle.degree(w)
        assert g.is_connected() == nx.is_connected(oracle)

    def test_edges_subset_of_directed(self):
        g = UndirectedDeBruijnGraph(2, 3)
        for a, b in g.edges():
            assert g.directed.has_edge(a, b) or g.directed.has_edge(b, a)

    def test_neighbors_and_has_edge(self):
        g = UndirectedDeBruijnGraph(2, 3)
        assert (0, 0, 1) in g.neighbors((0, 0, 0))
        assert g.has_edge((0, 0, 0), (1, 0, 0))
        assert not g.has_edge((0, 0, 0), (1, 1, 1))

    def test_degree_of_unknown_node_raises(self):
        g = UndirectedDeBruijnGraph(2, 3)
        with pytest.raises(InvalidParameterError):
            g.degree((0, 1))

    def test_n_equals_one_is_complete_graph(self):
        g = UndirectedDeBruijnGraph(3, 1)
        assert g.num_edges == 3
        assert g.degree_census() == {2: 3}
        assert degree_census(3, 1) == {2: 3}


class TestKautz:
    def test_counts(self):
        k = KautzGraph(2, 3)
        assert k.num_nodes == 12
        assert k.num_edges == 24
        assert len(list(k.nodes())) == 12
        assert sum(1 for _ in k.edges()) == 24

    def test_no_loops_and_regular(self):
        k = KautzGraph(3, 2)
        for w in k.nodes():
            succ = k.successors(w)
            assert len(succ) == 3
            assert w not in succ
            assert len(k.predecessors(w)) == 3

    def test_node_validity(self):
        k = KautzGraph(2, 3)
        assert k.is_node((0, 1, 0))
        assert not k.is_node((0, 0, 1))
        assert not k.is_node((0, 1))
        with pytest.raises(InvalidParameterError):
            k.successors((0, 0, 1))

    def test_edge_rule(self):
        k = KautzGraph(2, 3)
        assert k.has_edge((0, 1, 2), (1, 2, 0))
        assert not k.has_edge((0, 1, 2), (1, 2, 2))

    def test_is_cycle(self):
        k = KautzGraph(2, 2)
        assert k.is_cycle([(0, 1), (1, 0)])
        assert not k.is_cycle([(0, 1), (1, 2)])

    def test_successor_predecessor_duality(self):
        k = KautzGraph(2, 3)
        for w in k.nodes():
            for s in k.successors(w):
                assert w in k.predecessors(s)

    def test_to_networkx(self):
        k = KautzGraph(2, 2)
        g = to_networkx(k)
        assert g.number_of_nodes() == 6
        assert g.number_of_edges() == 12


class TestShuffleExchange:
    def test_counts(self):
        se = ShuffleExchangeGraph(2, 3)
        assert se.num_nodes == 8

    def test_shuffle_is_rotation(self):
        se = ShuffleExchangeGraph(2, 4)
        assert se.shuffle_neighbor((0, 0, 0, 1)) == (0, 0, 1, 0)

    def test_exchange_flips_last_digit(self):
        se = ShuffleExchangeGraph(2, 3)
        assert se.exchange_neighbors((0, 1, 0)) == [(0, 1, 1)]
        se3 = ShuffleExchangeGraph(3, 2)
        assert se3.exchange_neighbors((0, 1)) == [(0, 0), (0, 2)]

    def test_neighbors_exclude_self(self):
        se = ShuffleExchangeGraph(2, 3)
        assert (0, 0, 0) not in se.neighbors((0, 0, 0))

    def test_binary_graph_is_connected(self):
        se = ShuffleExchangeGraph(2, 4)
        assert nx.is_connected(to_networkx(se))

    def test_necklace_edges_are_rotations(self):
        se = ShuffleExchangeGraph(2, 4)
        from repro.words import rotate_left

        for a, b in se.necklace_edges():
            assert rotate_left(a) == b or rotate_left(b) == a


class TestHypercube:
    def test_counts(self):
        q = HypercubeGraph(4)
        assert q.num_nodes == 16
        assert q.num_edges == 32
        assert sum(1 for _ in q.edges()) == 32

    def test_q12_vs_b46_edge_comparison(self):
        # Chapter 2 intro: the 4096-node hypercube has 24576 edges,
        # 50% more than the De Bruijn graph's 16384
        q = HypercubeGraph(12)
        assert q.num_nodes == 4096
        assert q.num_edges == 24576
        assert q.num_edges == int(1.5 * 16384)

    def test_neighbors_hamming_distance_one(self):
        q = HypercubeGraph(5)
        for v in [0, 7, 19, 31]:
            for u in q.neighbors(v):
                assert bin(u ^ v).count("1") == 1

    def test_gray_code_is_hamiltonian(self):
        for n in range(2, 7):
            q = HypercubeGraph(n)
            assert q.is_hamiltonian_cycle(gray_code_cycle(n))

    def test_fault_free_cycle_bound_values(self):
        # 4096-node hypercube with 2 faults -> cycle of length 4092
        assert fault_free_cycle_bound(12, 2) == 4092
        assert fault_free_cycle_bound(4, 0) == 16

    def test_fault_free_cycle_bound_budget(self):
        with pytest.raises(InvalidParameterError):
            fault_free_cycle_bound(4, 3)
        with pytest.raises(InvalidParameterError):
            fault_free_cycle_bound(4, -1)

    def test_bruteforce_achieves_bound_on_q3_q4(self):
        # single fault in Q(3): bound says 8 - 2 = 6
        cycle = longest_fault_free_cycle_bruteforce(3, [0])
        assert len(cycle) >= fault_free_cycle_bound(3, 1)
        q = HypercubeGraph(3)
        assert q.is_cycle(cycle)
        assert 0 not in cycle
        # two faults in Q(4): bound says 16 - 4 = 12
        cycle = longest_fault_free_cycle_bruteforce(4, [0, 15])
        assert len(cycle) >= fault_free_cycle_bound(4, 2)
        assert HypercubeGraph(4).is_cycle(cycle)

    def test_invalid_nodes_rejected(self):
        q = HypercubeGraph(3)
        with pytest.raises(InvalidParameterError):
            q.neighbors(8)
