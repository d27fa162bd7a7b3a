"""Tests for the butterfly graph and its De Bruijn quotient (Section 3.4)."""

from math import lcm

import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import (
    ButterflyGraph,
    DeBruijnGraph,
    debruijn_node_class,
    lift_cycle,
    lift_edge,
)
from oracles.networkx_graphs import to_networkx


class TestButterflyStructure:
    def test_counts_f23(self):
        f = ButterflyGraph(2, 3)
        assert f.num_nodes == 24
        assert f.num_edges == 48
        assert len(list(f.nodes())) == 24
        assert sum(1 for _ in f.edges()) == 48

    def test_figure_3_4_sample_edges(self):
        # F(2,3): (0, 000) -> (1, 000) and (1, 100); levels wrap modulo 3
        f = ButterflyGraph(2, 3)
        assert f.has_edge((0, (0, 0, 0)), (1, (0, 0, 0)))
        assert f.has_edge((0, (0, 0, 0)), (1, (1, 0, 0)))
        assert f.has_edge((2, (0, 0, 1)), (0, (0, 0, 1)))
        assert f.has_edge((2, (0, 0, 1)), (0, (0, 0, 0)))
        assert not f.has_edge((0, (0, 0, 0)), (2, (0, 0, 0)))
        assert not f.has_edge((0, (0, 0, 0)), (1, (0, 1, 0)))

    def test_regularity(self):
        f = ButterflyGraph(3, 2)
        for node in f.nodes():
            assert len(f.successors(node)) == 3
            assert len(f.predecessors(node)) == 3

    def test_successor_predecessor_duality(self):
        f = ButterflyGraph(2, 3)
        for node in f.nodes():
            for s in f.successors(node):
                assert node in f.predecessors(s)

    def test_level_advances_by_one(self):
        f = ButterflyGraph(2, 4)
        for node in [(0, (0, 1, 0, 1)), (3, (1, 1, 0, 0))]:
            for level, _ in f.successors(node):
                assert level == (node[0] + 1) % 4

    def test_invalid_nodes_rejected(self):
        f = ButterflyGraph(2, 3)
        with pytest.raises(InvalidParameterError):
            f.successors((3, (0, 0, 0)))
        with pytest.raises(InvalidParameterError):
            f.successors((0, (0, 0)))
        with pytest.raises(InvalidParameterError):
            ButterflyGraph(2, 0)

    def test_to_networkx(self):
        f = ButterflyGraph(2, 2)
        g = to_networkx(f)
        assert g.number_of_nodes() == 8
        assert g.number_of_edges() == 16


class TestDeBruijnQuotient:
    def test_node_class_structure(self):
        # S_x = {(0,x), (1, pi^-1(x)), ..., (n-1, pi^-(n-1)(x))}
        cls = debruijn_node_class((1, 2, 0, 2), 3)
        assert cls[0] == (0, (1, 2, 0, 2))
        assert cls[1] == (1, (2, 1, 2, 0))
        assert cls[3] == (3, (2, 0, 2, 1))
        assert len(cls) == 4

    def test_classes_partition_butterfly_nodes(self):
        f = ButterflyGraph(2, 3)
        b = DeBruijnGraph(2, 3)
        seen = set()
        for x in b.nodes():
            members = set(f.node_class(x))
            assert not (members & seen)
            seen |= members
        assert seen == set(f.nodes())

    def test_lemma_3_8_edge_compatibility(self):
        # every De Bruijn edge lifts to a butterfly edge at every level
        f = ButterflyGraph(2, 3)
        b = DeBruijnGraph(2, 3)
        for src, dst in b.edges():
            for level in range(3):
                bsrc, bdst = lift_edge(src, dst, 2, level)
                assert f.has_edge(bsrc, bdst)

    def test_lift_edge_rejects_non_edge(self):
        with pytest.raises(InvalidParameterError):
            lift_edge((0, 1, 0), (1, 1, 1), 2, 0)

    def test_quotient_is_debruijn_figure_3_5(self):
        assert ButterflyGraph(2, 3).quotient_is_debruijn()
        assert ButterflyGraph(3, 2).quotient_is_debruijn()

    def test_node_class_requires_matching_length(self):
        f = ButterflyGraph(2, 3)
        with pytest.raises(InvalidParameterError):
            f.node_class((0, 1))


class TestCycleLifting:
    def test_paper_example_4_cycle_lifts_to_12_cycle(self):
        # Lemma 3.9 illustration: C = (110, 100, 001, 011) lifts to the
        # 12-cycle listed in the paper.
        cycle = [(1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1)]
        lifted = lift_cycle(cycle, 2)
        expected = [
            (0, (1, 1, 0)),
            (1, (0, 1, 0)),
            (2, (0, 1, 0)),
            (0, (0, 1, 1)),
            (1, (0, 1, 1)),
            (2, (0, 0, 1)),
            (0, (0, 0, 1)),
            (1, (1, 0, 1)),
            (2, (1, 0, 1)),
            (0, (1, 0, 0)),
            (1, (1, 0, 0)),
            (2, (1, 1, 0)),
        ]
        assert lifted == expected
        assert ButterflyGraph(2, 3).is_cycle(lifted)

    def test_lift_length_is_lcm(self):
        b = DeBruijnGraph(3, 3)
        # a 3-cycle (necklace of 012) lifts to lcm(3,3)=3 nodes
        cycle = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert b.is_cycle(cycle)
        lifted = lift_cycle(cycle, 3)
        assert len(lifted) == lcm(3, 3)
        assert ButterflyGraph(3, 3).is_cycle(lifted)

    def test_hamiltonian_cycle_lifts_to_hamiltonian_when_coprime(self):
        # gcd(d^n, n) handling: for B(2,3), the HC has length 8, lcm(8,3)=24
        # equals the butterfly node count, so the lift is Hamiltonian.
        b = DeBruijnGraph(2, 3)
        seq = [0, 0, 0, 1, 0, 1, 1, 1]
        hc = [tuple(seq[(i + j) % 8] for j in range(3)) for i in range(8)]
        assert b.is_hamiltonian_cycle(hc)
        lifted = lift_cycle(hc, 2)
        f = ButterflyGraph(2, 3)
        assert f.is_hamiltonian_cycle(lifted)

    def test_lift_empty_cycle_rejected(self):
        with pytest.raises(InvalidParameterError):
            lift_cycle([], 2)

    def test_loop_lifts_to_level_cycle(self):
        # the loop at 111 lifts to the length-3 column cycle through levels
        lifted = lift_cycle([(1, 1, 1)], 2)
        assert len(lifted) == 3
        assert ButterflyGraph(2, 3).is_cycle(lifted)
