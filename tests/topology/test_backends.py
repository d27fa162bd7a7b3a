"""Structural tests for the topology backends and their registry.

Each backend's gather tables are cross-validated against the corresponding
explicit graph class in :mod:`repro.graphs` on small instances — the tables
drive every sweep, so they must agree edge-for-edge with the readable
implementations.
"""

import numpy as np
import pytest

from repro.engine.executor import cached_executor
from repro.exceptions import InvalidParameterError, UnknownTopologyError
from repro.graphs.debruijn import DeBruijnGraph
from repro.graphs.hypercube import HypercubeGraph
from repro.graphs.kautz import KautzGraph
from repro.graphs.shuffle_exchange import ShuffleExchangeGraph
from repro.graphs.undirected import UndirectedDeBruijnGraph
from repro.topology import (
    DEFAULT_TOPOLOGY,
    Topology,
    available_topologies,
    get_topology,
)
from repro.words.codec import get_codec

ALL_KEYS = ("debruijn", "kautz", "hypercube", "shuffle_exchange", "undirected_debruijn")


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_topologies()
        for key in ALL_KEYS:
            assert key in names
        assert DEFAULT_TOPOLOGY == "debruijn"

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownTopologyError):
            get_topology("torus", 2, 5)

    def test_instances_cached_per_key_and_params(self):
        # the executor cache owns the shared instance of each (key, d, n)
        a = cached_executor(2, 5, "kautz").topology
        b = cached_executor(2, 5, "kautz").topology
        c = cached_executor(2, 6, "kautz").topology
        assert a is b and a is not c

    @pytest.mark.parametrize("d, n", [(2.5, 6), (2, 6.9), ("2", 6)])
    def test_non_integral_parameters_rejected(self, d, n):
        with pytest.raises(InvalidParameterError, match="must be integers"):
            get_topology("debruijn", d, n)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_protocol_surface(self, key):
        topo = get_topology(key, 2, 5)
        assert isinstance(topo, Topology)
        assert topo.size == topo.num_nodes > 0
        assert topo.key == key
        assert "(" in topo.name
        assert topo.describe()["topology"] == key
        # gather-table shapes line up with the node count
        assert topo.successor_table.shape[0] == topo.num_nodes
        assert topo.predecessor_table.shape[0] == topo.num_nodes
        assert len(topo.predecessor_columns) == topo.predecessor_table.shape[1]
        # default root is a valid node and re-encodes to itself
        root = topo.default_root_code
        assert topo.encode(topo.decode(root)) == root
        assert topo.reference_size(0) == topo.num_nodes
        assert topo.reference_size(2) == topo.num_nodes - 2 * topo.max_fault_unit_size

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_encode_decode_roundtrip_all_codes(self, key):
        topo = get_topology(key, 2, 4)
        for code in range(topo.num_nodes):
            assert topo.encode(topo.decode(code)) == code
        with pytest.raises(InvalidParameterError):
            topo.decode(topo.num_nodes)
        with pytest.raises(InvalidParameterError):
            topo.encode(topo.num_nodes)  # int form is range-checked too


class TestDeBruijnBackend:
    def test_tables_are_the_codec_tables(self):
        # the compatibility anchor: not equal — IDENTICAL objects
        topo = get_topology("debruijn", 2, 6)
        codec = get_codec(2, 6)
        assert topo.successor_table is codec.successor_table
        assert topo.predecessor_table is codec.predecessor_table
        assert topo.predecessor_columns is codec.predecessor_columns
        assert topo.neighbour_table is codec.neighbour_table

    def test_fault_units_are_necklaces(self):
        topo = get_topology("debruijn", 2, 6)
        codec = get_codec(2, 6)
        codes = np.asarray([3, 17])
        assert np.array_equal(
            topo.fault_unit_mask(codes), codec.faulty_necklace_mask(codes)
        )
        assert topo.fault_unit_reps([3]) == [int(codec.rep[3])]

    def test_root_and_reference(self):
        topo = get_topology("debruijn", 2, 10)
        assert topo.decode(topo.default_root_code) == (0,) * 9 + (1,)
        assert topo.reference_size(5) == 2**10 - 10 * 5
        assert topo.reference_label == "d^n - nf"

    def test_guarantee_bound_matches_ffc(self):
        from repro.core.ffc import guaranteed_cycle_length

        topo = get_topology("debruijn", 2, 6)
        assert topo.guarantee_bound(1) == guaranteed_cycle_length(2, 6, 1)
        assert topo.guarantee_bound(10**6) is None

    def test_successors_match_graph_class(self):
        topo = get_topology("debruijn", 3, 3)
        graph = DeBruijnGraph(3, 3)
        for code in range(topo.num_nodes):
            word = topo.decode(code)
            mine = sorted(topo.decode(int(c)) for c in topo.successor_table[code])
            assert mine == sorted(graph.successors(word))


class TestKautzBackend:
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_tables_match_graph_class(self, d, n):
        topo = get_topology("kautz", d, n)
        graph = KautzGraph(d, n)
        assert topo.num_nodes == graph.num_nodes
        for code in range(topo.num_nodes):
            word = topo.decode(code)
            succ = sorted(topo.decode(int(c)) for c in topo.successor_table[code])
            assert succ == sorted(graph.successors(word))
            pred = sorted(topo.decode(int(c)) for c in topo.predecessor_table[code])
            assert pred == sorted(graph.predecessors(word))

    def test_rotation_orbits(self):
        topo = get_topology("kautz", 2, 4)
        for code in range(topo.num_nodes):
            mask = topo.fault_unit_mask([code])
            members = np.flatnonzero(mask)
            word = topo.decode(code)
            if word[0] == word[-1]:
                # non-cyclic word: singleton orbit
                assert members.tolist() == [code]
            else:
                # cyclic word: the orbit is exactly the distinct rotations
                rotations = {tuple(word[i:] + word[:i]) for i in range(len(word))}
                assert {topo.decode(int(m)) for m in members} == rotations
            # every member induces the same removal
            for m in members.tolist():
                assert np.array_equal(topo.fault_unit_mask([m]), mask)
            # one representative per orbit, shared by all members
            reps = {tuple(topo.fault_unit_reps([m])) for m in members.tolist()}
            assert len(reps) == 1

    def test_invalid_word_rejected(self):
        topo = get_topology("kautz", 2, 4)
        with pytest.raises(InvalidParameterError):
            topo.encode((0, 0, 1, 2))  # repeated adjacent digit
        with pytest.raises(InvalidParameterError):
            topo.encode((0, 1, 2))  # wrong length

    def test_default_root_alternates(self):
        assert get_topology("kautz", 2, 5).decode(
            get_topology("kautz", 2, 5).default_root_code
        ) == (0, 1, 0, 1, 0)


class TestHypercubeBackend:
    def test_neighbours_match_graph_class(self):
        topo = get_topology("hypercube", 2, 4)
        cube = HypercubeGraph(4)
        for code in range(16):
            assert sorted(topo.successor_table[code].tolist()) == sorted(
                cube.neighbors(code)
            )

    def test_bitstring_coding(self):
        topo = get_topology("hypercube", 2, 4)
        assert topo.encode((1, 0, 1, 1)) == 0b1011
        assert topo.decode(0b1011) == (1, 0, 1, 1)
        assert topo.default_root_code == 1  # 0...01

    def test_single_node_units(self):
        topo = get_topology("hypercube", 2, 4)
        mask = topo.fault_unit_mask([5, 9])
        assert mask.sum() == 2 and mask[5] and mask[9]
        assert topo.fault_unit_reps([9, 5, 5]) == [5, 9]

    def test_wc92_bound(self):
        topo = get_topology("hypercube", 2, 12)
        assert topo.guarantee_bound(2) == 2**12 - 4
        assert topo.guarantee_bound(11) is None  # beyond f <= n - 2

    def test_nonbinary_d_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_topology("hypercube", 3, 4)


class TestShuffleExchangeBackend:
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_neighbours_match_graph_class(self, d, n):
        topo = get_topology("shuffle_exchange", d, n)
        graph = ShuffleExchangeGraph(d, n)
        for code in range(topo.num_nodes):
            word = topo.decode(code)
            # the table pads with self-entries (constant words shuffle to
            # themselves); the class's neighbor list drops self-loops
            mine = sorted({topo.decode(int(c)) for c in topo.successor_table[code]} - {word})
            assert mine == graph.neighbors(word)

    def test_single_node_units(self):
        topo = get_topology("shuffle_exchange", 2, 5)
        assert topo.fault_unit_mask([7]).sum() == 1
        assert topo.max_fault_unit_size == 1


class TestUndirectedDeBruijnBackend:
    def test_reaches_whole_graph_like_class(self):
        from repro.graphs.components import bfs_levels_table

        topo = get_topology("undirected_debruijn", 2, 4)
        graph = UndirectedDeBruijnGraph(2, 4)
        dist = bfs_levels_table(
            topo.neighbour_table, np.zeros(topo.num_nodes, dtype=bool), 1
        )
        assert (dist >= 0).sum() == graph.num_nodes  # connected, all reached

    def test_necklace_units_shared_with_directed(self):
        ub = get_topology("undirected_debruijn", 2, 6)
        b = get_topology("debruijn", 2, 6)
        codes = np.asarray([9, 33])
        assert np.array_equal(ub.fault_unit_mask(codes), b.fault_unit_mask(codes))
