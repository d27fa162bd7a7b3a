"""Unit tests for the bit-parallel multi-trial BFS kernel (graphs/msbfs.py).

The kernel's contract: lane ``t`` of a batched sweep produces exactly the
``(component size, root eccentricity)`` that the scalar path — one
:func:`repro.graphs.components.bfs_levels` out-sweep — produces for trial
``t``'s removed mask alone.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs.components import ResidualGraph, bfs_levels, bfs_levels_table
from repro.graphs.msbfs import (
    _SPARSE_DIVISOR,
    WORD_WIDTH,
    BatchWorkspace,
    batched_root_stats,
    lane_popcounts,
    lane_removed_mask,
    pack_fault_lanes,
)
from repro.topology import available_topologies, get_topology
from repro.words.codec import get_codec

#: Ragged and full lane widths: one byte, byte edges, one short of a word.
WIDTHS = (1, 7, 8, 9, 63, 64)


def _scalar_stats(d, n, removed, root):
    dist = bfs_levels(ResidualGraph(d, n, removed), root, direction="out")
    return int((dist >= 0).sum()), int(dist.max())


def _random_fault_batch(codec, batch, f, rng):
    return rng.integers(0, codec.size, size=(batch, f))


class TestPackFaultLanes:
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (4, 4)])
    def test_lanes_match_faulty_necklace_mask(self, d, n):
        codec = get_codec(d, n)
        rng = np.random.default_rng(0)
        codes = _random_fault_batch(codec, 17, 6, rng)
        lanes = pack_fault_lanes(codec, codes)
        for t in range(17):
            expected = codec.faulty_necklace_mask(codes[t])
            assert np.array_equal(lane_removed_mask(lanes, t), expected)

    def test_zero_faults_pack_to_zero_lanes(self):
        codec = get_codec(2, 4)
        lanes = pack_fault_lanes(codec, np.empty((5, 0), dtype=np.int64))
        assert not lanes.any()

    def test_rejects_bad_shapes_and_codes(self):
        codec = get_codec(2, 4)
        with pytest.raises(InvalidParameterError):
            pack_fault_lanes(codec, np.zeros(3, dtype=np.int64))  # 1-D
        with pytest.raises(InvalidParameterError):
            pack_fault_lanes(codec, np.zeros((65, 2), dtype=np.int64))  # > 64 lanes
        with pytest.raises(InvalidParameterError):
            pack_fault_lanes(codec, np.array([[16]]))  # out of range for B(2,4)


class TestLanePopcounts:
    @pytest.mark.parametrize("batch", WIDTHS)
    def test_counts_match_manual_bits(self, batch):
        rng = np.random.default_rng(3)
        # every bit random, so lanes at and above `batch` are set too
        lanes = rng.integers(0, 2**64, size=300, dtype=np.uint64)
        lanes[:40] = ~np.uint64(0)  # skewed bytes: one histogram bin
        counts = lane_popcounts(lanes, batch)
        assert counts.shape == (batch,)
        for t in range(batch):
            expected = int(((lanes >> np.uint64(t)) & np.uint64(1)).sum())
            assert counts[t] == expected

    @pytest.mark.parametrize("batch", WIDTHS)
    def test_bits_above_batch_do_not_leak(self, batch):
        above = ~np.uint64(0) << np.uint64(batch) if batch < 64 else np.uint64(0)
        lanes = np.full(50, above, dtype=np.uint64)
        lanes[:3] |= np.uint64(1)  # lane 0 set on three nodes
        counts = lane_popcounts(lanes, batch)
        assert counts[0] == 3 and not counts[1:].any()

    #: One node, an odd few, one adder-tree level with an unpaired word,
    #: 3**7 (unpaired words at most levels) and a power of two.
    @pytest.mark.parametrize("size", [1, 3, 300, 3**7, 2**14])
    @pytest.mark.parametrize("pattern", ["ones", "zeros", "above_batch"])
    def test_exact_at_every_size_and_width(self, size, pattern):
        rng = np.random.default_rng(size)
        for batch in range(1, WORD_WIDTH + 1):
            below = np.uint64(2**batch - 1)
            lanes = {
                "ones": np.full(size, ~np.uint64(0)),
                "zeros": np.zeros(size, dtype=np.uint64),
                # random lanes under every-bit-set lanes at and above batch
                "above_batch": rng.integers(0, 2**64, size=size, dtype=np.uint64) | ~below,
            }[pattern]
            bits = np.unpackbits(lanes.astype("<u8").view(np.uint8), bitorder="little")
            expected = bits.reshape(size, WORD_WIDTH)[:, :batch].sum(axis=0)
            assert lane_popcounts(lanes, batch).tolist() == expected.tolist(), batch


class TestBatchedRootStats:
    @pytest.mark.parametrize("d,n,f", [(2, 6, 4), (2, 6, 20), (3, 3, 2), (4, 4, 10)])
    def test_matches_scalar_bfs_per_lane(self, d, n, f):
        codec = get_codec(d, n)
        rng = np.random.default_rng(1)
        for batch in (1, 3, WORD_WIDTH):
            codes = _random_fault_batch(codec, batch, f, rng)
            lanes = pack_fault_lanes(codec, codes)
            root = 1  # the paper's R = 0...01
            stats = batched_root_stats(codec, lanes, root, batch)
            for t in range(batch):
                removed = lane_removed_mask(lanes, t)
                if removed[root]:
                    assert (stats.root_dead >> t) & 1
                    continue
                assert not (stats.root_dead >> t) & 1
                size, ecc = _scalar_stats(d, n, removed, root)
                assert (int(stats.sizes[t]), int(stats.eccs[t])) == (size, ecc)

    def test_per_lane_roots(self):
        # the root-fallback form: one shared mask, a different root per lane
        d, n = 2, 6
        codec = get_codec(d, n)
        removed = codec.faulty_necklace_mask(np.array([3, 17, 40]))
        alive = np.flatnonzero(~removed)[:10]
        lanes = removed.astype(np.uint64) * np.uint64(2 ** len(alive) - 1)
        stats = batched_root_stats(codec, lanes, alive, len(alive))
        assert stats.root_dead == 0
        for i, root in enumerate(alive.tolist()):
            assert (int(stats.sizes[i]), int(stats.eccs[i])) == _scalar_stats(
                d, n, removed, root
            )

    def test_no_faults_full_graph(self):
        codec = get_codec(2, 5)
        lanes = np.zeros(codec.size, dtype=np.uint64)
        for batch in (8, WORD_WIDTH):  # every lane visited: no word left to count
            stats = batched_root_stats(codec, lanes, 1, batch)
            assert stats.root_dead == 0
            assert (stats.sizes == 32).all()
            assert (stats.eccs == 5).all()  # B(2,n) has diameter n

    def test_all_roots_dead_short_circuits(self):
        codec = get_codec(2, 4)
        lanes = np.full(codec.size, np.uint64(2**3 - 1), dtype=np.uint64)
        stats = batched_root_stats(codec, lanes, 1, 3)
        assert stats.root_dead == 2**3 - 1
        assert stats.dead_trials() == [0, 1, 2]
        assert (stats.sizes == 0).all() and (stats.eccs == 0).all()

    def test_validation(self):
        codec = get_codec(2, 4)
        lanes = np.zeros(codec.size, dtype=np.uint64)
        with pytest.raises(InvalidParameterError):
            batched_root_stats(codec, lanes, 1, 0)
        with pytest.raises(InvalidParameterError):
            batched_root_stats(codec, lanes, 1, WORD_WIDTH + 1)
        with pytest.raises(InvalidParameterError):
            batched_root_stats(codec, lanes, codec.size, 2)
        with pytest.raises(InvalidParameterError):
            batched_root_stats(codec, np.zeros(4, dtype=np.uint64), 1, 2)
        with pytest.raises(InvalidParameterError):
            batched_root_stats(codec, lanes.astype(np.int64), 1, 2)


# -- every backend, both level kinds -------------------------------------------

#: One graph per registry backend, each large enough that BFS runs sparse
#: levels (small frontiers) as well as dense ones.
BACKENDS = [
    ("debruijn", 2, 10),
    ("debruijn", 4, 5),
    ("kautz", 2, 9),
    ("hypercube", 2, 10),
    ("shuffle_exchange", 2, 9),
    ("undirected_debruijn", 2, 9),
]
CASES = ("shared_root", "per_lane_roots", "dead_roots", "heavy_faults")


def test_backends_cover_the_registry():
    assert {key for key, _, _ in BACKENDS} == set(available_topologies())


def _dense_reference(source, lanes, root, batch):
    """The kernel with every level dense (the pure full-graph gather).

    Returns ``(sizes, eccs, root_dead, levels, kinds)``; ``kinds`` spells
    the level kind the kernel's switch rule picks before each expansion it
    attempts, ``"s"`` sparse or ``"D"`` dense.
    """
    size = source.size
    roots = np.broadcast_to(np.asarray(root, dtype=np.int64), (batch,))
    bits = np.uint64(1) << np.arange(batch, dtype=np.uint64)
    dead = (lanes[roots] & bits) != 0
    root_dead = int(np.bitwise_or.reduce(bits[dead])) if dead.any() else 0
    frontier = np.zeros(size, dtype=np.uint64)
    np.bitwise_or.at(frontier, roots[~dead], bits[~dead])
    visited = frontier.copy()
    alive = ~lanes
    degree = source.successor_table.shape[1]
    gains, kinds = [], ""
    while frontier.any():
        sparse = np.count_nonzero(frontier) * degree <= size // _SPARSE_DIVISOR
        kinds += "s" if sparse else "D"
        nxt = np.zeros(size, dtype=np.uint64)
        for col in source.predecessor_columns:
            nxt |= frontier[col]
        nxt &= alive & ~visited
        if not nxt.any():
            break
        visited |= nxt
        gains.append(int(np.bitwise_or.reduce(nxt)))
        frontier = nxt
    eccs = [
        max((i + 1 for i, g in enumerate(gains) if g >> t & 1), default=0)
        for t in range(batch)
    ]
    sizes = [int(((visited >> np.uint64(t)) & np.uint64(1)).sum()) for t in range(batch)]
    return sizes, eccs, root_dead, len(gains), kinds


def _case(topology, case, batch, seed):
    """``(lanes, root)`` for one kernel-equivalence case."""
    rng = np.random.default_rng(seed)
    size = topology.num_nodes
    f = size // 20 if case == "heavy_faults" else 3
    codes = rng.integers(0, size, size=(batch, f))
    root = topology.default_root_code
    if case == "per_lane_roots":
        root = rng.integers(0, size, size=batch)
    elif case == "dead_roots":
        codes[::2, 0] = root  # every other lane removes its own root
    return pack_fault_lanes(topology, codes), root


def _stats(stats):
    return stats.sizes.tolist(), stats.eccs.tolist(), stats.root_dead, stats.levels


@pytest.mark.parametrize("key,d,n", BACKENDS)
class TestEveryBackend:
    @pytest.mark.parametrize("batch", WIDTHS)
    @pytest.mark.parametrize("case", CASES)
    def test_matches_scalar_bfs_and_dense_reference(self, key, d, n, case, batch):
        topology = get_topology(key, d, n)
        lanes, root = _case(topology, case, batch, seed=batch)
        stats = batched_root_stats(
            topology, lanes, root, batch, workspace=BatchWorkspace(topology.num_nodes)
        )
        sizes, eccs, root_dead, levels, _ = _dense_reference(topology, lanes, root, batch)
        assert (stats.root_dead, stats.levels) == (root_dead, levels)
        assert stats.sizes.tolist() == sizes and stats.eccs.tolist() == eccs
        roots = np.broadcast_to(root, (batch,))
        for t in range(batch):
            removed = lane_removed_mask(lanes, t)
            if removed[roots[t]]:
                assert (stats.root_dead >> t) & 1
                continue
            dist = bfs_levels_table(topology.successor_table, removed, int(roots[t]))
            assert (int(stats.sizes[t]), int(stats.eccs[t])) == (
                int((dist >= 0).sum()),
                int(dist.max()),
            )
        if case == "dead_roots":
            assert stats.root_dead & 1  # lane 0 always removes its root

    def test_reused_workspace_matches_a_fresh_one(self, key, d, n):
        topology = get_topology(key, d, n)
        workspace = BatchWorkspace(topology.num_nodes)
        # an earlier launch with other lanes and roots leaves every buffer dirty
        batched_root_stats(topology, *_case(topology, "per_lane_roots", 64, 1), 64,
                           workspace=workspace)
        for case in CASES:
            for batch in (9, WORD_WIDTH):  # both lane counters
                lanes, root = _case(topology, case, batch, seed=2)
                reused = batched_root_stats(topology, lanes, root, batch, workspace=workspace)
                fresh = batched_root_stats(topology, lanes, root, batch)
                assert _stats(reused) == _stats(fresh), (case, batch)

    def test_cases_run_both_level_kinds(self, key, d, n):
        topology = get_topology(key, d, n)
        kinds = {
            case: [
                _dense_reference(topology, *_case(topology, case, batch, batch), batch)[4]
                for batch in WIDTHS
            ]
            for case in CASES
        }
        for case in CASES:
            assert any("s" in k and "D" in k for k in kinds[case]), case
        # heavy faults grow thin tails: the frontier shrinks back to sparse
        assert any("Ds" in k for k in kinds["heavy_faults"])

    def test_sparse_levels_expand_through_the_successor_table(self, key, d, n):
        # a source whose successor rows list only the node itself leaves the
        # sparse level no candidate to reach: a kernel that took its first
        # level dense would still measure the whole graph
        topology = get_topology(key, d, n)

        class SelfLoops:
            size = topology.num_nodes
            predecessor_columns = topology.predecessor_columns
            successor_table = np.arange(topology.num_nodes)[:, None]

        lanes = np.zeros(topology.num_nodes, dtype=np.uint64)
        stats = batched_root_stats(SelfLoops(), lanes, topology.default_root_code, 1)
        assert (stats.levels, int(stats.sizes[0])) == (0, 1)

    def test_predecessors_are_listed_as_successors(self, key, d, n):
        # the sparse level's candidates unique(successor_table[active]) must
        # contain every node a dense gather could reach from the frontier
        topology = get_topology(key, d, n)
        succ = topology.successor_table
        nodes = np.arange(topology.num_nodes)
        for col in topology.predecessor_columns:
            real = col != nodes
            assert (succ[col[real]] == nodes[real, None]).any(axis=1).all()


# -- the De Bruijn shift pull ----------------------------------------------------


class GatherOnly:
    """A source exposing only the tables every backend has, so the kernel
    takes its gather form: ``size``, ``predecessor_columns`` and
    ``successor_table``, without ``predecessor_shift``."""

    def __init__(self, source):
        self.size = source.size
        self.predecessor_columns = source.predecessor_columns
        self.successor_table = source.successor_table


@pytest.mark.parametrize("d,n", [(2, 9), (3, 6), (4, 5), (5, 4)])
class TestShiftPull:
    def test_declared_shift_is_the_predecessor_columns(self, d, n):
        codec = get_codec(d, n)
        topology = get_topology("debruijn", d, n)
        assert codec.predecessor_shift == topology.predecessor_shift == d
        nodes = np.arange(codec.size)
        for a, col in enumerate(codec.predecessor_columns):
            assert (col == a * (codec.size // d) + nodes // d).all()
        assert not hasattr(get_topology("undirected_debruijn", d, n), "predecessor_shift")

    @pytest.mark.parametrize("batch", WIDTHS)
    def test_equals_the_gather_form(self, d, n, batch):
        topology = get_topology("debruijn", d, n)
        gather_only = GatherOnly(topology)
        kinds = ""
        for case in CASES:
            lanes, root = _case(topology, case, batch, seed=batch)
            expected = _stats(batched_root_stats(gather_only, lanes, root, batch))
            for source in (topology, get_codec(d, n)):
                assert _stats(batched_root_stats(source, lanes, root, batch)) == expected
            kinds += _dense_reference(topology, lanes, root, batch)[4]
        assert {"s", "D"} <= set(kinds)  # both level kinds met both pull forms


class _Ring:
    """A directed ring ``x -> x + 1``: its BFS from 0 takes ``size - 1`` levels."""

    def __init__(self, size):
        self.size = size
        codes = np.arange(size, dtype=np.int64)
        self.successor_table = ((codes + 1) % size)[:, None]
        self.predecessor_columns = ((codes - 1) % size,)


class _LostVisitedMarks:
    """numpy, except that the XOR marking a level's nodes visited does nothing."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def bitwise_xor(a, b, out=None):
        return out


class TestLevelBound:
    """The level loop stops at ``size`` levels instead of running forever.

    Every level reaches a node new to some lane, so no source, consistent or
    not, takes more than ``size - 1`` levels; only corrupt kernel state can,
    as when a level's nodes are never marked visited.
    """

    def test_longest_bfs_is_within_the_bound(self):
        ring = _Ring(64)
        stats = batched_root_stats(ring, np.zeros(64, dtype=np.uint64), 0, 1)
        assert (stats.levels, int(stats.eccs[0]), int(stats.sizes[0])) == (63, 63, 64)

    def test_lost_visited_marks_raise_instead_of_hanging(self, monkeypatch):
        import repro.graphs.msbfs as msbfs

        codec = get_codec(2, 4)  # dense levels: 16 nodes, degree 2
        monkeypatch.setattr(msbfs, "np", _LostVisitedMarks())
        with pytest.raises(RuntimeError, match="passed 15 levels"):
            batched_root_stats(codec, np.zeros(codec.size, dtype=np.uint64), 1, 4)
