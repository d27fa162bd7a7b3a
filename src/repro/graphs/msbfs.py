"""Bit-parallel multi-trial BFS: measure up to 64 fault trials per sweep.

The random-fault simulations behind Tables 2.1/2.2 reduce to one directed
BFS per trial, all over the *same* successor structure — only the
removed-node mask differs between trials.  This module collapses that
redundancy by the machine word width: each node carries one ``uint64`` whose
bit ``t`` says "node is on trial ``t``'s frontier", so a single vectorized
BFS step advances up to :data:`WORD_WIDTH` trials at once.

The kernel is topology-generic: it consumes any *source* exposing ``size``
(node count), ``predecessor_columns`` (contiguous in-neighbour gather
columns) and ``successor_table`` (out-neighbour rows) — the De Bruijn
:class:`~repro.words.codec.WordCodec` and every
:class:`~repro.topology.base.Topology` backend alike.  Columns may pad
irregular in-degrees with the node's own code; a self-gather only re-reads a
visited lane and is masked off by ``avail``.  The sparse level relies on the
two tables agreeing: every non-self entry ``x = P[y, a]`` has ``y`` in
``successor_table[x]``.  ``predecessor_shift = d`` declares the De Bruijn
shift ``P[y, a] = a*(size/d) + y//d`` (the codec and ``debruijn`` backend).

Each level computes, for every node ``y`` with in-neighbour columns
``P[y, a]``, the out-direction frontier update

``next[y] = (frontier[P[y, 0]] | ... | frontier[P[y, k-1]]) & alive[y] & ~visited[y]``

in one of two forms that produce the same words:

* *dense*: ``k`` full-array gathers and a few bitwise ops, with no scatter
  and no per-trial work — the right form while the frontier spans the graph.
  Under the shift, ``d - 1`` contiguous ORs of ``frontier.reshape(d, -1)``'s
  rows and ``d`` strided ANDs into ``next[r::d]`` replace the gathers;
* *sparse*: while the union frontier of ``active`` nodes is small
  (``active * degree <= size // 16``), the formula is evaluated only on the
  candidates ``unique(successor_table[active])`` — the only nodes where it
  can be nonzero; under the shift, ``d * unique(active % (size/d)) + r`` —
  and only those entries of ``frontier``/``avail`` are written.  A BFS
  starts sparse (a few roots) and, after each dense level, goes back to
  sparse once ``count_nonzero(frontier)`` is small again (the long thin
  tails of faulty graphs).  Expanding small frontiers from the frontier
  side is the idea of Beamer, Asanović & Patterson's direction-optimizing
  BFS (SC 2012).

Per-trial results are recovered cheaply:

* *eccentricity*: an OR-reduction of the newly-reached lanes yields one
  ``uint64`` whose set bits are the trials that gained nodes this level, so
  each trial's eccentricity is the last level its bit was set;
* *component size*: ``size`` minus a per-lane count (:func:`lane_popcounts`)
  of the unvisited lanes, over only the words that hold any.

For the De Bruijn graph whole-necklace removal keeps the residual digraph
balanced (see :mod:`repro.graphs.components`), so the out-reachable set from
the root *is* its component and this one sweep produces exactly the paper's
``(component size, root eccentricity)`` measurement for every packed trial;
for undirected topologies the same holds trivially.

Trials whose root is itself removed are not handled here: the kernel reports
them in ``root_dead`` and the caller peels them onto the scalar
root-fallback path (:meth:`repro.engine.executor.KernelExecutor.measure_mask_with_root`),
which is statistically rare in the tabulated regimes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "WORD_WIDTH",
    "BatchStats",
    "BatchWorkspace",
    "pack_fault_lanes",
    "pack_mask_lanes",
    "lane_removed_mask",
    "lane_popcounts",
    "batched_root_stats",
]

#: Number of trials packed into one lane word (the uint64 width).
WORD_WIDTH = 64

_ONE = np.uint64(1)
_BITS = _ONE << np.arange(WORD_WIDTH, dtype=np.uint64)
#: ``_BYTE_BITS[v, b]`` is bit ``b`` of byte value ``v``: a byte column's
#: 256-bin histogram times this table gives its eight per-bit counts.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
#: The adder tree halves its bit-planes down to this many words; with one
#: unpaired word per level, a byte counter then never passes 255.
_PLANE_WORDS = 128
_BYTE_ONES = np.uint64(0x0101010101010101)
#: A level runs sparse while ``active * degree <= size // _SPARSE_DIVISOR``.
_SPARSE_DIVISOR = 16


class BatchStats:
    """Result of one batched sweep over ``B <= 64`` trials.

    ``sizes[t]``/``eccs[t]`` are valid only for trials whose bit is clear in
    ``root_dead``; the caller measures the others via the scalar fallback.
    ``levels`` is the number of BFS frontier expansions the sweep ran (the
    deepest level reached by any lane) — profiling metadata, not a result.
    """

    __slots__ = ("sizes", "eccs", "root_dead", "levels")

    def __init__(
        self,
        sizes: np.ndarray,
        eccs: np.ndarray,
        root_dead: int,
        levels: int = 0,
    ) -> None:
        self.sizes = sizes
        self.eccs = eccs
        self.root_dead = root_dead
        self.levels = levels

    def dead_trials(self) -> list[int]:
        """Indices of the trials whose root was removed (to be peeled)."""
        return [t for t in range(len(self.sizes)) if (self.root_dead >> t) & 1]


class BatchWorkspace:
    """Reusable per-graph buffers for :func:`batched_root_stats`.

    Four ``uint64[size]`` arrays: ``frontier``/``nxt`` (ping-ponged
    levels), ``scratch`` and ``avail`` (alive, unvisited lanes), all four
    reused by the lane count.  Allocated once per resident executor —
    ``32 * size`` bytes, counted by the ROADMAP's residency budget — so no
    launch allocates ``O(size)``.  NOT safe for concurrent launches: the
    owner (e.g. :class:`repro.engine.executor.KernelExecutor`) serialises
    access.
    """

    __slots__ = ("size", "frontier", "nxt", "scratch", "avail")

    def __init__(self, size: int) -> None:
        self.size = int(size)
        self.frontier = np.empty(self.size, dtype=np.uint64)
        self.nxt = np.empty(self.size, dtype=np.uint64)
        self.scratch = np.empty(self.size, dtype=np.uint64)
        self.avail = np.empty(self.size, dtype=np.uint64)


class KernelSource(Protocol):
    """Structural contract on the graph supplier of the packed kernels.

    Satisfied by :class:`~repro.words.codec.WordCodec` and every
    :class:`~repro.topology.base.Topology` backend; the kernels read only
    the node count, the contiguous predecessor gather columns (dense
    levels) and the ``(size, degree)`` successor table (sparse levels'
    candidates), plus the optional ``predecessor_shift`` (both level kinds,
    instead of the columns) and ``fault_unit_members`` (fault packing),
    probed with ``getattr``.
    """

    @property
    def size(self) -> int: ...

    @property
    def predecessor_columns(self) -> tuple[np.ndarray, ...]: ...

    @property
    def successor_table(self) -> np.ndarray: ...


def pack_fault_lanes(source: KernelSource, fault_codes: np.ndarray | Sequence) -> np.ndarray:
    """Pack a batch of trials' fault sets into removed-lanes: ``uint64[size]``.

    ``source`` is a :class:`~repro.words.codec.WordCodec` (necklace fault
    units) or any :class:`~repro.topology.base.Topology` backend (its own
    ``fault_unit_members`` closure).  ``fault_codes`` is a ``(B, f)`` integer
    array — trial ``t``'s ``f`` faulty node codes in row ``t`` (``B <= 64``;
    ``f`` is fixed within a table row, so the batch is rectangular; ``f = 0``
    packs to all-zero lanes).  Bit ``t`` of ``lanes[x]`` is set iff node
    ``x`` lies in a fault unit containing one of trial ``t``'s faults —
    bit-for-bit the mask ``source``'s unit closure computes for that trial
    alone (:meth:`~repro.words.codec.WordCodec.faulty_necklace_mask` in the
    De Bruijn case).
    """
    codes = np.asarray(fault_codes, dtype=np.int64)
    if codes.ndim != 2:
        raise InvalidParameterError(
            f"expected a (batch, f) fault-code array, got shape {codes.shape}"
        )
    batch = codes.shape[0]
    if not 1 <= batch <= WORD_WIDTH:
        raise InvalidParameterError(f"batch size must be in 1..{WORD_WIDTH}, got {batch}")
    lanes = np.zeros(source.size, dtype=np.uint64)
    if codes.shape[1] == 0:
        return lanes
    if codes.min() < 0 or codes.max() >= source.size:
        raise InvalidParameterError("fault code outside node range")
    members_of = getattr(source, "fault_unit_members", None)
    if members_of is None:  # a plain WordCodec: units are necklaces
        members_of = source.necklace_member_matrix
    members = members_of(codes)  # (k, B, f)
    for t in range(batch):
        # Duplicate indices are harmless under |= with a single constant bit.
        lanes[members[:, t, :].ravel()] |= _BITS[t]
    return lanes


def pack_mask_lanes(masks: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Pack per-request boolean removed-masks into lanes: ``uint64[size]``.

    The ragged-batch dual of :func:`pack_fault_lanes`: request ``t`` supplies
    its own ``bool[size]`` removed mask (requests in one micro-batch may
    remove different numbers of fault units — the serving case), and bit
    ``t`` of ``lanes[x]`` is set iff request ``t`` removed node ``x``.
    """
    if not 1 <= len(masks) <= WORD_WIDTH:
        raise InvalidParameterError(
            f"batch size must be in 1..{WORD_WIDTH}, got {len(masks)}"
        )
    lanes = np.zeros(size, dtype=np.uint64)
    for t, mask in enumerate(masks):
        if mask.shape != (size,):
            raise InvalidParameterError(
                f"mask {t} has shape {mask.shape}, expected ({size},)"
            )
        lanes |= mask.astype(np.uint64) << np.uint64(t)
    return lanes


def lane_removed_mask(lanes: np.ndarray, trial: int) -> np.ndarray:
    """Extract trial ``trial``'s boolean removed-mask from packed lanes."""
    return (lanes >> np.uint64(trial)) & _ONE != 0


def lane_popcounts(lanes: np.ndarray, batch: int) -> np.ndarray:
    """Per-trial popcount over nodes: ``out[t] = #{x : bit t of lanes[x]}``
    (bits at or above ``batch`` do not leak into the counts)."""
    return _lane_counts(lanes, batch, np.empty_like(lanes), np.empty_like(lanes))


def _lane_counts(lanes: np.ndarray, batch: int, work: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """:func:`lane_popcounts` on two buffers of ``lanes.size`` words it overwrites.

    1-16 lanes: a 256-bin histogram per byte of lanes.  Wider, where those
    stall on the all-ones bin, a carry-save adder tree: each level adds the
    halves of ``k`` bit-planes into ``k + 1`` planes of half the words, and
    byte counters read the lane counts off plane ``j`` at weight ``2**j``.
    """
    if batch <= 16:
        columns = lanes.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        counts = [np.bincount(columns[:, j], minlength=256) for j in range((batch + 7) // 8)]
        return (np.stack(counts) @ _BYTE_BITS).ravel()[:batch]
    planes = lanes[None, :]
    odd = np.zeros((WORD_WIDTH, WORD_WIDTH), dtype=np.uint64)  # [plane, level]
    while planes.shape[1] > _PLANE_WORDS:
        k, words = planes.shape
        half = words // 2
        odd[:k, k - 1] = planes[:, -1] if words & 1 else 0  # the unpaired word
        out = (work, spare)[(k - 1) & 1]  # not the buffer ``planes`` lives in
        total = out[: (k + 1) * half].reshape(k + 1, half)
        low, high = planes[:, :half], planes[:, half : 2 * half]
        # total[j + 1]: plane j's generate (low & high), then its carry out;
        # low[j]: its propagate (low ^ high), xored with the carry in last
        np.bitwise_and(low, high, out=total[1:])
        np.bitwise_xor(low[0], high[0], out=total[0])
        if k > 1:  # low is this function's buffer from here on
            np.bitwise_xor(low[1:], high[1:], out=low[1:])
            carry = out[(k + 1) * half : (k + 2) * half]
            for j in range(1, k):
                np.bitwise_and(low[j], total[j], out=carry)
                np.bitwise_or(total[j + 1], carry, out=total[j + 1])
            np.bitwise_xor(total[1:k], low[1:], out=total[1:k])
        planes = total
    k = len(planes)
    planes = np.hstack([planes, odd[:k, : k - 1]])
    # row b: bit b of every byte, summed over words, so byte i counts lane 8i + b
    ones = (planes[:, None, :] >> np.arange(8, dtype=np.uint64)[:, None]) & _BYTE_ONES
    ones = ones.sum(axis=2, dtype=np.uint64)
    per_lane = ones.astype("<u8", copy=False).view(np.uint8).reshape(k, 8, 8).transpose(0, 2, 1)
    return ((np.int64(1) << np.arange(k, dtype=np.int64)) @ per_lane.reshape(k, 64))[:batch]


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``codes``: ``np.unique`` without its
    first-call import of ``numpy.ma``, which a cold server would pay on its
    first answer."""
    flat = np.sort(codes, axis=None)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def batched_root_stats(
    source: KernelSource,
    removed_lanes: np.ndarray,
    root: int | np.ndarray,
    batch: int,
    workspace: BatchWorkspace | None = None,
) -> BatchStats:
    """Run one bit-parallel out-BFS across all packed trials.

    ``source`` supplies the graph structure: any object with ``size``,
    ``predecessor_columns`` and ``successor_table`` — a
    :class:`~repro.words.codec.WordCodec` or a
    :class:`~repro.topology.base.Topology` backend.  ``root`` is either one
    shared root code (the fault-sweep case: every trial measures from the
    paper's ``R``) or a ``(batch,)`` array giving lane ``t`` its own root
    (the root-fallback case: tied candidate roots racing over one shared
    fault mask).  Returns per-trial ``(reached-region size, root
    eccentricity)`` for every lane whose root survives, exactly as the
    scalar path measures them (reached-node count and deepest BFS level).
    Lanes whose root is removed are skipped and flagged in
    :attr:`BatchStats.root_dead`.

    ``workspace`` optionally supplies preallocated sweep buffers
    (:class:`BatchWorkspace`) so resident callers amortise the per-launch
    allocations; results are identical with or without it.
    """
    size = source.size
    if removed_lanes.shape != (size,) or removed_lanes.dtype != np.uint64:
        raise InvalidParameterError(
            f"removed_lanes must be uint64 of shape ({size},), "
            f"got {removed_lanes.dtype} {removed_lanes.shape}"
        )
    if not 1 <= batch <= WORD_WIDTH:
        raise InvalidParameterError(f"batch size must be in 1..{WORD_WIDTH}, got {batch}")
    roots = np.broadcast_to(np.asarray(root, dtype=np.int64), (batch,))
    if roots.size and (roots.min() < 0 or roots.max() >= size):
        raise InvalidParameterError(f"root {root} outside node range")

    trial_bits = _BITS[:batch]
    all_bits = np.uint64(2**batch - 1)
    dead_mask = (removed_lanes[roots] & trial_bits) != 0
    root_dead = int(np.bitwise_or.reduce(trial_bits[dead_mask])) if dead_mask.any() else 0
    sizes = np.zeros(batch, dtype=np.int64)
    eccs = np.zeros(batch, dtype=np.int64)
    if root_dead == int(all_bits):
        return BatchStats(sizes, eccs, root_dead)

    if workspace is None:
        workspace = BatchWorkspace(size)
    elif workspace.size != size:
        raise InvalidParameterError(
            f"workspace sized for {workspace.size} nodes, graph has {size}"
        )
    frontier, nxt = workspace.frontier, workspace.nxt
    scratch, avail = workspace.scratch, workspace.avail
    frontier.fill(0)
    live_roots = roots[~dead_mask]
    np.bitwise_or.at(frontier, live_roots, trial_bits[~dead_mask])
    # `avail[x]` holds the lanes in which x is alive and not yet visited —
    # one AND per step instead of `& alive & ~visited`, and since every
    # newly-reached lane set is a subset of `avail`, marking it visited is a
    # XOR.  Neither `alive` nor the visited set is materialised: visited
    # lanes are alive, so the unvisited ones are `removed | avail`.
    np.invert(removed_lanes, out=avail)
    avail[live_roots] &= ~frontier[live_roots]  # root lanes start visited
    # under the shift, node y pulls entry y//d of the OR of frontier's d blocks
    shift = getattr(source, "predecessor_shift", None)
    pred_cols = None if shift else source.predecessor_columns
    succ = source.successor_table
    sparse_limit = size // _SPARSE_DIVISOR
    degree = succ.shape[1]
    # the nodes with a nonzero frontier word while levels run sparse; None
    # while they run dense
    active: np.ndarray | None = _distinct(live_roots)
    gains: list[np.uint64] = []  # per-level OR of the newly-reached lanes
    while True:
        if active is not None and active.size * degree > sparse_limit:
            active = None
        if active is not None:
            if shift:  # x's successors are (x % (size/d))*d + r for r < d
                base = _distinct(active % (size // shift))
                cand = (base[:, None] * shift + np.arange(shift)).ravel()
                pulled = frontier[base + (size // shift) * np.arange(shift)[:, None]]
                new = np.repeat(np.bitwise_or.reduce(pulled), shift)
            else:
                cand = _distinct(succ[active])
                new = frontier[pred_cols[0][cand]]
                for col in pred_cols[1:]:
                    new |= frontier[col[cand]]
            new &= avail[cand]
            gained = np.bitwise_or.reduce(new)
            if not int(gained):
                break
            frontier[active] = 0
            frontier[cand] = new
            avail[cand] ^= new
            active = cand[new != 0]
        else:
            if shift:
                pulled = scratch[: size // shift]
                np.bitwise_or.reduce(frontier.reshape(shift, -1), out=pulled)
                for r in range(shift):
                    np.bitwise_and(pulled, avail[r::shift], out=nxt[r::shift])
            else:
                # mode="clip": the columns hold valid codes, and the default
                # mode="raise" buffers `out` (several times slower)
                np.take(frontier, pred_cols[0], out=nxt, mode="clip")
                for col in pred_cols[1:]:
                    np.take(frontier, col, out=scratch, mode="clip")
                    np.bitwise_or(nxt, scratch, out=nxt)
                np.bitwise_and(nxt, avail, out=nxt)
            gained = np.bitwise_or.reduce(nxt)
            if not int(gained):
                break
            np.bitwise_xor(avail, nxt, out=avail)
            frontier, nxt = nxt, frontier  # ping-pong: old frontier becomes scratch
            if np.count_nonzero(frontier) * degree <= sparse_limit:
                active = np.flatnonzero(frontier)
        gains.append(gained)
        if len(gains) >= size:
            # every level reaches a node new to some lane, so a BFS over
            # `size` nodes ends within `size - 1` levels; more means the
            # level state is corrupt, and the loop would never end
            raise RuntimeError(f"BFS passed {size - 1} levels on a {size}-node graph")
    if gains:
        # eccentricity of lane t = deepest level whose gained-word set bit t
        # (levels are 1-based; lanes never gaining stay at 0)
        hit = (np.asarray(gains, dtype=np.uint64)[:, None] & trial_bits) != 0
        depth = len(gains)
        eccs[:] = np.where(hit.any(axis=0), depth - np.argmax(hit[::-1], axis=0), 0)
    np.bitwise_or(removed_lanes, avail, out=nxt)  # count the unvisited lanes
    held = frontier.view(np.bool_)[:size]
    np.not_equal(nxt, 0, out=held)
    unvisited = np.compress(held, nxt, out=scratch[: np.count_nonzero(held)])
    sizes[:] = size - _lane_counts(unvisited, batch, nxt, avail)
    return BatchStats(sizes, eccs, root_dead, levels=len(gains))
