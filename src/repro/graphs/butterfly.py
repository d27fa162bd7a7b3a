"""The d-ary wrapped butterfly digraph ``F(d, n)`` and its De Bruijn quotient.

Section 3.4 of the paper transfers the edge-fault ring-embedding results from
``B(d, n)`` to butterflies.  ``F(d, n)`` has node set ``Z_n x Z_d^n`` — node
``(k, x)`` sits at *level* ``k`` and *column* ``x`` — and edges

    ``(k, x_0 x_1 ... x_{n-1})  ->  (k+1 mod n, x_0 ... x_{k-1} a x_{k+1} ... x_{n-1})``

for every digit ``a`` (the level-``k`` digit may be rewritten while moving to
the next level).  Following [ABR90], grouping the butterfly nodes into the
sets ``S_x = {(i, pi^{-i}(x)) : 0 <= i < n}`` and merging each set into a
single vertex collapses ``F(d, n)`` onto ``B(d, n)``; Lemma 3.8 states the
edge-level compatibility and Lemma 3.9/3.10 lift cycles of ``B(d, n)`` to
cycles of ``F(d, n)`` of length ``lcm(k, n)``.  All of those maps are
implemented here and exercised by the Chapter 3 benchmarks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import lcm

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, validate_alphabet, validate_word
from ..words.rotation import rotate_right

__all__ = ["ButterflyGraph", "ButterflyNode", "debruijn_node_class", "lift_cycle", "lift_edge"]

#: A butterfly node: (level, column word).
ButterflyNode = tuple[int, Word]


def debruijn_node_class(word: Sequence[int], d: int) -> list[ButterflyNode]:
    """Return ``S_x``: the butterfly nodes associated with De Bruijn node ``x``.

    ``S_x = {(0, x), (1, pi^{-1}(x)), ..., (n-1, pi^{-(n-1)}(x))}`` as in
    Section 3.4 of the paper.
    """
    w = validate_word(word, d)
    return [(i, rotate_right(w, i)) for i in range(len(w))]


def lift_edge(src: Sequence[int], dst: Sequence[int], d: int, level: int) -> tuple[ButterflyNode, ButterflyNode]:
    """Lift the De Bruijn edge ``src -> dst`` to the butterfly edge at ``level``.

    By Lemma 3.8 the level-``i`` member of ``S_src`` has a butterfly edge to
    the level-``i+1`` member of ``S_dst``; this returns that pair.
    """
    s = validate_word(src, d)
    t = validate_word(dst, d)
    n = len(s)
    if s[1:] != t[:-1]:
        raise InvalidParameterError(f"({s}, {t}) is not a De Bruijn edge")
    return (level % n, rotate_right(s, level)), ((level + 1) % n, rotate_right(t, level + 1))


def lift_cycle(cycle: Sequence[Sequence[int]], d: int) -> list[ButterflyNode]:
    """Lift a cycle of ``B(d, n)`` to a cycle of ``F(d, n)`` (the map ``Phi`` of Lemma 3.9).

    A ``k``-cycle lifts to a cycle of length ``lcm(k, n)``: the lift walks the
    De Bruijn cycle repeatedly while the butterfly level advances by one per
    step, closing up exactly when both the cycle position and the level
    return to their starting values.
    """
    nodes = [tuple(int(x) for x in w) for w in cycle]
    if not nodes:
        raise InvalidParameterError("cannot lift an empty cycle")
    n = len(nodes[0])
    k = len(nodes)
    t = lcm(k, n)
    return [(i % n, rotate_right(nodes[i % k], i)) for i in range(t)]


class ButterflyGraph:
    """The d-ary wrapped butterfly digraph ``F(d, n)``.

    Examples
    --------
    >>> f = ButterflyGraph(2, 3)
    >>> f.num_nodes, f.num_edges
    (24, 48)
    >>> f.successors((0, (1, 0, 1)))
    [(1, (0, 0, 1)), (1, (1, 0, 1))]
    """

    def __init__(self, d: int, n: int) -> None:
        self.d = validate_alphabet(d)
        if n < 1:
            raise InvalidParameterError(f"butterfly dimension must be >= 1, got {n}")
        self.n = int(n)

    # -- census -------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``n * d**n`` nodes."""
        return self.n * self.d**self.n

    @property
    def num_edges(self) -> int:
        """``n * d**(n+1)`` directed edges."""
        return self.n * self.d ** (self.n + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ButterflyGraph(d={self.d}, n={self.n})"

    # -- nodes / edges ---------------------------------------------------------
    def nodes(self) -> Iterator[ButterflyNode]:
        from ..words.alphabet import iter_words

        for level in range(self.n):
            for w in iter_words(self.d, self.n):
                yield (level, w)

    def _check_node(self, node: ButterflyNode) -> ButterflyNode:
        level, word = node
        if not 0 <= level < self.n:
            raise InvalidParameterError(f"level {level} outside range(0, {self.n})")
        w = validate_word(word, self.d)
        if len(w) != self.n:
            raise InvalidParameterError(f"column word {w} must have length {self.n}")
        return level, w

    def successors(self, node: ButterflyNode) -> list[ButterflyNode]:
        """The ``d`` successors: rewrite the level-``k`` digit, advance a level."""
        level, w = self._check_node(node)
        nxt = (level + 1) % self.n
        return [(nxt, w[:level] + (a,) + w[level + 1 :]) for a in range(self.d)]

    def predecessors(self, node: ButterflyNode) -> list[ButterflyNode]:
        """The ``d`` predecessors of a butterfly node."""
        level, w = self._check_node(node)
        prev = (level - 1) % self.n
        return [(prev, w[:prev] + (a,) + w[prev + 1 :]) for a in range(self.d)]

    def has_edge(self, src: ButterflyNode, dst: ButterflyNode) -> bool:
        try:
            src = self._check_node(src)
            dst = self._check_node(dst)
        except (InvalidParameterError, ValueError):
            return False
        return dst in self.successors(src)

    def edges(self) -> Iterator[tuple[ButterflyNode, ButterflyNode]]:
        for node in self.nodes():
            for succ in self.successors(node):
                yield node, succ

    # -- cycles ------------------------------------------------------------------
    def is_cycle(self, nodes: Sequence[ButterflyNode]) -> bool:
        """Return True iff ``nodes`` is a simple directed cycle of ``F(d, n)``."""
        checked = [self._check_node(v) for v in nodes]
        if not checked or len(set(checked)) != len(checked):
            return False
        closed = list(checked) + [checked[0]]
        return all(self.has_edge(a, b) for a, b in zip(closed, closed[1:]))

    def is_hamiltonian_cycle(self, nodes: Sequence[ButterflyNode]) -> bool:
        return len(nodes) == self.num_nodes and self.is_cycle(nodes)

    # -- De Bruijn quotient ----------------------------------------------------------
    def node_class(self, word: Sequence[int]) -> list[ButterflyNode]:
        """Return ``S_x`` for a De Bruijn node ``x`` (see :func:`debruijn_node_class`)."""
        w = validate_word(word, self.d)
        if len(w) != self.n:
            raise InvalidParameterError(f"De Bruijn node {w} must have length {self.n}")
        return debruijn_node_class(w, self.d)

    def quotient_is_debruijn(self) -> bool:
        """Check that merging every ``S_x`` reproduces ``B(d, n)`` (the [ABR90] partition).

        Returns True when, after contracting each class to a single vertex and
        merging parallel edges (and collapsing the resulting self-loops), the
        quotient's edge relation equals that of ``B(d, n)``.
        """
        from .debruijn import DeBruijnGraph
        from ..words.alphabet import iter_words

        b = DeBruijnGraph(self.d, self.n)
        # map each butterfly node to its De Bruijn class representative
        owner: dict[ButterflyNode, Word] = {}
        for x in iter_words(self.d, self.n):
            for member in debruijn_node_class(x, self.d):
                owner[member] = x
        quotient_edges = set()
        for src, dst in self.edges():
            a, b_ = owner[src], owner[dst]
            quotient_edges.add((a, b_))
        debruijn_edges = {(u, v) for u, v in b.edges()}
        return quotient_edges == debruijn_edges

    def lift_cycle(self, cycle: Sequence[Sequence[int]]) -> list[ButterflyNode]:
        """Lift a De Bruijn cycle into this butterfly (see :func:`lift_cycle`)."""
        return lift_cycle(cycle, self.d)
