"""The undirected De Bruijn graph ``UB(d, n)``.

``UB(d, n)`` is obtained from the digraph ``B(d, n)`` by deleting loops,
forgetting edge orientation and merging any resulting parallel edges
(Section 1.2).  The paper quotes the degree census of [PR82]:

* ``d`` nodes of degree ``2d - 2`` (the constant words ``a^n``),
* ``d(d-1)`` nodes of degree ``2d - 1`` (the words ``\\widehat{ab}`` whose
  successor set and predecessor set overlap in one node),
* ``d^n - d^2`` nodes of degree ``2d``.

The census is exposed here and verified in the test-suite; it is also the
structural check behind Figure 1.2 in the benchmark harness.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, validate_word
from .components import ResidualGraph, component_of
from .debruijn import DeBruijnGraph, predecessor_matrix, successor_matrix

__all__ = ["UndirectedDeBruijnGraph", "degree_census"]


def degree_census(d: int, n: int) -> dict[int, int]:
    """Return the theoretical degree census ``{degree: node count}`` of ``UB(d, n)``.

    Follows [PR82] as quoted in Section 1.2 of the paper.  For very small
    parameters some of the three classes coincide or are empty (e.g.
    ``UB(2, 1)``), so counts for equal degrees are merged and zero counts
    dropped.
    """
    if n == 1:
        # UB(d,1) is the complete graph K_d: every node has degree d-1.
        return {d - 1: d}
    census: dict[int, int] = {}
    for degree, count in ((2 * d - 2, d), (2 * d - 1, d * (d - 1)), (2 * d, d**n - d * d)):
        if count:
            census[degree] = census.get(degree, 0) + count
    return census


class UndirectedDeBruijnGraph:
    """The undirected De Bruijn graph ``UB(d, n)``.

    The adjacency is held as code arrays in CSR form, built from the
    ``(d**n, 2d)`` successor/predecessor concatenation (the gather table of
    the ``undirected_debruijn`` topology) by dropping each row's self-entries
    (deleted loops) and duplicates (merged parallel edges).  Nodes are
    listed in code order.
    """

    def __init__(self, d: int, n: int) -> None:
        self.directed = DeBruijnGraph(d, n)
        self.d = self.directed.d
        self.n = self.directed.n
        self._codec = self.directed.codec
        rows = np.sort(np.hstack([successor_matrix(d, n), predecessor_matrix(d, n)]), axis=1)
        keep = rows != np.arange(len(rows))[:, None]
        keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        self._degrees = keep.sum(axis=1)
        self._indptr = np.concatenate(([0], np.cumsum(self._degrees)))
        self._indices = rows[keep]

    # -- census ---------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._degrees)

    @property
    def num_edges(self) -> int:
        return int(self._degrees.sum()) // 2

    def degree(self, word: Sequence[int]) -> int:
        """Return the degree of a node in ``UB(d, n)``."""
        return int(self._degrees[self._code(word)])

    def degree_census(self) -> dict[int, int]:
        """Return the measured degree census ``{degree: node count}``."""
        degrees, counts = np.unique(self._degrees, return_counts=True)
        return dict(zip(degrees.tolist(), counts.tolist()))

    # -- structure -----------------------------------------------------------
    def nodes(self) -> Iterator[Word]:
        return (self._codec.decode(x) for x in range(self.num_nodes))

    def edges(self) -> Iterator[tuple[Word, Word]]:
        """Each edge once, as ``(a, b)`` with ``a`` before ``b`` in code order."""
        for x in range(self.num_nodes):
            for y in self._row(x):
                if x < y:
                    yield self._codec.decode(x), self._codec.decode(y)

    def has_edge(self, a: Sequence[int], b: Sequence[int]) -> bool:
        try:
            x, y = self._code(a), self._code(b)
        except InvalidParameterError:
            return False
        return y in self._row(x)

    def neighbors(self, word: Sequence[int]) -> list[Word]:
        return [self._codec.decode(y) for y in self._row(self._code(word))]

    def is_connected(self) -> bool:
        everyone = ResidualGraph(self.d, self.n, np.zeros(self.num_nodes, dtype=bool))
        return len(component_of(everyone, 0)) == self.num_nodes

    # -- internals -----------------------------------------------------------
    def _code(self, word: Sequence[int]) -> int:
        w = validate_word(word, self.d)
        if len(w) != self.n:
            raise InvalidParameterError(f"{w} is not a node of UB({self.d},{self.n})")
        return self._codec.encode(w)

    def _row(self, x: int) -> list[int]:
        return self._indices[self._indptr[x] : self._indptr[x + 1]].tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UndirectedDeBruijnGraph(d={self.d}, n={self.n})"
