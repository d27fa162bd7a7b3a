"""The Kautz digraph ``K(d, n)`` — a De Bruijn relative named in the paper's future work.

``K(d, n)`` has as nodes the words of length ``n`` over a ``(d+1)``-letter
alphabet in which consecutive digits differ, and edges
``x_1...x_n -> x_2...x_n a`` for every ``a != x_n``.  It has
``(d+1) d^{n-1}`` nodes, is ``d``-regular and loop-free, and — like the De
Bruijn graph — is a line-graph iterate of a complete digraph, which is why
the paper lists it (Chapter 5) as a natural next target for the ring
embedding techniques.  The class mirrors the
:class:`~repro.graphs.debruijn.DeBruijnGraph` interface so the FFC machinery
can be pointed at it in the extension benchmarks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, validate_alphabet

__all__ = ["KautzGraph"]


class KautzGraph:
    """The Kautz digraph ``K(d, n)`` with degree ``d`` and diameter ``n``."""

    def __init__(self, d: int, n: int) -> None:
        self.d = validate_alphabet(d + 1) - 1  # alphabet has d+1 letters
        if self.d < 1:
            raise InvalidParameterError("Kautz graphs require degree d >= 1")
        if n < 1:
            raise InvalidParameterError(f"word length must be >= 1, got {n}")
        self.n = int(n)

    @property
    def alphabet_size(self) -> int:
        return self.d + 1

    @property
    def num_nodes(self) -> int:
        """``(d+1) * d**(n-1)`` nodes."""
        return (self.d + 1) * self.d ** (self.n - 1)

    @property
    def num_edges(self) -> int:
        """``(d+1) * d**n`` directed edges (no loops)."""
        return (self.d + 1) * self.d**self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KautzGraph(d={self.d}, n={self.n})"

    def is_node(self, word: Sequence[int]) -> bool:
        w = tuple(int(x) for x in word)
        if len(w) != self.n:
            return False
        if any(not 0 <= x <= self.d for x in w):
            return False
        return all(a != b for a, b in zip(w, w[1:]))

    def _check(self, word: Sequence[int]) -> Word:
        w = tuple(int(x) for x in word)
        if not self.is_node(w):
            raise InvalidParameterError(f"{w} is not a node of K({self.d},{self.n})")
        return w

    def nodes(self) -> Iterator[Word]:
        def extend(prefix: tuple[int, ...]) -> Iterator[Word]:
            if len(prefix) == self.n:
                yield prefix
                return
            for a in range(self.d + 1):
                if not prefix or a != prefix[-1]:
                    yield from extend(prefix + (a,))

        yield from extend(())

    def successors(self, word: Sequence[int]) -> list[Word]:
        w = self._check(word)
        return [w[1:] + (a,) for a in range(self.d + 1) if a != w[-1]]

    def predecessors(self, word: Sequence[int]) -> list[Word]:
        w = self._check(word)
        return [(a,) + w[:-1] for a in range(self.d + 1) if a != w[0]]

    def has_edge(self, src: Sequence[int], dst: Sequence[int]) -> bool:
        if not (self.is_node(src) and self.is_node(dst)):
            return False
        s, t = tuple(src), tuple(dst)
        return s[1:] == t[:-1] and s != t

    def edges(self) -> Iterator[tuple[Word, Word]]:
        for w in self.nodes():
            for s in self.successors(w):
                yield w, s

    def is_cycle(self, nodes: Sequence[Sequence[int]]) -> bool:
        checked = [self._check(w) for w in nodes]
        if not checked or len(set(checked)) != len(checked):
            return False
        closed = checked + [checked[0]]
        return all(self.has_edge(a, b) for a, b in zip(closed, closed[1:]))
