"""The directed De Bruijn graph ``B(d, n)``.

``B(d, n)`` has the ``d**n`` words of length ``n`` over ``Z_d`` as nodes and a
directed edge from ``x_1 x_2 ... x_n`` to ``x_2 ... x_n a`` for every digit
``a``.  Every node has indegree and outdegree ``d``; the ``d`` constant words
``a^n`` carry self-loops.  Edges are in one-to-one correspondence with words
of length ``n + 1`` (the edge ``x_1...x_n -> x_2...x_{n+1}`` is labelled
``x_1...x_{n+1}``), which is why ``B(d, n+1)`` is the line graph of
``B(d, n)`` — a fact the paper exploits in its optimality argument
(Section 2.5) and that :mod:`repro.graphs.line_graph` implements.

Two access styles are provided, mirroring the package-wide convention:

* tuple-encoded words with per-node successor/predecessor queries (readable,
  used by the algorithmic code in :mod:`repro.core`);
* int-encoded words with whole-graph numpy successor/predecessor matrices
  (the vectorized fast path used by :mod:`repro.graphs.components` and the
  random-fault simulations of :mod:`repro.analysis`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..words.alphabet import (
    Word,
    int_to_word,
    iter_words,
    validate_alphabet,
    validate_word,
    word_to_int,
)
from ..words.codec import WordCodec, get_codec

__all__ = [
    "DeBruijnGraph",
    "successors",
    "predecessors",
    "successor_matrix",
    "predecessor_matrix",
    "edge_label",
    "is_debruijn_edge",
]


def successors(word: Sequence[int], d: int) -> list[Word]:
    """Return the ``d`` successors of ``word`` in ``B(d, n)``: ``x_2...x_n a``."""
    w = validate_word(word, d)
    return [w[1:] + (a,) for a in range(d)]


def predecessors(word: Sequence[int], d: int) -> list[Word]:
    """Return the ``d`` predecessors of ``word`` in ``B(d, n)``: ``a x_1...x_{n-1}``."""
    w = validate_word(word, d)
    return [(a,) + w[:-1] for a in range(d)]


def is_debruijn_edge(src: Sequence[int], dst: Sequence[int], d: int) -> bool:
    """Return True iff ``(src, dst)`` is an edge of ``B(d, n)``."""
    s = validate_word(src, d)
    t = validate_word(dst, d)
    return len(s) == len(t) and s[1:] == t[:-1]


def edge_label(src: Sequence[int], dst: Sequence[int], d: int) -> Word:
    """Return the ``(n+1)``-tuple labelling the edge ``src -> dst``.

    The label is ``x_1 ... x_n a`` where ``src = x_1...x_n`` and ``dst``
    ends in ``a``; it is simultaneously a node of ``B(d, n+1)``, realising the
    line-graph correspondence.
    """
    if not is_debruijn_edge(src, dst, d):
        raise InvalidParameterError(f"({src}, {dst}) is not an edge of B({d}, {len(src)})")
    return tuple(src) + (tuple(dst)[-1],)


def successor_matrix(d: int, n: int) -> np.ndarray:
    """Return the ``(d**n, d)`` int64 matrix ``S`` with ``S[x, a] = (x*d + a) mod d**n``.

    Row ``x`` lists the int-encoded successors of the int-encoded node ``x``.
    The whole matrix is built with two vectorized numpy operations, which is
    the preferred representation for BFS/eccentricity sweeps over large
    graphs (Tables 2.1/2.2 run thousands of BFS traversals).
    """
    validate_alphabet(d)
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    size = d**n
    base = (np.arange(size, dtype=np.int64) * d) % size
    return base[:, None] + np.arange(d, dtype=np.int64)[None, :]


def predecessor_matrix(d: int, n: int) -> np.ndarray:
    """Return the ``(d**n, d)`` int64 matrix ``P`` with ``P[x, a] = a*d**(n-1) + x // d``."""
    validate_alphabet(d)
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    size = d**n
    high = d ** (n - 1)
    base = np.arange(size, dtype=np.int64) // d
    return base[:, None] + np.arange(d, dtype=np.int64)[None, :] * high


class DeBruijnGraph:
    """The d-ary directed De Bruijn graph ``B(d, n)``.

    The instance is lightweight: nodes and edges are generated on demand from
    the arithmetic structure rather than stored, so constructing
    ``DeBruijnGraph(2, 20)`` is free even though it has a million nodes.

    Examples
    --------
    >>> g = DeBruijnGraph(2, 3)
    >>> g.num_nodes, g.num_edges
    (8, 16)
    >>> g.successors((1, 0, 1))
    [(0, 1, 0), (0, 1, 1)]
    """

    def __init__(self, d: int, n: int) -> None:
        self.d = validate_alphabet(d)
        if n < 1:
            raise InvalidParameterError(f"word length must be >= 1, got {n}")
        self.n = int(n)

    # -- census ---------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``d**n`` nodes."""
        return self.d**self.n

    @property
    def num_edges(self) -> int:
        """``d**(n+1)`` directed edges, including the ``d`` self-loops."""
        return self.d ** (self.n + 1)

    @property
    def num_loops(self) -> int:
        """The ``d`` self-loop edges at the constant words ``a^n``."""
        return self.d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeBruijnGraph(d={self.d}, n={self.n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeBruijnGraph):
            return NotImplemented
        return (self.d, self.n) == (other.d, other.n)

    def __hash__(self) -> int:
        return hash(("DeBruijnGraph", self.d, self.n))

    # -- nodes ------------------------------------------------------------------
    def nodes(self) -> Iterator[Word]:
        """Iterate over all nodes in base-``d`` numeric order."""
        return iter_words(self.d, self.n)

    def __contains__(self, word: object) -> bool:
        if not isinstance(word, tuple) or len(word) != self.n:
            return False
        return all(isinstance(x, int) and 0 <= x < self.d for x in word)

    def node_from_int(self, value: int) -> Word:
        """Return the tuple-encoded node with int encoding ``value``."""
        return int_to_word(value, self.d, self.n)

    def node_to_int(self, word: Sequence[int]) -> int:
        """Return the int encoding of a tuple-encoded node."""
        return word_to_int(validate_word(word, self.d), self.d)

    # -- edges ------------------------------------------------------------------
    def successors(self, word: Sequence[int]) -> list[Word]:
        """Return the ``d`` successors of ``word`` (Section 1.2's edge rule)."""
        w = validate_word(word, self.d)
        self._check_length(w)
        return successors(w, self.d)

    def predecessors(self, word: Sequence[int]) -> list[Word]:
        """Return the ``d`` predecessors of ``word``."""
        w = validate_word(word, self.d)
        self._check_length(w)
        return predecessors(w, self.d)

    def has_edge(self, src: Sequence[int], dst: Sequence[int]) -> bool:
        """Return True iff ``src -> dst`` is an edge of this graph."""
        try:
            s = validate_word(src, self.d)
            t = validate_word(dst, self.d)
        except InvalidParameterError:
            return False
        return len(s) == self.n and len(t) == self.n and s[1:] == t[:-1]

    def edges(self) -> Iterator[tuple[Word, Word]]:
        """Iterate over all directed edges (including self-loops)."""
        for w in self.nodes():
            for s in successors(w, self.d):
                yield w, s

    def edge_labels(self) -> Iterator[Word]:
        """Iterate over all edges as their ``(n+1)``-tuple labels."""
        return iter_words(self.d, self.n + 1)

    def edge_from_label(self, label: Sequence[int]) -> tuple[Word, Word]:
        """Return the edge ``(x_1...x_n, x_2...x_{n+1})`` labelled by an ``(n+1)``-tuple."""
        lab = validate_word(label, self.d)
        if len(lab) != self.n + 1:
            raise InvalidParameterError(
                f"edge labels of B({self.d},{self.n}) have length {self.n + 1}, got {len(lab)}"
            )
        return lab[:-1], lab[1:]

    def successor_matrix(self) -> np.ndarray:
        """Vectorized successor table; see :func:`successor_matrix`."""
        return successor_matrix(self.d, self.n)

    def predecessor_matrix(self) -> np.ndarray:
        """Vectorized predecessor table; see :func:`predecessor_matrix`."""
        return predecessor_matrix(self.d, self.n)

    @property
    def codec(self) -> WordCodec:
        """The shared integer-word codec for this graph (cached per ``(d, n)``).

        The codec carries the rotation/necklace-representative/period tables
        and the read-only successor/predecessor matrices that power every
        vectorized fast path (:mod:`repro.graphs.components`,
        :mod:`repro.analysis.fault_simulation`).
        """
        return get_codec(self.d, self.n)

    # -- degrees -------------------------------------------------------------------
    def in_degree(self, word: Sequence[int]) -> int:
        """Indegree (always ``d``; loops count once)."""
        self._check_length(validate_word(word, self.d))
        return self.d

    def out_degree(self, word: Sequence[int]) -> int:
        """Outdegree (always ``d``; loops count once)."""
        self._check_length(validate_word(word, self.d))
        return self.d

    def has_loop(self, word: Sequence[int]) -> bool:
        """Return True iff ``word`` is a constant word ``a^n`` (carries a self-loop)."""
        w = validate_word(word, self.d)
        self._check_length(w)
        return len(set(w)) == 1

    # -- verification helpers ---------------------------------------------------------
    def is_path(self, nodes: Sequence[Sequence[int]]) -> bool:
        """Return True iff consecutive elements of ``nodes`` are joined by edges."""
        nodes = [validate_word(w, self.d) for w in nodes]
        return all(self.has_edge(a, b) for a, b in zip(nodes, nodes[1:]))

    def is_cycle(self, nodes: Sequence[Sequence[int]]) -> bool:
        """Return True iff ``nodes`` lists a simple directed cycle of this graph.

        ``nodes`` lists the cycle's vertices once each (the closing edge from
        the last back to the first vertex is implicit).  A single node is a
        cycle only if it carries a self-loop.
        """
        nodes = [validate_word(w, self.d) for w in nodes]
        if not nodes:
            return False
        if len(set(nodes)) != len(nodes):
            return False
        if len(nodes) == 1:
            return self.has_loop(nodes[0])
        return self.is_path(nodes) and self.has_edge(nodes[-1], nodes[0])

    def is_hamiltonian_cycle(self, nodes: Sequence[Sequence[int]]) -> bool:
        """Return True iff ``nodes`` is a Hamiltonian cycle of ``B(d, n)``."""
        return len(nodes) == self.num_nodes and self.is_cycle(nodes)

    # -- internals -----------------------------------------------------------------------
    def _check_length(self, w: Word) -> None:
        if len(w) != self.n:
            raise InvalidParameterError(
                f"node {w} has length {len(w)}, expected {self.n} for B({self.d},{self.n})"
            )
