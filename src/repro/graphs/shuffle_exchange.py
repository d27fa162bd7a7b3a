"""The shuffle-exchange graph — the De Bruijn graph's undirected sibling.

The paper repeatedly cites shuffle-exchange results (the necklace-based VLSI
layouts of [Lei83], the permutation routing of [LMR88], the Hamiltonian-cycle
counting of [LHC89]) because the ``N``-node shuffle-exchange graph shares the
De Bruijn graph's necklace structure: its *shuffle* edges are precisely the
rotation (necklace) edges ``x -> pi(x)`` and its *exchange* edges flip the
last digit.  Chapter 4's necklace-counting formulae therefore apply verbatim
to it, and this module exists so those counts can be cross-checked against an
explicit graph in the tests and benchmarks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, validate_alphabet, validate_word
from ..words.rotation import rotate_left

__all__ = ["ShuffleExchangeGraph"]


class ShuffleExchangeGraph:
    """The d-ary shuffle-exchange graph on the words of length ``n``.

    Edges (undirected):

    * *shuffle*:  ``x_1...x_n  --  x_2...x_n x_1`` (left rotation),
    * *exchange*: ``x_1...x_{n-1} a  --  x_1...x_{n-1} b`` for ``a != b``
      (in the classical binary case: flip the last bit).
    """

    def __init__(self, d: int, n: int) -> None:
        self.d = validate_alphabet(d)
        if n < 1:
            raise InvalidParameterError(f"word length must be >= 1, got {n}")
        self.n = int(n)

    @property
    def num_nodes(self) -> int:
        return self.d**self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShuffleExchangeGraph(d={self.d}, n={self.n})"

    def nodes(self) -> Iterator[Word]:
        from ..words.alphabet import iter_words

        return iter_words(self.d, self.n)

    def shuffle_neighbor(self, word: Sequence[int]) -> Word:
        """The left-rotation neighbour (a necklace edge)."""
        w = validate_word(word, self.d)
        return rotate_left(w)

    def exchange_neighbors(self, word: Sequence[int]) -> list[Word]:
        """The ``d - 1`` neighbours differing only in the last digit."""
        w = validate_word(word, self.d)
        return [w[:-1] + (a,) for a in range(self.d) if a != w[-1]]

    def neighbors(self, word: Sequence[int]) -> list[Word]:
        w = validate_word(word, self.d)
        result = {rotate_left(w), rotate_left(w, self.n - 1)} | set(self.exchange_neighbors(w))
        result.discard(w)
        return sorted(result)

    def necklace_edges(self) -> Iterator[tuple[Word, Word]]:
        """Iterate over the shuffle (necklace) edges only."""
        for w in self.nodes():
            shuffled = rotate_left(w)
            if w < shuffled:
                yield w, shuffled
