"""The Kautz backend ``K(d, n)`` — the paper's Chapter 5 extension target.

``K(d, n)`` has as nodes the length-``n`` words over a ``(d+1)``-letter
alphabet whose consecutive digits differ, and edges ``x_1...x_n ->
x_2...x_n a`` for ``a != x_n``; it is ``d``-in/``d``-out regular with
``(d+1) d**(n-1)`` nodes.  The codes here are *compact*: the valid words,
ascending by their base-``(d+1)`` value, are numbered ``0 .. num_nodes - 1``
(a dense ``(d+1)**n`` lookup maps full values to compact codes, which is
fine at the studied sizes).

**Fault units are rotation orbits**, the Kautz analog of the paper's
necklaces.  A Kautz word is *cyclic* when its first and last digits differ;
rotating a cyclic word drops no adjacent pair other than the wrap, so every
rotation of a cyclic word is again a Kautz word and cyclic, and the orbit is
a full necklace of up to ``n`` words.  A word with ``x_1 == x_n`` has no
valid non-trivial rotation, so its orbit is the singleton ``{x}``.  Removing
whole orbits therefore removes at most ``n`` nodes per fault — the same
``num_nodes - n*f`` reference shape as the De Bruijn tables.

The default measurement root is the alternating word ``0101...`` — the
natural stand-in for ``0...01``, which is not a Kautz word (its leading
zeros repeat).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word, validate_alphabet
from ..words.codec import check_graph_size
from .base import Topology

__all__ = ["KautzTopology"]


class KautzTopology(Topology):
    """``K(d, n)`` behind the topology protocol (rotation-orbit fault units)."""

    key = "kautz"
    symbol = "K"
    directed = True

    def __init__(self, d: int, n: int) -> None:
        super().__init__()
        self.d = validate_alphabet(int(d) + 1) - 1  # alphabet has d+1 letters
        if self.d < 1:
            raise InvalidParameterError("Kautz graphs require degree d >= 1")
        if n < 1:
            raise InvalidParameterError(f"word length must be >= 1, got {n}")
        # rows: the dense (d+1)**n lookup; width: neighbour_table, d out + d in
        check_graph_size(self.d + 1, n, 2 * self.d, f"K({self.d},{n})")
        self.n = int(n)
        self.q = self.d + 1  # alphabet size
        self.num_nodes = self.q * self.d ** (self.n - 1)
        self.max_fault_unit_size = self.n
        self._high = self.q ** (self.n - 1)  # place value of the leading digit
        self._full_codes: np.ndarray | None = None  # base-q values, ascending
        self._index_of: np.ndarray | None = None  # full value -> compact code
        self._unit_members: np.ndarray | None = None  # (n, num_nodes)
        self._rep: np.ndarray | None = None  # orbit representative table

    # -- enumeration (lazy) ----------------------------------------------------
    def _codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(full_codes, index_of)``: the compact <-> base-``q`` coding maps.

        Lock-guarded like every lazy table build (REP003): registry-cached
        backends are shared across server threads, and ``_full_codes`` /
        ``_index_of`` must never be observed half-assigned.  The base
        class's ``_tables_lock`` is an RLock, so the gather-table builders
        (which call back into this method) can nest the acquisition.
        """
        if self._full_codes is None:
            with self._tables_lock:
                if self._full_codes is None:
                    q, n = self.q, self.n
                    values = np.arange(q**n, dtype=np.int64)
                    valid = np.ones(values.shape, dtype=bool)
                    for i in range(n - 1):
                        left = (values // q ** (n - 1 - i)) % q
                        right = (values // q ** (n - 2 - i)) % q
                        valid &= left != right
                    full = values[valid]
                    if len(full) != self.num_nodes:  # pragma: no cover
                        raise InvalidParameterError(
                            "Kautz enumeration does not match the census"
                        )
                    index_of = np.full(q**n, -1, dtype=np.int64)
                    index_of[full] = np.arange(len(full), dtype=np.int64)
                    self._index_of = index_of
                    self._full_codes = full
        return self._full_codes, self._index_of

    # -- node coding -----------------------------------------------------------
    def is_node(self, word: Sequence[int]) -> bool:
        w = tuple(int(x) for x in word)
        if len(w) != self.n or any(not 0 <= x < self.q for x in w):
            return False
        return all(a != b for a, b in zip(w, w[1:]))

    def encode(self, node: Sequence[int] | int) -> int:
        if isinstance(node, (int, np.integer)):
            return self._check_code(node)
        w = tuple(int(x) for x in node)
        if not self.is_node(w):
            raise InvalidParameterError(f"{w} is not a node of K({self.d},{self.n})")
        full = 0
        for digit in w:
            full = full * self.q + digit
        _, index_of = self._codes()
        return int(index_of[full])

    def decode(self, code: int) -> Word:
        full_codes, _ = self._codes()
        value = int(full_codes[self._check_code(code)])
        digits = []
        for _ in range(self.n):
            value, digit = divmod(value, self.q)
            digits.append(digit)
        return tuple(reversed(digits))

    # -- gather tables ---------------------------------------------------------
    def _neighbour_columns(self, out: bool) -> np.ndarray:
        """The ``(num_nodes, d)`` successor (``out``) or predecessor table.

        Successor ``j`` of ``x`` appends the ``j``-th letter distinct from
        ``x_n`` (ascending); predecessor ``j`` prepends the ``j``-th letter
        distinct from ``x_1``.  Both land on valid Kautz words, so the
        compact lookup never misses.
        """
        full, index_of = self._codes()
        js = np.arange(self.d, dtype=np.int64)[None, :]
        if out:
            skipped = (full % self.q)[:, None]  # last digit
            letters = js + (js >= skipped)
            targets = (full % self._high)[:, None] * self.q + letters
        else:
            skipped = (full // self._high)[:, None]  # first digit
            letters = js + (js >= skipped)
            targets = letters * self._high + (full // self.q)[:, None]
        return index_of[targets]

    def _build_successor_table(self) -> np.ndarray:
        return self._neighbour_columns(out=True)

    def _build_predecessor_table(self) -> np.ndarray:
        return self._neighbour_columns(out=False)

    # -- rotation-orbit fault units --------------------------------------------
    def _orbit_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(members, rep)``: per-node orbit members and representatives.

        ``members[i, x]`` is the compact code of ``rot^i(x)`` for cyclic
        words (first digit != last digit) and ``x`` itself otherwise;
        ``rep[x]`` is the smallest compact code in the orbit of ``x``.
        """
        if self._unit_members is None:
            with self._tables_lock:
                if self._unit_members is None:
                    full, index_of = self._codes()
                    cyclic = (full // self._high) != (full % self.q)
                    members_full = np.empty((self.n, len(full)), dtype=np.int64)
                    members_full[0] = full
                    for i in range(1, self.n):
                        rotated = (members_full[i - 1] % self._high) * self.q + (
                            members_full[i - 1] // self._high
                        )
                        # rotations of cyclic words stay cyclic (hence valid
                        # nodes); non-cyclic words are singleton orbits
                        members_full[i] = np.where(cyclic, rotated, full)
                    members = index_of[members_full]
                    rep = members.min(axis=0)
                    members.flags.writeable = False
                    rep.flags.writeable = False
                    self._rep = rep
                    self._unit_members = members
        return self._unit_members, self._rep

    def fault_unit_mask(self, fault_codes: np.ndarray | Sequence[int]) -> np.ndarray:
        codes = np.asarray(fault_codes, dtype=np.int64).reshape(-1)
        if codes.size == 0:
            return np.zeros(self.num_nodes, dtype=bool)
        if codes.min() < 0 or codes.max() >= self.num_nodes:
            raise InvalidParameterError("fault code outside node range")
        members, rep = self._orbit_tables()
        return np.isin(rep, rep[codes])

    def fault_unit_members(self, codes: np.ndarray) -> np.ndarray:
        members, _ = self._orbit_tables()
        return members[:, np.asarray(codes, dtype=np.int64)]

    def fault_unit_reps(self, codes: np.ndarray | Sequence[int]) -> list[int]:
        arr = np.asarray(codes, dtype=np.int64).reshape(-1)
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_nodes):
            raise InvalidParameterError("fault code outside node range")
        _, rep = self._orbit_tables()
        return sorted({int(r) for r in rep[arr].tolist()})

    # -- measurement conventions ----------------------------------------------
    @property
    def default_root_code(self) -> int:
        """The alternating word ``0101...`` (the Kautz stand-in for ``0...01``)."""
        return self.encode(tuple(i % 2 for i in range(self.n)))
