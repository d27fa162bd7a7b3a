"""Integer-coded word kernel: O(1) word algebra for the hot paths.

Every hot path of the package — necklace enumeration, ``B*`` construction,
FFC successor computation, the fault sweeps of Tables 2.1/2.2 — ultimately
manipulates length-``n`` words over ``Z_d``.  The readable tuple encoding
costs ``O(n)`` per rotation/comparison, which caps fault sweeps at a few
thousand nodes.  :class:`WordCodec` replaces that with base-``d`` integer
codes plus a handful of precomputed whole-graph tables, so that the word
operations the algorithms actually perform become O(1) integer arithmetic or
single array lookups:

``rotate1``
    ``rotate1[x]`` is the code of the left rotation ``pi(x)`` — the necklace
    successor of ``x`` (Chapter 2's default FFC successor).
``rep``
    ``rep[x]`` is the code of the canonical (numerically minimal) necklace
    representative ``[x]``; two words lie on the same necklace iff their
    ``rep`` entries agree.  This realises the necklace partition of Chapter 2
    as one vectorized table.
``periods``
    ``periods[x]`` is the period of ``x`` (= the length of its necklace).

De Bruijn successor/predecessor moves need no table at all — they are the
arithmetic ``(x*d + a) mod d**n`` and ``x // d + a * d**(n-1)`` — but the
codec also caches the ``(d**n, d)`` successor/predecessor matrices used by
the vectorized BFS sweeps in :mod:`repro.graphs.components` and
:mod:`repro.graphs.msbfs`.

Tuples remain the public boundary type everywhere; :meth:`WordCodec.encode`
and :meth:`WordCodec.decode` convert at the edges.  Codecs are cached by
``(d, n)`` via :func:`get_codec`, so the tables are built once per graph and
amortised across trials, protocol runs and benchmark iterations.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from ..engine.caches import register_cache
from ..exceptions import InvalidParameterError
from .alphabet import Word, int_to_word, validate_alphabet, word_to_int

__all__ = ["MAX_NODES", "MAX_TABLE_ENTRIES", "WordCodec", "check_graph_size", "get_codec"]

#: Largest node table any backend builds: ``B(4, 10)``, the biggest benchmarked graph.
MAX_NODES = 1 << 20
#: Largest gather table any backend builds, rows times columns: ``Q(20)``'s
#: 20 columns fit, ``B(1024, 2)``'s ``2**20 x 2048`` neighbour table does not.
MAX_TABLE_ENTRIES = 1 << 25


def check_graph_size(base: int, n: int, width: int, graph: str) -> None:
    """Refuse a ``base**n``-row node table above :data:`MAX_NODES`, or one
    whose ``width`` columns (the backend's widest gather table) exceed
    :data:`MAX_TABLE_ENTRIES` entries (``base >= 2``)."""
    # n past the ceiling's bit length is over it: a huge n builds no huge integer
    if n >= MAX_NODES.bit_length() or base**n > MAX_NODES:
        raise InvalidParameterError(
            f"{graph} needs a {base}**{n}-entry node table; the limit is {MAX_NODES}"
        )
    if base**n * width > MAX_TABLE_ENTRIES:
        raise InvalidParameterError(
            f"{graph} needs a {base**n}-by-{width} node table; "
            f"the limit is {MAX_TABLE_ENTRIES} entries"
        )


class WordCodec:
    """Base-``d`` integer codec for the words of ``B(d, n)``.

    The instance precomputes the rotation, necklace-representative and period
    tables for all ``d**n`` words (a few vectorized numpy passes, ``O(n)``
    sweeps over an array of size ``d**n``) and caches the De Bruijn
    successor/predecessor matrices on first use.

    Examples
    --------
    >>> codec = get_codec(3, 4)
    >>> codec.encode((1, 1, 2, 0))
    42
    >>> codec.decode(42)
    (1, 1, 2, 0)
    >>> codec.decode(codec.rotate1[42])  # pi(1120) = 1201
    (1, 2, 0, 1)
    >>> codec.decode(codec.rep[42])      # [1120] = 0112
    (0, 1, 1, 2)
    """

    def __init__(self, d: int, n: int) -> None:
        self.d = validate_alphabet(d)
        if n < 1:
            raise InvalidParameterError(f"word length must be >= 1, got {n}")
        # the widest table is neighbour_table: d successors + d predecessors
        check_graph_size(self.d, n, 2 * self.d, f"B({self.d},{n})")
        self.n = int(n)
        self.size = self.d**self.n
        #: ``d**(n-1)``: the place value of the leading digit.  ``x % high``
        #: is the length-``(n-1)`` suffix of ``x`` and ``x // high`` its
        #: leading digit — the ``alpha``/``w`` split of the paper's ``alpha w``.
        self.high = self.d ** (self.n - 1)
        #: the predecessor columns are the shift ``P[y, a] = a*high + y//d``,
        #: which :mod:`repro.graphs.msbfs` pulls with slices, not gathers
        self.predecessor_shift = self.d
        dtype = np.int64 if self.size > np.iinfo(np.int32).max else np.int32
        self.dtype = dtype

        codes = np.arange(self.size, dtype=dtype)
        #: left-rotation-by-one table: ``rotate1[x] = pi(x)``.
        self.rotate1 = (codes % self.high) * self.d + codes // self.high
        self.rotate1.flags.writeable = False

        # Necklace representative: minimum over all n rotations, accumulated
        # with n-1 vectorized passes through the rotation table.  Period: the
        # first t with pi^t(x) = x, recorded during the same walk.
        rep = codes.copy()
        periods = np.zeros(self.size, dtype=np.int16)
        r = codes
        for t in range(1, self.n):
            r = self.rotate1[r]  # r = pi^t applied elementwise
            np.minimum(rep, r, out=rep)
            periods[(r == codes) & (periods == 0)] = t
        periods[periods == 0] = self.n
        #: necklace representative table: ``rep[x]`` = code of ``[x]``.
        self.rep = rep
        self.rep.flags.writeable = False
        #: period table: ``periods[x]`` = period of ``x`` (necklace length).
        self.periods = periods
        self.periods.flags.writeable = False

        self._powers = self.d ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        self._succ: np.ndarray | None = None
        self._pred: np.ndarray | None = None
        self._both: np.ndarray | None = None
        self._pred_cols: tuple[np.ndarray, ...] | None = None
        self._necklace_reps: np.ndarray | None = None
        # codecs are shared process-wide (get_codec's lru_cache) and the
        # server touches cold instances from several threads at once: the
        # lazy table builds below are lock-guarded so no reader ever sees a
        # half-built table (REP003).  RLock: neighbour_table composes the
        # successor/predecessor builds under the same guard.
        self._tables_lock = threading.RLock()

    # -- scalar word algebra -------------------------------------------------
    def encode(self, word: Sequence[int]) -> int:
        """Return the base-``d`` code of a tuple word (O(n), boundary only)."""
        return word_to_int(word, self.d)

    def decode(self, code: int) -> Word:
        """Return the tuple word of a code (O(n), boundary only)."""
        return int_to_word(int(code), self.d, self.n)

    def rotate(self, code: int, i: int = 1) -> int:
        """Return the code of ``pi^i(x)`` by pure arithmetic (no table walk)."""
        i %= self.n
        if i == 0:
            return int(code)
        highpow = self.d ** (self.n - i)
        head, tail = divmod(int(code), highpow)
        return tail * (self.d**i) + head

    def suffix(self, code: int) -> int:
        """The length-``(n-1)`` suffix ``w`` of ``x = alpha w``, as an int."""
        return int(code) % self.high

    def prefix(self, code: int) -> int:
        """The length-``(n-1)`` prefix ``w`` of ``x = w alpha``, as an int."""
        return int(code) // self.d

    def first_digit(self, code: int) -> int:
        """The leading digit ``alpha`` of ``x = alpha w``."""
        return int(code) // self.high

    def last_digit(self, code: int) -> int:
        """The trailing digit ``alpha`` of ``x = w alpha``."""
        return int(code) % self.d

    def successor(self, code: int, a: int) -> int:
        """The De Bruijn successor ``x_2...x_n a``: ``(x*d + a) mod d**n``."""
        return (int(code) * self.d + int(a)) % self.size

    def predecessor(self, code: int, a: int) -> int:
        """The De Bruijn predecessor ``a x_1...x_{n-1}``: ``x // d + a*d**(n-1)``."""
        return int(code) // self.d + int(a) * self.high

    # -- vectorized conversions ---------------------------------------------
    def encode_many(self, words: Iterable[Sequence[int]]) -> np.ndarray:
        """Encode an iterable of tuple words into an int array of codes."""
        arr = np.asarray([tuple(int(x) for x in w) for w in words], dtype=np.int64)
        if arr.size == 0:
            return np.empty(0, dtype=self.dtype)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise InvalidParameterError(
                f"expected length-{self.n} words, got shape {arr.shape}"
            )
        if arr.min() < 0 or arr.max() >= self.d:
            raise InvalidParameterError(f"digits outside alphabet Z_{self.d}")
        return (arr @ self._powers).astype(self.dtype)

    def decode_many(self, codes: np.ndarray) -> list[Word]:
        """Decode an array of codes into tuple words (vectorized digit split)."""
        values = np.asarray(codes, dtype=np.int64).reshape(-1)
        digits = (values[:, None] // self._powers[None, :]) % self.d
        return [tuple(row) for row in digits.tolist()]

    # -- cached De Bruijn move tables ----------------------------------------
    @property
    def successor_table(self) -> np.ndarray:
        """The read-only ``(d**n, d)`` successor matrix ``S[x, a] = (x*d + a) mod d**n``."""
        if self._succ is None:
            with self._tables_lock:
                if self._succ is None:
                    codes = np.arange(self.size, dtype=self.dtype)
                    base = (codes * self.d) % self.size
                    succ = base[:, None] + np.arange(self.d, dtype=self.dtype)[None, :]
                    succ.flags.writeable = False
                    self._succ = succ
        return self._succ

    @property
    def predecessor_table(self) -> np.ndarray:
        """The read-only ``(d**n, d)`` predecessor matrix ``P[x, a] = x // d + a*d**(n-1)``."""
        if self._pred is None:
            with self._tables_lock:
                if self._pred is None:
                    codes = np.arange(self.size, dtype=self.dtype)
                    base = codes // self.d
                    pred = (
                        base[:, None]
                        + np.arange(self.d, dtype=self.dtype)[None, :] * self.high
                    )
                    pred.flags.writeable = False
                    self._pred = pred
        return self._pred

    @property
    def neighbour_table(self) -> np.ndarray:
        """The read-only ``(d**n, 2d)`` matrix of successors and predecessors.

        Used by undirected (weak-connectivity) BFS sweeps, which would
        otherwise concatenate the two tables on every frontier expansion.
        """
        if self._both is None:
            with self._tables_lock:
                if self._both is None:
                    both = np.hstack([self.successor_table, self.predecessor_table])
                    both.flags.writeable = False
                    self._both = both
        return self._both

    @property
    def predecessor_columns(self) -> tuple[np.ndarray, ...]:
        """The ``d`` columns of the predecessor matrix as contiguous arrays,
        which gather faster than strided column slices (the bit-parallel
        kernel needs none: it pulls by :attr:`predecessor_shift`)."""
        if self._pred_cols is None:
            with self._tables_lock:
                if self._pred_cols is None:
                    pred = self.predecessor_table
                    cols = tuple(
                        np.ascontiguousarray(pred[:, a]) for a in range(self.d)
                    )
                    for col in cols:
                        col.flags.writeable = False
                    self._pred_cols = cols
        return self._pred_cols

    def necklace_member_matrix(self, codes: np.ndarray) -> np.ndarray:
        """All rotations of each code: shape ``(n,) + codes.shape``.

        Row ``i`` holds ``pi^i`` applied elementwise, so the flattened result
        is exactly the union of the necklaces of ``codes`` (with repeats for
        periodic words).  This is the scatter-friendly dual of
        :meth:`faulty_necklace_mask`: marking these members removed produces
        the identical mask, but for a *batch* of small fault sets it costs
        ``n`` tiny gathers instead of one ``isin`` over all ``d**n`` codes
        per fault set — the form the bit-packed fault lanes are built from.
        """
        codes = np.asarray(codes, dtype=np.int64)
        members = np.empty((self.n,) + codes.shape, dtype=np.int64)
        members[0] = codes
        for i in range(1, self.n):
            members[i] = self.rotate1[members[i - 1]]
        return members

    # -- necklace machinery ---------------------------------------------------
    def necklace_reps(self) -> np.ndarray:
        """Codes of all necklace representatives, ascending (read-only, cached)."""
        if self._necklace_reps is None:
            with self._tables_lock:
                if self._necklace_reps is None:
                    codes = np.arange(self.size, dtype=self.dtype)
                    reps = codes[self.rep == codes]
                    reps.flags.writeable = False
                    self._necklace_reps = reps
        return self._necklace_reps

    def necklace_members(self, code: int) -> list[int]:
        """The distinct rotations of ``code`` (its necklace), in traversal order."""
        members = [int(code)]
        current = int(self.rotate1[int(code)])
        while current != int(code):
            members.append(current)
            current = int(self.rotate1[current])
        return members

    def faulty_necklace_mask(self, fault_codes: np.ndarray | Sequence[int]) -> np.ndarray:
        """Boolean mask over all codes: True where the word's necklace contains a fault.

        This is the paper's "a necklace is deemed faulty if it contains a
        faulty node", evaluated for the whole graph with one ``isin`` over the
        representative table instead of a Python walk per necklace.
        """
        faults = np.asarray(fault_codes, dtype=self.dtype).reshape(-1)
        if faults.size == 0:
            return np.zeros(self.size, dtype=bool)
        if faults.min() < 0 or faults.max() >= self.size:
            raise InvalidParameterError("fault code outside node range")
        return np.isin(self.rep, self.rep[faults])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WordCodec(d={self.d}, n={self.n}, size={self.size})"


@lru_cache(maxsize=6)
def get_codec(d: int, n: int) -> WordCodec:
    """Return the cached :class:`WordCodec` for ``B(d, n)``.

    The cache is deliberately small: each codec holds ``O(d**n)`` table
    entries, and the workloads of interest (a fault sweep, a benchmark run)
    revisit the same one or two graphs thousands of times.
    """
    return WordCodec(int(d), int(n))


register_cache("words.get_codec", get_codec)
