"""The ``Topology`` protocol: what a network must provide to be swept/served.

Everything the fault-sweep machinery of Chapter 2 actually *uses* from the
De Bruijn graph is a small, table-shaped surface: an integer coding of the
nodes, gather tables for BFS frontiers, a rule mapping faulty processors to
the removed node set (the paper removes whole necklaces), a measurement
root, a fallback rule when that root dies, and the analytic reference
column.  :class:`Topology` names exactly that surface, so the bit-parallel
kernel (:mod:`repro.graphs.msbfs`), the scalar BFS
(:func:`repro.graphs.components.bfs_levels_table`), the kernel executor, the
parallel engine, the embedding service and the CLI can all be pointed at
any registered backend — De Bruijn, Kautz, hypercube, shuffle-exchange —
without knowing which one they are driving.

Conventions shared by every backend
-----------------------------------

* **Integer coding.**  Nodes are coded ``0 .. num_nodes - 1``, contiguously.
  ``encode``/``decode`` convert the human-readable form (tuple words for the
  word graphs, bitstring words for the hypercube) at the boundary.
* **Gather tables.**  ``successor_table[x]`` lists out-neighbours,
  ``predecessor_table[x]`` in-neighbours, ``neighbour_table[x]`` both (for
  undirected backends all three coincide).  Rows may pad irregular degrees
  with the node's own code: a self-entry gathers an already-visited node and
  is therefore inert under BFS.  ``predecessor_columns`` exposes the
  predecessor table as contiguous per-digit columns — the exact form the
  bit-parallel kernel's dense levels gather through; its sparse levels
  expand ``successor_table`` rows (``Topology`` deliberately duck-types
  with :class:`~repro.words.codec.WordCodec` here: both expose ``size``,
  ``predecessor_columns`` and ``successor_table``).
* **Fault units.**  ``fault_unit_mask(codes)`` maps faulty processors to the
  removed node set: necklace orbits for the De Bruijn family (the paper's
  "a necklace is deemed faulty if it contains a faulty node"), single nodes
  for the hypercube and shuffle-exchange.  ``fault_unit_members`` is the
  scatter-friendly dual used to build bit-packed fault lanes, and
  ``fault_unit_reps`` the canonical per-unit representatives the embedding
  service keys its caches by.
* **Measurement.**  ``default_root_code`` is the backend's analog of the
  paper's ``R = 0...01``.  A sweep measures the out-BFS reach of the root
  and its eccentricity within it; for the De Bruijn graph (balanced residual
  digraph) and every undirected backend this *is* the component containing
  ``R``, exactly the Tables 2.1/2.2 quantity.
* **Reference column.** ``reference_size(f) = num_nodes -
  max_fault_unit_size * f`` generalises the paper's analytic ``d**n - n*f``
  column; ``guarantee_bound(f)`` is the worst-case fault-free ring bound
  where one is known (Proposition 2.2/2.3 for De Bruijn, [WC92] for the
  hypercube), ``None`` elsewhere.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..words.alphabet import Word

__all__ = ["Topology", "CodecNodesMixin"]


class Topology(ABC):
    """Abstract interconnection-network backend (see the module docstring).

    Concrete backends set ``key`` (their registry name), ``d``/``n`` (the
    constructor parameters, with the backend's own interpretation) and
    ``num_nodes``, and implement the table builders.  Every table is built
    lazily and cached: constructing a ``Topology`` is cheap, so orchestration
    layers (the parallel engine's parent process, the checkpoint validator)
    can hold one without paying for ``O(num_nodes)`` table memory they never
    gather through.
    """

    #: Registry key of the backend (e.g. ``"kautz"``); set per subclass.
    key: str = ""
    #: Display symbol used by :attr:`name` (e.g. ``"K"`` -> ``K(2,10)``).
    symbol: str = ""
    #: True when edges are directed (out-BFS != BFS); set per subclass.
    directed: bool = True
    #: Largest number of nodes one faulty processor can remove (the unit
    #: size bound behind :meth:`reference_size`); 1 = single-node units.
    max_fault_unit_size: int = 1

    d: int
    n: int
    num_nodes: int

    def __init__(self) -> None:
        self._successor_table: np.ndarray | None = None
        self._predecessor_table: np.ndarray | None = None
        self._neighbour_table: np.ndarray | None = None
        self._predecessor_columns: tuple[np.ndarray, ...] | None = None
        # a cached executor's instance is shared process-wide and the server
        # may touch a cold backend from several threads at once: the lazy
        # table builds below are guarded so no reader ever sees a
        # half-built table
        self._tables_lock = threading.RLock()

    # -- identity --------------------------------------------------------------
    @property
    def size(self) -> int:
        """Alias of ``num_nodes`` (duck-typing with :class:`WordCodec`)."""
        return self.num_nodes

    @property
    def name(self) -> str:
        """Human-readable instance name, e.g. ``K(2,10)``."""
        return f"{self.symbol or self.key}({self.d},{self.n})"

    def describe(self) -> dict:
        """Provenance dict (topology key + parameters) for checkpoints/bench."""
        return {"topology": self.key, "d": self.d, "n": self.n}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(d={self.d}, n={self.n}, nodes={self.num_nodes})"

    # -- node coding -----------------------------------------------------------
    @abstractmethod
    def encode(self, node: Sequence[int] | int) -> int:
        """Code of a node given as a tuple word (or an already-valid code)."""

    @abstractmethod
    def decode(self, code: int) -> Word:
        """Tuple-word form of a node code (boundary use only)."""

    def _check_code(self, code: int) -> int:
        code = int(code)
        if not 0 <= code < self.num_nodes:
            raise InvalidParameterError(
                f"code {code} outside the {self.num_nodes} nodes of {self.name}"
            )
        return code

    # -- gather tables (lazy, cached) ------------------------------------------
    @abstractmethod
    def _build_successor_table(self) -> np.ndarray:
        """The ``(num_nodes, k_out)`` out-neighbour gather table."""

    @abstractmethod
    def _build_predecessor_table(self) -> np.ndarray:
        """The ``(num_nodes, k_in)`` in-neighbour gather table."""

    @property
    def successor_table(self) -> np.ndarray:
        if self._successor_table is None:
            with self._tables_lock:
                if self._successor_table is None:
                    table = np.ascontiguousarray(self._build_successor_table())
                    table.flags.writeable = False
                    self._successor_table = table
        return self._successor_table

    @property
    def predecessor_table(self) -> np.ndarray:
        if self._predecessor_table is None:
            with self._tables_lock:
                if self._predecessor_table is None:
                    table = np.ascontiguousarray(self._build_predecessor_table())
                    table.flags.writeable = False
                    self._predecessor_table = table
        return self._predecessor_table

    @property
    def neighbour_table(self) -> np.ndarray:
        """Orientation-ignoring gather table (weak connectivity / intact hops).

        Undirected backends return the successor table itself; directed ones
        the successor/predecessor concatenation.
        """
        if self._neighbour_table is None:
            with self._tables_lock:
                if self._neighbour_table is None:
                    if self.directed:
                        table = np.hstack(
                            [self.successor_table, self.predecessor_table]
                        )
                        table.flags.writeable = False
                        self._neighbour_table = table
                    else:
                        self._neighbour_table = self.successor_table
        return self._neighbour_table

    @property
    def predecessor_columns(self) -> tuple[np.ndarray, ...]:
        """Contiguous columns of the predecessor table (the kernel's gathers)."""
        if self._predecessor_columns is None:
            with self._tables_lock:
                if self._predecessor_columns is None:
                    pred = self.predecessor_table
                    cols = tuple(
                        np.ascontiguousarray(pred[:, a]) for a in range(pred.shape[1])
                    )
                    for col in cols:
                        col.flags.writeable = False
                    self._predecessor_columns = cols
        return self._predecessor_columns

    # -- fault units -----------------------------------------------------------
    def fault_unit_mask(self, fault_codes: np.ndarray | Sequence[int]) -> np.ndarray:
        """Boolean removed-node mask for a set of faulty processor codes.

        Default: single-node units — exactly the faulty nodes die.  Necklace
        backends override this with the representative-table ``isin``.
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        codes = np.asarray(fault_codes, dtype=np.int64).reshape(-1)
        if codes.size:
            if codes.min() < 0 or codes.max() >= self.num_nodes:
                raise InvalidParameterError("fault code outside node range")
            mask[codes] = True
        return mask

    def fault_unit_members(self, codes: np.ndarray) -> np.ndarray:
        """All nodes removed by each faulty code: shape ``(k,) + codes.shape``.

        The scatter-friendly dual of :meth:`fault_unit_mask`, used to build
        the bit-packed fault lanes (padding with repeats is harmless there).
        Default: single-node units — the code itself.
        """
        return np.asarray(codes, dtype=np.int64)[None, ...]

    def fault_unit_reps(self, codes: np.ndarray | Sequence[int]) -> list[int]:
        """Sorted canonical representatives of the faulty units (cache keys)."""
        arr = np.asarray(codes, dtype=np.int64).reshape(-1)
        return sorted({self._check_code(c) for c in arr.tolist()})

    # -- measurement conventions ----------------------------------------------
    @property
    @abstractmethod
    def default_root_code(self) -> int:
        """The backend's analog of the paper's measurement root ``R = 0...01``."""

    def reference_size(self, f: int) -> int:
        """The analytic reference column: ``num_nodes - max_fault_unit_size * f``.

        Generalises the paper's ``d**n - n*f`` (each faulty processor kills
        at most one necklace of at most ``n`` nodes).
        """
        return self.num_nodes - self.max_fault_unit_size * int(f)

    @property
    def reference_label(self) -> str:
        """Column header for :meth:`reference_size` in rendered tables."""
        unit = self.max_fault_unit_size
        return "N - f" if unit == 1 else f"N - {unit}f"

    def guarantee_bound(self, f: int) -> int | None:
        """Worst-case fault-free ring length for ``f`` faults, if one is known."""
        return None


class CodecNodesMixin:
    """Node coding through a shared :class:`~repro.words.codec.WordCodec`.

    The word-graph backends (De Bruijn, undirected De Bruijn,
    shuffle-exchange) all code their nodes as the codec's base-``d``
    integers; this mixin holds the one copy of that boundary logic.
    """

    def encode(self, node: Sequence[int] | int) -> int:
        if isinstance(node, (int, np.integer)):
            return self._check_code(node)
        word = tuple(int(x) for x in node)
        if len(word) != self.n:
            raise InvalidParameterError(
                f"node {word} has length {len(word)}, expected {self.n} "
                f"for {self.name}"
            )
        return self.codec.encode(word)

    def decode(self, code: int) -> Word:
        return self.codec.decode(self._check_code(code))
