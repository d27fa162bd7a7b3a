"""De Bruijn topology backends — the compatibility anchor of the registry.

:class:`DeBruijnTopology` wraps the integer-word codec
(:mod:`repro.words.codec`) behind the :class:`~repro.topology.base.Topology`
protocol without changing a single table: the successor/predecessor matrices,
the contiguous predecessor columns and the necklace machinery *are* the
codec's cached arrays, so a topology-generic sweep over the ``debruijn``
backend performs bit-for-bit the operations of the pre-registry codec
sweep — Tables 2.1/2.2 cannot move.

:class:`UndirectedDeBruijnTopology` is ``UB(d, n)`` (Section 1.2): the same
node coding, one symmetric gather table (successors and predecessors
concatenated — loops and merged parallels survive as inert self/duplicate
entries), and the same necklace fault units as its directed sibling.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.ffc import guaranteed_cycle_length
from ..exceptions import FaultBudgetExceededError, InvalidParameterError
from ..words.codec import WordCodec, get_codec
from .base import CodecNodesMixin, Topology

__all__ = ["DeBruijnTopology", "UndirectedDeBruijnTopology"]


class _CodecBackedMixin(CodecNodesMixin):
    """Codec node coding + necklace fault units (shared B/UB behaviour)."""

    codec: WordCodec

    def fault_unit_mask(self, fault_codes: np.ndarray | Sequence[int]) -> np.ndarray:
        return self.codec.faulty_necklace_mask(fault_codes)

    def fault_unit_members(self, codes: np.ndarray) -> np.ndarray:
        return self.codec.necklace_member_matrix(codes)

    def fault_unit_reps(self, codes: np.ndarray | Sequence[int]) -> list[int]:
        arr = np.asarray(codes, dtype=np.int64).reshape(-1)
        if arr.size and (arr.min() < 0 or arr.max() >= self.codec.size):
            raise InvalidParameterError("fault code outside node range")
        return sorted({int(r) for r in self.codec.rep[arr].tolist()})

    @property
    def default_root_code(self) -> int:
        """The paper's ``R = 0...01``: code 1."""
        return 1


class DeBruijnTopology(_CodecBackedMixin, Topology):
    """``B(d, n)`` behind the topology protocol (the paper's graph)."""

    key = "debruijn"
    symbol = "B"
    directed = True

    def __init__(self, d: int, n: int) -> None:
        super().__init__()
        self.codec = get_codec(d, n)
        self.d, self.n = self.codec.d, self.codec.n
        self.num_nodes = self.codec.size
        self.max_fault_unit_size = self.n
        self.predecessor_shift = self.codec.predecessor_shift  # same columns

    # gather tables are the codec's cached matrices ----------------------------
    def _build_successor_table(self) -> np.ndarray:
        return self.codec.successor_table

    def _build_predecessor_table(self) -> np.ndarray:
        return self.codec.predecessor_table

    @property
    def predecessor_columns(self) -> tuple[np.ndarray, ...]:
        # reuse the codec's cached contiguous columns (shared with every
        # other consumer of this (d, n)) instead of slicing fresh copies
        return self.codec.predecessor_columns

    @property
    def neighbour_table(self) -> np.ndarray:
        return self.codec.neighbour_table

    def guarantee_bound(self, f: int) -> int | None:
        """Propositions 2.2/2.3, ``None`` outside the guaranteed regimes."""
        try:
            return guaranteed_cycle_length(self.d, self.n, int(f))
        except (FaultBudgetExceededError, InvalidParameterError):
            return None

    @property
    def reference_label(self) -> str:
        return "d^n - nf"  # the paper's own column header


class UndirectedDeBruijnTopology(_CodecBackedMixin, Topology):
    """``UB(d, n)``: orientation forgotten, same nodes, same necklace units.

    The gather table is the ``(d**n, 2d)`` successor/predecessor
    concatenation: deleted loops survive as self-entries and merged parallel
    edges as duplicate entries, both inert under BFS, so no explicit
    loop/parallel cleanup is needed for sweeps.
    """

    key = "undirected_debruijn"
    symbol = "UB"
    directed = False

    def __init__(self, d: int, n: int) -> None:
        super().__init__()
        self.codec = get_codec(d, n)
        self.d, self.n = self.codec.d, self.codec.n
        self.num_nodes = self.codec.size
        self.max_fault_unit_size = self.n

    def _build_successor_table(self) -> np.ndarray:
        return self.codec.neighbour_table

    def _build_predecessor_table(self) -> np.ndarray:
        return self.codec.neighbour_table
