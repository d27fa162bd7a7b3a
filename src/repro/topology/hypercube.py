"""The hypercube backend ``Q(n)`` — Chapter 2's comparison baseline, live.

The introduction to Chapter 2 compares De Bruijn fault tolerance against the
known hypercube results of [WC92, CL91a] as a *static* table.  This backend
puts the ``2**n``-node binary hypercube behind the topology protocol so the
same sweep kernel that produces Tables 2.1/2.2 measures the hypercube too:
node codes are the bitstrings themselves, the ``n`` gather columns are the
XOR neighbours ``x ^ 2**i``, fault units are single nodes (hypercube fault
models kill processors, not necklaces — there is no rotation structure to
close over), and the guarantee bound is [WC92]'s ``2**n - 2f`` for
``f <= n - 2``.

The default measurement root is node ``1`` — the bitstring ``0...01``,
literally the paper's De Bruijn root ``R``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..graphs.hypercube import fault_free_cycle_bound
from ..words.alphabet import Word
from ..words.codec import check_graph_size
from .base import Topology

__all__ = ["HypercubeTopology"]


class HypercubeTopology(Topology):
    """``Q(n)``: the binary ``n``-cube behind the topology protocol.

    The registry's uniform ``(d, n)`` parameterisation is interpreted as
    ``d = 2`` (the binary alphabet of the bitstring words; only 2 is
    accepted) and ``n`` = dimension.
    """

    key = "hypercube"
    symbol = "Q"
    directed = False
    max_fault_unit_size = 1

    @property
    def name(self) -> str:
        return f"Q({self.n})"  # conventional: the dimension alone

    def __init__(self, d: int, n: int) -> None:
        super().__init__()
        if int(d) != 2:
            raise InvalidParameterError(
                f"the hypercube backend is binary: expected d=2, got d={d}"
            )
        if n < 1:
            raise InvalidParameterError(f"hypercube dimension must be >= 1, got {n}")
        check_graph_size(2, n, n, f"Q({n})")
        self.d = 2
        self.n = int(n)
        self.num_nodes = 2**self.n

    # -- node coding: codes ARE the bitstrings ---------------------------------
    def encode(self, node: Sequence[int] | int) -> int:
        if isinstance(node, (int, np.integer)):
            return self._check_code(node)
        bits = tuple(int(x) for x in node)
        if len(bits) != self.n or any(b not in (0, 1) for b in bits):
            raise InvalidParameterError(
                f"{bits} is not a length-{self.n} bitstring of Q({self.n})"
            )
        value = 0
        for b in bits:
            value = value * 2 + b
        return value

    def decode(self, code: int) -> Word:
        code = self._check_code(code)
        return tuple((code >> (self.n - 1 - i)) & 1 for i in range(self.n))

    # -- gather tables: one XOR column per dimension ---------------------------
    def _build_successor_table(self) -> np.ndarray:
        codes = np.arange(self.num_nodes, dtype=np.int64)
        return codes[:, None] ^ (np.int64(1) << np.arange(self.n, dtype=np.int64))[None, :]

    def _build_predecessor_table(self) -> np.ndarray:
        return self.successor_table  # undirected: in-neighbours = out-neighbours

    # -- measurement conventions ----------------------------------------------
    @property
    def default_root_code(self) -> int:
        """The bitstring ``0...01`` — the paper's root, verbatim."""
        return 1

    def guarantee_bound(self, f: int) -> int | None:
        """[WC92]: a fault-free cycle of ``2**n - 2f`` exists for ``f <= n-2``."""
        try:
            return fault_free_cycle_bound(self.n, int(f))
        except InvalidParameterError:
            return None
