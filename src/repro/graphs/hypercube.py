"""The binary hypercube ``Q(n)`` — the comparison baseline of Chapter 2.

The introduction to Chapter 2 compares the De Bruijn results against the
known hypercube results of [WC92, CL91a]: a fault-free cycle of length
``2**n - 2f`` exists in the ``2**n``-node hypercube whenever ``f <= n - 2``
nodes fail.  The headline example compares the 4096-node hypercube ``Q(12)``
(24,576 edges) against the 4096-node De Bruijn graph ``B(4, 6)`` (16,384
non-loop edges) with two faults.

The paper only *quotes* the hypercube bound, so this module provides the
graph itself, the analytic bound, a Gray-code Hamiltonian cycle and a small
constructive fault-avoiding cycle search used to sanity-check the bound on
small cubes.  The full constructions of [WC92, CL91a] are out of scope; the
substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from ..exceptions import InvalidParameterError

__all__ = [
    "HypercubeGraph",
    "gray_code_cycle",
    "fault_free_cycle_bound",
    "longest_fault_free_cycle_bruteforce",
]


def fault_free_cycle_bound(n: int, f: int) -> int:
    """Return the guaranteed fault-free cycle length ``2**n - 2f`` for ``f <= n-2`` faults.

    Raises
    ------
    InvalidParameterError
        If ``f`` exceeds the bound's fault budget ``n - 2``.
    """
    if n < 2:
        raise InvalidParameterError("hypercube bound requires n >= 2")
    if f < 0 or f > n - 2:
        raise InvalidParameterError(f"the [WC92] bound covers 0 <= f <= n-2, got f={f}")
    return 2**n - 2 * f


def gray_code_cycle(n: int) -> list[int]:
    """Return a Hamiltonian cycle of ``Q(n)`` as the reflected Gray code sequence."""
    if n < 2:
        raise InvalidParameterError("Q(n) has a Hamiltonian cycle only for n >= 2")
    return [i ^ (i >> 1) for i in range(2**n)]


class HypercubeGraph:
    """The n-dimensional binary hypercube with ``2**n`` nodes (int-encoded bitstrings)."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise InvalidParameterError(f"hypercube dimension must be >= 1, got {n}")
        self.n = int(n)

    @property
    def num_nodes(self) -> int:
        return 2**self.n

    @property
    def num_edges(self) -> int:
        """``n * 2**(n-1)`` undirected edges."""
        return self.n * 2 ** (self.n - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HypercubeGraph(n={self.n})"

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def neighbors(self, node: int) -> list[int]:
        """Return the ``n`` nodes at Hamming distance one."""
        self._check(node)
        return [node ^ (1 << i) for i in range(self.n)]

    def has_edge(self, a: int, b: int) -> bool:
        self._check(a)
        self._check(b)
        diff = a ^ b
        return diff != 0 and (diff & (diff - 1)) == 0

    def edges(self) -> Iterator[tuple[int, int]]:
        for a in self.nodes():
            for b in self.neighbors(a):
                if a < b:
                    yield a, b

    def is_cycle(self, nodes: Sequence[int]) -> bool:
        """Return True iff ``nodes`` is a simple cycle of ``Q(n)`` (length >= 4)."""
        if len(nodes) < 4 or len(set(nodes)) != len(nodes):
            return False
        closed = list(nodes) + [nodes[0]]
        return all(self.has_edge(a, b) for a, b in zip(closed, closed[1:]))

    def is_hamiltonian_cycle(self, nodes: Sequence[int]) -> bool:
        return len(nodes) == self.num_nodes and self.is_cycle(nodes)

    def hamiltonian_cycle(self) -> list[int]:
        """Return the Gray-code Hamiltonian cycle."""
        return gray_code_cycle(self.n)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise InvalidParameterError(f"{node} is not a node of Q({self.n})")


def longest_fault_free_cycle_bruteforce(n: int, faults: Iterable[int], limit_nodes: int = 1 << 14) -> list[int]:
    """Return a longest cycle of ``Q(n)`` avoiding ``faults`` by exhaustive DFS.

    Exponential-time reference implementation used only to validate
    :func:`fault_free_cycle_bound` on very small cubes (``n <= 4``) in the
    test-suite; guarded by ``limit_nodes`` to avoid accidental blow-ups.
    """
    cube = HypercubeGraph(n)
    fault_set = {int(f) for f in faults}
    for f in fault_set:
        cube._check(f)
    alive = [v for v in cube.nodes() if v not in fault_set]
    if len(alive) < 4:
        return []
    if cube.num_nodes > limit_nodes:
        raise InvalidParameterError("bruteforce search restricted to small hypercubes")

    best: list[int] = []
    start = alive[0]
    visited = {start}
    path = [start]

    def dfs() -> None:
        nonlocal best
        current = path[-1]
        for nxt in cube.neighbors(current):
            if nxt in fault_set:
                continue
            if nxt == start and len(path) >= 4 and len(path) > len(best):
                best = list(path)
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                dfs()
                path.pop()
                visited.remove(nxt)

    # try every start node so that an isolated-looking start cannot hide the optimum
    for s in alive:
        start = s
        visited = {start}
        path = [start]
        dfs()
        if len(best) == len(alive):
            break
    return best
