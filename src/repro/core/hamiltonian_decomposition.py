"""Hamiltonian decompositions of the *modified* De Bruijn graph ``MB(d, n)`` (§3.2.3).

``B(d, n)`` itself can never be decomposed into Hamiltonian cycles: the ``d``
self-loops leave at least ``d**n`` edges outside any union of ``d - 1``
disjoint HCs.  Section 3.2.3 therefore modifies the graph: starting from the
``d`` shifted maximal cycles ``s + C``, each cycle gives up one *parallel
edge* ("p-edge", an edge between the two alternating words
``\\widehat{ab}`` and ``\\widehat{ba}``) in exchange for a detour through the
missing constant node ``s^n``.  The union of the resulting ``d`` Hamiltonian
cycles is the modified graph ``MB(d, n)``; it is ``d``-regular (in and out),
admits a Hamiltonian decomposition by construction, and its undirected
version still contains ``UB(d, n)`` as a subgraph because at most one edge of
each antiparallel p-edge pair is sacrificed.

Both the odd-prime-power construction and the special binary construction
(Example 3.6 / Figure 3.3) are implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from ..gf.field import GF
from ..gf.lfsr import LinearRecurrence, default_maximal_cycle_recurrence, maximal_cycle, shifted_cycle
from ..gf.modular import as_prime_power
from ..words.alphabet import Word, alternating_word, constant_word
from .sequences import nodes_of_sequence

__all__ = ["HamiltonianDecomposition", "modified_debruijn_decomposition"]


@dataclass(frozen=True)
class HamiltonianDecomposition:
    """The modified graph ``MB(d, n)`` together with its decomposition into HCs.

    Attributes
    ----------
    d, n:
        Parameters of the underlying De Bruijn graph.
    cycles:
        ``d`` node-cycles (tuples of words); each visits every node exactly
        once and together they partition the edge set of ``MB(d, n)``.
    replaced_p_edges:
        The p-edges of ``B(d, n)`` that were replaced by detours, one per
        cycle (``None`` for cycles that kept all their De Bruijn edges).
    """

    d: int
    n: int
    cycles: tuple[tuple[Word, ...], ...]
    replaced_p_edges: tuple[tuple[Word, Word] | None, ...]

    # -- derived structure -----------------------------------------------------
    def edges(self) -> list[tuple[Word, Word]]:
        """All edges of ``MB(d, n)`` with multiplicity (the union of the cycles' edges).

        ``MB(d, n)`` is in general a directed *multigraph* (mirroring the
        paper's footnote that ``UMB(d, n)`` may be a multigraph): for ``n = 2``
        a detour edge can coincide with an ordinary De Bruijn edge, in which
        case both copies are listed.
        """
        out: list[tuple[Word, Word]] = []
        for cycle in self.cycles:
            k = len(cycle)
            out.extend((cycle[i], cycle[(i + 1) % k]) for i in range(k))
        return out

    # -- verification -------------------------------------------------------------
    def is_decomposition(self) -> bool:
        """Check the defining properties of a Hamiltonian decomposition of ``MB(d, n)``.

        Every cycle must be Hamiltonian (each node exactly once) and the
        multigraph union must give every node indegree and outdegree exactly
        ``d`` — which is precisely the statement that the ``d`` cycles
        decompose the ``d``-regular graph they generate.
        """
        total_nodes = self.d**self.n
        for cycle in self.cycles:
            if len(cycle) != total_nodes or len(set(cycle)) != total_nodes:
                return False
        return len(self.cycles) == self.d and self.is_regular()

    def cycles_edge_disjoint(self) -> bool:
        """Check pairwise edge-disjointness of the cycles as plain edge sets.

        For ``n >= 3`` the detour edges are never De Bruijn edges, so the
        cycles are edge-disjoint even without multigraph bookkeeping; for
        ``n = 2`` parallel copies may make this False while
        :meth:`is_decomposition` still holds.
        """
        seen: set[tuple[Word, Word]] = set()
        for cycle in self.cycles:
            k = len(cycle)
            edge_set = {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
            if len(edge_set) != k or (seen & edge_set):
                return False
            seen |= edge_set
        return True

    def is_regular(self) -> bool:
        """Check that every node of ``MB(d, n)`` has indegree and outdegree ``d``."""
        index: dict[Word, int] = {}
        tails: list[int] = []
        heads: list[int] = []
        for cycle in self.cycles:
            codes = [index.setdefault(w, len(index)) for w in cycle]
            tails += codes
            heads += codes[1:] + codes[:1]
        if len(index) != self.d**self.n:
            return False
        out_degree = np.bincount(tails, minlength=len(index))
        in_degree = np.bincount(heads, minlength=len(index))
        return bool((out_degree == self.d).all() and (in_degree == self.d).all())

    def undirected_contains_ub(self) -> bool:
        """Check that ``UMB(d, n)`` contains ``UB(d, n)`` as a subgraph.

        Every pair of nodes adjacent in the undirected De Bruijn graph must
        also be adjacent (in some direction) in ``MB(d, n)``.
        """
        from ..graphs.undirected import UndirectedDeBruijnGraph

        ub = UndirectedDeBruijnGraph(self.d, self.n)
        undirected = {frozenset(e) for e in self.edges() if e[0] != e[1]}
        return all(frozenset((a, b)) in undirected for a, b in ub.edges())


def modified_debruijn_decomposition(
    d: int, n: int, recurrence: LinearRecurrence | None = None, initial=None
) -> HamiltonianDecomposition:
    """Construct the Hamiltonian decomposition of ``MB(d, n)`` (Section 3.2.3).

    Parameters
    ----------
    d:
        A prime power; the paper's construction covers ``d = 2`` and odd
        prime powers.  (Even prime powers ``> 2`` are not covered by the
        construction because the p-edge argument needs characteristic != 2;
        requesting one raises :class:`InvalidParameterError`.)
    n:
        Word length, ``n >= 2``.
    recurrence, initial:
        Optional explicit maximal-cycle recurrence / initial state (used by
        the tests to reproduce Example 3.6 exactly).
    """
    p, _ = as_prime_power(d)
    if n < 2:
        raise InvalidParameterError("the decomposition requires n >= 2")
    if recurrence is None:
        recurrence = default_maximal_cycle_recurrence(d, n)
    if d == 2:
        return _binary_decomposition(n, recurrence, initial)
    if p == 2:
        raise InvalidParameterError(
            "the MB(d, n) construction covers d = 2 and odd prime powers only"
        )
    return _odd_prime_power_decomposition(d, n, recurrence, initial)


# ---------------------------------------------------------------------------
# odd prime-power case
# ---------------------------------------------------------------------------

def _find_p_edge_on_cycle(nodes: list[Word], d: int) -> tuple[int, Word, Word]:
    """Find a p-edge lying on the cycle given by its node list.

    Returns ``(index, alpha, beta)`` such that ``nodes[index]`` is the
    alternating word ``\\widehat{alpha beta}`` and its successor on the cycle
    is ``\\widehat{beta alpha}``.
    """
    n = len(nodes[0])
    k = len(nodes)
    position = {node: i for i, node in enumerate(nodes)}
    for alpha in range(d):
        for beta in range(d):
            if alpha == beta:
                continue
            src = alternating_word(alpha, beta, n)
            dst = alternating_word(beta, alpha, n)
            i = position.get(src)
            if i is not None and nodes[(i + 1) % k] == dst:
                return i, alpha, beta
    raise InvalidParameterError(
        "the chosen maximal cycle contains no p-edge; "
        "retry with a different recurrence or initial state"
    )


def _odd_prime_power_decomposition(
    d: int, n: int, recurrence: LinearRecurrence, initial
) -> HamiltonianDecomposition:
    field = GF(d)
    base = maximal_cycle(d, n, recurrence=recurrence, initial=initial)
    base_nodes = nodes_of_sequence(base, n)
    idx, alpha, beta = _find_p_edge_on_cycle(base_nodes, d)

    cycles: list[tuple[Word, ...]] = []
    replaced: list[tuple[Word, Word] | None] = []
    for s in range(d):
        shifted_nodes = nodes_of_sequence(shifted_cycle(base, s, field), n)
        # the p-edge of s + C sits at the same position as in C, between the
        # alternating words over (alpha+s, beta+s)
        a_s, b_s = field.add(alpha, s), field.add(beta, s)
        src = alternating_word(a_s, b_s, n)
        dst = alternating_word(b_s, a_s, n)
        k = len(shifted_nodes)
        i = shifted_nodes.index(src)
        if shifted_nodes[(i + 1) % k] != dst:  # pragma: no cover - shift preserves position
            raise InvalidParameterError("shifted cycle lost its p-edge")
        constant = constant_word(s, n)
        cycle = tuple(shifted_nodes[: i + 1]) + (constant,) + tuple(shifted_nodes[i + 1 :])
        cycles.append(cycle)
        replaced.append((src, dst))
    return HamiltonianDecomposition(
        d=d, n=n, cycles=tuple(cycles), replaced_p_edges=tuple(replaced)
    )


# ---------------------------------------------------------------------------
# binary case (Example 3.6 / Figure 3.3)
# ---------------------------------------------------------------------------

def _binary_decomposition(
    n: int, recurrence: LinearRecurrence, initial
) -> HamiltonianDecomposition:
    if n < 3:
        raise InvalidParameterError("the binary MB(2, n) construction requires n >= 3")
    field = GF(2)
    base = maximal_cycle(2, n, recurrence=recurrence, initial=initial)
    base_nodes = nodes_of_sequence(base, n)
    zeros = constant_word(0, n)
    ones = constant_word(1, n)

    # Cycle H_0: insert 0^n between 1 0^{n-1} and 0^{n-1} 1 (a genuine HC of B(2,n)).
    pred_of_zero = (1,) + (0,) * (n - 1)
    i = base_nodes.index(pred_of_zero)
    cycle0 = tuple(base_nodes[: i + 1]) + (zeros,) + tuple(base_nodes[i + 1 :])

    # Cycle H_1: start from 1 + C, remove 0^n, then reroute a p-edge through
    # 0^n and 1^n.  Exactly one of the two antiparallel p-edges
    # (\hat{01} -> \hat{10}) / (\hat{10} -> \hat{01}) lies on 1 + C (they are
    # digit-wise complements of each other, and complementation swaps C and
    # 1 + C); use whichever it is — the paper's "without loss of generality".
    shifted_nodes = nodes_of_sequence(shifted_cycle(base, 1, field), n)
    without_zero = [node for node in shifted_nodes if node != zeros]
    k = len(without_zero)
    src = dst = None
    for a, b in ((0, 1), (1, 0)):
        cand_src = alternating_word(a, b, n)
        cand_dst = alternating_word(b, a, n)
        j = without_zero.index(cand_src)
        if without_zero[(j + 1) % k] == cand_dst:
            src, dst = cand_src, cand_dst
            break
    if src is None:
        raise InvalidParameterError(
            "1 + C does not traverse either p-edge; "
            "retry with a different recurrence or initial state"
        )
    j = without_zero.index(src)
    cycle1 = tuple(without_zero[: j + 1]) + (zeros, ones) + tuple(without_zero[j + 1 :])
    return HamiltonianDecomposition(
        d=2,
        n=n,
        cycles=(cycle0, cycle1),
        replaced_p_edges=(None, (src, dst)),
    )
