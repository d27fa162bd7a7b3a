"""networkx views of the graph models, for cross-checks against networkx's algorithms.

The library itself does not depend on networkx; these helpers rebuild each
model's node and edge sets as a networkx graph, so a test can compare a
distance, a component or a degree with networkx's own implementation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx

from repro.core.hamiltonian_decomposition import HamiltonianDecomposition
from repro.graphs.debruijn import DeBruijnGraph
from repro.graphs.hypercube import HypercubeGraph
from repro.graphs.shuffle_exchange import ShuffleExchangeGraph
from repro.graphs.undirected import UndirectedDeBruijnGraph
from repro.words.alphabet import validate_word
from repro.words.rotation import rotate_left


def to_networkx(graph, remove_loops: bool = False) -> nx.Graph:
    """``graph`` as a networkx graph with tuple-word (or int, for ``Q(n)``) nodes.

    Undirected models give an :class:`nx.Graph`, directed ones an
    :class:`nx.DiGraph`, and a :class:`HamiltonianDecomposition` gives
    ``MB(d, n)`` as an :class:`nx.MultiDiGraph` keyed by cycle index.
    ``remove_loops`` drops self-loops (only De Bruijn graphs have any).
    """
    if isinstance(graph, HamiltonianDecomposition):
        g = nx.MultiDiGraph()
        for idx, cycle in enumerate(graph.cycles):
            g.add_nodes_from(cycle)
            g.add_edges_from(
                (cycle[i], cycle[(i + 1) % len(cycle)], idx) for i in range(len(cycle))
            )
        return g
    if isinstance(graph, ShuffleExchangeGraph):
        g = nx.Graph()
        g.add_nodes_from(graph.nodes())
        for w in graph.nodes():
            if rotate_left(w) != w:
                g.add_edge(w, rotate_left(w))
            g.add_edges_from((w, other) for other in graph.exchange_neighbors(w))
        return g
    undirected = isinstance(graph, (UndirectedDeBruijnGraph, HypercubeGraph))
    g = nx.Graph() if undirected else nx.DiGraph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from((a, b) for a, b in graph.edges() if not (remove_loops and a == b))
    return g


def subgraph_without(graph: DeBruijnGraph, removed: Iterable[Sequence[int]]) -> nx.DiGraph:
    """The digraph of ``B(d, n)`` minus a set of nodes and their incident edges.

    This is the "faulty graph" of Chapter 2: the removed nodes (typically
    full necklaces) disappear along with all their incident edges.
    """
    removed_set = {validate_word(w, graph.d) for w in removed}
    return to_networkx(graph).subgraph(
        w for w in graph.nodes() if w not in removed_set
    ).copy()
