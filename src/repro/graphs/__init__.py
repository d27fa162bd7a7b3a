"""Interconnection-network topologies and connectivity analysis.

Provides the De Bruijn digraph ``B(d, n)`` and its undirected version, the
wrapped butterfly ``F(d, n)`` with its De Bruijn quotient, the hypercube
``Q(n)`` comparison baseline, the Kautz and shuffle-exchange relatives, the
line-graph correspondence used by the paper's optimality argument and fast
vectorized component/eccentricity analysis of faulty graphs.

Symbols are loaded lazily (PEP 562), so importing one model does not
import every other.
"""

from typing import Any

_LAZY = {
    "ButterflyGraph": "butterfly",
    "ButterflyNode": "butterfly",
    "debruijn_node_class": "butterfly",
    "lift_cycle": "butterfly",
    "lift_edge": "butterfly",
    "ComponentStats": "components",
    "ResidualGraph": "components",
    "bfs_levels": "components",
    "bfs_levels_table": "components",
    "component_of": "components",
    "component_sizes": "components",
    "component_stats_from_root": "components",
    "diameter": "components",
    "eccentricity": "components",
    "residual_after_node_faults": "components",
    "strongly_connected_components": "components",
    "weakly_connected_components": "components",
    "WORD_WIDTH": "msbfs",
    "BatchStats": "msbfs",
    "batched_root_stats": "msbfs",
    "lane_popcounts": "msbfs",
    "lane_removed_mask": "msbfs",
    "pack_fault_lanes": "msbfs",
    "DeBruijnGraph": "debruijn",
    "edge_label": "debruijn",
    "is_debruijn_edge": "debruijn",
    "predecessor_matrix": "debruijn",
    "predecessors": "debruijn",
    "successor_matrix": "debruijn",
    "successors": "debruijn",
    "HypercubeGraph": "hypercube",
    "fault_free_cycle_bound": "hypercube",
    "gray_code_cycle": "hypercube",
    "longest_fault_free_cycle_bruteforce": "hypercube",
    "KautzGraph": "kautz",
    "circuit_to_cycle": "line_graph",
    "cycle_to_circuit": "line_graph",
    "is_balanced_after_removal": "line_graph",
    "is_circuit": "line_graph",
    "lower_edge_to_node": "line_graph",
    "node_to_lower_edge": "line_graph",
    "ShuffleExchangeGraph": "shuffle_exchange",
    "UndirectedDeBruijnGraph": "undirected",
    "degree_census": "undirected",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
