"""The paper's algorithms: fault-tolerant ring embedding in De Bruijn networks.

* :mod:`repro.core.ffc` — the fault-free cycle algorithm for node failures
  (Chapter 2), built on the necklace adjacency machinery of
  :mod:`repro.core.necklace_graph`.
* :mod:`repro.core.disjoint_hc`, :mod:`repro.core.edge_faults`,
  :mod:`repro.core.hamiltonian_decomposition` — disjoint Hamiltonian cycles,
  edge-fault-tolerant Hamiltonian embedding and Hamiltonian decompositions of
  the modified graph (Chapter 3), including the butterfly transfer.
* :mod:`repro.core.counting` — necklace counting (Chapter 4).
* :mod:`repro.core.bounds` — ψ(d), φ(d) and every closed-form guarantee the
  paper tabulates.

Symbols are loaded lazily (PEP 562): the serving path reaches only
:mod:`repro.core.ffc`, and must not pay for Chapter 3 on the way.
"""

from typing import Any

_LAZY = {
    "binary_single_fault_bound": "bounds",
    "disjoint_hc_upper_bound": "bounds",
    "edge_fault_phi": "bounds",
    "edge_fault_tolerance": "bounds",
    "hypercube_vs_debruijn": "bounds",
    "node_fault_cycle_bound": "bounds",
    "psi": "bounds",
    "psi_prime_power": "bounds",
    "strategy_for_prime": "bounds",
    "table_3_1": "bounds",
    "table_3_2": "bounds",
    "worst_case_fault_placement": "bounds",
    "brute_force_necklace_count": "counting",
    "count_from_gamma": "counting",
    "count_necklaces_by_type": "counting",
    "count_necklaces_by_type_total": "counting",
    "count_necklaces_by_weight": "counting",
    "count_necklaces_by_weight_total": "counting",
    "count_necklaces_of_length": "counting",
    "count_necklaces_total": "counting",
    "dary_tuples_of_weight": "counting",
    "total_from_gamma": "counting",
    "PrimePowerHCFamily": "disjoint_hc",
    "conflict_function": "disjoint_hc",
    "cycles_conflict": "disjoint_hc",
    "disjoint_hamiltonian_cycles": "disjoint_hc",
    "disjoint_hamiltonian_cycles_prime_power": "disjoint_hc",
    "maximal_cycle_shifts": "disjoint_hc",
    "shifted_hamiltonian_cycle": "disjoint_hc",
    "verify_pairwise_disjoint": "disjoint_hc",
    "butterfly_disjoint_hamiltonian_cycles": "edge_faults",
    "butterfly_edge_fault_free_hc": "edge_faults",
    "edge_fault_free_hc_composite": "edge_faults",
    "edge_fault_free_hc_prime_power": "edge_faults",
    "find_edge_fault_free_hc": "edge_faults",
    "normalize_edge_faults": "edge_faults",
    "project_butterfly_edge": "edge_faults",
    "FaultFreeCycleResult": "ffc",
    "find_fault_free_cycle": "ffc",
    "guaranteed_cycle_length": "ffc",
    "necklaces_visited_in_order": "ffc",
    "HamiltonianDecomposition": "hamiltonian_decomposition",
    "modified_debruijn_decomposition": "hamiltonian_decomposition",
    "BStar": "necklace_graph",
    "ModifiedTree": "necklace_graph",
    "NecklaceAdjacencyGraph": "necklace_graph",
    "SpanningTree": "necklace_graph",
    "build_bstar": "necklace_graph",
    "RingEmbedding": "ring_embedding",
    "embedding_congestion": "ring_embedding",
    "embedding_dilation": "ring_embedding",
    "de_bruijn_sequence": "sequences",
    "decompose_rees_edge": "sequences",
    "edges_of_sequence": "sequences",
    "is_cycle_sequence": "sequences",
    "is_hamiltonian_sequence": "sequences",
    "nodes_of_sequence": "sequences",
    "rees_composition": "sequences",
    "sequence_of_cycle": "sequences",
    "sequences_edge_disjoint": "sequences",
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
