"""Distributed substrate: synchronous message passing and the Section 2.4 protocols.

The paper analyses a *network-level distributed* reconfiguration algorithm;
this subpackage supplies the machine it runs on (a synchronous, multi-port,
fault-injectable message-passing simulator over the De Bruijn topology) and
the protocols themselves: necklace fault detection, BFS broadcast, the full
distributed fault-free-cycle protocol and the all-to-all broadcast that
motivates disjoint Hamiltonian cycles in Chapter 3.

Symbols are loaded lazily (PEP 562): the executor's fault sampler
(:mod:`repro.network.faults`) does not import the simulator.
"""

from typing import Any

_LAZY = {
    "sample_edge_faults": "faults",
    "sample_node_fault_codes": "faults",
    "sample_node_faults": "faults",
    "Message": "message",
    "NodeContext": "node",
    "NodeProgram": "node",
    "AllToAllStats": "protocols.all_to_all",
    "all_to_all_cost_model": "protocols.all_to_all",
    "simulate_all_to_all": "protocols.all_to_all",
    "BroadcastProgram": "protocols.broadcast",
    "run_broadcast": "protocols.broadcast",
    "DistributedFFCResult": "protocols.ffc_protocol",
    "NecklaceCoordinationProgram": "protocols.ffc_protocol",
    "run_distributed_ffc": "protocols.ffc_protocol",
    "NecklaceProbeProgram": "protocols.necklace_probe",
    "run_necklace_probe": "protocols.necklace_probe",
    "SimulationResult": "simulator",
    "SynchronousDeBruijnNetwork": "simulator",
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
