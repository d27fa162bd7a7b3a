"""Distributed substrate: synchronous message passing and the Section 2.4 protocols.

The paper analyses a *network-level distributed* reconfiguration algorithm;
this subpackage supplies the machine it runs on (a synchronous, multi-port,
fault-injectable message-passing simulator over the De Bruijn topology) and
the protocols themselves: necklace fault detection, BFS broadcast, the full
distributed fault-free-cycle protocol and the all-to-all broadcast that
motivates disjoint Hamiltonian cycles in Chapter 3.
"""

from .faults import (
    sample_edge_faults,
    sample_node_fault_codes,
    sample_node_faults,
)
from .message import Message
from .node import NodeContext, NodeProgram
from .protocols.all_to_all import AllToAllStats, all_to_all_cost_model, simulate_all_to_all
from .protocols.broadcast import BroadcastProgram, run_broadcast
from .protocols.ffc_protocol import (
    DistributedFFCResult,
    NecklaceCoordinationProgram,
    run_distributed_ffc,
)
from .protocols.necklace_probe import NecklaceProbeProgram, run_necklace_probe
from .simulator import SimulationResult, SynchronousDeBruijnNetwork

__all__ = [
    "sample_edge_faults",
    "sample_node_fault_codes",
    "sample_node_faults",
    "Message",
    "NodeContext",
    "NodeProgram",
    "AllToAllStats",
    "all_to_all_cost_model",
    "simulate_all_to_all",
    "BroadcastProgram",
    "run_broadcast",
    "DistributedFFCResult",
    "NecklaceCoordinationProgram",
    "run_distributed_ffc",
    "NecklaceProbeProgram",
    "run_necklace_probe",
    "SimulationResult",
    "SynchronousDeBruijnNetwork",
]
