"""repro.topology — one sweep/serve protocol over interchangeable networks.

The :class:`~repro.topology.base.Topology` protocol names the table-shaped
surface the Chapter 2 fault-sweep machinery needs from a network (integer
node coding, BFS gather tables, fault-unit closure, measurement root,
reference/guarantee bounds), and the registry maps string keys to backends:

======================  =====================================================
``debruijn``            ``B(d, n)`` — the paper's graph, necklace fault units
``kautz``               ``K(d, n)`` — rotation-orbit fault units (Chapter 5)
``hypercube``           ``Q(n)`` — Chapter 2's baseline, single-node units
``shuffle_exchange``    the necklace-sharing undirected sibling
``undirected_debruijn`` ``UB(d, n)`` — Section 1.2, necklace units
======================  =====================================================

Every sweep layer (`KernelExecutor`, `ParallelSweepEngine`,
`simulate_fault_table`, the embedding service, ``python -m repro sweep
--topology ...``) names a backend by its registry key and builds it through
:func:`get_topology`; the ``debruijn`` backend is the compatibility anchor
whose tables are bit-for-bit the pre-registry codec tables.
"""

from .base import Topology
from .debruijn import DeBruijnTopology, UndirectedDeBruijnTopology
from .hypercube import HypercubeTopology
from .kautz import KautzTopology
from .registry import (
    DEFAULT_TOPOLOGY,
    available_topologies,
    get_topology,
    register_topology,
)
from .shuffle_exchange import ShuffleExchangeTopology

__all__ = [
    "Topology",
    "DeBruijnTopology",
    "UndirectedDeBruijnTopology",
    "KautzTopology",
    "HypercubeTopology",
    "ShuffleExchangeTopology",
    "DEFAULT_TOPOLOGY",
    "available_topologies",
    "get_topology",
    "register_topology",
]
