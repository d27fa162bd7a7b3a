"""String-keyed registry of topology backends.

One registry serves every layer that takes a ``--topology``/``topology=``
argument: the kernel executor, the parallel engine, the embedding service and
the CLI all name a backend by its key.  :func:`get_topology` builds a fresh
instance (cheap: tables are built lazily); a served graph's shared instance
and tables belong to its executor
(:func:`repro.engine.executor.cached_executor`).

Third-party backends can be added with :func:`register_topology`; the
builtin keys are ``debruijn`` (the compatibility anchor), ``kautz``,
``hypercube``, ``shuffle_exchange`` and ``undirected_debruijn``.
"""

from __future__ import annotations

from collections.abc import Callable

from ..exceptions import UnknownTopologyError
from ..words.alphabet import integers
from .base import Topology
from .debruijn import DeBruijnTopology, UndirectedDeBruijnTopology
from .hypercube import HypercubeTopology
from .kautz import KautzTopology
from .shuffle_exchange import ShuffleExchangeTopology

__all__ = [
    "DEFAULT_TOPOLOGY",
    "available_topologies",
    "get_topology",
    "register_topology",
]

#: The compatibility anchor: every topology-parameterised API defaults here.
DEFAULT_TOPOLOGY = "debruijn"

_FACTORIES: dict[str, Callable[[int, int], Topology]] = {}


def register_topology(key: str, factory: Callable[[int, int], Topology]) -> None:
    """Register a backend factory ``(d, n) -> Topology`` under ``key``.

    Re-registering a key affects the instances built after it; an executor
    already built on the old factory keeps its instance until it is evicted.
    """
    _FACTORIES[str(key)] = factory


def available_topologies() -> list[str]:
    """The registered backend keys, sorted (the CLI's ``--topology`` choices)."""
    return sorted(_FACTORIES)


def get_topology(key: str, d: int, n: int) -> Topology:
    """A fresh instance of the backend registered under ``key``.

    ``d`` and ``n`` must be integer-valued (``2.7`` is rejected, never
    truncated to another graph).
    """
    try:
        factory = _FACTORIES[str(key)]
    except KeyError:
        raise UnknownTopologyError(
            f"unknown topology {key!r}; registered: {', '.join(available_topologies())}"
        ) from None
    d, n = integers((d, n), "d and n")
    return factory(d, n)


register_topology("debruijn", DeBruijnTopology)
register_topology("undirected_debruijn", UndirectedDeBruijnTopology)
register_topology("kautz", KautzTopology)
register_topology("hypercube", HypercubeTopology)
register_topology("shuffle_exchange", ShuffleExchangeTopology)
