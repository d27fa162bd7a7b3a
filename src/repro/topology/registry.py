"""String-keyed registry of topology backends.

One registry serves every layer that takes a ``--topology``/``topology=``
argument: the kernel executor, the parallel engine, the embedding service and
the CLI all resolve backends through
:func:`get_topology`.  Instances are cached per ``(key, d, n)`` in a small
bounded LRU (their tables are the expensive part, and workloads revisit the
same one or two graphs thousands of times — the same rationale as the codec
cache).

Third-party backends can be added with :func:`register_topology`; the
builtin keys are ``debruijn`` (the compatibility anchor), ``kautz``,
``hypercube``, ``shuffle_exchange`` and ``undirected_debruijn``.
"""

from __future__ import annotations

from collections.abc import Callable

from ..engine.cache import LRUCache
from ..engine.caches import register_cache
from ..exceptions import UnknownTopologyError
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

#: Bounded, audited instance cache (see :mod:`repro.engine.caches`).
_INSTANCE_CACHE = LRUCache(maxsize=8, name="topology.instances")
register_cache("topology.instances", _INSTANCE_CACHE)


def register_topology(key: str, factory: Callable[[int, int], Topology]) -> None:
    """Register a backend factory ``(d, n) -> Topology`` under ``key``.

    Re-registering a key evicts the instance cache, so already-resolved
    ``(key, d, n)`` combinations pick up the new factory instead of serving
    stale instances of the old one.
    """
    _FACTORIES[str(key)] = factory
    _INSTANCE_CACHE.clear()


def available_topologies() -> list[str]:
    """The registered backend keys, sorted (the CLI's ``--topology`` choices)."""
    return sorted(_FACTORIES)


def get_topology(key: str | Topology, d: int, n: int) -> Topology:
    """Resolve a backend: a registry key (cached per ``(key, d, n)``) or a
    pre-built :class:`Topology` instance passed through unchanged."""
    if isinstance(key, Topology):
        return key
    try:
        factory = _FACTORIES[str(key)]
    except KeyError:
        raise UnknownTopologyError(
            f"unknown topology {key!r}; registered: {', '.join(available_topologies())}"
        ) from None
    return _INSTANCE_CACHE.get_or_create(
        (str(key), int(d), int(n)), lambda: factory(int(d), int(n))
    )


register_topology("debruijn", DeBruijnTopology)
register_topology("undirected_debruijn", UndirectedDeBruijnTopology)
register_topology("kautz", KautzTopology)
register_topology("hypercube", HypercubeTopology)
register_topology("shuffle_exchange", ShuffleExchangeTopology)
