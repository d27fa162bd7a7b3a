"""Process-wide cache audit: every bounded cache, one stats/clear surface.

A resident engine process memoises in several places: the codec tables
(:func:`repro.words.codec.get_codec`), the topology instances
(:func:`repro.topology.get_topology`), the shared kernel executors
(:func:`repro.engine.executor.cached_executor`), and the small number-theoretic
caches under :mod:`repro.gf` and :mod:`repro.core.bounds`.  All of them are
bounded (a PR-2 audit capped the formerly unbounded ones), and this module
is the single place that can enumerate, snapshot and clear them — the
service layer surfaces it through :meth:`EmbeddingService.stats`.

Registration is the *single* mechanism: every cache owner calls
:func:`register_cache` at import time next to the cache it defines (the
REP001 lint rule enforces this for every ``functools.lru_cache`` in the
tree).  So the audit lists the caches of every module imported so far; a
module never imported has empty caches, and the audit imports nothing to
list them.  Registration mutates shared module state, and the concurrent
server registers/queries from several threads, so both the registration
dict and its enumeration are guarded by one module lock.
"""

from __future__ import annotations

import threading
from typing import Any

from .cache import LRUCache

__all__ = ["cache_stats", "clear_caches", "register_cache", "unregister_cache"]

#: Dynamically registered caches (name -> cache); guarded by ``_LOCK``.
_REGISTERED: dict[str, Any] = {}
_LOCK = threading.Lock()


def register_cache(name: str, cache: Any) -> None:
    """Add a cache to the process-wide audit under ``name``.

    ``cache`` is an :class:`~repro.engine.cache.LRUCache` or a
    :func:`functools.lru_cache`-wrapped callable.  Re-registering a name
    replaces the entry (module reloads).  Thread-safe: the server and test
    harnesses may register while another thread snapshots the audit.
    """
    with _LOCK:
        _REGISTERED[str(name)] = cache


def unregister_cache(name: str) -> None:
    """Remove a registered cache from the audit (no-op for unknown names).

    The counterpart of :func:`register_cache`, so transient owners — test
    fixtures, short-lived servers — don't pollute the process-wide registry
    for the rest of the process.  Static registry entries cannot be removed.
    """
    with _LOCK:
        _REGISTERED.pop(str(name), None)


def _registry() -> dict[str, Any]:
    """Name -> cache object, for every cache registered so far.

    Values are either :class:`~repro.engine.cache.LRUCache` instances or
    :func:`functools.lru_cache`-wrapped callables.
    """
    with _LOCK:
        return dict(_REGISTERED)


def _snapshot(name: str, cache: Any) -> dict[str, Any]:
    if isinstance(cache, LRUCache):
        return cache.stats().as_dict()
    info = cache.cache_info()  # functools.lru_cache wrapper
    return {
        "name": name,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
        "hits": info.hits,
        "misses": info.misses,
        "evictions": max(0, info.misses - info.currsize) if info.maxsize else 0,
        "hit_rate": round(info.hits / (info.hits + info.misses), 4)
        if (info.hits + info.misses)
        else 0.0,
    }


def cache_stats() -> dict[str, dict[str, Any]]:
    """Snapshot every audited cache: ``{name: {maxsize, currsize, hits, ...}}``."""
    return {name: _snapshot(name, cache) for name, cache in _registry().items()}


def clear_caches() -> None:
    """Evict every audited cache (counters on LRU caches are preserved)."""
    for cache in _registry().values():
        if isinstance(cache, LRUCache):
            cache.clear()
        else:
            cache.cache_clear()
