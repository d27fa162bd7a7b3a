"""repro.engine — the serving and orchestration subsystem.

Three cooperating pieces turn the paper's algorithms into a long-lived
system (the ROADMAP's production north star):

* :class:`~repro.engine.executor.KernelExecutor` — the one owner of
  topology tables, kernel scratch buffers and the batch-vs-scalar dispatch
  heuristic; every other layer (sweep engine, service, the
  :mod:`repro.server` gateway) is a thin client of it.
* :class:`~repro.engine.service.EmbeddingService` — a resident query API
  ``embed(d, n, faults) -> EmbeddingResponse`` with canonical fault
  normalisation, bounded LRU caches and hit/latency counters, plus the
  topology-generic ``measure(...) -> MeasureResponse`` region queries.
* :class:`~repro.engine.sweep.ParallelSweepEngine` — multiprocess sharded
  execution of the Table 2.1/2.2-style fault sweeps (any backend of the
  :mod:`repro.topology` registry) with per-trial ``SeedSequence``-derived
  streams (bit-for-bit identical results for any worker count),
  topology-keyed JSON checkpoint/resume and progress callbacks.
* the ``python -m repro`` CLI (:mod:`repro.cli`) driving both plus the
  experiment registry.

:mod:`repro.engine.cache` provides the bounded-LRU primitive and
:mod:`repro.engine.caches` the process-wide cache audit.

The service/sweep symbols are loaded lazily (PEP 562): the analysis layer
imports :mod:`repro.engine.executor` while the sweep engine imports the
analysis layer, and lazy loading keeps that mutual dependency acyclic at
import time.
"""

from typing import Any

from .cache import CacheStats, LRUCache

_LAZY = {
    "cache_stats": "caches",
    "clear_caches": "caches",
    "register_cache": "caches",
    "unregister_cache": "caches",
    "KernelExecutor": "executor",
    "cached_executor": "executor",
    "EmbeddingRequest": "service",
    "EmbeddingResponse": "service",
    "MeasureResponse": "service",
    "EmbeddingService": "service",
    "ParallelSweepEngine": "sweep",
    "SweepProgress": "sweep",
    "trial_seed_sequences": "sweep",
}

__all__ = ["CacheStats", "LRUCache", *_LAZY]


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
