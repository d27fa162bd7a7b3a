"""repro.server — the async micro-batching gateway over the kernel executor.

The :mod:`repro.engine` answers queries one at a time; this subsystem puts a
serving front-end on top, shaped like the HoneyBadgerMPC program-runner
idiom (many concurrent tasks driven through one shared execution context):

* :class:`~repro.server.batcher.MicroBatcher` — coalesces concurrent
  ``measure`` requests into micro-batches of up to 64 fault masks per
  bit-parallel kernel launch (each launch takes everything queued the
  moment the kernel is free), with a bounded queue for backpressure and
  batch-occupancy / latency metrics;
* :class:`~repro.server.gateway.BatchingGateway` — an asyncio HTTP/1.1
  server (``python -m repro serve``) exposing ``POST /embed``,
  ``POST /measure``, ``GET /stats`` and ``GET /healthz``, with one executor
  shard (and one batcher) per ``(topology, d, n)`` served;
* :mod:`~repro.server.client` — a small stdlib-only client
  (:class:`~repro.server.client.ServeClient` for scripts,
  :class:`~repro.server.client.AsyncServeClient` for load generation);
* :mod:`~repro.server.smoke` — the CI smoke driver
  (``python -m repro.server.smoke``): ~200 concurrent requests across two
  topologies, deterministic-answer and batch-occupancy assertions.

Symbols are loaded lazily (PEP 562) so importing :mod:`repro.server` stays
cheap for callers that only want one piece.
"""

from typing import Any

_LAZY = {
    "BatchingGateway": "gateway",
    "GatewayConfig": "gateway",
    "MicroBatcher": "batcher",
    "QueueFullError": "batcher",
    "ServeClient": "client",
    "AsyncServeClient": "client",
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
