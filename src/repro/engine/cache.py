"""Bounded, instrumented LRU caches for long-lived service processes.

The engine subsystem runs as a resident service: the same process answers
embedding queries and orchestrates fault sweeps for hours.  Every cache it
holds must therefore be *bounded* (so memory cannot grow with the number of
distinct queries seen) and *observable* (so an operator can read hit rates
and evict on demand).  :class:`LRUCache` is the one primitive used for both:
a thread-safe least-recently-used mapping with hit/miss/eviction counters
and a uniform ``stats()`` shape shared with the :mod:`functools.lru_cache`
wrappers audited in :mod:`repro.engine.caches`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import asdict, dataclass
from typing import Any

from ..exceptions import InvalidParameterError

__all__ = ["CacheStats", "LRUCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one cache (the uniform shape used by ``stats()``)."""

    name: str
    maxsize: int | None
    currsize: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["hit_rate"] = round(self.hit_rate, 4)
        return data


class LRUCache:
    """A bounded least-recently-used cache with counters.

    Unlike :func:`functools.lru_cache` this caches *values by explicit key*
    rather than memoising a function, so the service layer can build keys
    that normalise the request (e.g. fault sets reduced to canonical
    necklace representatives) before the lookup.  All operations take an
    internal lock; instances are safe to share between a service thread and
    a progress-reporting thread.
    """

    def __init__(self, maxsize: int, name: str = "lru") -> None:
        if maxsize < 1:
            raise InvalidParameterError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.name = str(name)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or ``default``."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting the least recently used on overflow."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._trim()

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it with ``factory`` on a miss.

        The factory runs outside the lock (it may be expensive — e.g. codec
        table construction), so two racing threads may both build.  The
        first insert wins and every racer returns it, so callers never keep
        private copies of one entry; a losing build is dropped.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = factory()
        with self._lock:
            value = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            self._trim()
        return value

    def _trim(self) -> None:
        """Evict least recently used entries down to ``maxsize`` (lock held)."""
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved; see ``reset_counters``)."""
        with self._lock:
            self._data.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                maxsize=self.maxsize,
                currsize=len(self._data),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"LRUCache({self.name!r}, {s.currsize}/{s.maxsize}, "
            f"hits={s.hits}, misses={s.misses})"
        )
