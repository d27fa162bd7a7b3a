"""Tests for the bounded LRU primitive and the process-wide cache audit."""

import threading

import pytest

from repro.engine import LRUCache, cache_stats, clear_caches
from repro.exceptions import InvalidParameterError


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a -> b becomes LRU
        cache.put("c", 3)       # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh, not insert
        cache.put("c", 3)       # evicts b, not a
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_get_or_create_builds_once(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or "built")
            assert value == "built"
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses >= 1

    def test_racing_builders_share_the_first_insert(self):
        """Two threads that miss the same cold key both get one value."""
        cache = LRUCache(4)
        barrier = threading.Barrier(2, timeout=10)
        got = [None, None]

        def build():
            barrier.wait()  # both builds run before either inserts
            return object()

        def worker(i):
            got[i] = cache.get_or_create("k", build)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert got[0] is got[1] is cache.get("k")
        assert len(cache) == 1

    def test_stats_and_clear(self):
        cache = LRUCache(3, name="test")
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats.name == "test"
        assert (stats.hits, stats.misses, stats.currsize) == (1, 1, 1)
        assert 0 < stats.hit_rate < 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1  # counters survive clear
        cache.reset_counters()
        assert cache.stats().hits == 0

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(InvalidParameterError):
            LRUCache(0)


class TestCacheAudit:
    def test_every_audited_cache_is_bounded(self):
        from repro.core.bounds import psi
        from repro.words.codec import get_codec

        get_codec(2, 4)
        psi(6)
        stats = cache_stats()
        assert "words.get_codec" in stats
        for name, info in stats.items():
            assert info["maxsize"] is not None and info["maxsize"] > 0, (
                f"cache {name} is unbounded"
            )
            assert info["currsize"] <= info["maxsize"]

    def test_clear_caches_empties_everything(self):
        from repro.words.codec import get_codec

        get_codec(2, 4)
        clear_caches()
        for name, info in cache_stats().items():
            assert info["currsize"] == 0, f"cache {name} not cleared"

    def test_every_module_level_lru_cache_is_audited(self):
        """Each module-global ``LRUCache`` in ``repro`` is in the audit and cleared."""
        import importlib
        import pkgutil

        import repro

        found = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue  # importing it would run the CLI
            module = importlib.import_module(info.name)
            for attr, value in vars(module).items():
                if isinstance(value, LRUCache):
                    found[f"{info.name}.{attr}"] = value
        assert "repro.engine.executor._EXECUTOR_CACHE" in found
        stats = cache_stats()
        for where, cache in found.items():
            assert cache.name in stats, f"{where} ({cache.name!r}) is not in cache_stats()"
            cache.put("audit-probe", object())
        clear_caches()
        for where, cache in found.items():
            assert len(cache) == 0, f"clear_caches() left {where} populated"
