"""Tests for the resident embedding service (normalisation, caching, counters)."""

import json

import pytest

from repro.core import find_fault_free_cycle
from repro.engine import EmbeddingRequest, EmbeddingService
from repro.engine.service import EmbeddingResponse, MeasureResponse
from repro.exceptions import AlphabetError, InvalidParameterError


class TestEmbedding:
    def test_matches_direct_ffc_call(self):
        service = EmbeddingService()
        faults = [(0, 2, 0), (1, 1, 2)]
        response = service.embed(3, 3, faults)
        direct = find_fault_free_cycle(3, 3, faults)
        assert response.cycle == direct.cycle
        assert response.length == direct.length == len(direct.cycle)
        assert response.meets_guarantee == direct.meets_guarantee()

    def test_cache_hit_returns_identical_cycle(self):
        service = EmbeddingService()
        cold = service.embed(2, 6, [(0, 1, 1, 0, 1, 0)])
        warm = service.embed(2, 6, [(0, 1, 1, 0, 1, 0)])
        assert not cold.cached and warm.cached
        assert warm.cycle == cold.cycle
        assert warm.length == cold.length

    def test_rotated_faults_hit_same_entry(self):
        # The FFC result depends only on which necklaces die, so a rotation
        # of the fault word must be served from cache with the same cycle.
        service = EmbeddingService()
        cold = service.embed(2, 5, [(0, 0, 0, 1, 1)])
        rotated = service.embed(2, 5, [(0, 0, 1, 1, 0)])
        assert rotated.cached
        assert rotated.cycle == cold.cycle
        assert rotated.faulty_necklaces == cold.faulty_necklaces
        # the response still reports the faults as requested
        assert rotated.faults == ((0, 0, 1, 1, 0),)

    def test_root_hint_is_part_of_the_key(self):
        service = EmbeddingService()
        a = service.embed(2, 5, [(1, 1, 1, 0, 1)], root_hint=(0, 0, 0, 0, 1))
        b = service.embed(2, 5, [(1, 1, 1, 0, 1)])
        assert not b.cached  # different key, not served from a's entry
        assert a.length == b.length  # but the same surviving component

    def test_guarantee_fields(self):
        service = EmbeddingService()
        zero = service.embed(2, 5)
        assert zero.guarantee_bound == 32 and zero.meets_guarantee
        single = service.embed(2, 5, [(0, 0, 0, 1, 1)])
        assert single.guarantee_bound == 2**5 - (5 + 1)  # Proposition 2.3
        many = service.embed(2, 5, [(0, 0, 0, 1, 1), (0, 1, 0, 1, 1)])
        assert many.guarantee_bound is None  # outside every guaranteed regime
        assert many.meets_guarantee  # vacuously: the cycle spans all of B*

    def test_duplicate_faults_counted_once_for_guarantee(self):
        service = EmbeddingService()
        response = service.embed(4, 3, [(0, 1, 2), (0, 1, 2)])
        assert response.guarantee_bound == 4**3 - 3 * 1  # f = 1 distinct fault

    def test_batch_queries_share_the_cache(self):
        service = EmbeddingService()
        requests = [
            EmbeddingRequest.make(2, 5, [(0, 0, 0, 1, 1)]),
            EmbeddingRequest.make(2, 5, [(0, 0, 1, 1, 0)]),  # rotation of the first
            EmbeddingRequest.make(2, 5),
        ]
        responses = service.embed_batch(requests)
        assert [r.cached for r in responses] == [False, True, False]
        assert responses[0].cycle == responses[1].cycle
        assert responses[2].length == 32

    def test_validation_errors(self):
        service = EmbeddingService()
        with pytest.raises(InvalidParameterError):
            service.embed(2, 5, [(0, 1)])  # wrong length
        with pytest.raises(AlphabetError):
            service.embed(2, 5, [(0, 0, 0, 0, 7)])  # digit outside Z_2


class TestCountersAndBounds:
    def test_stats_counters(self):
        service = EmbeddingService()
        service.embed(2, 5, [(0, 0, 0, 1, 1)])
        service.embed(2, 5, [(0, 0, 0, 1, 1)])
        stats = service.stats()
        assert stats["requests"] == 2
        assert stats["answers"]["hits"] == 1 and stats["answers"]["misses"] == 1
        assert stats["total_latency_s"] >= stats["compute_latency_s"] > 0
        assert stats["avg_latency_s"] > 0
        assert "words.get_codec" in stats["process_caches"]

    def test_answer_cache_is_bounded(self):
        service = EmbeddingService(max_cached_answers=2)
        service.embed(2, 5, [(0, 0, 0, 1, 1)])
        service.embed(2, 5, [(0, 1, 0, 1, 1)])
        service.embed(2, 5, [(0, 0, 1, 0, 1)])  # evicts the first entry
        assert service.stats()["answers"]["currsize"] == 2
        assert service.stats()["answers"]["evictions"] == 1
        refreshed = service.embed(2, 5, [(0, 0, 0, 1, 1)])
        assert not refreshed.cached  # was evicted, recomputed

    def test_clear_empties_service_caches(self):
        service = EmbeddingService()
        service.embed(2, 5, [(0, 0, 0, 1, 1)])
        service.clear()
        assert service.stats()["answers"]["currsize"] == 0
        # the codec tables live in the process-wide get_codec cache
        assert service.stats()["codecs"]["name"] == "words.get_codec"
        service.clear(include_process_caches=True)
        assert service.stats()["codecs"]["currsize"] == 0
        again = service.embed(2, 5, [(0, 0, 0, 1, 1)])
        assert not again.cached

    def test_response_as_dict(self):
        service = EmbeddingService()
        response = service.embed(2, 5, [(0, 0, 0, 1, 1)])
        data = response.as_dict(include_cycle=False)
        assert "cycle" not in data
        assert data["length"] == response.length
        full = response.as_dict()
        assert len(full["cycle"]) == response.length


class TestResponseRoundTrip:
    """EmbeddingResponse.as_dict <-> from_dict is a real interchange format."""

    def _response(self) -> EmbeddingResponse:
        return EmbeddingService().embed(2, 5, [(0, 0, 0, 1, 1)])

    def test_round_trip_with_cycle_is_lossless(self):
        response = self._response()
        rebuilt = EmbeddingResponse.from_dict(response.as_dict())
        assert rebuilt == response

    def test_round_trip_without_cycle(self):
        response = self._response()
        data = response.as_dict(include_cycle=False)
        rebuilt = EmbeddingResponse.from_dict(data)
        assert rebuilt.cycle == ()  # payload omitted, not invented
        assert rebuilt.length == response.length  # true length survives
        # the dict itself round-trips exactly
        assert rebuilt.as_dict(include_cycle=False) == data

    def test_round_trip_through_json_text(self):
        # the CLI --json path: serialised text -> dict -> response
        response = self._response()
        rebuilt = EmbeddingResponse.from_dict(json.loads(json.dumps(response.as_dict())))
        assert rebuilt == response

    def test_none_guarantee_bound_survives(self):
        response = EmbeddingService().embed(
            2, 5, [(0, 0, 0, 1, 1), (0, 1, 0, 1, 1)]
        )
        assert response.guarantee_bound is None
        assert EmbeddingResponse.from_dict(response.as_dict()) == response


class TestMeasureQueries:
    """The topology-generic measurement API of the service."""

    def test_measure_matches_executor(self):
        import numpy as np

        from repro.engine.executor import KernelExecutor

        service = EmbeddingService()
        response = service.measure(2, 6, faults=[(0, 1, 2, 0, 1, 2)], topology="kautz")
        executor = KernelExecutor(2, 6, topology="kautz")
        topo = executor.topology
        removed = topo.fault_unit_mask(
            np.asarray([topo.encode((0, 1, 2, 0, 1, 2))], dtype=np.int64)
        )
        assert (response.region_size, response.root_eccentricity) == (
            executor.measure_mask_with_root(removed)[:2]
        )
        assert response.topology == "kautz"

    def test_measure_caches_by_fault_units(self):
        service = EmbeddingService()
        cold = service.measure(2, 5, faults=[(0, 0, 0, 1, 1)])  # debruijn default
        rotated = service.measure(2, 5, faults=[(0, 0, 1, 1, 0)])  # same necklace
        assert not cold.cached and rotated.cached
        assert rotated.region_size == cold.region_size
        assert service.stats()["measurements"]["hits"] == 1

    def test_measure_keys_include_topology(self):
        service = EmbeddingService()
        a = service.measure(2, 6, faults=[(0, 0, 1, 0, 1, 1)], topology="debruijn")
        b = service.measure(2, 6, faults=[(0, 0, 1, 0, 1, 1)], topology="shuffle_exchange")
        assert not b.cached  # same word, different backend, different entry
        assert a.region_size != b.region_size  # necklace vs single-node removal

    def test_measure_reports_bounds(self):
        service = EmbeddingService()
        response = service.measure(2, 10, faults=[(0,) * 9 + (1,)], topology="hypercube")
        assert response.reference_size == 2**10 - 1
        assert response.guarantee_bound == 2**10 - 2
        # the requested root died: the response reports the fallback root
        # actually measured from — a *surviving* node, not the faulty one
        assert response.region_size > 0
        assert response.root is not None
        assert response.root != (0,) * 9 + (1,)

    def test_measure_rejects_wrong_length_root(self):
        # the service encodes the root once; the executor only sees codes
        with pytest.raises(InvalidParameterError):
            EmbeddingService().measure(2, 6, root=(1, 0, 1))
        with pytest.raises(InvalidParameterError):
            EmbeddingService().measure(2, 6, root=(1,) * 7)

    def test_measure_surviving_root_reported_verbatim(self):
        service = EmbeddingService()
        response = service.measure(2, 5, faults=[(1, 1, 1, 1, 0)])
        assert response.root == (0, 0, 0, 0, 1)  # default root, alive

    def test_measure_all_removed_root_is_none(self):
        service = EmbeddingService()
        # one fault per necklace representative kills every node of B(2,2)
        response = service.measure(2, 2, faults=[(0, 0), (0, 1), (1, 1)])
        assert response.region_size == 0 and response.root_eccentricity == 0
        assert response.root is None
        assert MeasureResponse.from_dict(response.as_dict()) == response

    def test_measure_response_round_trip(self):
        service = EmbeddingService()
        response = service.measure(2, 6, faults=[(0, 1, 0, 1, 0, 1)], topology="kautz")
        rebuilt = MeasureResponse.from_dict(json.loads(json.dumps(response.as_dict())))
        assert rebuilt == response

    def test_degraded_response_is_bound_only_and_never_cached(self):
        service = EmbeddingService()
        query = service.measure_query(2, 6, faults=[(0, 1, 0, 1, 1, 0)])
        degraded = service.measure_response(query, None)
        data = degraded.as_dict()
        assert data["degraded"] is True and not data["cached"]
        assert data["region_size"] is None and data["root"] is None
        assert MeasureResponse.from_dict(json.loads(json.dumps(data))) == degraded
        # nothing was cached or counted: the real measurement still misses
        assert service.stats()["requests"] == 0
        real = service.measure(2, 6, faults=[(0, 1, 0, 1, 1, 0)])
        assert not real.cached and "degraded" not in real.as_dict()
        assert (real.reference_size, real.guarantee_bound) == (
            degraded.reference_size, degraded.guarantee_bound
        )
