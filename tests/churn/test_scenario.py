"""The scenario driver: deterministic reports, oracle comparison, bench history."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import generate_trace, run_scenario
from repro.churn.scenario import ScenarioReport
from repro.engine.service import EmbeddingService
from repro.exceptions import ScenarioMismatchError


class TestOfflineReplayDeterminism:
    def test_replaying_one_trace_yields_byte_identical_canonical_reports(self):
        trace = generate_trace("orbit", "debruijn", 2, 5, events=40, seed=13)
        first = run_scenario(trace)
        second = run_scenario(trace)
        assert first.canonical_json() == second.canonical_json()
        assert first.mismatches == []
        assert first.events == 40
        assert first.incremental + first.full == 40

    def test_canonical_part_excludes_wall_clock_and_transport(self):
        trace = generate_trace("independent", "debruijn", 2, 4, events=6, seed=1)
        report = run_scenario(trace)
        canonical = report.canonical_dict()
        assert "elapsed_s" not in canonical
        assert "transport" not in canonical
        assert "retries" not in canonical
        full = report.as_dict()
        assert full["transport"] == "offline"
        assert full["elapsed_s"] > 0

    def test_fresh_and_warm_services_report_identically(self):
        """The canonical report may not depend on cache temperature."""
        trace = generate_trace("independent", "debruijn", 2, 5, events=20, seed=3)
        warm = EmbeddingService()
        run_scenario(trace, service=warm)
        warmed_again = run_scenario(trace, service=warm)
        fresh = run_scenario(trace, service=EmbeddingService())
        assert warmed_again.canonical_json() == fresh.canonical_json()

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(["independent", "orbit", "adversarial"]),
        st.integers(0, 10_000),
    )
    def test_any_seeded_trace_replays_identically(self, generator, seed):
        """The property the CI chaos-smoke job leans on, for ANY seed."""
        trace = generate_trace(generator, "debruijn", 2, 4, events=8, seed=seed)
        first = run_scenario(trace)
        second = run_scenario(trace)
        assert first.canonical_json() == second.canonical_json()
        assert first.mismatches == []

    def test_measure_only_topologies_replay_without_embeds(self):
        trace = generate_trace("independent", "hypercube", 2, 6, events=25, seed=8)
        report = run_scenario(trace)
        assert report.events == 25
        assert report.final_ring_length is None
        assert report.final_region_size is not None
        assert report.incremental == report.full == 0  # no churn sessions used


class TestMismatchDetection:
    def test_a_tampered_service_fails_the_scenario(self):
        class LyingService(EmbeddingService):
            def apply_event(self, *args, **kwargs):
                response = super().apply_event(*args, **kwargs)
                # corrupt the reported ring length
                object.__setattr__(response, "length", response.length - 1)
                return response

        trace = generate_trace("independent", "debruijn", 2, 4, events=5, seed=2)
        with pytest.raises(ScenarioMismatchError) as excinfo:
            run_scenario(trace, service=LyingService())
        report = excinfo.value.report
        assert isinstance(report, ScenarioReport)
        assert report.mismatches
        assert all(m["endpoint"] == "churn" for m in report.mismatches)
        assert "length" in report.mismatches[0]["keys"]

    def test_non_strict_returns_the_mismatching_report(self):
        class LyingService(EmbeddingService):
            def apply_event(self, *args, **kwargs):
                response = super().apply_event(*args, **kwargs)
                object.__setattr__(response, "length", 0)
                return response

        trace = generate_trace("independent", "debruijn", 2, 4, events=3, seed=2)
        report = run_scenario(trace, service=LyingService(), strict=False)
        assert len(report.mismatches) == 3


class TestReportReplay:
    def test_two_replays_report_identical_canonical_cores(self):
        trace = generate_trace("independent", "debruijn", 2, 4, events=4, seed=0)
        first = run_scenario(trace)
        second = run_scenario(trace)
        entry = json.loads(json.dumps(first.as_dict()))
        assert entry["kind"] == "churn-scenario"
        assert entry["mismatches"] == []
        # the report a replay writes carries the same canonical core as any
        # other replay of the trace
        assert {key: entry[key] for key in second.canonical_dict()} == (
            second.canonical_dict()
        )
        assert entry["answers_digest"] == second.answers_digest
