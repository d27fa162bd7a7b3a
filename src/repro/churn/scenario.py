"""The churn scenario driver: stream a trace, hold every answer to the oracle.

:func:`run_scenario` replays a :class:`~repro.churn.trace.ChurnTrace` event
by event, either **offline** (directly against an
:class:`~repro.engine.service.EmbeddingService`) or **over HTTP** against a
live gateway (``POST /churn`` + ``POST /measure``, with the retrying
:class:`~repro.server.client.ServeClient` so injected chaos is survived,
not avoided).  After every event it recomputes the answers *from scratch* —
:func:`~repro.core.ffc.find_fault_free_cycle` for the ring,
:meth:`~repro.engine.executor.KernelExecutor.measure_mask_with_root` for
the region — and records any divergence: the incremental re-embedding path
is only correct if it is **bit-for-bit** the batch recomputation, and this
driver is where that contract is enforced end-to-end.

The resulting :class:`ScenarioReport` is deterministic by construction:
its canonical part (:meth:`ScenarioReport.canonical_json`) contains only
seed-derived values — the trace header, per-event oracle digests, the
incremental/full decision counts and the final fault state — so replaying
the same trace yields byte-identical canonical reports regardless of
transport, timing, chaos or retries.  Wall-clock and transport-dependent
fields (retries, degraded answers, elapsed time) ride alongside in
:meth:`ScenarioReport.as_dict` (what ``repro churn run --report`` writes).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.ffc import find_fault_free_cycle, guaranteed_cycle_length
from ..exceptions import FaultBudgetExceededError, ScenarioMismatchError
from ..words.codec import get_codec
from .trace import ChurnTrace

if TYPE_CHECKING:
    from ..engine.service import EmbeddingService
    from ..server.client import ServeClient

__all__ = ["ScenarioReport", "run_scenario"]

#: Report schema version (bump when the canonical field set changes).
REPORT_SCHEMA = 1

#: Answer fields that legitimately differ between transports/replays.
_TRANSIENT_FIELDS = ("cached", "elapsed_s", "trace_id", "seq", "degraded")


def _comparable(data: dict) -> dict:
    """An answer dict stripped to its deterministic fields."""
    return {k: v for k, v in data.items() if k not in _TRANSIENT_FIELDS}


def _diff_keys(streamed: dict, oracle: dict) -> list[str]:
    keys = sorted(set(streamed) | set(oracle))
    return [k for k in keys if streamed.get(k) != oracle.get(k)]


@dataclass
class ScenarioReport:
    """The outcome of one scenario replay (see the module docstring)."""

    trace: dict
    transport: str
    events: int
    incremental: int
    full: int
    replayed: int
    degraded: int
    retries: int
    mismatches: list = field(default_factory=list)
    answers_digest: str = ""
    final_faults: int = 0
    final_region_size: int | None = None
    final_ring_length: int | None = None
    elapsed_s: float = 0.0

    def canonical_dict(self) -> dict:
        """The deterministic core: identical for every replay of one trace."""
        return {
            "schema": REPORT_SCHEMA,
            "kind": "churn-scenario",
            "trace": self.trace,
            "events": self.events,
            "incremental": self.incremental,
            "full": self.full,
            "mismatches": self.mismatches,
            "answers_digest": self.answers_digest,
            "final_faults": self.final_faults,
            "final_region_size": self.final_region_size,
            "final_ring_length": self.final_ring_length,
        }

    def canonical_json(self) -> str:
        """Byte-exact serialisation of :meth:`canonical_dict` (replay contract)."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def as_dict(self) -> dict:
        """Canonical core + the transport-dependent observations."""
        data = self.canonical_dict()
        data.update(
            transport=self.transport,
            replayed=self.replayed,
            degraded=self.degraded,
            retries=self.retries,
            elapsed_s=self.elapsed_s,
        )
        return data


class _Oracle:
    """Per-event batch recomputation: the ground truth every answer meets."""

    def __init__(self, trace: ChurnTrace) -> None:
        from ..engine.executor import cached_executor

        self.executor = cached_executor(trace.d, trace.n, trace.topology)
        self.embeds = trace.topology == "debruijn"
        self.codec = get_codec(trace.d, trace.n) if self.embeds else None

    def measure(self, fault_words: list[tuple[int, ...]]) -> dict:
        topo = self.executor.topology
        codes = [topo.encode(w) for w in fault_words]
        rep_codes = topo.fault_unit_reps(codes)
        mask = topo.fault_unit_mask(np.asarray(codes, dtype=np.int64))
        size, ecc, root = self.executor.measure_mask_with_root(mask)
        f = len(set(codes))
        return {
            "topology": topo.key,
            "d": topo.d,
            "n": topo.n,
            "faults": [list(w) for w in fault_words],
            "fault_units": [list(topo.decode(int(c))) for c in rep_codes],
            "root": None if root is None else list(topo.decode(root)),
            "region_size": int(size),
            "root_eccentricity": int(ecc),
            "reference_size": topo.reference_size(f),
            "guarantee_bound": topo.guarantee_bound(f),
        }

    def embed(self, fault_words: list[tuple[int, ...]]) -> dict:
        """Full FFC recomputation, bypassing every service cache."""
        codec = self.codec
        result = find_fault_free_cycle(codec.d, codec.n, fault_words)
        rep_codes = sorted({int(codec.rep[codec.encode(w)]) for w in fault_words})
        try:
            bound: int | None = guaranteed_cycle_length(
                codec.d, codec.n, len(set(fault_words))
            )
        except FaultBudgetExceededError:
            bound = None
        cycle = result.cycle
        return {
            "d": codec.d,
            "n": codec.n,
            "faults": [list(w) for w in fault_words],
            "faulty_necklaces": [list(codec.decode(c)) for c in rep_codes],
            "length": len(cycle),
            "guarantee_bound": bound,
            "meets_guarantee": True if bound is None else len(cycle) >= bound,
            "cycle": [list(w) for w in cycle],
        }


def _churn_counts(stats: dict) -> tuple[int, int, int]:
    churn = stats.get("churn", {})
    return (
        int(churn.get("incremental", 0)),
        int(churn.get("full", 0)),
        int(churn.get("replayed", 0)),
    )


def run_scenario(
    trace: ChurnTrace,
    client: "ServeClient | None" = None,
    service: "EmbeddingService | None" = None,
    strict: bool = True,
) -> ScenarioReport:
    """Replay ``trace``, assert every streamed answer equals the oracle.

    Parameters
    ----------
    client:
        A :class:`~repro.server.client.ServeClient` pointed at a live
        gateway: events stream over ``POST /churn`` (De Bruijn traces) and
        every state is measured over ``POST /measure``.  ``None`` runs the
        offline transport against ``service`` (a fresh
        :class:`~repro.engine.service.EmbeddingService` by default).
    strict:
        Raise :class:`~repro.exceptions.ScenarioMismatchError` (carrying
        the report) when any streamed answer diverges from the oracle.
    """
    trace.validate()
    started = time.perf_counter()
    oracle = _Oracle(trace)
    offline = client is None
    if offline and service is None:
        from ..engine.service import EmbeddingService

        service = EmbeddingService()

    before: tuple[int, int, int]
    if offline:
        before = _churn_counts(service.stats())
        if oracle.embeds:
            service.reset_churn(trace.d, trace.n)
    else:
        before = _churn_counts(client.stats().get("service", {}))
        if oracle.embeds:
            client.churn(trace.d, trace.n, "reset")

    digest = hashlib.sha256()
    mismatches: list[dict] = []
    degraded = 0
    faults: list[tuple[int, ...]] = []
    measure_answer: dict | None = None
    embed_answer: dict | None = None

    for event in trace.events:
        if event.op == "fault":
            faults.append(event.node)
        else:
            faults.remove(event.node)
        fault_words = sorted(faults)

        oracle_measure = oracle.measure(fault_words)
        oracle_embed = oracle.embed(fault_words) if oracle.embeds else None

        # -- stream the event ------------------------------------------------
        if oracle.embeds:
            if offline:
                response = service.apply_event(
                    trace.d, trace.n, event.op, event.node, seq=event.seq
                )
                embed_answer = response.as_dict()
            else:
                embed_answer = client.churn(
                    trace.d, trace.n, event.op, event.node, seq=event.seq
                )
            diff = _diff_keys(_comparable(embed_answer), oracle_embed)
            if diff:
                mismatches.append(
                    {"seq": event.seq, "endpoint": "churn", "keys": diff}
                )

        # -- measure the new state -------------------------------------------
        if offline:
            measure_answer = oracle_measure
        else:
            measure_answer = client.measure(
                trace.d, trace.n, faults=fault_words, topology=trace.topology
            )
            if measure_answer.get("degraded"):
                degraded += 1  # bound-only answer: nothing measured to compare
            else:
                diff = _diff_keys(_comparable(measure_answer), oracle_measure)
                if diff:
                    mismatches.append(
                        {"seq": event.seq, "endpoint": "measure", "keys": diff}
                    )

        # the digest hashes ORACLE values: transport-invariant by definition
        record = {
            "seq": event.seq,
            "op": event.op,
            "node": list(event.node),
            "measure": oracle_measure,
            "embed": oracle_embed,
        }
        digest.update(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        )

    if offline:
        after = _churn_counts(service.stats())
        retries = 0
    else:
        after = _churn_counts(client.stats().get("service", {}))
        retries = int(getattr(client, "retries_total", 0))

    report = ScenarioReport(
        trace=trace.header(),
        transport="offline" if offline else "http",
        events=len(trace.events),
        incremental=after[0] - before[0],
        full=after[1] - before[1],
        replayed=after[2] - before[2],
        degraded=degraded,
        retries=retries,
        mismatches=mismatches,
        answers_digest=digest.hexdigest(),
        final_faults=len(faults),
        final_region_size=(
            None if measure_answer is None else measure_answer.get("region_size")
        ),
        final_ring_length=(
            None if embed_answer is None else embed_answer.get("length")
        ),
        elapsed_s=time.perf_counter() - started,
    )
    if strict and mismatches:
        raise ScenarioMismatchError(
            f"{len(mismatches)} of {len(trace.events)} streamed answers "
            f"diverged from the batch recomputation (first: {mismatches[0]})",
            report=report,
        )
    return report
