"""Layer replays of the traced run.

Nothing inside the program is instrumented.  Instead, after the HTTP
phases, the benchmark calls each layer's public function on the workload's
own inputs and records every call as a span (see :mod:`spans`).  The calls
are the ones the serving path makes:

===========================  ===============================================
span                         call
===========================  ===============================================
``topology.normalise``       ``encode`` of every fault word + ``fault_unit_reps``
``topology.mask``            ``fault_unit_mask``
``executor.pack``            ``pack_mask_lanes`` of one launch's masks
``msbfs.kernel``             ``batched_root_stats`` of those lanes (levels)
``executor.launch``          ``KernelExecutor.measure_masks_batch``
``gateway.reply``            ``MeasureResponse(...).as_dict()`` + ``json.dumps``
``core.bstar``               ``build_bstar``
``core.ffc``                 ``FFCEngine(bstar).cycle_codes()``
``codec.decode``             ``decode_many`` of the cycle
``core.validate``            ``RingEmbedding.validate``
``gateway.embed_encode``     ``EmbeddingResponse.as_dict(include_cycle=True)`` + ``json.dumps``
``churn.incremental|full``   ``EmbeddingService.apply_event``, by its decision
``faults.sample``            ``sample_code_batch`` of one 64-trial batch
``sweep.pack``               ``pack_fault_lanes`` of that batch
``sweep.batch``              ``KernelExecutor.run_trials_batch``
===========================  ===============================================
"""

from __future__ import annotations

import json
import time

import numpy as np

from spans import SpanRecorder


def _normalise(topology, words):
    codes = [topology.encode(tuple(w)) for w in words]
    return codes, topology.fault_unit_reps(codes)


def _measure_reply(topology, codes, reps, measured) -> str:
    from repro.engine.service import MeasureResponse

    size, ecc, root = measured
    f = len(set(codes))
    return json.dumps(
        MeasureResponse(
            topology=topology.key, d=topology.d, n=topology.n,
            faults=tuple(topology.decode(c) for c in codes),
            fault_units=tuple(topology.decode(c) for c in reps),
            root=None if root is None else topology.decode(root),
            region_size=int(size), root_eccentricity=int(ecc),
            reference_size=topology.reference_size(f),
            guarantee_bound=topology.guarantee_bound(f),
            cached=False, elapsed_s=0.0,
        ).as_dict()
    )


def measure_replay(rec: SpanRecorder, executor, requests, occupancy: int) -> dict:
    """Replay the ``/measure`` path for ``requests`` = ``[(trace, parent, words)]``.

    Launches group consecutive requests ``occupancy`` at a time, as the
    batcher did.  Returns per-request layer times (s) keyed by trace id and
    the launch-level counts.  Every lane's batched answer is compared with
    the scalar answer of the same mask.
    """
    from repro.graphs.msbfs import batched_root_stats, pack_mask_lanes

    topology = executor.topology
    per: dict[int, dict] = {}
    masks, replies = [], []
    for trace, parent, words in requests:
        with rec.span("replay", trace, parent) as sid:
            s0 = len(rec.spans)
            codes, reps = rec.call("topology.normalise", trace, sid, _normalise, topology, words)
            mask = rec.call("topology.mask", trace, sid, topology.fault_unit_mask,
                            np.asarray(codes, dtype=np.int64))
        per[trace] = {"normalise": _dur(rec, s0), "mask": _dur(rec, s0 + 1)}
        masks.append(mask)
        replies.append((trace, parent, codes, reps))
    levels, mismatches = [], 0
    k = max(1, min(64, int(occupancy)))
    for g in range(0, len(masks), k):
        group = masks[g : g + k]
        trace = requests[g][0]
        lanes = rec.call("executor.pack", trace, None, pack_mask_lanes, group, topology.num_nodes)
        pack = _dur(rec, len(rec.spans) - 1)
        stats = rec.call("msbfs.kernel", trace, None, batched_root_stats, topology, lanes,
                         executor.root_code, len(group))
        results = rec.call("executor.launch", trace, None, executor.measure_masks_batch, group)
        launch = _dur(rec, len(rec.spans) - 1)
        levels.append(stats.levels)
        for (tr, parent, codes, reps), mask, result in zip(replies[g : g + k], group, results):
            if tuple(result) != tuple(executor.measure_mask_with_root(mask)):
                mismatches += 1
            per[tr]["launch"], per[tr]["pack"] = launch, pack
            rec.call("gateway.reply", tr, parent, _measure_reply, topology, codes, reps, result)
            per[tr]["reply"] = _dur(rec, len(rec.spans) - 1)
    peeled = sum(bool(m[executor.root_code]) for m in masks)
    gather_bytes = sum(col.nbytes for col in topology.predecessor_columns)
    return {
        "per_request": per,
        "lanes": len(masks),
        "peeled": peeled,
        "levels": float(np.median(levels)) if levels else 0.0,
        "gather_bytes": gather_bytes,
        "mismatches": mismatches,
    }


def ffc_replay(rec: SpanRecorder, d: int, n: int, items) -> dict[int, dict]:
    """Replay the ``/embed`` construction for ``items`` = ``[(trace, parent, words)]``."""
    from repro.core.necklace_graph import FFCEngine, build_bstar
    from repro.core.ring_embedding import RingEmbedding
    from repro.engine.service import EmbeddingResponse

    per = {}
    for trace, parent, words in items:
        words = [tuple(w) for w in words]
        with rec.span("replay", trace, parent) as sid:
            s0 = len(rec.spans)
            bstar = rec.call("core.bstar", trace, sid, build_bstar, d, n, words)
            codes = rec.call("core.ffc", trace, sid, lambda b: FFCEngine(b).cycle_codes(), bstar)
            cycle = tuple(rec.call("codec.decode", trace, sid, bstar.codec.decode_many, codes))
            embedding = RingEmbedding(d=d, n=n, cycle=cycle, faulty_nodes=frozenset(words))
            rec.call("core.validate", trace, sid, embedding.validate)
            reps = sorted(set(bstar.codec.rep[bstar.codec.encode_many(words)].tolist()))
            response = EmbeddingResponse(
                d=d, n=n, faults=tuple(words),
                faulty_necklaces=tuple(bstar.codec.decode(r) for r in reps),
                cycle=cycle, length=len(cycle), guarantee_bound=None,
                meets_guarantee=True, cached=False, elapsed_s=0.0,
            )
            rec.call("gateway.embed_encode", trace, sid,
                     lambda r: json.dumps(r.as_dict(include_cycle=True)), response)
        per[trace] = {
            name: _dur(rec, s0 + i)
            for i, name in enumerate(("bstar", "ffc", "decode", "validate", "encode"))
        }
    return per


def churn_replay(rec: SpanRecorder, d: int, n: int, events, traces) -> dict:
    """Apply ``events`` to an in-process ``EmbeddingService``, one span each,
    named by the service's incremental/full decision; returns its stats."""
    from repro.engine.service import EmbeddingService

    service = EmbeddingService()
    full = service.stats()["churn"]["full"]
    for event, trace in zip(events, traces):
        start = time.perf_counter()
        service.apply_event(d, n, event.op, event.node, seq=event.seq)
        end = time.perf_counter()
        now_full = service.stats()["churn"]["full"]
        decision = "full" if now_full > full else "incremental"
        full = now_full
        rec.add(f"churn.{decision}", trace, start, end)
    return service.stats()


def sweep_replay(rec: SpanRecorder, executor, f: int, seed_seqs, trace: int,
                 parent: int | None) -> dict:
    """Replay one 64-trial sweep batch layer by layer."""
    from repro.graphs.msbfs import batched_root_stats, pack_fault_lanes
    from repro.network.faults import sample_code_batch

    topology = executor.topology
    rngs = [np.random.default_rng(s) for s in seed_seqs]
    with rec.span("replay", trace, parent) as sid:
        codes = rec.call("faults.sample", trace, sid, sample_code_batch,
                         topology.num_nodes, f, rngs)
        lanes = rec.call("sweep.pack", trace, sid, pack_fault_lanes, topology, codes)
        stats = rec.call("msbfs.kernel", trace, sid, batched_root_stats, topology, lanes,
                         executor.root_code, len(seed_seqs))
    rec.call("sweep.batch", trace, parent, executor.run_trials_batch, f, list(seed_seqs))
    return {"codes": codes, "levels": stats.levels, "dead": len(stats.dead_trials()),
            "trials": len(seed_seqs)}


def _dur(rec: SpanRecorder, sid: int) -> float:
    s = rec.spans[sid]
    return s["end"] - s["start"]
