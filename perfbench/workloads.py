"""The four workloads and the metrics they report.

Every workload reports the same end-to-end metrics (``END_TO_END``) and,
in a traced run, the same per-layer metrics (``PER_LAYER``).  Layers are
timed on the workload's own inputs; a layer metric that a workload does not
exercise reports 0 there (see README.md for which layer metric is measured
and expected to move on which workload).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from checks import MeasureChecker, RingChecker, check_sweep_row
from httpload import ServerProcess, peak_rss_mb, run_closed_loop, run_open_loop
from layers import churn_replay, ffc_replay, measure_replay, sweep_replay
from spans import SpanRecorder

END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
    "success_rate": "fraction",
}

PER_LAYER = {
    "gateway.self_ms": "ms",
    "gateway.reply_us": "us",
    "gateway.embed_encode_ms": "ms",
    "batcher.occupancy": "lanes/launch",
    "batcher.wait_ms": "ms",
    "batcher.rejected": "count",
    "topology.normalise_us": "us",
    "topology.mask_us": "us",
    "cache.measure_hit_ratio": "fraction",
    "cache.measure_hits": "count",
    "cache.measure_lookups": "count",
    "cache.embed_hit_ratio": "fraction",
    "cache.embed_hits": "count",
    "cache.embed_lookups": "count",
    "executor.pack_us": "us",
    "executor.launch_ms": "ms",
    "executor.fallback_share": "fraction",
    "msbfs.levels": "count",
    "msbfs.bytes_per_launch": "B",
    "faults.sample_ms": "ms",
    "sweep.pack_us": "us",
    "sweep.batch_ms": "ms",
    "sweep.dead_share": "fraction",
    "core.bstar_ms": "ms",
    "core.ffc_ms": "ms",
    "codec.decode_ms": "ms",
    "core.validate_ms": "ms",
    "churn.incremental_share": "fraction",
    "churn.incremental_ms": "ms",
    "churn.full_ms": "ms",
    "server.cpu_ms_per_req": "ms",
    "loadgen.late_ms": "ms",
    "trace.overhead_frac": "fraction",
}

#: Replay span name -> (per-layer metric, seconds-to-unit scale).
SPAN_METRICS = {
    "topology.normalise": ("topology.normalise_us", 1e6),
    "topology.mask": ("topology.mask_us", 1e6),
    "gateway.reply": ("gateway.reply_us", 1e6),
    "executor.pack": ("executor.pack_us", 1e6),
    "executor.launch": ("executor.launch_ms", 1e3),
    "gateway.embed_encode": ("gateway.embed_encode_ms", 1e3),
    "core.bstar": ("core.bstar_ms", 1e3),
    "core.ffc": ("core.ffc_ms", 1e3),
    "codec.decode": ("codec.decode_ms", 1e3),
    "core.validate": ("core.validate_ms", 1e3),
    "faults.sample": ("faults.sample_ms", 1e3),
    "sweep.pack": ("sweep.pack_us", 1e6),
    "sweep.batch": ("sweep.batch_ms", 1e3),
    "churn.incremental": ("churn.incremental_ms", 1e3),
    "churn.full": ("churn.full_ms", 1e3),
}

#: Connections of the HTTP workloads: at most nproc, and never more than 2
#: so that the workload is the same on a larger machine.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Offered rate of the open-loop phase: well below the ~260 req/s closed-loop
#: capacity of measure-cold, so that queueing stays moderate (load ~0.4).
OPEN_RATE = 100.0
OPEN_SHARE = 0.6  # of the HTTP window; the closed loop gets the rest
#: Time windows per phase; metrics are medians over them (see ``windows``).
OPEN_WINDOWS = 6
CLOSED_WINDOWS = 4
#: Cold starts before and after the measured window; ``setup_s`` is the
#: fastest of all seven (see ``setup_time``).
SETUP_BEFORE, SETUP_AFTER = 4, 3
#: p90 generator lateness above this marks a run invalid.
LATE_LIMIT_MS = 5.0
#: Embed/churn pairs of one embed-churn run: a fixed amount of work, so
#: that cache and memory figures compare between commits.
CHURN_EVENTS = 80
#: The sweep's two tables in the Tables 2.1/2.2 protocol: graph -> fault
#: counts.  One operation sweeps both tables, 64 trials per row.
SWEEP_TABLES = {(2, 16): (2, 8, 16, 32), (4, 8): (1, 5, 20, 50)}
SWEEP_TRIALS = 64
#: The sweep window is cut into this many time windows, and its figures are
#: taken over the operations of the fastest few (see ``fastest_windows``).
SWEEP_WINDOWS, SWEEP_FASTEST = 20, 4
#: Traced requests replayed layer by layer (measure / embed).
REPLAY_REQUESTS = 300
REPLAY_EMBEDS = 12


@dataclass
class Context:
    root: str
    out: str
    workload: str
    seed: int
    seconds: float
    trace: bool
    server_cpus: set[int] | None = None
    record: dict = field(default_factory=dict)

    @property
    def log(self) -> str:
        return os.path.join(self.out, f"{self.workload}-seed{self.seed}-server.log")


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    wrong: int
    spans: SpanRecorder | None = None


def pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _phase(name: str, records, start: float, last: float, failures: int) -> dict:
    lat = [r.latency for r in records]
    return {
        "phase": name,
        "sent": len(records),
        "succeeded": len(records) - failures,
        "failed": failures,
        "seconds": last - start,
        "p50_ms": pct(lat, 50) * 1e3,
        "p90_ms": pct(lat, 90) * 1e3,
        "late_p90_ms": pct([r.late for r in records], 90) * 1e3,
    }


def windows(items, times, start: float, end: float, k: int) -> tuple[list[list], float]:
    """``items`` split into ``k`` equal time windows of ``[start, end]`` by ``times``.

    Reporting the median over windows keeps one stall of the machine from
    moving a run's figure: it spoils one window, not the run.
    """
    width = (end - start) / k
    out: list[list] = [[] for _ in range(k)]
    for item, t in zip(items, times):
        out[min(k - 1, max(0, int((t - start) / width)))].append(item)
    return out, width


def fastest_windows(lat, ends, start: float, end: float) -> list[float]:
    """The latencies of the ``SWEEP_FASTEST`` windows (of ``SWEEP_WINDOWS``)
    with the lowest median latency.

    The sweep's operations are all alike, so a window's median follows the
    machine, which on a shared host runs 20-40% slower for stretches of a
    few seconds with CPU time rising as much as wall time.  A median over
    the whole run or over its windows moves with the share of the run those
    stretches cover; the fastest windows are the program's own cost.
    """
    split, _ = windows(lat, ends, start, end, SWEEP_WINDOWS)
    split = sorted((w for w in split if w), key=median)
    return [x for w in split[:SWEEP_FASTEST] for x in w]


def _delta(a: dict, b: dict, *path) -> float:
    for key in path:
        a, b = a[key], b[key]
    return b - a


def setup_time(samples: list[float]) -> float:
    """The set-up time of a run: the fastest of its cold starts.

    A cold start is almost all interpreter start-up and imports, and on a
    shared machine the CPU runs about 30% slower for stretches of several
    seconds.  The cold starts are therefore taken in two blocks, before and
    after the measured window, and the fastest is reported: the median
    lands on either side of a slow stretch (10-run spread about 0.3), the
    fastest is the cost of the set-up work itself.
    """
    return min(samples)


def _cold_start(ctx: Context, first_op) -> tuple[ServerProcess, float]:
    """Spawn the server and time it to the first correct answer on the
    workload's graph (``first_op(server, start)`` sends and checks it, and
    returns the elapsed seconds)."""
    start = time.perf_counter()
    server = ServerProcess(ctx.root, ctx.log, ctx.server_cpus)
    try:
        return server, first_op(server, start)
    except BaseException:
        server.stop()
        raise


def _cold_starts(ctx: Context, first_op, count: int) -> list[float]:
    """``count`` cold starts, each server stopped again."""
    times = []
    for _ in range(count):
        server, elapsed = _cold_start(ctx, first_op)
        server.stop()
        times.append(elapsed)
    return times


# -- measure-cold / measure-hot ---------------------------------------------------
def run_measure(ctx: Context, hot: bool) -> Outcome:
    stream = inputs.MeasureStream(ctx.seed, hot)
    checker = MeasureChecker()
    probe = stream.draw(99, 1)[0]

    def first_op(server, start):
        status, body = server.post("/measure", _measure_payload(probe))
        elapsed = time.perf_counter() - start
        if status != 200 or checker.check(probe, body) is not None:
            raise RuntimeError(f"first /measure answer wrong: {status} {body[:200]!r}")
        return elapsed

    halves = 2 if ctx.trace else 1
    window = ctx.seconds / halves
    plans = []
    for h in range(halves):
        offsets = inputs.poisson_offsets(
            inputs.rng_for(ctx.seed, 2, h), OPEN_RATE, OPEN_SHARE * window
        )
        closed_cap = int((1 - OPEN_SHARE) * window * (2000 if hot else 800))
        plans.append((offsets, stream.draw(10 + h, len(offsets)),
                      stream.draw(20 + h, closed_cap)))
    warm = stream.draw(0, 600 if hot else 100)

    setups = _cold_starts(ctx, first_op, SETUP_BEFORE - 1)
    server, elapsed = _cold_start(ctx, first_op)
    setups.append(elapsed)
    ctx.record["server"] = server.banner
    spans = SpanRecorder() if ctx.trace else None
    phases, timed = [], []
    _quiet_heap()
    try:
        address = (server.host, server.port)
        timed.append(("warm-up", warm,
                      run_closed_loop(address, _measure_ops(warm), CONNECTIONS, 60.0)))
        for h, (offsets, open_sets, closed_sets) in enumerate(plans):
            traced = spans if h == 1 else None
            s0, m0, cpu0 = server.stats(), server.metrics_text(), server.cpu_s()
            rec_open = run_open_loop(address, _measure_ops(open_sets), offsets,
                                     CONNECTIONS, traced)
            s1, m1 = server.stats(), server.metrics_text()
            rec_closed = run_closed_loop(address, _measure_ops(closed_sets), CONNECTIONS,
                                         (1 - OPEN_SHARE) * window)
            s2, cpu1 = server.stats(), server.cpu_s()
            phases.append({"open": rec_open, "closed": rec_closed, "stats": (s0, s1, s2),
                           "open_wait_s": _mean_batcher_wait(m0, m1),
                           "cpu_s": cpu1 - cpu0})
            label = "traced" if traced else "untraced"
            timed.append((f"{label}-open", open_sets, rec_open))
            timed.append((f"{label}-closed", closed_sets, rec_closed))
        rss = server.rss_peak_mb()
    finally:
        server.stop()
    setups += _cold_starts(ctx, first_op, SETUP_AFTER)
    ctx.record["setup_s"] = setups

    wrong = failed = attempted = 0
    cached = {}
    ctx.record["phases"] = []
    for name, sets, (records, start, last) in timed:
        bad = 0
        for r in records:
            error = (f"HTTP {r.status}" if r.status != 200
                     else checker.check(sets[r.index], r.body))
            if error is not None:
                bad += 1
                wrong += r.status == 200
                ctx.record.setdefault("errors", []).append(error)
            elif name == "traced-open":
                cached[r.index] = b'"cached": true' in r.body
        attempted += len(records)
        failed += bad
        ctx.record["phases"].append(_phase(name, records, start, last, bad))

    untraced = phases[0]
    open_recs, o0, o1 = untraced["open"]
    closed_recs, c0, c1 = untraced["closed"]
    open_w, _ = windows([r.latency for r in open_recs], [r.due for r in open_recs],
                        o0, o0 + OPEN_SHARE * window, OPEN_WINDOWS)
    closed_w, width = windows([r.status == 200 for r in closed_recs],
                              [r.end for r in closed_recs], c0, c1, CLOSED_WINDOWS)
    metrics = {
        "setup_s": setup_time(setups),
        "rss_mb": rss,
        "p50_ms": median([pct(w, 50) for w in open_w]) * 1e3,
        "p90_ms": median([pct(w, 90) for w in open_w]) * 1e3,
        "throughput_per_s": median([sum(w) / width for w in closed_w]),
        "success_rate": 1.0 - failed / attempted,
    }
    ctx.record["samples"] = {"open": len(open_recs), "closed": len(closed_recs)}
    late = pct([r.late for r in open_recs], 90) * 1e3
    ctx.record["late_p90_ms"] = late
    ctx.record["valid"] = late <= LATE_LIMIT_MS
    if not ctx.trace:
        return Outcome(metrics, attempted, failed, wrong)

    # -- traced run: counts from /stats over the untraced phases ---------------
    s0, s1, s2 = untraced["stats"]
    lanes_closed = _delta(s1, s2, "server", "lanes")
    launches_closed = _delta(s1, s2, "server", "launches")
    launches_open = _delta(s0, s1, "server", "launches")
    occupancy_open = _delta(s0, s1, "server", "lanes") / launches_open if launches_open else 1
    hits = _delta(s0, s2, "measure_cache", "hits")
    lookups = hits + _delta(s0, s2, "measure_cache", "misses")
    layer = _zero_layers()
    layer.update({
        "batcher.occupancy": lanes_closed / launches_closed if launches_closed else 0.0,
        "batcher.rejected": _delta(s0, s2, "server", "rejected"),
        "cache.measure_hits": hits,
        "cache.measure_lookups": lookups,
        "cache.measure_hit_ratio": hits / lookups if lookups else 0.0,
        "server.cpu_ms_per_req": untraced["cpu_s"] * 1e3 / (len(open_recs) + len(closed_recs)),
        "loadgen.late_ms": late,
    })
    _embed_cache_counts(layer, s0, s2)
    traced_open, _, _ = phases[1]["open"]
    layer["trace.overhead_frac"] = (
        pct([r.latency for r in traced_open], 50) / pct([r.latency for r in open_recs], 50) - 1
    )

    # -- layer replays on the traced requests ------------------------------------
    _quiet_heap()
    http_span = {s["trace"]: s for s in spans.spans if s["name"] == "http"}
    open_sets = plans[1][1]
    chosen = [r.index for r in traced_open if r.status == 200][:REPLAY_REQUESTS]
    requests = [(i, http_span[i]["span"], [inputs.word(c) for c in open_sets[i]])
                for i in chosen]
    replay = measure_replay(spans, checker.executor, requests, round(occupancy_open))
    launch_s = median([t["launch"] for t in replay["per_request"].values()])
    wait_s = max(0.0, untraced["open_wait_s"] - launch_s)
    tiling = []
    for i in chosen:
        t = replay["per_request"][i]
        parts = {"topology.normalise": t["normalise"], "gateway.reply": t["reply"]}
        if not cached.get(i, False):
            parts.update({"topology.mask": t["mask"], "batcher.wait": wait_s,
                          "executor.launch": t["launch"]})
        wall = http_span[i]["end"] - http_span[i]["start"]
        parts["gateway.self"] = wall - sum(parts.values())
        tiling.append({"trace": i, "wall_s": wall, "self_s": parts})
    ctx.record["tiling"] = tiling
    layer["gateway.self_ms"] = median([t["self_s"]["gateway.self"] for t in tiling]) * 1e3
    layer["batcher.wait_ms"] = wait_s * 1e3
    _launch_counts(layer, replay)
    ffc_replay(spans, inputs.D, inputs.N,
               [(i, http_span[i]["span"], [inputs.word(c) for c in open_sets[i]])
                for i in chosen[:2]])
    _churn_layers(spans, layer, ctx.seed)
    _span_medians(spans, layer)
    ctx.record["replay_mismatches"] = replay["mismatches"]
    return Outcome(layer, attempted, failed + replay["mismatches"],
                   wrong + replay["mismatches"], spans)


def _measure_payload(codes):
    return {"topology": "debruijn", "d": inputs.D, "n": inputs.N,
            "faults": [inputs.word(c) for c in codes]}


def _measure_ops(sets):
    return [("/measure", inputs.measure_body(codes)) for codes in sets]


# -- embed-churn ------------------------------------------------------------------
def run_embed_churn(ctx: Context) -> Outcome:
    from repro.churn import generate_trace

    d, n = inputs.D, inputs.N
    events = generate_trace("orbit", "debruijn", d, n, CHURN_EVENTS, seed=ctx.seed).events
    rng = inputs.rng_for(ctx.seed, 3)
    embeds = [inputs.fault_set(rng) for _ in range(CHURN_EVENTS)]
    probe = inputs.fault_set(inputs.rng_for(ctx.seed, 4))
    ops, faults_after, state = [], [], set()
    for codes, event in zip(embeds, events):
        code = int(sum(x * d ** (n - 1 - i) for i, x in enumerate(event.node)))
        if event.op == "fault":
            state.add(code)
        else:
            state.discard(code)
        ops.append(("/embed", _embed_body(codes)))
        faults_after.append(codes)
        ops.append(("/churn", json.dumps(
            {"d": d, "n": n, "op": event.op, "node": list(event.node), "seq": event.seq}
        ).encode()))
        faults_after.append(sorted(state))
    checker = RingChecker()

    def first_op(server, start):
        status, body = server.post("/embed", _embed_payload(probe))
        elapsed = time.perf_counter() - start
        if status != 200 or checker.check(probe, body) is not None:
            raise RuntimeError(f"first /embed answer wrong: {status} {body[:200]!r}")
        return elapsed

    halves = 2 if ctx.trace else 1
    per_half = len(ops) // halves
    setups = _cold_starts(ctx, first_op, SETUP_BEFORE - 1)
    server, elapsed = _cold_start(ctx, first_op)
    setups.append(elapsed)
    ctx.record["server"] = server.banner
    spans = SpanRecorder() if ctx.trace else None
    parts, lo = [], 0
    _quiet_heap()
    try:
        address = (server.host, server.port)
        server.post("/churn", {"d": d, "n": n, "op": "reset"})
        for h in range(halves):
            # the traced half continues the churn stream where the untraced
            # half stopped, so event seq numbers stay consecutive
            s0, cpu0 = server.stats(), server.cpu_s()
            records, start, last = run_closed_loop(
                address, ops[lo : lo + per_half], 1, ctx.seconds / halves,
                spans if h == 1 else None,
            )
            s1, cpu1 = server.stats(), server.cpu_s()
            for r in records:
                r.index += lo
            if h == 1:  # trace ids are indices into ops, as for the replays
                for s in spans.spans:
                    s["trace"] += lo
            parts.append((records, start, last, s0, s1, cpu1 - cpu0))
            lo += len(records)
        rss = server.rss_peak_mb()
    finally:
        server.stop()
    setups += _cold_starts(ctx, first_op, SETUP_AFTER)
    ctx.record["setup_s"] = setups

    wrong = failed = attempted = 0
    ctx.record["phases"] = []
    for h, (records, start, last, *_) in enumerate(parts):
        bad = 0
        for r in records:
            error = (f"HTTP {r.status}" if r.status != 200
                     else checker.check(faults_after[r.index], r.body))
            if error is not None:
                bad += 1
                wrong += r.status == 200
                ctx.record.setdefault("errors", []).append(error)
        attempted += len(records)
        failed += bad
        name = f"{'traced' if h else 'untraced'}-closed"
        ctx.record["phases"].append(_phase(name, records, start, last, bad))

    records, start, last, s0, s1, cpu_s = parts[0]
    lat = [r.latency for r in records]
    ctx.record["samples"] = {"ops": len(records)}
    ctx.record["by_op"] = {
        path: {"n": len(v), "p50_ms": pct(v, 50) * 1e3, "p90_ms": pct(v, 90) * 1e3}
        for path in ("/embed", "/churn")
        for v in [[r.latency for r in records if ops[r.index][0] == path]]
    }
    ctx.record["valid"] = True
    metrics = {
        "setup_s": setup_time(setups),
        "rss_mb": rss,
        "p50_ms": pct(lat, 50) * 1e3,
        "p90_ms": pct(lat, 90) * 1e3,
        "throughput_per_s": sum(r.status == 200 for r in records) / (last - start),
        "success_rate": 1.0 - failed / attempted,
    }
    if not ctx.trace:
        return Outcome(metrics, attempted, failed, wrong)

    layer = _zero_layers()
    _embed_cache_counts(layer, s0, s1)
    inc = _delta(s0, s1, "service", "churn", "incremental")
    full = _delta(s0, s1, "service", "churn", "full")
    layer.update({
        "churn.incremental_share": inc / (inc + full) if inc + full else 0.0,
        "server.cpu_ms_per_req": cpu_s * 1e3 / len(records),
        "loadgen.late_ms": pct([r.late for r in records], 90) * 1e3,
        "trace.overhead_frac": pct([r.latency for r in parts[1][0]], 50) / pct(lat, 50) - 1,
    })
    _quiet_heap()
    http_span = {s["trace"]: s for s in spans.spans if s["name"] == "http"}
    traced_embeds = [r.index for r in parts[1][0]
                     if ops[r.index][0] == "/embed" and r.status == 200]
    items = [(i, http_span[i]["span"], [inputs.word(c) for c in faults_after[i]])
             for i in traced_embeds[:REPLAY_EMBEDS]]
    per = ffc_replay(spans, d, n, items)
    tiling = []
    for i, _, _ in items:
        s = http_span[i]
        wall = s["end"] - s["start"]
        parts_s = {f"layer.{k}": v for k, v in per[i].items()}
        parts_s["gateway.self"] = wall - sum(parts_s.values())
        tiling.append({"trace": i, "wall_s": wall, "self_s": parts_s})
    ctx.record["tiling"] = tiling
    layer["gateway.self_ms"] = median([t["self_s"]["gateway.self"] for t in tiling]) * 1e3
    churn_at = [i for i in range(lo) if ops[i][0] == "/churn"]
    churn_replay(spans, d, n, events[: len(churn_at)], churn_at)
    _span_medians(spans, layer)
    return Outcome(layer, attempted, failed, wrong, spans)


def _embed_payload(codes):
    return {"d": inputs.D, "n": inputs.N, "faults": [inputs.word(c) for c in codes],
            "include_cycle": True}


def _embed_body(codes) -> bytes:
    return json.dumps(_embed_payload(codes)).encode()


# -- sweep ------------------------------------------------------------------------
def run_sweep(ctx: Context) -> Outcome:
    from repro.engine.sweep import ParallelSweepEngine, trial_seed_sequences

    def cold_starts(count: int) -> list[float]:
        # a fresh process per set-up: the program's table caches are per process
        times = []
        for _ in range(count):
            out = subprocess.run(
                [sys.executable, os.path.join(ctx.root, "perfbench", "sweep_setup.py")],
                cwd=ctx.root, capture_output=True, text=True, timeout=120, check=True,
            )
            times.append(float(out.stdout.strip().splitlines()[-1]))
        return times

    setups = cold_starts(SETUP_BEFORE)
    engines = {}
    for (d, n), fs in SWEEP_TABLES.items():
        engines[(d, n)] = ParallelSweepEngine(d, n, workers=1, batch=SWEEP_TRIALS)
        engines[(d, n)].run(fault_counts=fs[:1], trials=SWEEP_TRIALS, seed=ctx.seed)

    halves = 2 if ctx.trace else 1
    spans = SpanRecorder() if ctx.trace else None
    parts, k = [], 0
    _quiet_heap()
    for h in range(halves):
        ops = []
        start = time.perf_counter()
        deadline = start + ctx.seconds / halves
        while time.perf_counter() < deadline:
            seed = ctx.seed * 1_000_003 + k
            t0 = time.perf_counter()
            tables = {
                key: engines[key].run(fault_counts=fs, trials=SWEEP_TRIALS, seed=seed)
                for key, fs in SWEEP_TABLES.items()
            }
            t1 = time.perf_counter()
            if h == 1:
                spans.add("sweep.table", k, t0, t1)
            ops.append((k, seed, t1 - t0, tables))
            k += 1
        parts.append((ops, start, time.perf_counter()))
    rss = peak_rss_mb()
    setups += cold_starts(SETUP_AFTER)
    ctx.record["setup_s"] = setups

    # every row is checked for consistency; the rows of one seeded table are
    # recomputed on the scalar path
    all_ops = [op for ops, _, _ in parts for op in ops]
    scalar = int(inputs.rng_for(ctx.seed, 5).integers(0, len(all_ops)))
    wrong = 0
    for k, seed, _, tables in all_ops:
        errors = []
        for (d, n), rows in tables.items():
            for f, row in zip(SWEEP_TABLES[(d, n)], rows):
                if not (row.f == f and row.trials == SWEEP_TRIALS
                        and 0 <= row.min_size <= row.avg_size <= row.max_size <= d**n
                        and 0 <= row.min_ecc <= row.avg_ecc <= row.max_ecc):
                    errors.append(f"inconsistent row {row}")
                elif k == scalar:
                    errors.append(check_sweep_row(d, n, f, seed, SWEEP_TRIALS, row))
        errors = [e for e in errors if e is not None]
        if errors:
            wrong += 1
            ctx.record.setdefault("errors", []).extend(errors)

    ops, start, end = parts[0]
    lat = [op[2] for op in ops]
    trials_per_op = SWEEP_TRIALS * sum(len(fs) for fs in SWEEP_TABLES.values())
    # op end times: ops run back to back from ``start``
    ends = np.cumsum(lat) + start
    fast = fastest_windows(lat, ends.tolist(), start, end)
    ctx.record["phases"] = [
        {"phase": f"{'traced' if h else 'untraced'}-tables", "sent": len(p[0]),
         "seconds": p[2] - p[1], "p50_ms": pct([op[2] for op in p[0]], 50) * 1e3}
        for h, p in enumerate(parts)
    ]
    ctx.record["samples"] = {"tables": len(ops), "fastest_windows": len(fast)}
    ctx.record["table_ms"] = [round(x * 1e3, 3) for x in lat]
    ctx.record["scalar_checked_table"] = scalar
    ctx.record["valid"] = True
    metrics = {
        "setup_s": setup_time(setups),
        "rss_mb": rss,
        "p50_ms": pct(fast, 50) * 1e3,
        "p90_ms": pct(fast, 90) * 1e3,
        "throughput_per_s": trials_per_op * len(fast) / sum(fast),
        "success_rate": 1.0 - wrong / len(all_ops),
    }
    if not ctx.trace:
        return Outcome(metrics, len(all_ops), wrong, wrong)

    _quiet_heap()
    layer = _zero_layers()
    traced = parts[1][0]
    layer["trace.overhead_frac"] = pct([op[2] for op in traced], 50) / pct(lat, 50) - 1
    k = traced[0][0]
    seed = traced[0][1]
    parent = next(s["span"] for s in spans.spans if s["trace"] == k)
    levels, moved, dead, trials = [], [], 0, 0
    for (d, n), fs in SWEEP_TABLES.items():
        executor = _executor(d, n)
        gather = sum(col.nbytes for col in executor.topology.predecessor_columns)
        for f in fs:
            seqs = trial_seed_sequences(seed, [f], SWEEP_TRIALS)[0]
            out = sweep_replay(spans, executor, f, seqs, k, parent)
            levels.append(out["levels"])
            moved.append(gather * out["levels"])
            dead += out["dead"]
            trials += out["trials"]
    layer["sweep.dead_share"] = dead / trials
    layer["msbfs.levels"] = median(levels)
    layer["msbfs.bytes_per_launch"] = median(moved)
    _span_medians(spans, layer)
    return Outcome(layer, len(all_ops), wrong, wrong, spans)


# -- shared helpers ---------------------------------------------------------------
def _quiet_heap() -> None:
    """Collect, then exempt this process's objects from later collections.

    The benchmark keeps every request body and reply in memory; without
    this, the collector would rescan them inside timed calls and charge
    the benchmark's own heap to whatever layer happened to be running.
    """
    gc.collect()
    gc.freeze()


def _executor(d: int, n: int):
    from repro.engine.executor import KernelExecutor

    return KernelExecutor(d, n)


def _zero_layers() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def _embed_cache_counts(layer: dict, before: dict, after: dict) -> None:
    hits = _delta(before, after, "service", "answers", "hits")
    lookups = hits + _delta(before, after, "service", "answers", "misses")
    layer["cache.embed_hits"] = hits
    layer["cache.embed_lookups"] = lookups
    layer["cache.embed_hit_ratio"] = hits / lookups if lookups else 0.0


def _launch_counts(layer: dict, replay: dict) -> None:
    layer["executor.fallback_share"] = replay["peeled"] / replay["lanes"] if replay["lanes"] else 0.0
    layer["msbfs.levels"] = replay["levels"]
    layer["msbfs.bytes_per_launch"] = replay["gather_bytes"] * replay["levels"]


def _mean_batcher_wait(before: str, after: str) -> float:
    """Mean submit-to-answer seconds of the batcher between two ``/metrics``
    scrapes: the delta of ``repro_batcher_wait_seconds``' sum over its count."""

    def sum_count(text: str) -> tuple[float, float]:
        total = {"_sum": 0.0, "_count": 0.0}
        for line in text.splitlines():
            name, _, value = line.rpartition(" ")
            for suffix in total:
                if name.startswith("repro_batcher_wait_seconds" + suffix):
                    total[suffix] += float(value)
        return total["_sum"], total["_count"]

    (s0, c0), (s1, c1) = sum_count(before), sum_count(after)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def _churn_layers(spans, layer, seed) -> None:
    """The churn and embed-cache layers on a seeded orbit trace of B(2, 14),
    applied to an in-process service (the measure workloads send no churn)."""
    from repro.churn import generate_trace

    events = generate_trace("orbit", "debruijn", inputs.D, inputs.N, CHURN_EVENTS // 2,
                            seed=seed).events
    stats = churn_replay(spans, inputs.D, inputs.N, events,
                         [-100 - i for i in range(len(events))])
    inc, full = stats["churn"]["incremental"], stats["churn"]["full"]
    layer["churn.incremental_share"] = inc / (inc + full)
    hits, misses = stats["answers"]["hits"], stats["answers"]["misses"]
    layer["cache.embed_hits"] = hits
    layer["cache.embed_lookups"] = hits + misses
    layer["cache.embed_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0


def _span_medians(spans: SpanRecorder, layer: dict) -> None:
    for name, values in spans.self_times().items():
        if name in SPAN_METRICS:
            metric, scale = SPAN_METRICS[name]
            layer[metric] = median(values) * scale


RUNNERS = {
    "measure-cold": lambda ctx: run_measure(ctx, hot=False),
    "measure-hot": lambda ctx: run_measure(ctx, hot=True),
    "embed-churn": run_embed_churn,
    "sweep": run_sweep,
}
