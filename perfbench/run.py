"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``measure-cold``,
``measure-hot``, ``embed-churn``, ``sweep`` (see perfbench/README.md).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 2400, "failed": 0,
     "metrics": {"p50_ms": {"value": 8.1, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the traced
run, which reports the per-layer metrics and writes its spans as JSON Lines.
Every run also writes a run record (workload, seed, commit, machine,
server knobs, per-phase counts) to ``perfbench/out/``.  A run in which the
load generator fell behind its own schedule is not valid: it exits with
status 3 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def git_commit(root: str) -> str | None:
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    from workloads import END_TO_END, PER_LAYER, RUNNERS, Context

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("REPRO_OBS_DISABLED", None)

    import numpy as np
    from repro.server.gateway import GatewayConfig

    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    # With two or more CPUs the load generator and the server run on different
    # ones, so neither steals the other's core mid-measurement.  The sweep is
    # one process and is not pinned: the scheduler then moves it off a CPU
    # that a neighbouring tenant slows down.
    allowed = sorted(os.sched_getaffinity(0))
    program_cpus = set(allowed)
    if len(allowed) > 1 and args.workload != "sweep":
        program_cpus = {allowed[-1]}
        os.sched_setaffinity(0, {allowed[0]})
    ctx = Context(ROOT, out, args.workload, args.seed, args.seconds, bool(args.trace),
                  program_cpus if program_cpus != set(allowed) else None)
    ctx.record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_unix": time.time(),
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_allowed": allowed,
        "program_cpus": sorted(program_cpus),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "server_knobs": {k: v for k, v in vars(GatewayConfig()).items()
                         if k not in ("host", "port", "chaos")},
    })
    outcome = RUNNERS[args.workload](ctx)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    result = {
        "correct": outcome.wrong == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    stem = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    ctx.record["result"] = result
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(ctx.record, fh, indent=1)
    if outcome.spans is not None:
        outcome.spans.write_jsonl(stem + "-spans.jsonl")
    if not ctx.record["valid"]:
        # the latencies measure the generator, not the program: no result
        print(f"perfbench: the load generator fell behind its schedule "
              f"({ctx.record['late_p90_ms']:.2f} ms p90 lateness); run not valid, "
              f"record in {stem}.json", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
