"""The ``python -m repro`` / ``repro`` command line interface.

The subcommands expose the engine subsystem and the experiment registry:

``repro experiment [NAME ...]``
    Run entries of :mod:`repro.analysis.experiments` (every table and figure
    of the paper); ``--list`` enumerates them, ``--all`` runs everything.

``repro sweep --topology T --d D --n N``
    Drive a Table 2.1/2.2-style random-fault sweep through
    :class:`repro.engine.sweep.ParallelSweepEngine` on any backend of the
    :mod:`repro.topology` registry (``debruijn`` — the default — ``kautz``,
    ``hypercube``, ``shuffle_exchange``, ``undirected_debruijn``), with
    ``--workers`` for multiprocess sharding (bit-for-bit identical rows for
    any worker count), ``--checkpoint`` for JSON checkpoint/resume and
    ``--format json``/``--format csv`` for machine-readable output.

``repro embed --d D --n N --faults ...``
    One :class:`repro.engine.service.EmbeddingService` query: the fault-free
    ring for a faulty ``B(d, n)``, its length, and the guarantee check.

``repro serve``
    The async micro-batching gateway (:mod:`repro.server`): concurrent
    ``/embed`` and ``/measure`` requests over HTTP, coalesced into up to
    64-lane kernel launches, with backpressure, ``/stats`` metrics, the
    Prometheus ``/metrics`` exposition and per-request ``/traces``.

``repro stats``
    Scrape a running gateway's ``GET /metrics`` and pretty-print the
    metric families (``--raw`` for the untouched exposition text,
    ``--json`` for parsed machine-readable output, ``--match`` to filter
    by substring).

``repro churn gen`` / ``repro churn run``
    The dynamic-fault churn engine (:mod:`repro.churn`): ``gen`` writes a
    seeded, bit-for-bit replayable JSONL churn trace (independent,
    orbit-correlated or adversarial fault arrivals/heals); ``run`` replays
    a trace — offline against an in-process service, or with ``--url``
    against a live gateway (surviving injected chaos via client retries) —
    asserting every streamed answer is bit-for-bit identical to the
    offline batch recomputation.

``repro lint [paths]``
    The AST invariant auditor (:mod:`repro.lint`): the REP rule catalogue
    guarding determinism (seeded RNG streams), cache hygiene (bounded +
    audit-registered caches), locked lazy shared state, executor-only
    kernel access, non-blocking server coroutines and assert-free library
    code.  ``--format json`` emits a versioned machine-readable report;
    ``--baseline``/``--select``/``--ignore`` and ``# repro: noqa[REP0xx]``
    control suppression.  CI's ``analysis`` job gates every PR on it.

Faulty nodes are written either as compact digit strings (``020`` for the
word ``(0, 2, 0)``, alphabets up to 10) or comma-separated digits
(``10,3,0`` for ``(10, 3, 0)`` in larger alphabets).

Performance is measured outside the CLI by ``perfbench/run.py``, the
repository's one benchmark (workloads and bounds in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence

from .analysis.experiments import available_experiments, run_experiment_result
from .analysis.reporting import format_fault_table, format_fault_table_csv
from .exceptions import ReproError
from .topology import available_topologies
from ._version import __version__

__all__ = ["main"]

#: Experiment names whose registry entries accept sweep kwargs
#: (``trials``/``seed``/``workers``).
_SWEEP_EXPERIMENTS = (
    "table_2_1",
    "table_2_2",
    "topology_sweep",
    "hypercube_vs_debruijn_sweep",
)

#: Experiment names that additionally accept the ``--topology`` selector.
_TOPOLOGY_EXPERIMENTS = ("topology_sweep",)


def parse_word(text: str) -> tuple[int, ...]:
    """Parse one node word: compact digits (``020``) or comma-separated (``0,2,0``).

    The compact form reads one digit per character, so alphabets with
    ``d > 10`` need the comma form (``11,0,3`` for the word ``(11, 0, 3)``).
    The empty word is rejected — no graph here has a length-0 node.
    """
    text = text.strip()
    try:
        if "," in text:
            word = tuple(int(part) for part in text.split(","))
        else:
            word = tuple(int(ch) for ch in text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse word {text!r}: use digits like 020 or comma form 0,2,0"
        ) from None
    if not word:
        raise argparse.ArgumentTypeError("node words cannot be empty")
    return word


def _parse_fault_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse fault counts {text!r}: expected e.g. 0,1,2,5"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant ring embedding in De Bruijn networks "
        "(Rowley & Bose, ICPP'91) — experiments, fault sweeps and the "
        "embedding service.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser(
        "experiment", help="run entries of the paper's experiment registry"
    )
    exp.add_argument("names", nargs="*", help="experiment names (see --list)")
    exp.add_argument("--all", action="store_true", help="run every registered experiment")
    exp.add_argument("--list", action="store_true", help="list experiment names and exit")
    exp.add_argument("--trials", type=int, default=200,
                     help="random-fault trials per row for the fault tables")
    exp.add_argument("--seed", type=int, default=0, help="seed for the fault tables")
    exp.add_argument("--workers", type=int, default=0,
                     help="worker processes for the fault tables (0 = inline)")
    exp.add_argument("--topology", choices=available_topologies(), default=None,
                     help="backend for the topology_sweep experiment "
                     "(rejected if no selected experiment accepts it)")
    exp.add_argument("--format", choices=("table", "csv"), default="table",
                     help="output format (csv: structured rows, shared writer)")

    sweep = sub.add_parser(
        "sweep", help="run a Table 2.1/2.2-style fault sweep through the engine"
    )
    sweep.add_argument("--topology", choices=available_topologies(), default="debruijn",
                       help="network backend to sweep (default: the paper's "
                       "De Bruijn graph)")
    sweep.add_argument("--d", type=int, default=2,
                       help="alphabet size / degree parameter (default 2; the "
                       "hypercube backend requires 2)")
    sweep.add_argument("--n", type=int, required=True,
                       help="word length / dimension parameter")
    sweep.add_argument("--fault-counts", type=_parse_fault_counts, default=None,
                       help="comma-separated fault counts (default: the paper's 0..10,20..50)")
    sweep.add_argument("--trials", type=int, default=200, help="trials per row")
    sweep.add_argument("--seed", type=int, default=0, help="base seed of the trial streams")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = inline; results identical either way)")
    sweep.add_argument("--root", type=parse_word, default=None,
                       help="measurement root (default: the backend's analog "
                       "of the paper's 0...01)")
    sweep.add_argument("--batch", type=int, default=64,
                       help="trials per bit-parallel kernel call, 1..64 "
                       "(1 = scalar path; results identical either way)")
    sweep.add_argument("--checkpoint", default=None,
                       help="JSON checkpoint file for interrupt/resume "
                       "(validated against topology/d/n/root/seed)")
    sweep.add_argument("--no-resume", action="store_true",
                       help="ignore an existing checkpoint and start fresh")
    sweep.add_argument("--fresh", action="store_true",
                       help="delete the checkpoint file before running — the "
                       "escape hatch for a corrupt or mismatched checkpoint")
    sweep.add_argument("--progress", action="store_true",
                       help="report completed trials on stderr")
    sweep.add_argument("--format", choices=("table", "json", "csv"), default=None,
                       help="output format (default: table)")
    sweep.add_argument("--json", action="store_true",
                       help="emit rows as JSON (same as --format json)")

    serve = sub.add_parser(
        "serve", help="run the async micro-batching gateway (HTTP, JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (0 = ephemeral, printed on startup)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="fault masks coalesced per kernel launch, 1..64 "
                       "(1 = single-query serving)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="longest a request waits for lane-mates before "
                       "its batch launches (default 2 ms)")
    serve.add_argument("--queue-limit", type=int, default=1024,
                       help="pending requests per shard before 503 "
                       "backpressure kicks in")
    serve.add_argument("--max-cached-answers", type=int, default=256,
                       help="bound on the service's answer LRUs")
    serve.add_argument("--deadline-ms", type=float, default=0.0,
                       help="default per-request /measure deadline in ms "
                       "(0 = none; requests may override via 'deadline_ms')")
    serve.add_argument("--degraded", action="store_true",
                       help="serve guarantee-bound-only answers flagged "
                       "'degraded: true' on queue saturation instead of 503")
    serve.add_argument("--drain-timeout-s", type=float, default=10.0,
                       help="seconds the SIGTERM/SIGINT graceful drain waits "
                       "for in-flight batches")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the fault-injection decision stream")
    serve.add_argument("--chaos-drop-p", type=float, default=0.0,
                       help="probability of dropping the connection unanswered")
    serve.add_argument("--chaos-error-p", type=float, default=0.0,
                       help="probability of answering 503 (retryable)")
    serve.add_argument("--chaos-delay-p", type=float, default=0.0,
                       help="probability of delaying the response")
    serve.add_argument("--chaos-delay-ms", type=float, default=25.0,
                       help="injected delay length in ms")
    serve.add_argument("--chaos-saturate-p", type=float, default=0.0,
                       help="probability of treating the request as queue "
                       "saturation (degraded answer or 503)")

    stats = sub.add_parser(
        "stats", help="scrape and pretty-print a gateway's /metrics exposition"
    )
    stats.add_argument("--url", default="http://127.0.0.1:8787",
                       help="base URL of the running gateway "
                       "(default: http://127.0.0.1:8787)")
    stats.add_argument("--raw", action="store_true",
                       help="print the Prometheus exposition text untouched")
    stats.add_argument("--json", action="store_true",
                       help="emit the parsed samples as JSON")
    stats.add_argument("--match", default=None,
                       help="only show metric families whose name contains "
                       "this substring")

    lint = sub.add_parser(
        "lint", help="audit the source tree against the REP invariant catalogue"
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    churn = sub.add_parser(
        "churn", help="generate and replay dynamic-fault churn scenarios"
    )
    churn_sub = churn.add_subparsers(dest="churn_command", required=True)

    gen = churn_sub.add_parser(
        "gen", help="write a seeded, replayable JSONL churn trace"
    )
    gen.add_argument("--generator", choices=("independent", "orbit", "adversarial"),
                     default="independent",
                     help="fault-arrival model (orbit clusters faults within "
                     "necklace fault-units; adversarial targets the current "
                     "fault-free cycle, debruijn only)")
    gen.add_argument("--topology", choices=available_topologies(), default="debruijn",
                     help="network backend the trace targets")
    gen.add_argument("--d", type=int, default=2, help="degree/alphabet parameter")
    gen.add_argument("--n", type=int, required=True, help="word length / dimension")
    gen.add_argument("--events", type=int, required=True, help="number of events")
    gen.add_argument("--seed", type=int, default=0, help="trace seed")
    gen.add_argument("--p-fault", type=float, default=0.6,
                     help="probability an event is a fault (vs a heal)")
    gen.add_argument("--cluster-p", type=float, default=0.8,
                     help="orbit generator: probability a new fault lands in "
                     "an already-faulty fault-unit")
    gen.add_argument("--max-faults", type=int, default=None,
                     help="ceiling on simultaneous faults (default: "
                     "min(8, nodes//4))")
    gen.add_argument("--out", default="-",
                     help="output trace file ('-' = stdout)")

    run_p = churn_sub.add_parser(
        "run", help="replay a churn trace and hold every answer to the oracle"
    )
    run_p.add_argument("--trace", required=True, help="JSONL trace file to replay")
    run_p.add_argument("--url", default=None,
                       help="base URL of a live gateway (omitted = offline "
                       "replay against an in-process service)")
    run_p.add_argument("--retries", type=int, default=0,
                       help="client retries per request (503 / dropped "
                       "connections) when driving a live gateway")
    run_p.add_argument("--report", default=None,
                       help="write the scenario report JSON to this file "
                       "(default: print to stdout)")
    run_p.add_argument("--no-strict", action="store_true",
                       help="report mismatches instead of failing on them")

    embed = sub.add_parser(
        "embed", help="query the embedding service for one fault-free ring"
    )
    embed.add_argument("--d", type=int, required=True, help="De Bruijn alphabet size")
    embed.add_argument("--n", type=int, required=True, help="De Bruijn word length")
    embed.add_argument("--faults", type=parse_word, nargs="*", default=[],
                       help="faulty nodes, e.g. --faults 020 112")
    embed.add_argument("--root", type=parse_word, default=None,
                       help="preferred root node for the returned cycle")
    embed.add_argument("--show-cycle", action="store_true",
                       help="print the full cycle (can be huge)")
    embed.add_argument("--json", action="store_true", help="emit the response as JSON")

    return parser


# -- subcommand implementations ------------------------------------------------

def _cmd_experiment(args: argparse.Namespace) -> int:
    names = available_experiments()
    if args.list:
        print("\n".join(names))
        return 0
    selected = names if args.all or not args.names else list(args.names)
    unknown = [name for name in selected if name not in names]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"choose from: {', '.join(names)}", file=sys.stderr)
        return 1
    if args.topology is not None and not any(
        name in _TOPOLOGY_EXPERIMENTS for name in selected
    ):
        # refuse rather than silently run the default backend
        print(f"--topology only applies to: {', '.join(_TOPOLOGY_EXPERIMENTS)}; "
              f"selected experiment(s) ignore it", file=sys.stderr)
        return 1
    for name in selected:
        kwargs = {}
        if name in _SWEEP_EXPERIMENTS:
            kwargs = {
                "trials": args.trials,
                "seed": args.seed,
                "workers": args.workers or None,
            }
        if name in _TOPOLOGY_EXPERIMENTS and args.topology is not None:
            kwargs["topology"] = args.topology
        result = run_experiment_result(name, **kwargs)
        if args.format == "csv":
            # one CSV document per experiment, description as a comment line
            print(f"# {name}: {result.description}")
            print(result.csv(), end="")
            continue
        print("=" * 78)
        print(f"{name}: {result.description}")
        print("-" * 78)
        print(result.text)
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.fault_simulation import PAPER_FAULT_COUNTS
    from .engine.sweep import ParallelSweepEngine, SweepProgress
    from .topology import get_topology

    fmt = args.format or ("json" if args.json else "table")

    if args.fresh and args.checkpoint is not None:
        import os

        try:
            os.unlink(args.checkpoint)
            print(f"repro sweep: discarded checkpoint {args.checkpoint}",
                  file=sys.stderr)
        except FileNotFoundError:
            pass

    def report(progress: SweepProgress) -> None:
        line = (
            f"\r{progress.done_trials}/{progress.total_trials} trials "
            f"(row f={progress.f})"
        )
        if progress.trials_per_s > 0:
            line += (
                f" | {progress.trials_per_s:.0f} trials/s"
                f" | eta {progress.eta_s:.0f}s"
            )
        if progress.workers > 1:
            line += f" | {progress.workers} workers"
        if args.checkpoint is not None:
            line += f" | ckpt lag {progress.checkpoint_lag}"
        # pad so a shorter rewrite fully covers the previous \r line
        print(line.ljust(78), end="", file=sys.stderr, flush=True)

    engine = ParallelSweepEngine(
        args.d,
        args.n,
        root=args.root,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        progress=report if args.progress else None,
        batch=args.batch,
        topology=args.topology,
    )
    rows = engine.run(
        fault_counts=args.fault_counts if args.fault_counts is not None else PAPER_FAULT_COUNTS,
        trials=args.trials,
        seed=args.seed,
        resume=not args.no_resume,
    )
    if args.progress:
        print(file=sys.stderr)
    if fmt == "json":
        payload = {
            "topology": engine.topology,
            "d": args.d,
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "rows": [dataclasses.asdict(row) for row in rows],
        }
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        print(format_fault_table_csv(rows), end="")
    else:
        topo = get_topology(args.topology, args.d, args.n)
        print(format_fault_table(
            rows,
            title=f"Random-fault sweep of {topo.name}",
            reference_header=topo.reference_label,
        ))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import parse_prometheus_text
    from .server.client import ServeClient

    try:
        text = ServeClient(args.url).metrics()
    except OSError as exc:  # no gateway at --url, connection refused, ...
        print(f"repro stats: cannot scrape {args.url}/metrics: {exc}", file=sys.stderr)
        return 1
    if args.raw:
        print(text, end="")
        return 0
    families = parse_prometheus_text(text)
    if args.match is not None:
        families = {
            name: samples
            for name, samples in families.items()
            if args.match in name
        }
    if args.json:
        payload = {
            name: [{"labels": labels, "value": value} for labels, value in samples]
            for name, samples in sorted(families.items())
        }
        print(json.dumps(payload, indent=2))
        return 0
    for name, samples in sorted(families.items()):
        print(name)
        for labels, value in samples:
            label_text = (
                "{" + ", ".join(f"{k}={v!r}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            rendered = f"{int(value)}" if float(value).is_integer() else f"{value:.6g}"
            print(f"  {label_text or '(no labels)'}: {rendered}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .churn.chaos import ChaosConfig
    from .server.gateway import GatewayConfig, run

    chaos = ChaosConfig(
        seed=args.chaos_seed,
        drop_p=args.chaos_drop_p,
        error_p=args.chaos_error_p,
        delay_p=args.chaos_delay_p,
        saturate_p=args.chaos_saturate_p,
        delay_ms=args.chaos_delay_ms,
    )
    return run(GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_limit=args.queue_limit,
        max_cached_answers=args.max_cached_answers,
        deadline_ms=args.deadline_ms,
        degraded=args.degraded,
        chaos=chaos if chaos.enabled else None,
        drain_timeout_s=args.drain_timeout_s,
    ))


def _cmd_churn(args: argparse.Namespace) -> int:
    from .churn import generate_trace, read_trace, run_scenario, write_trace
    from .exceptions import ScenarioMismatchError

    if args.churn_command == "gen":
        trace = generate_trace(
            args.generator,
            topology=args.topology,
            d=args.d,
            n=args.n,
            events=args.events,
            seed=args.seed,
            p_fault=args.p_fault,
            cluster_p=args.cluster_p,
            max_faults=args.max_faults,
        )
        if args.out == "-":
            print(trace.dumps(), end="")
        else:
            write_trace(trace, args.out)
            print(f"wrote {len(trace.events)} events to {args.out}", file=sys.stderr)
        return 0

    trace = read_trace(args.trace)
    client = None
    if args.url is not None:
        from .server.client import ServeClient

        client = ServeClient(args.url, retries=args.retries)
    status = 0
    try:
        report = run_scenario(
            trace,
            client=client,
            strict=not args.no_strict,
        )
    except ScenarioMismatchError as exc:
        if exc.report is None:
            raise
        report = exc.report
        status = 1
        print(f"repro churn: {exc}", file=sys.stderr)
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if args.report is None:
        print(payload)
    else:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    summary = (
        f"{report.events} events [{report.transport}]: "
        f"{report.incremental} incremental, {report.full} full, "
        f"{report.replayed} replayed, {report.degraded} degraded, "
        f"{report.retries} retries, {len(report.mismatches)} mismatches"
    )
    print(f"repro churn: {summary}", file=sys.stderr)
    return status


def _cmd_embed(args: argparse.Namespace) -> int:
    from .engine.service import EmbeddingService

    service = EmbeddingService()
    response = service.embed(args.d, args.n, faults=args.faults, root_hint=args.root)
    if args.json:
        print(json.dumps(response.as_dict(include_cycle=args.show_cycle), indent=2))
        return 0
    faults = ", ".join("".join(map(str, w)) for w in response.faults) or "(none)"
    necklaces = ", ".join("".join(map(str, w)) for w in response.faulty_necklaces) or "(none)"
    bound = "none (outside guaranteed regimes)" if response.guarantee_bound is None \
        else str(response.guarantee_bound)
    print(f"B({response.d},{response.n}) with {len(response.faults)} faulty node(s): {faults}")
    print(f"faulty necklaces (canonical): {necklaces}")
    print(f"fault-free ring length: {response.length} of {response.d ** response.n} nodes")
    print(f"worst-case guarantee: {bound}; met: {response.meets_guarantee}")
    print(f"service time: {response.elapsed_s * 1e3:.2f} ms")
    if args.show_cycle:
        print("cycle:", " ".join("".join(map(str, w)) for w in response.cycle))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also the ``repro`` console script)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "embed":
            return _cmd_embed(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "churn":
            return _cmd_churn(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except BrokenPipeError:  # e.g. `repro experiment --all | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:  # domain errors become one-line diagnostics
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
