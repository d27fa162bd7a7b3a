"""CI smoke driver: ``python -m repro.server.smoke --url http://HOST:PORT``.

Fires ``--requests`` (default 200) concurrent ``/measure`` queries across
two topologies (De Bruijn and hypercube) at a running gateway — every third
one naming an explicit random ``root`` — and asserts the serving contract
end to end:

* **determinism** — every served answer is field-identical (modulo the
  ``cached``/``elapsed_s`` bookkeeping) to the scalar
  :meth:`~repro.engine.service.EmbeddingService.measure` answer computed
  locally in this process, and a second identical round returns the same
  payloads;
* **micro-batching engaged** — ``/stats`` reports overall batch occupancy
  > 1 (concurrent requests actually shared kernel launches).

Exits 0 on success, 1 with a diagnostic on any violation — the CI job fails
on regressions in either batching or correctness.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import urllib.parse
from collections.abc import Sequence

import numpy as np

from ..engine.service import EmbeddingService
from .client import AsyncServeClient, fire_measure

#: The two smoke workloads: one necklace-unit backend, one single-node-unit.
WORKLOADS = (
    {"topology": "debruijn", "d": 2, "n": 10},
    {"topology": "hypercube", "d": 2, "n": 10},
)

_TRANSIENT_FIELDS = ("cached", "elapsed_s", "trace_id")


def _comparable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in _TRANSIENT_FIELDS}


def _make_requests(total: int, seed: int) -> list[dict]:
    """``total`` measure payloads, alternating topologies, seeded faults and roots."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(total):
        spec = WORKLOADS[i % len(WORKLOADS)]
        f = int(rng.integers(0, 6))
        faults = [
            [int(x) for x in rng.integers(0, spec["d"], size=spec["n"])]
            for _ in range(f)
        ]
        root = rng.integers(0, spec["d"], size=spec["n"]).tolist() if i % 3 == 2 else None
        requests.append({**spec, "faults": faults, "root": root})
    return requests


async def _run(host: str, port: int, total: int, concurrency: int, seed: int) -> int:
    payloads = _make_requests(total, seed)

    # expected answers from the scalar in-process path — the ground truth
    # the micro-batched server must reproduce byte for byte
    service = EmbeddingService(max_cached_answers=4 * total)
    expected = [
        _comparable(
            service.measure(
                p["d"], p["n"], faults=p["faults"], root=p["root"],
                topology=p["topology"],
            ).as_dict()
        )
        for p in payloads
    ]

    first, _ = await fire_measure(host, port, payloads, concurrency)
    for i, (got, want) in enumerate(zip(first, expected)):
        if _comparable(got) != want:
            print(f"FAIL: request {i} diverged from the scalar path\n"
                  f"  sent: {payloads[i]}\n  got:  {_comparable(got)}\n"
                  f"  want: {want}", file=sys.stderr)
            return 1

    second, _ = await fire_measure(host, port, payloads, concurrency)
    for i, (a, b) in enumerate(zip(first, second)):
        if _comparable(a) != _comparable(b):
            print(f"FAIL: request {i} non-deterministic across rounds", file=sys.stderr)
            return 1

    client = await AsyncServeClient.open(host, port)
    try:
        status, stats = await client.request("GET", "/stats")
    finally:
        await client.close()
    if status != 200:
        print(f"FAIL: /stats returned HTTP {status}", file=sys.stderr)
        return 1
    occupancy = stats["server"]["batch_occupancy"]
    if not occupancy > 1.0:
        print(f"FAIL: batch occupancy {occupancy:.2f} <= 1 — "
              "micro-batching never engaged", file=sys.stderr)
        return 1

    print(f"smoke OK: {2 * total} requests over {len(WORKLOADS)} topologies, "
          f"all answers deterministic and scalar-identical, "
          f"batch occupancy {occupancy:.1f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8787",
                        help="gateway base URL (default http://127.0.0.1:8787)")
    parser.add_argument("--requests", type=int, default=200,
                        help="concurrent measure requests per round (default 200)")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="persistent client connections (default 32)")
    parser.add_argument("--seed", type=int, default=0, help="fault-sampling seed")
    args = parser.parse_args(argv)
    parsed = urllib.parse.urlsplit(args.url)
    host, port = parsed.hostname or "127.0.0.1", parsed.port or 8787
    return asyncio.run(_run(host, port, args.requests, args.concurrency, args.seed))


if __name__ == "__main__":
    sys.exit(main())
