"""Property test: micro-batched serving ≡ sequential scalar execution.

For every registered topology, any interleaving of concurrent
embed/measure requests through the gateway must return byte-identical
answers (JSON payloads modulo the ``cached``/``elapsed_s`` bookkeeping) to
running the same queries one at a time through the scalar
:class:`~repro.engine.service.EmbeddingService` path.  Hypothesis drives
the fault sets, the duplicate structure, the arrival order and the arrival
jitter — which together determine how requests pack into kernel lanes,
which requests hit the answer cache, and how batches split.  Every
topology is served in both gateway modes, single-query (``max_batch=1``,
one kernel launch per request) and micro-batched (the default 64 lanes),
and both modes are held to the same scalar answers.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.service import EmbeddingService
from repro.server.gateway import BatchingGateway, GatewayConfig
from repro.topology import available_topologies, get_topology

_D, _N = 2, 5

_TRANSIENT = ("cached", "elapsed_s", "trace_id")

#: single-query serving and the default micro-batched width
_MAX_BATCHES = (1, GatewayConfig().max_batch)


def _canonical(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k not in _TRANSIENT}, sort_keys=True
    )


def _requests_strategy(topology: str):
    """Request specs with faults drawn as valid node *codes* per backend.

    Words are decoded from codes at runtime (Kautz forbids adjacent repeats,
    so raw digit lists would generate non-nodes); embed queries always run
    on ``B(_D, _N)`` and use that backend's coding.
    """
    measure_nodes = get_topology(topology, _D, _N).num_nodes
    embed_nodes = get_topology("debruijn", _D, _N).num_nodes
    measure = st.fixed_dictionaries({
        "kind": st.just("measure"),
        "fault_codes": st.lists(st.integers(0, measure_nodes - 1), max_size=4),
    })
    embed = st.fixed_dictionaries({
        "kind": st.just("embed"),
        "fault_codes": st.lists(st.integers(0, embed_nodes - 1), max_size=3),
    })
    return st.lists(st.one_of(measure, embed), min_size=1, max_size=16)


@pytest.mark.parametrize("max_batch", _MAX_BATCHES)
@pytest.mark.parametrize("topology", sorted(available_topologies()))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_any_interleaving_matches_sequential_scalar(topology, max_batch, data):
    requests = data.draw(_requests_strategy(topology))
    order = data.draw(st.permutations(range(len(requests))))
    jitter = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.0002, 0.001]),
            min_size=len(requests),
            max_size=len(requests),
        )
    )
    topo = get_topology(topology, _D, _N)
    debruijn = get_topology("debruijn", _D, _N)
    for request in requests:
        backend = topo if request["kind"] == "measure" else debruijn
        request["faults"] = [
            list(backend.decode(code)) for code in request["fault_codes"]
        ]

    # ground truth: the same queries, one at a time, scalar path, fresh caches
    service = EmbeddingService()
    expected = []
    for request in requests:
        if request["kind"] == "measure":
            expected.append(_canonical(service.measure(
                _D, _N, faults=request["faults"], topology=topology
            ).as_dict()))
        else:
            expected.append(_canonical(
                service.embed(_D, _N, faults=request["faults"]).as_dict()
            ))

    async def main():
        gateway = BatchingGateway(
            GatewayConfig(port=0, max_batch=max_batch, max_wait_ms=1.0)
        )
        answers: list = [None] * len(requests)

        async def issue(index: int, delay: float):
            await asyncio.sleep(delay)
            request = requests[index]
            if request["kind"] == "measure":
                answers[index] = await gateway._measure({
                    "topology": topology, "d": _D, "n": _N,
                    "faults": request["faults"], "root": None,
                })
            else:
                answers[index] = await gateway._embed({
                    "d": _D, "n": _N, "faults": request["faults"],
                })
        try:
            await asyncio.gather(
                *[issue(i, jitter[pos]) for pos, i in enumerate(order)]
            )
        finally:
            for batcher in gateway._batchers.values():
                await batcher.close()
        return answers

    answers = asyncio.run(main())
    for index, (answer, want) in enumerate(zip(answers, expected)):
        assert _canonical(answer) == want, (
            f"request {index} ({requests[index]['kind']}) diverged on "
            f"{topology} with max_batch={max_batch}"
        )
