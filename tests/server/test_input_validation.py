"""Malformed numbers and unexpected failures come back as counted statuses.

Bodies are sent as raw bytes so JSON's non-standard ``Infinity`` and the
overflowing literal ``1e400`` (both parsed by Python as ``inf``) reach the
gateway exactly as a client could send them.
"""

import asyncio
import json

import pytest

from repro.engine import EmbeddingRequest, EmbeddingService
from repro.exceptions import InvalidParameterError
from repro.server.gateway import BatchingGateway, GatewayConfig


async def _post(host, port, path, body: bytes):
    """One raw ``POST``; returns ``(status line, decoded JSON body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
    head, _, text = response.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), json.loads(text)


def _serve(requests, patch=None):
    """Send ``[(path, body)]`` in order to a fresh gateway.

    Returns ``[(status line, body, errors counted so far)]``; ``patch`` may
    rewire the gateway before it starts.
    """

    async def main():
        gateway = BatchingGateway(GatewayConfig(port=0))
        if patch is not None:
            patch(gateway)
        await gateway.start()
        host, port = gateway.address
        out = []
        try:
            for path, body in requests:
                line, data = await _post(host, port, path, body)
                out.append((line, data, gateway.stats()["server"]["errors"]))
        finally:
            await gateway.close()
        return out

    return asyncio.run(main())


class TestOverflowingNumbers:
    BODIES = [
        ("/measure", b'{"d": Infinity, "n": 5}'),
        ("/measure", b'{"d": 2, "n": 3, "faults": [[0, 1e400, 1]]}'),
        ("/embed", b'{"d": 2, "n": Infinity}'),
    ]

    def test_each_is_a_counted_400(self):
        results = _serve(self.BODIES)
        for errors, (line, data, counted) in enumerate(results, start=1):
            assert line == "HTTP/1.1 400 Bad Request", data
            assert "must be integers" in data["error"]
            assert counted == errors

    def test_overflow_error_maps_to_400(self):
        def patch(gateway):
            def overflow(*args, **kwargs):
                raise OverflowError("cannot convert float infinity to integer")

            gateway.service.measure_query = overflow

        [(line, data, counted)] = _serve([("/measure", b'{"d": 2, "n": 5}')], patch)
        assert line == "HTTP/1.1 400 Bad Request"
        assert data["error"].startswith("OverflowError")
        assert counted == 1


class TestUnexpectedFailure:
    def test_any_other_exception_is_a_counted_500(self):
        def patch(gateway):
            def broken(*args, **kwargs):
                raise RuntimeError("boom")

            gateway.service.measure_query = broken

        results = _serve(
            [("/measure", b'{"d": 2, "n": 5}'), ("/embed", b'{"d": 2, "n": 4}')], patch
        )
        (line, data, counted), (embed_line, _, after) = results
        assert line == "HTTP/1.1 500 Internal Server Error"
        assert data == {"error": "internal server error", "cause": "RuntimeError"}
        assert counted == 1
        # the gateway keeps serving
        assert embed_line == "HTTP/1.1 200 OK" and after == 1


class TestNonIntegralNumbers:
    """``1.7`` is never truncated to ``1``: every endpoint answers 400."""

    MEASURE = {"topology": "debruijn", "d": 2, "n": 3, "faults": [[0, 1, 0]], "root": None}
    EMBED = {"d": 2, "n": 3, "faults": [[0, 1, 0]], "root_hint": None}
    CHURN = {"d": 2, "n": 3, "op": "fault", "node": [0, 1, 0], "seq": 0}

    @pytest.mark.parametrize(
        "path, base, change",
        [
            ("/measure", MEASURE, {"faults": [[0, 1.7, 0]]}),
            ("/measure", MEASURE, {"d": 2.9}),
            ("/measure", MEASURE, {"n": 3.5}),
            ("/measure", MEASURE, {"root": [0, 1.2, 1]}),
            ("/embed", EMBED, {"faults": [[0, 1.7, 0]]}),
            ("/embed", EMBED, {"d": 2.9}),
            ("/embed", EMBED, {"root_hint": [0, 1.2, 1]}),
            ("/churn", CHURN, {"node": [0, 1.7, 0]}),
            ("/churn", CHURN, {"d": 2.9}),
            ("/churn", CHURN, {"root_hint": [0, 1.2, 1]}),
            ("/churn", CHURN, {"seq": 0.5}),
            ("/churn", CHURN, {"seq": 1.7}),
        ],
    )
    def test_rejected_with_400(self, path, base, change):
        body = json.dumps({**base, **change}).encode()
        [(line, data, counted)] = _serve([(path, body)])
        assert line == "HTTP/1.1 400 Bad Request", data
        assert data["error"].startswith("InvalidParameterError")
        assert counted == 1

    @pytest.mark.parametrize(
        "path, base", [("/measure", MEASURE), ("/embed", EMBED), ("/churn", CHURN)]
    )
    def test_integer_valued_floats_are_accepted(self, path, base):
        exact = json.dumps(base).encode()
        floats = json.dumps({**base, "d": 2.0, "n": 3.0}).encode()
        (_, want, _), (line, got, _) = _serve([(path, exact), (path, floats)])
        assert line == "HTTP/1.1 200 OK"
        drop = ("cached", "elapsed_s", "trace_id", "seq")
        if path == "/churn":
            # the replayed seq 0 returns the stored answer of the first event
            assert got == want
        else:
            assert {k: v for k, v in got.items() if k not in drop} == {
                k: v for k, v in want.items() if k not in drop
            }

    def test_service_paths_reject_the_same_numbers(self):
        service = EmbeddingService()
        with pytest.raises(InvalidParameterError):
            service.measure(2, 3, faults=[(0, 1.7, 0)])
        with pytest.raises(InvalidParameterError):
            service.measure(2.9, 3)
        with pytest.raises(InvalidParameterError):
            service.measure(2, 3, root=(0, 1.2, 1))
        with pytest.raises(InvalidParameterError):
            EmbeddingRequest.make(2, 3, faults=[(0, 1.7, 0)])
        with pytest.raises(InvalidParameterError):
            service.apply_event(2, 3, "fault", (0, 1.7, 0))
        # refused as a non-integer, not merely as an out-of-order seq
        with pytest.raises(InvalidParameterError, match="churn seq must be integers"):
            service.apply_event(2, 3, "fault", (0, 1, 0), seq=0.5)

    def test_rejected_seq_leaves_the_session_at_its_last_applied_seq(self):
        service = EmbeddingService()
        service.apply_event(2, 3, "fault", (0, 0, 1), seq=0)
        with pytest.raises(InvalidParameterError, match="churn seq must be integers"):
            service.apply_event(2, 3, "fault", (0, 1, 1), seq=1.5)
        # 1.5 was not applied as seq 1: seq 1 is still free for a new event,
        # and the refused fault never entered the session
        response = service.apply_event(2, 3, "heal", (0, 0, 1), seq=1)
        assert response.faults == ()
