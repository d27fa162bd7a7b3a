"""Malformed numbers and unexpected failures come back as counted statuses.

Bodies are sent as raw bytes so JSON's non-standard ``Infinity`` and the
overflowing literal ``1e400`` (both parsed by Python as ``inf``) reach the
gateway exactly as a client could send them.
"""

import asyncio
import json
import tracemalloc

import pytest

from repro.engine import EmbeddingRequest, EmbeddingService
from repro.exceptions import InvalidParameterError
from repro.server.gateway import BatchingGateway, GatewayConfig
from repro.topology import get_topology
from repro.words.codec import MAX_NODES, MAX_TABLE_ENTRIES


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


def _framed(value: str, extra_headers: str = ""):
    """Send a ``POST /measure`` with body ``{}`` under ``Content-Length:
    value`` to a fresh gateway; returns ``(status line, head, body, errors)``
    once the gateway closes the connection."""

    async def main():
        gateway = BatchingGateway(GatewayConfig(port=0))
        await gateway.start()
        host, port = gateway.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"POST /measure HTTP/1.1\r\nHost: x\r\n{extra_headers}"
                f"Content-Length: {value}\r\n\r\n{{}}".encode()
            )
            await writer.drain()
            # read() returns at EOF: the gateway closed the connection
            response = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return response, gateway.stats()["server"]["errors"]
        finally:
            await gateway.close()

    response, errors = asyncio.run(main())
    head, _, body = response.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], head, json.loads(body), errors


class TestContentLength:
    @pytest.mark.parametrize("value", ["-1", "-4096", "ten", "+2", "1_0", ""])
    def test_unusable_length_is_a_counted_400_that_closes(self, value):
        line, head, body, errors = _framed(value)
        assert line == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in head
        assert body == {"error": "bad Content-Length"}
        assert errors == 1

    # the 5000-digit lengths are past int()'s default digit limit (4300)
    @pytest.mark.parametrize(
        "value", ["1048577", "1" + "0" * 5000, "9" * 5000], ids=["cap+1", "1e5000", "9x5000"]
    )
    def test_length_over_the_cap_is_a_counted_413_that_closes(self, value):
        line, head, body, errors = _framed(value)
        assert line == b"HTTP/1.1 413 Payload Too Large"
        assert b"Connection: close" in head
        assert body == {"error": "body too large"}
        assert errors == 1

    def test_leading_zeros_do_not_count_against_the_cap(self):
        # 5000 zeros then "2" frames the two-byte body "{}", which /measure
        # then refuses for its missing parameters, not for its framing
        line, _, body, _ = _framed("0" * 5000 + "2", "Connection: close\r\n")
        assert line == b"HTTP/1.1 400 Bad Request"
        assert body == {"error": "KeyError: 'd'"}


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


class TestNodeCeiling:
    """Graphs above ``MAX_NODES`` nodes or ``MAX_TABLE_ENTRIES`` gather-table
    entries are 400s before any table is allocated."""

    BODIES = [
        ("/measure", b'{"d": 2, "n": 40}'),
        ("/embed", b'{"d": 2, "n": 40}'),
        ("/churn", b'{"d": 2, "n": 40, "op": "fault", "node": [0]}'),
        ("/measure", b'{"topology": "kautz", "d": 2, "n": 19}'),
        ("/measure", b'{"topology": "hypercube", "d": 2, "n": 21}'),
        ("/measure", b'{"d": 3, "n": 1000000000}'),
        # 2**20 nodes (admitted) but a 2**20 x 2048 gather table
        ("/measure", b'{"d": 1024, "n": 2}'),
        ("/embed", b'{"d": 1024, "n": 2}'),
        ("/churn", b'{"d": 1024, "n": 2, "op": "fault", "node": [0, 1]}'),
    ]

    def test_each_is_a_counted_400(self):
        results = _serve(self.BODIES)
        for errors, (line, data, counted) in enumerate(results, start=1):
            assert line == "HTTP/1.1 400 Bad Request", data
            assert "node table" in data["error"]
            assert counted == errors

    @pytest.mark.parametrize(
        "topology, d, n",
        [
            ("debruijn", 2, 21),
            ("undirected_debruijn", 4, 11),
            ("shuffle_exchange", 2, 21),
            ("hypercube", 2, 21),
            # 786k nodes, but its dense (d+1)**n coding lookup is 3**19 entries
            ("kautz", 2, 19),
            # few enough nodes, too many gather-table columns
            ("debruijn", 1024, 2),
            ("undirected_debruijn", 1024, 2),
            ("shuffle_exchange", 1024, 2),
            ("kautz", 1023, 2),
        ],
    )
    def test_backends_refuse_before_building(self, topology, d, n):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="node table"):
                get_topology(topology, d, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # no node-sized table was built first

    def test_the_ceiling_admits_the_largest_benchmarked_graphs(self):
        assert get_topology("debruijn", 4, 10).num_nodes == MAX_NODES
        assert get_topology("hypercube", 2, 20).num_nodes == MAX_NODES
        assert get_topology("kautz", 3, 10).num_nodes < MAX_NODES
        # Q(20)'s 20 columns are its widest table
        assert get_topology("hypercube", 2, 20).num_nodes * 20 <= MAX_TABLE_ENTRIES
