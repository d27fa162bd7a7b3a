"""Stdlib-only clients for the serving gateway.

:class:`ServeClient` is the scripting-friendly blocking client (urllib, one
request per call).  :class:`AsyncServeClient` holds ONE persistent HTTP/1.1
connection and issues sequential requests over it — the load-generation
building block: the test suite and the CI smoke driver open many of
them and fire concurrently, which is exactly the traffic shape the
micro-batcher coalesces.

Both clients retry transient failures — HTTP 503 (backpressure, injected
chaos errors) and connection resets/drops — with exponential backoff plus
*seeded* jitter (``random.Random(seed)``: retry schedules replay exactly,
like every other random stream in this repo).  Retried requests carry an
``X-Retry-Attempt`` header so the gateway's
``repro_gateway_retried_requests_total`` counter observes them.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time
import urllib.error
import urllib.request
from collections.abc import Iterable, Sequence

__all__ = ["ServeClient", "AsyncServeClient", "fire_measure"]

#: HTTP statuses worth retrying: pure load-shedding responses.
_RETRYABLE_STATUSES = (503,)


def _backoff_s(base_s: float, attempt: int, rng: random.Random) -> float:
    """Exponential backoff with multiplicative jitter for retry ``attempt``."""
    return base_s * (2 ** attempt) * (1.0 + rng.random())


class ServeClient:
    """Blocking JSON client: ``ServeClient("http://127.0.0.1:8787")``.

    ``retries`` transient-failure retries per request (0 = fail fast) with
    exponential backoff starting at ``backoff_base_s``, jittered by the
    ``seed``-ed stream.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_base_s = float(backoff_base_s)
        self._rng = random.Random(seed)
        #: total retry attempts made by this client (scenario reports read it)
        self.retries_total = 0

    def _request_once(
        self, method: str, path: str, payload: dict | None, attempt: int
    ) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if attempt > 0:
            headers["X-Retry-Attempt"] = str(attempt)
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload, attempt)
            except urllib.error.HTTPError as exc:
                if exc.code not in _RETRYABLE_STATUSES or attempt >= self.retries:
                    raise
            except (
                urllib.error.URLError,
                ConnectionError,
                http.client.HTTPException,
            ):
                # connection reset / dropped mid-exchange (chaos "drop")
                if attempt >= self.retries:
                    raise
            self.retries_total += 1
            time.sleep(_backoff_s(self.backoff_base_s, attempt, self._rng))
            attempt += 1

    def measure(
        self,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root: Sequence[int] | None = None,
        topology: str = "debruijn",
    ) -> dict:
        return self._request("POST", "/measure", {
            "topology": topology, "d": d, "n": n,
            "faults": [list(w) for w in faults],
            "root": None if root is None else list(root),
        })

    def embed(
        self,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root_hint: Sequence[int] | None = None,
        include_cycle: bool = True,
    ) -> dict:
        return self._request("POST", "/embed", {
            "d": d, "n": n, "faults": [list(w) for w in faults],
            "root_hint": None if root_hint is None else list(root_hint),
            "include_cycle": include_cycle,
        })

    def churn(
        self,
        d: int,
        n: int,
        op: str,
        node: Sequence[int] | None = None,
        seq: int | None = None,
        root_hint: Sequence[int] | None = None,
        include_cycle: bool = True,
    ) -> dict:
        """Apply one churn event (``op`` in fault/heal/reset) via POST /churn.

        Safe under this client's retries: the gateway replays the stored
        answer when the same ``seq`` is redelivered.
        """
        return self._request("POST", "/churn", {
            "d": d, "n": n, "op": op,
            "node": None if node is None else list(node),
            "seq": seq,
            "root_hint": None if root_hint is None else list(root_hint),
            "include_cycle": include_cycle,
        })

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def _request_text(self, path: str) -> str:
        request = urllib.request.Request(self.base_url + path, method="GET")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    def metrics(self) -> str:
        """The raw Prometheus text exposition of ``GET /metrics``."""
        return self._request_text("/metrics")

    def traces(self, trace_id: str | None = None) -> str:
        """The JSONL trace export of ``GET /traces`` (optionally one id)."""
        path = "/traces" if trace_id is None else f"/traces?id={trace_id}"
        return self._request_text(path)


class AsyncServeClient:
    """One persistent keep-alive connection; sequential JSON requests.

    Use ``await AsyncServeClient.open(host, port)`` and ``await close()``.
    Not task-safe: one in-flight request per client (open many clients for
    concurrency — each models one caller of the service).
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 host: str, port: int, retries: int = 0,
                 backoff_base_s: float = 0.05, seed: int = 0) -> None:
        self._reader = reader
        self._writer = writer
        self._host, self._port = host, port
        self.retries = int(retries)
        self.backoff_base_s = float(backoff_base_s)
        self._rng = random.Random(seed)
        #: total retry attempts made by this client
        self.retries_total = 0

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        seed: int = 0,
    ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host, port, retries=retries,
                   backoff_base_s=backoff_base_s, seed=seed)

    async def _reconnect(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict]:
        """Issue one request; returns ``(status, decoded_json)``.

        Retries transient failures (HTTP 503, connection reset/drop — the
        connection is reopened) up to ``self.retries`` times with seeded
        exponential backoff, tagging retried deliveries with
        ``X-Retry-Attempt``.
        """
        attempt = 0
        while True:
            sent = dict(headers or {})
            if attempt > 0:
                sent["X-Retry-Attempt"] = str(attempt)
            try:
                status, _, text = await self.request_raw(method, path, payload, sent)
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                IndexError,  # empty status line: server closed mid-exchange
            ):
                if attempt >= self.retries:
                    raise
                await self._reconnect()
            else:
                if status not in _RETRYABLE_STATUSES or attempt >= self.retries:
                    return status, json.loads(text)
            self.retries_total += 1
            await asyncio.sleep(_backoff_s(self.backoff_base_s, attempt, self._rng))
            attempt += 1

    async def request_raw(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, str, str]:
        """Issue one request; returns ``(status, content_type, body_text)``.

        The undecoded variant for the non-JSON routes (``/metrics``
        exposition text, ``/traces`` JSONL); ``headers`` adds extra request
        headers such as ``X-Trace-Id``.
        """
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        length = 0
        content_type = ""
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
            elif name.strip().lower() == "content-type":
                content_type = value.strip()
        data = await self._reader.readexactly(length)
        return status, content_type, data.decode("utf-8")

    async def measure(
        self,
        d: int,
        n: int,
        faults: Iterable[Sequence[int]] = (),
        root: Sequence[int] | None = None,
        topology: str = "debruijn",
    ) -> tuple[int, dict]:
        return await self.request("POST", "/measure", {
            "topology": topology, "d": d, "n": n,
            "faults": [list(w) for w in faults],
            "root": None if root is None else list(root),
        })

    async def stats(self) -> tuple[int, dict]:
        return await self.request("GET", "/stats")

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def fire_measure(
    host: str, port: int, payloads: list[dict], concurrency: int
) -> tuple[list[dict], list[float]]:
    """Issue every payload as ``POST /measure`` over ``concurrency`` connections.

    The shared load generator of the gateway tests and the CI smoke
    driver: each worker holds one persistent connection and pulls payloads
    from a shared queue — ``concurrency`` requests in flight at any moment,
    the traffic shape the micro-batcher coalesces.  Returns the answers (in
    payload order) and the per-request client-side latencies; any non-200
    raises ``AssertionError``.
    """
    queue: asyncio.Queue = asyncio.Queue()
    for item in enumerate(payloads):
        queue.put_nowait(item)
    answers: list[dict | None] = [None] * len(payloads)
    latencies: list[float] = []

    async def worker() -> None:
        client = await AsyncServeClient.open(host, port)
        try:
            while True:
                try:
                    i, payload = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                start = time.perf_counter()
                status, answer = await client.request("POST", "/measure", payload)
                latencies.append(time.perf_counter() - start)
                if status != 200:
                    raise AssertionError(
                        f"request {i} failed: HTTP {status} {answer}"
                    )
                answers[i] = answer
        finally:
            await client.close()

    await asyncio.gather(*[worker() for _ in range(max(1, concurrency))])
    return answers, latencies
