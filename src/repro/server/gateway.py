"""The asyncio HTTP gateway: ``python -m repro serve``.

A deliberately small stdlib-only HTTP/1.1 server (keep-alive, JSON bodies)
— no web framework is baked into the container, and the surface is four
routes:

``POST /measure``
    ``{"topology": "kautz", "d": 2, "n": 8, "faults": [[0,1,...], ...],
    "root": null}`` — the topology-generic fault-free-region query.
    The :class:`~repro.engine.service.EmbeddingService` normalises the
    request to canonical fault-unit representatives and a root code and
    answers it from its measurement cache when possible; a miss goes to the
    shard's :class:`~repro.server.batcher.MicroBatcher`, which launches it
    as soon as the kernel is free, together with every miss queued by then
    (<= 64 lanes per launch, each with its own root), and hands the answer
    back to the service, which builds the
    :class:`~repro.engine.service.MeasureResponse` — the scalar service path
    with the batcher in place of the direct executor call.

``POST /embed``
    ``{"d": 2, "n": 10, "faults": [...], "root_hint": null}`` — one FFC
    ring query, served by the shared (thread-safe)
    :class:`~repro.engine.service.EmbeddingService` on a worker thread (the
    FFC construction is scalar; its answer cache still makes hot fault sets
    cheap).  ``"include_cycle": false`` drops the (possibly huge) cycle
    payload.

``GET /stats``
    Request/latency/batch-occupancy metrics per shard, gateway totals, the
    service's measurement cache, and the full engine cache audit
    (:meth:`EmbeddingService.stats`).

``GET /healthz``
    Liveness probe.

``GET /metrics``
    Prometheus text exposition (format 0.0.4) of every metric the process
    holds: the gateway's own registry (requests, errors, latency, per-shard
    batcher counters), the embedding service's, and the process-wide
    default registry (kernel launch/lane/level profiling).  ``python -m
    repro stats`` scrapes and pretty-prints this endpoint.

``GET /traces``
    Recently finished request traces as JSON Lines, one trace per line
    (``?id=<trace_id>`` selects one).  Every ``POST /measure`` is traced:
    the gateway mints a trace id (or adopts a valid ``X-Trace-Id`` header),
    the id is echoed in the response's ``trace_id`` field, and the exported
    spans tile the request — ``gateway`` (parse/normalise/cache lookup),
    ``queue`` (until the shard seals the request's launch), ``batch``
    (assembly and the hand-offs to and from a kernel thread, one span each
    way), ``kernel`` (the shared launch), ``fallback`` (root-dead peeling,
    when taken) and ``reply`` (response build).

One executor shard — one :class:`MicroBatcher` over one process-wide
:func:`~repro.engine.executor.cached_executor` — exists per
``(topology, d, n)`` served; the root rides per lane, so naming many roots
adds no shards.  Every shard launches on the one process-wide kernel
pool (a thread per core), so serving more graphs adds no threads either.
Graphs above :data:`~repro.words.codec.MAX_NODES` nodes or
:data:`~repro.words.codec.MAX_TABLE_ENTRIES` gather-table entries are
refused with a 400 before any table is built.  Bounded shard queues shed
load as HTTP 503; malformed requests are 400s, and any other failure is a
counted 500 naming the exception type.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial

from ..churn.chaos import ChaosConfig, ChaosInjector
from ..engine.service import EmbeddingRequest, EmbeddingService, MeasureQuery
from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    ReproError,
    ServerStateError,
)
from ..graphs.msbfs import WORD_WIDTH
from ..obs import DEFAULT_REGISTRY, MetricsRegistry, Tracer
from ..obs.metrics import render_registries
from ..obs.tracing import Trace
from ..topology import DEFAULT_TOPOLOGY
from .batcher import MicroBatcher, QueueFullError, latency_percentiles

__all__ = ["GatewayConfig", "BatchingGateway", "run"]

_MAX_HEADER_BYTES = 64 * 1024

#: Content type of the Prometheus text exposition format.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class _TextResponse:
    """A non-JSON route result (``/metrics`` exposition, ``/traces`` JSONL)."""

    text: str
    content_type: str


class _ChaosDropConnection(Exception):
    """Raised by the chaos middleware to reset the connection unanswered."""


def _query_param(query: str, name: str) -> str | None:
    """The first value of ``name`` in a raw query string (no unquoting:
    trace ids are ``[A-Za-z0-9._-]`` so percent-encoding never applies)."""
    for part in query.split("&"):
        key, sep, value = part.partition("=")
        if sep and key == name:
            return value
    return None


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the serving front-end (see ``python -m repro serve --help``).

    ``max_batch`` caps the lanes per kernel launch.  Launches are
    work-conserving: a request never waits for lane-mates, it joins
    whatever is queued when the kernel next comes free.  ``queue_limit`` bounds
    each shard's pending requests — beyond it the gateway sheds load with
    HTTP 503 instead of buffering unboundedly (backpressure).
    """

    host: str = "127.0.0.1"
    port: int = 8787
    max_batch: int = WORD_WIDTH
    queue_limit: int = 1024
    max_cached_answers: int = 256
    max_body_bytes: int = 1024 * 1024
    #: default per-request deadline for /measure (0 = none); requests may
    #: override with a "deadline_ms" payload field
    deadline_ms: float = 0.0
    #: serve guarantee-bound-only answers flagged ``degraded: true`` when a
    #: shard queue saturates, instead of a hard 503
    degraded: bool = False
    #: fault-injection middleware knobs (None/disabled = no injection)
    chaos: ChaosConfig | None = None
    #: seconds the graceful drain waits for in-flight batches on SIGTERM
    drain_timeout_s: float = 10.0


class BatchingGateway:
    """The serving process: shards, batchers, HTTP front-end, metrics."""

    def __init__(
        self,
        config: GatewayConfig | None = None,
        service: EmbeddingService | None = None,
    ) -> None:
        self.config = config or GatewayConfig()
        #: this gateway's metrics — the single backing store for /stats and
        #: the gateway/shard portion of /metrics (per-instance so concurrent
        #: gateways in one process never share counters)
        self.registry = MetricsRegistry()
        #: ring of finished request traces served by GET /traces
        self.tracer = Tracer()
        self.service = service or EmbeddingService(
            max_cached_answers=self.config.max_cached_answers,
            registry=self.registry,
        )
        #: one micro-batcher per ``(topology, d, n)`` served, by shard name
        self._batchers: dict[str, MicroBatcher] = {}
        self._server: asyncio.AbstractServer | None = None
        self._started = time.time()
        self._obs_requests = self.registry.counter(
            "repro_gateway_requests_total",
            "HTTP requests received",
            labelnames=("endpoint",),
        )
        self._obs_errors = self.registry.counter(
            "repro_gateway_errors_total", "HTTP responses with status >= 400"
        )
        # bounded reservoir (the old deque, now a histogram sample window):
        # p50/p99 on /stats come from .samples(), the buckets feed /metrics
        self._obs_request_seconds = self.registry.histogram(
            "repro_gateway_request_seconds",
            "End-to-end request wall time at the gateway",
        )
        self._obs_uptime = self.registry.gauge(
            "repro_gateway_uptime_seconds", "Seconds since gateway start"
        )
        self._obs_degraded = self.registry.counter(
            "repro_gateway_degraded_total",
            "Requests answered in graceful-degradation mode (bound-only)",
        )
        self._obs_retried = self.registry.counter(
            "repro_gateway_retried_requests_total",
            "Requests arriving with a nonzero X-Retry-Attempt header",
        )
        self._chaos: ChaosInjector | None = None
        if self.config.chaos is not None and self.config.chaos.enabled:
            self._chaos = ChaosInjector(self.config.chaos, registry=self.registry)

    # -- shards ----------------------------------------------------------------
    def _shard(self, query: MeasureQuery) -> MicroBatcher:
        """The (lazily created) micro-batcher of the query's executor shard,
        named after its graph: ``kautz(2,8)``."""
        topo = query.topology
        name = f"{topo.key}({topo.d},{topo.n})"
        batcher = self._batchers.get(name)
        if batcher is None:
            batcher = MicroBatcher(
                query.executor,
                max_batch=self.config.max_batch,
                max_queue=self.config.queue_limit,
                registry=self.registry,
                shard=name,
            )
            self._batchers[name] = batcher
        return batcher

    # -- endpoint implementations ----------------------------------------------
    async def _measure(
        self, payload: dict, trace: Trace | None = None, saturate: bool = False
    ) -> dict:
        """POST /measure: the service's measurement, with the batcher between
        its normalise and respond steps (see :meth:`EmbeddingService.measure`).

        A saturated shard answers with the service's degraded bound-only
        response when ``degraded`` mode is on, otherwise sheds the request.
        """
        query = self.service.measure_query(
            payload["d"],
            payload["n"],
            payload.get("faults") or [],
            payload.get("root"),
            str(payload.get("topology", DEFAULT_TOPOLOGY)),
        )
        if trace is not None:
            # parse + normalise + cache lookup; the queue/batch/kernel spans
            # (cache misses only) are recorded downstream
            trace.add_span("gateway", query.start, time.perf_counter())
        measured = query.cached
        if saturate:
            # injected saturation models a fully saturated shard: it must
            # bite deterministically, so a cache hit cannot absorb it
            measured = None
            if not self.config.degraded:
                raise QueueFullError("chaos: injected queue saturation")
        elif measured is None:
            deadline_ms = float(
                payload.get("deadline_ms", self.config.deadline_ms) or 0.0
            )
            mask_start = time.perf_counter()
            removed = query.removed_mask()
            if trace is not None:
                trace.add_span("mask", mask_start, time.perf_counter())
            try:
                measured = await self._shard(query).submit(
                    removed,
                    query.root_code,
                    trace,
                    deadline_s=deadline_ms / 1000.0 if deadline_ms > 0 else None,
                )
            except QueueFullError:
                if not self.config.degraded:
                    raise
        if measured is None:
            self._obs_degraded.inc()
        reply_start = time.perf_counter()
        data = self.service.measure_response(query, measured).as_dict()
        if trace is not None:
            end = time.perf_counter()
            trace.add_span("reply", reply_start, end)
            trace.finish(elapsed_s=end - query.start)
            data["trace_id"] = trace.trace_id
        return data

    async def _embed(self, payload: dict) -> dict:
        request = EmbeddingRequest.make(
            payload["d"],
            payload["n"],
            faults=payload.get("faults") or [],
            root_hint=payload.get("root_hint"),
        )
        # the FFC construction is scalar CPU work: keep the loop responsive
        # by running it on a worker thread (the service is thread-safe)
        response = await asyncio.get_running_loop().run_in_executor(
            None, self.service.submit, request
        )
        return response.as_dict(include_cycle=bool(payload.get("include_cycle", True)))

    async def _churn(self, payload: dict) -> dict:
        """POST /churn: apply one dynamic-fault event to the embedding service.

        ``{"d": 2, "n": 8, "op": "fault"|"heal"|"reset", "node": [...],
        "seq": 0, "root_hint": null, "include_cycle": true}`` — see
        :meth:`EmbeddingService.apply_event` for the incremental
        re-embedding and seq-idempotency contract.  ``op: "reset"`` clears
        the session so a scenario always starts from an empty fault set.
        """
        op = str(payload.get("op", ""))
        d, n = payload["d"], payload["n"]
        hint = payload.get("root_hint")
        loop = asyncio.get_running_loop()
        if op == "reset":
            await loop.run_in_executor(
                None, partial(self.service.reset_churn, d, n, hint)
            )
            # reset_churn accepted d and n as integer-valued
            return {"status": "reset", "d": int(d), "n": int(n)}
        seq = payload.get("seq")
        call = partial(
            self.service.apply_event,
            d,
            n,
            op,
            payload["node"],
            root_hint=hint,
            seq=seq,
        )
        response = await loop.run_in_executor(None, call)
        data = response.as_dict(include_cycle=bool(payload.get("include_cycle", True)))
        if seq is not None:
            # echoed so a retrying client can pair answer with delivery;
            # apply_event accepted it as integer-valued
            data["seq"] = int(seq)
        return data

    def stats(self) -> dict:
        """Gateway metrics + shard batchers + caches + the engine audit.

        Every scalar is a view over the gateway's metrics registry; the key
        set is the stable PR 5 ``/stats`` schema and must not change.
        """
        shards = {name: b.stats() for name, b in self._batchers.items()}
        launches = sum(s["launches"] for s in shards.values())
        lanes = sum(s["lanes"] for s in shards.values())
        server = {
            "uptime_s": time.time() - self._started,
            "requests": {
                labelvalues[0]: int(value)
                for labelvalues, value in self._obs_requests.items()
            },
            "errors": int(self._obs_errors.value()),
            "launches": launches,
            "lanes": lanes,
            "batch_occupancy": lanes / launches if launches else 0.0,
            "rejected": sum(s["rejected"] for s in shards.values()),
            "degraded": int(self._obs_degraded.value()),
            "retried": int(self._obs_retried.value()),
        }
        server.update(latency_percentiles(self._obs_request_seconds.samples()))
        service = self.service.stats()
        return {
            "server": server,
            "shards": shards,
            # a view: the service's measurement cache is the one /measure cache
            "measure_cache": service["measurements"],
            "service": service,
        }

    def metrics_text(self) -> str:
        """The full Prometheus exposition: gateway + service + process-wide."""
        self._obs_uptime.set(time.time() - self._started)
        registries = [self.registry]
        if self.service.registry is not self.registry:
            registries.append(self.service.registry)
        registries.append(DEFAULT_REGISTRY)
        return render_registries(registries)

    # -- HTTP plumbing ---------------------------------------------------------
    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict | _TextResponse]:
        headers = headers or {}
        path, _, query = target.partition("?")
        endpoint = f"{method} {path}"
        self._obs_requests.labels(endpoint).inc()
        try:
            if method == "GET" and path == "/healthz":
                return 200, {"status": "ok"}
            if method == "GET" and path == "/stats":
                return 200, self.stats()
            if method == "GET" and path == "/metrics":
                return 200, _TextResponse(self.metrics_text(), _PROMETHEUS_CONTENT_TYPE)
            if method == "GET" and path == "/traces":
                trace_id = _query_param(query, "id")
                return 200, _TextResponse(
                    self.tracer.export_jsonl(trace_id), "application/x-ndjson"
                )
            if method == "POST" and path in ("/measure", "/embed", "/churn"):
                try:
                    attempt = int(headers.get("x-retry-attempt", "0") or "0")
                except ValueError:
                    attempt = 0
                if attempt > 0:
                    self._obs_retried.inc()
                decision = None if self._chaos is None else self._chaos.decide(endpoint)
                if decision is not None:
                    if decision.kind == "drop":
                        raise _ChaosDropConnection()
                    if decision.kind == "error":
                        return 503, {"error": "chaos: injected error", "retry": True}
                    if decision.kind == "delay":
                        await asyncio.sleep(decision.delay_s)
                try:
                    payload = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    return 400, {"error": f"invalid JSON body: {exc}"}
                if not isinstance(payload, dict):
                    return 400, {"error": "JSON body must be an object"}
                saturate = decision is not None and decision.kind == "saturate"
                if path == "/measure":
                    try:
                        trace = self.tracer.trace(headers.get("x-trace-id"))
                    except InvalidParameterError as exc:
                        return 400, {"error": f"InvalidParameterError: {exc}"}
                    return 200, await self._measure(payload, trace, saturate=saturate)
                if saturate:
                    # /embed and /churn have no bound-only fallback: injected
                    # saturation sheds them as retryable 503s
                    return 503, {"error": "chaos: injected queue saturation",
                                 "retry": True}
                if path == "/churn":
                    return 200, await self._churn(payload)
                return 200, await self._embed(payload)
            return 404, {"error": f"no route {method} {path}"}
        except _ChaosDropConnection:
            raise
        except QueueFullError as exc:
            return 503, {"error": str(exc), "retry": True}
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc), "retry": True}
        except (ReproError, KeyError, ValueError, TypeError, OverflowError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:
            # the gateway must keep serving: report the traceback to the
            # server log, the exception type to the client, count it as an error
            traceback.print_exc(file=sys.stderr)
            return 500, {"error": "internal server error", "cause": type(exc).__name__}

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # client went away between requests
                except asyncio.LimitOverrunError:
                    await self._refuse(writer, 431, "headers too large")
                    return
                started = time.perf_counter()
                request_line, _, header_blob = head.partition(b"\r\n")
                try:
                    method, target, version = request_line.decode("latin-1").split(" ", 2)
                except ValueError:
                    await self._refuse(writer, 400, "bad request line")
                    return
                headers = {}
                for line in header_blob.decode("latin-1").split("\r\n"):
                    name, sep, value = line.partition(":")
                    if sep:
                        headers[name.strip().lower()] = value.strip()
                if "transfer-encoding" in headers:
                    # only Content-Length framing is implemented; ignoring a
                    # chunked body would desync the keep-alive stream, so
                    # refuse loudly and drop the connection
                    await self._refuse(writer, 501, "Transfer-Encoding not supported")
                    return
                # HTTP allows ASCII digits only: int() would also take "-1",
                # "+5" and "1_0"
                raw_length = headers.get("content-length", "0")
                if not (raw_length.isascii() and raw_length.isdigit()):
                    await self._refuse(writer, 400, "bad Content-Length")
                    return
                # more digits than the cap is over it: int() never sees them
                digits = raw_length.lstrip("0") or "0"
                cap = self.config.max_body_bytes
                length = int(digits) if len(digits) <= len(str(cap)) else None
                if length is None or length > cap:
                    await self._refuse(writer, 413, "body too large")
                    return
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload = await self._route(
                        method.upper(), target, body, headers
                    )
                except _ChaosDropConnection:
                    return  # injected connection reset: close without replying
                if status >= 400:
                    self._obs_errors.inc()
                close = (
                    headers.get("connection", "").lower() == "close"
                    or version.strip().upper() == "HTTP/1.0"
                )
                self._obs_request_seconds.observe(time.perf_counter() - started)
                await self._respond(writer, status, payload, close)
                if close:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # mid-request disconnects are the client's prerogative
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    _REASONS = {
        200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Payload Too Large",
        431: "Request Header Fields Too Large", 500: "Internal Server Error",
        501: "Not Implemented",
        503: "Service Unavailable", 504: "Gateway Timeout",
    }

    async def _refuse(self, writer: asyncio.StreamWriter, status: int, error: str) -> None:
        """Answer an unframeable request with a counted error and close: the
        rest of the stream cannot be trusted to start at a request."""
        self._obs_errors.inc()
        await self._respond(writer, status, {"error": error}, True)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | _TextResponse,
        close: bool,
    ) -> None:
        if isinstance(payload, _TextResponse):
            data = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` = ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=_MAX_HEADER_BYTES,
        )

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is None:
            raise ServerStateError("gateway not started: call start() before address")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServerStateError("gateway not started: call start() before serve_forever()")
        await self._server.serve_forever()

    async def drain(self, timeout_s: float | None = None) -> None:
        """Graceful drain: stop accepting, then flush everything accepted.

        Closes the listener (new connections are refused), then waits — up
        to ``timeout_s`` (default :attr:`GatewayConfig.drain_timeout_s`) —
        until every shard batcher reports no queued or in-flight request.
        In-flight HTTP exchanges on already-open connections complete
        normally; nothing dies mid-batch.
        """
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while any(b.pending() for b in self._batchers.values()):
            if loop.time() >= deadline:
                break
            await asyncio.sleep(0.02)

    async def close(self) -> None:
        """Stop accepting and fail every shard's queued requests (a launch in
        flight still answers its own)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for batcher in self._batchers.values():
            await batcher.close()


def run(config: GatewayConfig | None = None) -> int:
    """Blocking entry point for ``python -m repro serve``.

    SIGTERM/SIGINT trigger a graceful drain: the listener closes, in-flight
    batches flush (:meth:`BatchingGateway.drain`), a final ``/stats``
    snapshot lands on stderr as one JSON line, and the process exits 0.
    """

    async def _serve() -> None:
        gateway = BatchingGateway(config)
        await gateway.start()
        host, port = gateway.address
        extras = ""
        if gateway.config.degraded:
            extras += ", degraded-mode"
        if gateway._chaos is not None:
            extras += ", chaos-injection"
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal handlers (e.g. Windows)
        # the banner doubles as the readiness signal: by the time it prints,
        # the listener is bound AND a SIGTERM already drains gracefully
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(max_batch={gateway.config.max_batch}, "
            f"queue_limit={gateway.config.queue_limit}{extras})",
            flush=True,
        )
        serve_task = asyncio.ensure_future(gateway.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            done, _ = await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop_task in done:
                await gateway.drain()
                # the final observability snapshot of the drained process
                print(json.dumps(gateway.stats()), file=sys.stderr, flush=True)
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            await gateway.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0
