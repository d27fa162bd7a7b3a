"""Load generation against a ``python -m repro serve`` subprocess.

The generator is this process: one asyncio loop driving at most ``nproc``
keep-alive HTTP/1.1 connections.  Two loop shapes:

* **open loop** -- request ``i`` is due at ``t0 + offsets[i]`` (a seeded
  Poisson schedule); a free connection sleeps until the next request is
  due, sends it, and its latency is timed from the *due* time, so a stall
  also charges the requests queued behind it;
* **closed loop** -- each connection sends its next request as soon as the
  previous reply arrived, until the phase deadline or the inputs run out.

Request bodies are encoded before a phase starts and reply bodies are kept
as raw bytes: all parsing and answer checking happens after the timed
window, so the generator spends as little CPU as possible inside it.

``late`` of a request is how long after it *could* have been sent it was
sent -- after ``max(due, connection free)`` in the open loop, after the
connection became free in the closed loop.  It measures the generator
itself, not the server.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

#: Per-request timeout; a request that exceeds it counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Record:
    """One request as the generator saw it (``time.perf_counter`` seconds)."""

    index: int
    due: float
    sent: float
    end: float
    late: float
    status: int  # 0 = transport error or timeout
    body: bytes

    @property
    def latency(self) -> float:
        return self.end - self.due


class HttpConnection:
    """One keep-alive HTTP/1.1 connection (Content-Length framing only)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None

    async def request(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        status_line, _, header_blob = raw.partition(b"\r\n")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        for line in header_blob.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length) if length else b""
        return status, data


async def _send(conn: HttpConnection, path: str, body: bytes) -> tuple[int, bytes]:
    """One request; transport errors and timeouts become status 0."""
    try:
        return await asyncio.wait_for(conn.request(path, body), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ConnectionError, OSError, asyncio.IncompleteReadError,
            ValueError) as exc:
        await conn.close()  # the stream is desynchronised: reconnect next time
        return 0, repr(exc).encode()


async def _drive(ops, connections, offsets, seconds, address, spans):
    host, port = address
    clock = time.perf_counter
    conns = [HttpConnection(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
    records: list[Record] = []
    start = clock() + 0.01
    deadline = start + seconds
    indices = iter(range(len(ops)))

    async def worker(conn: HttpConnection) -> None:
        for i in indices:
            free = clock()
            if offsets is None:
                if free >= deadline:
                    return
                due = ready = max(free, start)
            else:
                due = start + offsets[i]
                ready = max(due, free)
            if ready > free:
                await asyncio.sleep(ready - free)
            sent = clock()
            path, body = ops[i]
            status, data = await _send(conn, path, body)
            end = clock()
            if spans is not None:
                spans.add("http", i, sent, end)
            records.append(Record(i, due, sent, end, sent - ready, status, data))

    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    records.sort(key=lambda r: r.index)
    last = max((r.end for r in records), default=start)
    return records, start, last


def run_open_loop(address, ops, offsets, connections, spans=None):
    """Open-loop phase over ``ops`` = ``[(path, body)]``: ``(records, start, last_end)``.

    With a span recorder, every request records an ``http`` span whose
    trace id is the request's index in ``ops``.
    """
    return asyncio.run(_drive(ops, connections, offsets, float("inf"), address, spans))


def run_closed_loop(address, ops, connections, seconds, spans=None):
    """Closed-loop phase of at most ``seconds``: ``(records, start, last_end)``."""
    return asyncio.run(_drive(ops, connections, None, seconds, address, spans))


class ServerProcess:
    """A ``python -m repro serve --port 0`` subprocess with default knobs."""

    def __init__(self, root: str, log_path: str, cpus: set[int] | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("REPRO_OBS_DISABLED", None)  # default knobs: metrics on
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            if cpus:
                # before the server starts any thread, so all of them inherit it
                os.sched_setaffinity(self.proc.pid, cpus)
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            banner = self.proc.stdout.readline().decode() if ready else ""
            if "listening on http://" not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
        except BaseException:
            self.stop()
            raise
        self.banner = banner.strip()
        address = banner.split("http://", 1)[1].split()[0]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)

    def post(self, path: str, payload: dict) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", path, json.dumps(payload), {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def metrics_text(self) -> str:
        """The ``GET /metrics`` exposition."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", "/metrics")
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it has not exited in 15 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
