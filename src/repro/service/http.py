"""asyncio HTTP/1.1 front-end for the engine: ``repro serve``.

One stdlib :mod:`asyncio` loop frames HTTP/1.1 itself (``Content-Length``
bodies, keep-alive) and answers warm requests on its own thread; all
work that computes runs in a pool of ``workers`` threads.  A request it
cannot frame gets a 400, 413, 431 or 501 and the connection closes.

Routes (see ``docs/API.md`` for the full reference)::

    GET  /healthz              liveness probe
    GET  /platforms            Table I catalog
    GET  /metrics              merged metrics + cache + job stats
    GET  /cache                cache stats
    POST /cache/clear          drop every cached artefact
    POST /solve                synchronous endpoints mirroring the CLI;
    POST /simulate             responses carry X-Repro-Cache (hit|miss)
    POST /dag/optimize         and X-Repro-Key (the content address)
    POST /jobs                 {"endpoint": ..., "request": {...}} -> 202
    GET  /jobs                 job listing
    GET  /jobs/<id>            lifecycle status document
    POST /jobs/<id>/cancel     cancel (cooperative once running)
    GET  /jobs/<id>/result     the finished payload (409 until done)
    GET  /jobs/<id>/profile    the job's per-run profile document
    GET  /jobs/<id>/trace      the job's Chrome trace-event timeline
    GET  /jobs/<id>/events     live job progress as Server-Sent Events
    GET  /events               engine-wide progress stream (SSE)

``/metrics?format=prometheus`` renders text exposition 0.0.4 for
scrapers; the JSON document stays the default.  Observability GETs are
served with ``Cache-Control: no-store`` — they are live state, not
cacheable artefacts (the artefacts live behind content addresses).

SSE streams honour ``Last-Event-ID`` (or ``?after=<seq>``) for resume,
send ``: heartbeat`` comments while idle (``?heartbeat_s=``), close
after ``?limit=`` events or ``?timeout_s=`` seconds when asked, and
signal bounded-ring truncation with an explicit ``event: truncated``
frame instead of silently skipping.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http import HTTPStatus
from time import monotonic
from urllib.parse import parse_qs, urlsplit

from ..api import SCHEMA_VERSION
from ..exceptions import InvalidParameterError, ReproError
from ..obs import get_logger
from ..obs.prometheus import PROMETHEUS_CONTENT_TYPE
from .engine import ENDPOINTS, Engine, _load_body
from .jobs import DONE, FAILED, TERMINAL, Job, JobQueue

logger = get_logger(__name__)

__all__ = ["ReproServer", "make_server", "serve"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEAD_BYTES = 64 * 1024
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

#: Live-state headers for observability GETs: never cache, never stale.
_NO_STORE = {"Cache-Control": "no-store"}

_SSE_HEARTBEAT_S = 10.0


class ReproServer:
    """One asyncio loop owning one engine, one job queue and a compute pool.

    The socket listens from construction on (``server_address``);
    :meth:`serve_forever` runs the loop on the calling thread until
    :meth:`shutdown` is called from another one.
    """

    def __init__(self, address, *, workers: int = 2, cache_entries: int = 256):
        self.engine = Engine(cache_entries=cache_entries)
        self.jobs = JobQueue(self.engine, workers=workers)
        self.pool = ThreadPoolExecutor(max(1, workers), "repro-serve")
        self.stream_pool = ThreadPoolExecutor(64, "repro-sse")  # SSE polls
        #: the connection tasks of the clients still connected
        self.connections: set[asyncio.Task] = set()
        self.loop_thread: threading.Thread | None = None
        self._serving = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._server = self._loop.run_until_complete(
            asyncio.start_server(
                self._connection,
                sock=socket.create_server(address),
                limit=_MAX_HEAD_BYTES,
            )
        )
        self.server_address = self._server.sockets[0].getsockname()

    def serve_forever(self) -> None:
        with self._serving:
            self.loop_thread = threading.current_thread()
            self._loop.run_forever()  # until shutdown() stops it
            for task in self.connections:
                task.cancel()
            if self.connections:
                self._loop.run_until_complete(asyncio.wait(self.connections))

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` (or its next call) and wait for it."""
        self.jobs.shutdown()
        self._loop.call_soon_threadsafe(self._loop.stop)
        with self._serving:
            pass

    def server_close(self) -> None:
        self._server.close()
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.stream_pool.shutdown(wait=False, cancel_futures=True)

    async def _connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self.connections.add(task)
        try:
            while await self._exchange(reader, writer):
                pass
        except OSError:
            pass  # the client went away
        finally:
            self.connections.discard(task)
            writer.close()

    async def _exchange(self, reader, writer) -> bool:
        """Serve one request; ``True`` keeps the connection open."""
        handler = _Handler(self, writer.get_extra_info("peername") or ("", 0))
        try:
            if handler.parse_head(await reader.readuntil(b"\r\n\r\n")):
                if handler.headers.get("expect", "").lower() == "100-continue":
                    writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                handler.body = await reader.readexactly(handler.length)
                if handler.command == "GET":
                    handler.do_GET()  # in-memory reads; streams poll in a pool
                elif handler.path.strip("/") in ENDPOINTS:
                    handler.do_POST()  # replies to a warm request only
                if handler.command == "POST" and not handler.reply:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(self.pool, handler.do_POST)
        except asyncio.IncompleteReadError:
            return False  # closed between requests, mid-head or mid-body
        except asyncio.LimitOverrunError:
            handler.fail(431, f"request head over {_MAX_HEAD_BYTES} bytes")
        writer.write(handler.reply)
        if handler.stream is not None:
            async for frame in handler.stream:
                writer.write(frame)
                await writer.drain()  # raises once the client has gone away
        await writer.drain()
        return not handler.close_connection


class _Handler:
    """One framed request: the routes, and the reply they leave in ``reply``."""

    requestline = command = path = ""
    length = 0
    body = reply = b""
    stream = None
    close_connection = True

    def __init__(self, server: ReproServer, client_address) -> None:
        self.server = server
        self.client_address = client_address
        self.headers: dict[str, str] = {}

    # -- plumbing ------------------------------------------------------
    def parse_head(self, head: bytes) -> bool:
        """Frame the request; ``False`` once a framing error is the reply."""
        lines = head.decode("latin-1").split("\r\n")[:-2]
        self.requestline = lines[0]
        words = self.requestline.split(" ")
        if len(words) != 3 or words[1][:1] != "/" or words[2] not in _VERSIONS:
            return self.fail(400, f"bad request line {self.requestline!r}")
        self.command, target, version = words
        self.path = "/" + target.lstrip("/")
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                return self.fail(400, f"bad header line {line!r}")
            self.headers[name.lower()] = value.strip()
        connection = self.headers.get("connection", "").lower()
        self.close_connection = version == "HTTP/1.0" or connection == "close"
        if self.command not in ("GET", "POST") or "transfer-encoding" in self.headers:
            return self.fail(501, "only GET and POST with Content-Length bodies")
        length = self.headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            return self.fail(400, f"bad Content-Length {length!r}")
        self.length = int(length)
        if self.length > _MAX_BODY_BYTES:
            return self.fail(413, f"request body too large ({self.length} bytes)")
        return True

    def fail(self, code: int, message: str) -> bool:
        self.close_connection = True  # the rest of the stream is not framed
        self._error(code, message)
        return False

    def _head(self, code: int, headers: dict[str, str]) -> bytes:
        logger.info('%s "%s" %d', self.client_address[0], self.requestline, code)
        lines = [f"HTTP/1.1 {code} {HTTPStatus(code).phrase}", "Server: repro-serve"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        if self.close_connection:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def _send(
        self,
        code: int,
        body: bytes,
        *,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        head = {"Content-Type": content_type, "Content-Length": str(len(body))}
        self.reply = self._head(code, {**head, **(headers or {})}) + body

    def _send_doc(self, code: int, doc, *, headers: dict[str, str] | None = None):
        body = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        self._send(code, body, headers=headers)

    def _error(self, code: int, message: str) -> None:
        doc = {"schema_version": SCHEMA_VERSION, "kind": "error", "status": code}
        self._send_doc(code, {**doc, "error": message})

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - the request handler API
        try:
            split = urlsplit(self.path)
            query = {k: v[-1] for k, v in parse_qs(split.query).items() if v}
            self._route_get(split.path.rstrip("/") or "/", query)
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            logger.error("GET %s failed: %r", self.path, exc)
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - the request handler API
        try:
            self._route_post(self.path.rstrip("/") or "/")
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            logger.error("POST %s failed: %r", self.path, exc)
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _route_get(self, path: str, query: dict[str, str]) -> None:
        server = self.server
        if path == "/healthz":
            ok = {"ok": True, "schema_version": SCHEMA_VERSION}
            self._send_doc(200, ok, headers=_NO_STORE)
        elif path == "/platforms":
            self._send_doc(200, server.engine.platforms_document())
        elif path == "/metrics":
            if query.get("format") == "prometheus":
                text = server.engine.metrics_prometheus(jobs=server.jobs.stats())
                kind = PROMETHEUS_CONTENT_TYPE
                self._send(200, text.encode(), headers=_NO_STORE, content_type=kind)
            else:
                doc = server.engine.metrics_document(jobs=server.jobs.stats())
                self._send_doc(200, doc, headers=_NO_STORE)
        elif path == "/cache":
            self._send_doc(200, server.engine.cache.stats(), headers=_NO_STORE)
        elif path == "/events":
            self._stream_events(server.engine.events, query)
        elif path == "/jobs":
            jobs = [job.document() for job in server.jobs.list()]
            self._send_doc(200, jobs, headers=_NO_STORE)
        elif path.startswith("/jobs/"):
            self._route_job_get(path, query)
        else:
            self._error(404, f"no route for GET {path}")

    def _route_job_get(self, path: str, query: dict[str, str]) -> None:
        parts = path.split("/")[2:]  # ["<id>"] or ["<id>", view]
        job = self.server.jobs.get(parts[0])
        if job is None:
            self._error(404, f"unknown job {parts[0]!r}")
            return
        view = parts[1] if len(parts) > 1 else None
        if view is None:
            self._send_doc(200, job.document(), headers=_NO_STORE)
        elif view == "events":
            if job.events is None:
                self._error(409, f"job {job.id} has no event stream")
            else:
                self._stream_events(job.events, query, job=job)
        elif view == "result":
            if job.status == FAILED:
                self._error(409, f"job {job.id} failed: {job.error}")
            elif job.status != DONE or job.response is None:
                self._error(409, f"job {job.id} is {job.status}, not done")
            else:
                response = job.response
                cache = {"X-Repro-Cache": response.cache, "X-Repro-Key": response.key}
                self._send(200, response.body, headers=cache)
        elif view in ("profile", "trace"):
            doc = None if job.response is None else getattr(job.response, view)
            if doc is None:
                self._error(
                    409,
                    f"job {job.id} has no {view} "
                    f"(status {job.status}; cache hits skip recomputation)",
                )
            else:
                self._send_doc(200, doc)
        else:
            self._error(404, f"no route for GET {path}")

    # -- SSE streaming -------------------------------------------------
    def _stream_events(self, bus, query: dict[str, str], *, job: Job | None = None):
        """Serve an event bus as ``text/event-stream`` (see the module
        docstring); a job stream closes on its own once the job is
        terminal and the ring is drained."""
        try:
            after = int(query.get("after") or self.headers.get("last-event-id") or 0)
            limit = int(query["limit"]) if "limit" in query else None
            timeout_s = float(query["timeout_s"]) if "timeout_s" in query else None
            heartbeat_s = float(query.get("heartbeat_s", _SSE_HEARTBEAT_S))
        except ValueError as exc:
            raise InvalidParameterError(f"bad event-stream parameter: {exc}") from None
        heartbeat_s = min(max(heartbeat_s, 0.05), 60.0)
        self.close_connection = True
        self.reply = self._head(200, {"Content-Type": "text/event-stream", **_NO_STORE})
        after = max(after, 0)
        self.stream = self._frames(bus, after, limit, timeout_s, heartbeat_s, job)

    async def _frames(self, bus, cursor, limit, timeout_s, heartbeat_s, job):
        loop = asyncio.get_running_loop()
        t0 = monotonic()
        sent = 0
        while True:
            wait = heartbeat_s
            if timeout_s is not None:
                wait = min(wait, max(0.0, timeout_s - (monotonic() - t0)))
            poll = partial(bus.poll, cursor, timeout=wait, limit=64)
            page = await loop.run_in_executor(self.server.stream_pool, poll)
            if page.truncated:
                missed = {"missed": page.missed, "resume_after": cursor}
                yield _sse_frame(None, "truncated", missed)
            for event in page.events:
                yield _sse_frame(event.seq, event.kind, event.as_dict())
                sent += 1
                if limit is not None and sent >= limit:
                    return
            cursor = page.cursor
            if job is not None and job.status in TERMINAL and bus.last_seq <= cursor:
                return
            if not page.events:
                yield b": heartbeat\n\n"
            if timeout_s is not None and monotonic() - t0 >= timeout_s:
                return

    def _route_post(self, path: str) -> None:
        server = self.server
        endpoint = path.lstrip("/")
        if endpoint in ENDPOINTS:
            # the loop thread replies to warm requests only: a cold one
            # gets None here and reruns in the pool
            compute = threading.current_thread() is not server.loop_thread
            response = server.engine.handle(endpoint, self.body, compute=compute)
            if response is not None:
                cache = {"X-Repro-Cache": response.cache, "X-Repro-Key": response.key}
                self._send(200, response.body, headers=cache)
        elif path == "/jobs":
            doc = _load_body(self.body)
            job_endpoint = doc.get("endpoint")
            if job_endpoint not in ENDPOINTS:
                raise InvalidParameterError(
                    f"'endpoint' must be one of {', '.join(ENDPOINTS)}; "
                    f"got {job_endpoint!r}"
                )
            job = server.jobs.submit(job_endpoint, doc.get("request") or {})
            self._send_doc(202, job.document())
        elif path == "/cache/clear":
            self._send_doc(200, {"cleared": server.engine.cache.clear()})
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[2]
            job = server.jobs.cancel(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            else:
                self._send_doc(200, job.document())
        else:
            self._error(404, f"no route for POST {path}")


def _sse_frame(seq, kind: str, data: dict) -> bytes:
    frame = [] if seq is None else [f"id: {seq}"]
    frame.append(f"event: {kind}")
    frame.append("data: " + json.dumps(data, separators=(",", ":"), default=str))
    return ("\n".join(frame) + "\n\n").encode("utf-8")


def make_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 2,
    cache_entries: int = 256,
) -> ReproServer:
    """Build (but do not run) a server; ``port=0`` binds an ephemeral
    port — read the bound address back from ``server.server_address``."""
    return ReproServer((host, port), workers=workers, cache_entries=cache_entries)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 2,
    cache_entries: int = 256,
) -> None:  # pragma: no cover - exercised by hand / smoke tests
    """Run the service until interrupted."""
    server = make_server(host, port, workers=workers, cache_entries=cache_entries)
    logger.info(
        "repro serve listening on http://%s:%d (workers=%d, cache=%d)",
        *server.server_address[:2],
        workers,
        cache_entries,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
