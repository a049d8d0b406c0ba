"""stdlib HTTP front-end for the engine: ``repro serve``.

JSON over :class:`http.server.ThreadingHTTPServer` — no new
dependencies, one request per thread, every computed artefact shared
through the engine's content-addressed pool.

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

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic
from urllib.parse import parse_qs, urlsplit

from ..api import SCHEMA_VERSION
from ..exceptions import InvalidParameterError, ReproError
from ..obs import get_logger
from ..obs.prometheus import PROMETHEUS_CONTENT_TYPE
from .engine import ENDPOINTS, Engine
from .jobs import DONE, FAILED, TERMINAL, Job, JobQueue

logger = get_logger(__name__)

__all__ = ["ReproServer", "make_server", "serve"]

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Live-state headers for observability GETs: never cache, never stale.
_NO_STORE = {"Cache-Control": "no-store"}

_SSE_HEARTBEAT_S = 10.0


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning one engine and one job queue."""

    daemon_threads = True

    def __init__(self, address, *, workers: int = 2, cache_entries: int = 256):
        self.engine = Engine(cache_entries=cache_entries)
        self.jobs = JobQueue(self.engine, workers=workers)
        super().__init__(address, _Handler)

    def shutdown(self) -> None:  # pragma: no cover - exercised via serve()
        self.jobs.shutdown()
        super().shutdown()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # A reply goes out as two writes (headers, then body).  With Nagle's
    # algorithm on, a kept-alive connection holds the body until the
    # client's delayed ACK of the headers: ~40 ms per reply.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # route through repro.* logging
        logger.info("%s %s", self.address_string(), fmt % args)

    def _send(
        self,
        code: int,
        body: bytes,
        *,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_doc(
        self,
        code: int,
        doc,
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send(
            code,
            (json.dumps(doc, indent=2) + "\n").encode("utf-8"),
            headers=headers,
        )

    def _error(self, code: int, message: str) -> None:
        self._send_doc(
            code,
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "error",
                "status": code,
                "error": message,
            },
        )

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise InvalidParameterError(
                f"request body too large ({length} bytes)"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            doc = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"request is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise InvalidParameterError(
                "request body must be a JSON object"
            )
        return doc

    @property
    def _server(self) -> ReproServer:
        return self.server  # type: ignore[return-value]

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            split = urlsplit(self.path)
            query = {
                k: v[-1] for k, v in parse_qs(split.query).items() if v
            }
            self._route_get(split.path.rstrip("/") or "/", query)
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            logger.error("GET %s failed: %r", self.path, exc)
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            self._route_post(self.path.rstrip("/") or "/")
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            logger.error("POST %s failed: %r", self.path, exc)
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _route_get(self, path: str, query: dict[str, str]) -> None:
        server = self._server
        if path == "/healthz":
            self._send_doc(
                200,
                {"ok": True, "schema_version": SCHEMA_VERSION},
                headers=_NO_STORE,
            )
        elif path == "/platforms":
            self._send_doc(200, server.engine.platforms_document())
        elif path == "/metrics":
            if query.get("format") == "prometheus":
                self._send(
                    200,
                    server.engine.metrics_prometheus(
                        jobs=server.jobs.stats()
                    ).encode("utf-8"),
                    headers=_NO_STORE,
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_doc(
                    200,
                    server.engine.metrics_document(jobs=server.jobs.stats()),
                    headers=_NO_STORE,
                )
        elif path == "/cache":
            self._send_doc(
                200, server.engine.cache.stats(), headers=_NO_STORE
            )
        elif path == "/events":
            self._stream_events(server.engine.events, query)
        elif path == "/jobs":
            self._send_doc(
                200,
                [job.document() for job in server.jobs.list()],
                headers=_NO_STORE,
            )
        elif path.startswith("/jobs/"):
            self._route_job_get(path, query)
        else:
            self._error(404, f"no route for GET {path}")

    def _route_job_get(self, path: str, query: dict[str, str]) -> None:
        parts = path.split("/")[2:]  # ["<id>"] or ["<id>", view]
        job = self._server.jobs.get(parts[0])
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
                self._send(
                    200,
                    job.response.body,
                    headers={
                        "X-Repro-Cache": job.response.cache,
                        "X-Repro-Key": job.response.key,
                    },
                )
        elif view == "profile":
            if job.response is None or job.response.profile is None:
                self._error(
                    409,
                    f"job {job.id} has no profile "
                    f"(status {job.status}; cache hits skip recomputation)",
                )
            else:
                self._send_doc(200, job.response.profile)
        elif view == "trace":
            if job.response is None or job.response.trace is None:
                self._error(
                    409,
                    f"job {job.id} has no trace "
                    f"(status {job.status}; cache hits skip recomputation)",
                )
            else:
                self._send_doc(200, job.response.trace)
        else:
            self._error(404, f"no route for GET {path}")

    # -- SSE streaming -------------------------------------------------
    def _stream_events(
        self,
        bus,
        query: dict[str, str],
        *,
        job: "Job | None" = None,
    ) -> None:
        """Serve an event bus as ``text/event-stream``.

        Resume: ``Last-Event-ID`` header (standard EventSource reconnect)
        or ``?after=<seq>``; sequence numbers are the SSE ids, so a
        reconnecting client replays exactly what it missed.  When the
        cursor has fallen off the bounded ring the gap is announced with
        an ``event: truncated`` frame carrying the dropped count before
        the surviving records flow.  Idle streams emit ``: heartbeat``
        comments.  ``?limit=<n>`` closes after n events and
        ``?timeout_s=<s>`` after a wall-clock budget (both for scripted
        clients and tests); a job stream closes on its own once the job
        is terminal and the ring is drained.
        """
        try:
            after = int(
                query.get("after")
                or self.headers.get("Last-Event-ID")
                or 0
            )
            limit = int(query["limit"]) if "limit" in query else None
            timeout_s = (
                float(query["timeout_s"]) if "timeout_s" in query else None
            )
            heartbeat_s = float(query.get("heartbeat_s", _SSE_HEARTBEAT_S))
        except ValueError as exc:
            raise InvalidParameterError(
                f"bad event-stream parameter: {exc}"
            ) from None
        heartbeat_s = min(max(heartbeat_s, 0.05), 60.0)

        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        t0 = monotonic()
        cursor = max(0, after)
        sent = 0
        try:
            while True:
                wait = heartbeat_s
                if timeout_s is not None:
                    wait = min(wait, max(0.0, timeout_s - (monotonic() - t0)))
                page = bus.poll(cursor, timeout=wait, limit=64)
                if page.truncated:
                    self._write_sse_frame(
                        None,
                        "truncated",
                        {"missed": page.missed, "resume_after": cursor},
                    )
                for event in page.events:
                    self._write_sse_frame(
                        event.seq, event.kind, event.as_dict()
                    )
                    sent += 1
                    if limit is not None and sent >= limit:
                        return
                cursor = page.cursor
                if (
                    job is not None
                    and job.status in TERMINAL
                    and bus.last_seq <= cursor
                ):
                    return
                if not page.events:
                    self.wfile.write(b": heartbeat\n\n")
                    self.wfile.flush()
                if timeout_s is not None and monotonic() - t0 >= timeout_s:
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away: a stream has no error channel

    def _write_sse_frame(self, seq, kind: str, data: dict) -> None:
        frame = []
        if seq is not None:
            frame.append(f"id: {seq}")
        frame.append(f"event: {kind}")
        frame.append(
            "data: " + json.dumps(data, separators=(",", ":"), default=str)
        )
        self.wfile.write(("\n".join(frame) + "\n\n").encode("utf-8"))
        self.wfile.flush()

    def _route_post(self, path: str) -> None:
        server = self._server
        endpoint = path.lstrip("/")
        if endpoint in ENDPOINTS:
            response = server.engine.handle(endpoint, self._read_json())
            self._send(
                200,
                response.body,
                headers={
                    "X-Repro-Cache": response.cache,
                    "X-Repro-Key": response.key,
                },
            )
        elif path == "/jobs":
            doc = self._read_json()
            job_endpoint = doc.get("endpoint")
            if job_endpoint not in ENDPOINTS:
                raise InvalidParameterError(
                    f"'endpoint' must be one of {', '.join(ENDPOINTS)}; "
                    f"got {job_endpoint!r}"
                )
            request = doc.get("request") or {}
            job = server.jobs.submit(job_endpoint, request)
            self._send_doc(202, job.document())
        elif path == "/cache/clear":
            dropped = server.engine.cache.clear()
            self._send_doc(200, {"cleared": dropped})
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[2]
            job = server.jobs.cancel(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            else:
                self._send_doc(200, job.document())
        else:
            self._error(404, f"no route for POST {path}")


def make_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 2,
    cache_entries: int = 256,
) -> ReproServer:
    """Build (but do not run) a server; ``port=0`` binds an ephemeral
    port — read the bound address back from ``server.server_address``."""
    return ReproServer(
        (host, port), workers=workers, cache_entries=cache_entries
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 2,
    cache_entries: int = 256,
) -> None:  # pragma: no cover - exercised by hand / smoke tests
    """Run the service until interrupted."""
    server = make_server(
        host, port, workers=workers, cache_entries=cache_entries
    )
    bound_host, bound_port = server.server_address[:2]
    logger.info(
        "repro serve listening on http://%s:%d (workers=%d, cache=%d)",
        bound_host,
        bound_port,
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
