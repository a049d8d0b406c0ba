"""Async job queue for long-running campaigns.

Search and certification campaigns can run for minutes; the HTTP layer
must not hold a connection open that long.  ``POST /jobs`` enqueues a
request for any engine endpoint, worker threads drain the queue, and
``/jobs/<id>`` exposes the lifecycle::

    queued -> running -> done | failed
    queued -> cancelled                  (cancel before a worker starts)
    running + cancel -> cancel_requested (cooperative; the campaign
                                          finishes its current work)

Every job runs in its own engine session (thread-local instrumentation),
so each finished job carries its own profile document and Chrome trace,
and its metrics snapshot is merged into the engine's cumulative pool —
the ``/metrics`` totals are exactly the fold of every request and job,
whatever thread ran them.

``workers=0`` is a supported degenerate mode: nothing drains the queue
until :meth:`JobQueue.run_pending` is called, which makes lifecycle
tests (and the cancel-before-start path) deterministic.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from ..api import SCHEMA_VERSION
from ..api.requests import Request, parse_request
from ..exceptions import ReproError
from ..obs import Event, EventBus, get_logger
from .engine import Engine, EngineResponse

logger = get_logger(__name__)

__all__ = ["Job", "JobQueue", "TERMINAL"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL = (DONE, FAILED, CANCELLED)

#: Event kinds mirrored onto the job's ``progress`` field (the latest one
#: wins) so ``GET /jobs/<id>`` shows where a running campaign stands
#: without a stream subscription.
_PROGRESS_KINDS = frozenset(
    {"mc.round", "search.climb", "search.round", "search.best", "sim.chunk"}
)


@dataclass
class Job:
    """One queued campaign and everything it produced."""

    id: str
    endpoint: str
    request: Request
    status: str = QUEUED
    cancel_requested: bool = False
    error: str | None = None
    response: EngineResponse | None = field(default=None, repr=False)
    wall_s: float | None = None
    events: EventBus | None = field(default=None, repr=False)
    progress: dict | None = None
    eta_s: float | None = None

    def document(self) -> dict:
        """The ``/jobs/<id>`` status view (never the result payload)."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "job",
            "id": self.id,
            "endpoint": self.endpoint,
            "status": self.status,
            "cancel_requested": self.cancel_requested,
            "wall_s": self.wall_s,
            "error": self.error,
            "progress": self.progress,
            "eta_s": self.eta_s,
        }
        if self.events is not None:
            doc["events"] = {"last_seq": self.events.last_seq}
        if self.response is not None:
            doc["cache"] = self.response.cache
            doc["key"] = self.response.key
        return doc


class JobQueue:
    """FIFO queue of engine requests drained by worker threads."""

    def __init__(self, engine: Engine, *, workers: int = 2) -> None:
        self.engine = engine
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}
        self._serial = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-{i}", daemon=True
            )
            for i in range(max(0, int(workers)))
        ]
        for t in self._threads:
            t.start()

    # -- client surface ------------------------------------------------
    def submit(self, endpoint: str, request: dict) -> Job:
        # parse + content-address before queueing so a malformed
        # request fails the POST, not a worker thread later
        parsed = parse_request(endpoint, request)
        key = self.engine.request_key(endpoint, parsed)
        with self._wakeup:
            if self._shutdown:
                raise ReproError("job queue is shut down")
            self._serial += 1
            job = Job(id=f"job-{self._serial}", endpoint=endpoint, request=parsed)
            job.events = EventBus(on_emit=self._forward_hook(job))
            self._jobs[job.id] = job
            self._queue.append(job)
            self._wakeup.notify()
        job.events.emit("job.queued", endpoint=endpoint, key=key[:12])
        logger.info("queued %s -> /%s (%s)", job.id, endpoint, key[:12])
        return job

    def _forward_hook(self, job: Job):
        """Per-job ``on_emit``: mirror progress onto the job document and
        forward every event (tagged with the job id) to the engine-wide
        bus, so ``/jobs/<id>/events`` and ``/events`` share one feed."""

        def hook(event: Event) -> None:
            if event.kind in _PROGRESS_KINDS:
                job.progress = {"kind": event.kind, **event.data}
                eta = event.data.get("eta_s")
                if eta is not None or event.kind == "mc.round":
                    job.eta_s = eta
            tagged = {"job": job.id, "endpoint": job.endpoint}
            tagged.update(event.data)
            self.engine.events.emit(event.kind, _ts=event.ts, **tagged)

        return hook

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list[Job]:
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs, key=_job_sort)]

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job: queued jobs die immediately; running jobs get a
        cooperative flag and finish their current campaign."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.cancel_requested = True
            if job.status == QUEUED:
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                job.status = CANCELLED
        if job.events is not None:
            if job.status == CANCELLED:
                job.events.emit("job.cancelled")
            else:
                job.events.emit("job.cancel_requested", status=job.status)
        return job

    def stats(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "total": len(self._jobs),
                "queued": len(self._queue),
                "workers": len(self._threads),
                "by_status": by_status,
            }

    def run_pending(self, max_jobs: int | None = None) -> int:
        """Drain queued jobs on the calling thread (``workers=0`` mode);
        returns how many jobs were executed."""
        ran = 0
        while max_jobs is None or ran < max_jobs:
            job = self._claim()
            if job is None:
                break
            self._execute(job)
            ran += 1
        return ran

    def shutdown(self) -> None:
        with self._wakeup:
            self._shutdown = True
            for job in self._queue:
                job.status = CANCELLED
            self._queue.clear()
            self._wakeup.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)

    # -- worker side ---------------------------------------------------
    def _claim(self) -> Job | None:
        with self._lock:
            while self._queue:
                job = self._queue.popleft()
                if job.status == QUEUED:
                    job.status = RUNNING
                    return job
        return None

    def _execute(self, job: Job) -> None:
        t0 = perf_counter()
        if job.events is not None:
            job.events.emit("job.running", endpoint=job.endpoint)
        try:
            job.response = self.engine.handle(
                job.endpoint,
                job.request,
                collect_trace=True,
                events=job.events,
            )
            job.status = DONE
        except ReproError as exc:
            job.error = str(exc)
            job.status = FAILED
        except Exception as exc:  # noqa: BLE001 - a job must never kill a worker
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = FAILED
            logger.error(
                "job %s crashed:\n%s", job.id, traceback.format_exc()
            )
        job.wall_s = perf_counter() - t0
        if job.events is not None:
            if job.status == DONE:
                job.events.emit(
                    "job.done",
                    wall_s=job.wall_s,
                    cache=job.response.cache if job.response else None,
                )
            else:
                job.events.emit(
                    "job.failed", wall_s=job.wall_s, error=job.error
                )
        logger.info("%s finished: %s (%.3fs)", job.id, job.status, job.wall_s)

    def _worker(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._shutdown:
                    self._wakeup.wait()
                if self._shutdown:
                    return
            job = self._claim()
            if job is not None:
                self._execute(job)


def _job_sort(job_id: str) -> int:
    return int(job_id.rsplit("-", 1)[1])
