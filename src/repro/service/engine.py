"""The persistent optimizer/simulator engine behind ``repro serve``.

An :class:`Engine` is the long-lived object the CLI never had: it owns

- one :class:`~repro.service.cache.ContentCache` holding the rendered
  response bodies (a DP solve, a search campaign, an MC stamp) keyed by
  :func:`repro.api.canonical_hash` of the *normalized request content*;
  nothing else enters it, and every search owns its memo for its
  lifetime only, so a body is a pure function of its request;
- the cumulative :class:`~repro.obs.MetricsSnapshot` merged from every
  request/job session (each runs under its own thread-local
  :func:`repro.obs.instrument` scope, so concurrent requests never
  cross-contaminate);
- nothing of the operations themselves: :func:`run` executes a
  request parsed by :func:`repro.api.requests.parse_request` for the
  engine and the CLI alike, and :meth:`Outcome.document` renders the
  unified ``repro.api`` document both emit.

Cache contract: a hit returns the **byte-identical** payload the cold
request rendered — the hit/miss status travels out-of-band (HTTP
headers, :attr:`EngineResponse.cache`), never inside the body, so
clients can hash response bodies across a server restart or a cache
flush and get stable answers.

Raw request bodies go through a bounded spelling memo: a body seen
before maps straight to its content key, skipping ``json.loads`` and
:meth:`Engine.request_key`.  Identical cold requests in flight at once
are computed once: later arrivals wait for the first one's body.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from hashlib import blake2b
from time import perf_counter
from typing import Any

from ..api import SCHEMA_VERSION, as_document, canonical_hash
from ..api.requests import (
    REQUESTS,
    DagOptimizeRequest,
    Request,
    SimulateRequest,
    backend_name,
    parse_request,
)
from ..core import Schedule, evaluate_schedule, optimize
from ..exceptions import InvalidParameterError
from ..obs import (
    DEFAULT_EVENT_CAPACITY,
    EventBus,
    MetricsRegistry,
    MetricsSnapshot,
    TaggedBus,
    Tracer,
    build_profile,
    get_logger,
    instrument,
    render_prometheus,
    span,
)
from ..platforms import TABLE1_ROWS
from ..simulation import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MAX_RUNS,
    run_adaptive_parallel,
    run_monte_carlo,
)
from ..simulation.certify import certification_seed, certify_dag_solution
from .cache import ContentCache

logger = get_logger(__name__)

__all__ = ["Engine", "EngineResponse", "ENDPOINTS", "Outcome", "run"]

#: Endpoints the engine executes (the HTTP layer maps URLs onto these).
ENDPOINTS = tuple(REQUESTS)


@dataclass(frozen=True)
class EngineResponse:
    """One executed request: payload plus out-of-band cache/obs state."""

    body: bytes
    cache: str  # "hit" | "miss"
    key: str  # the content address of the request
    endpoint: str
    wall_s: float
    profile: dict | None = None
    trace: dict | None = field(default=None, repr=False)

    def document(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


def _render(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _load_body(body: bytes) -> dict:
    """The JSON object a raw request body spells; an empty body is ``{}``."""
    try:
        doc = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"request is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError("request body must be a JSON object")
    return doc


@dataclass(frozen=True)
class Outcome:
    """One run of a request: its result object and what its document
    echoes besides (the schedule a simulation ran, a serial winner's
    certificate, a parallel plan's makespan estimate)."""

    request: Request
    result: Any
    schedule: Schedule | None = None
    certificate: Any = None
    estimate: Any = None

    def document(self) -> dict:
        """The document both front ends emit for this run."""
        request = self.request
        doc = as_document(self.result)
        if isinstance(request, SimulateRequest):
            doc.update(
                platform=request.platform.name,
                schedule=self.schedule.to_string(),
                seed=request.seed,
                engine=request.engine,
            )
            return doc
        if not isinstance(request, DagOptimizeRequest):
            return doc
        if self.certificate is not None:
            doc["certificate"] = as_document(self.certificate)
        if self.estimate is not None:
            doc["estimate"] = as_document(self.estimate)
        if request.processors is None:
            doc.update(dag=request.workflow.name, strategy=request.strategy)
        doc.update(
            seed=request.seed,
            backend=backend_name(request.backend) if request.simulates else None,
        )
        return doc


def run(
    request: Request,
    *,
    n_jobs: int | None = None,
    chunk_size: int | None = None,
) -> Outcome:
    """Execute one parsed request; ``repro`` and :class:`Engine` both
    run every operation here.

    ``n_jobs`` and ``chunk_size`` shard a simulation without changing
    its result; only ``simulate`` reads them (a search always climbs
    in-process).
    """
    if isinstance(request, DagOptimizeRequest):
        return _run_dag(request)
    chain, platform = request.task_chain, request.platform
    if not isinstance(request, SimulateRequest):
        return Outcome(
            request, optimize(chain, platform, algorithm=request.algorithm)
        )
    if request.schedule:
        schedule = Schedule.from_string(request.schedule)
        analytic = evaluate_schedule(chain, platform, schedule).expected_time
    else:
        solution = optimize(chain, platform, algorithm=request.algorithm)
        schedule, analytic = solution.schedule, solution.expected_time
    if request.runs is not None:
        runs = request.runs
    elif request.target_ci is not None:
        # let the orchestrator converge, as `repro sweep --target-ci`
        # does, rather than stop at the fixed-N default
        runs = DEFAULT_MAX_RUNS
    else:
        runs = 1000
    mc = run_monte_carlo(
        chain,
        platform,
        schedule,
        runs=runs,
        seed=request.seed,
        analytic=analytic,
        engine=request.engine,
        n_jobs=n_jobs,
        chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
        target_ci=request.target_ci,
        backend=request.backend,
    )
    return Outcome(request, mc, schedule=schedule)


def _run_dag(request: DagOptimizeRequest) -> Outcome:
    from ..dag import optimize_dag, search_order, search_parallel

    dag, platform = request.workflow, request.platform
    search = dict(
        algorithm=request.algorithm,
        method=request.method,
        seed=request.seed,
        restarts=request.restarts,
        iterations=request.iterations,
    )
    if request.processors is not None:
        result = search_parallel(dag, platform, request.processors, **search)
        estimate = None
        if request.estimate:
            # the analytic value is a surrogate (the epoch fold swaps E
            # and max), so the plan's wall-clock makespan is simulated
            estimate = run_adaptive_parallel(
                result.solution.plan(),
                platform,
                target_relative_ci=request.target_ci,
                seed=certification_seed(request.seed),
                backend=request.backend,
                analytic=result.solution.expected_time,
            )
        return Outcome(request, result, estimate=estimate)
    if request.strategy == "search":
        result = search_order(dag, platform, **search, recombine=request.recombine)
        solution = result.solution
    else:
        result = solution = optimize_dag(
            dag,
            platform,
            algorithm=request.algorithm,
            strategy=request.strategy,
            seed=request.seed,
        )
    certificate = None
    if request.certify:
        certificate = certify_dag_solution(
            dag,
            platform,
            solution,
            label=f"{dag.name} {request.strategy} order",
            seed=request.seed,
            target_ci=request.target_ci,
            backend=request.backend,
        )
    return Outcome(request, result, certificate=certificate)


class Engine:
    """Session-spanning solver/simulator with content-addressed caching."""

    def __init__(
        self,
        *,
        cache_entries: int = 256,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
    ) -> None:
        self.cache = ContentCache(cache_entries)
        #: (endpoint, blake2b-128 of a raw body) -> its content key
        self.spellings = ContentCache(cache_entries)
        #: content key -> future of the body its first cold request renders
        self._inflight: dict[str, Future] = {}
        #: Engine-wide progress stream: every request/job session forwards
        #: its events here (tagged with endpoint / job id); ``GET /events``
        #: serves this bus as SSE.
        self.events = EventBus(capacity=event_capacity)
        self._lock = threading.Lock()
        self._cumulative = MetricsSnapshot()
        # service-level series (request wall-time distribution) recorded
        # outside any per-request scope; folded into every metrics view
        self._service = MetricsRegistry()
        self._requests: dict[str, int] = {}
        self._cache_hits: dict[str, int] = {}

    # -- request execution ---------------------------------------------
    def handle(
        self,
        endpoint: str,
        request: dict | bytes | Request,
        *,
        collect_trace: bool = False,
        events: "EventBus | TaggedBus | None" = None,
        compute: bool = True,
    ) -> EngineResponse | None:
        """Execute one endpoint request (cache-aware).

        ``request`` is the request document, its raw JSON body, or the
        request it parses to.  A body goes through the spelling memo, so
        a repeated one skips ``json.loads`` and :meth:`request_key`.
        With ``compute=False`` only a cached reply is returned, and
        ``None`` stands for any request that would need work (the HTTP
        loop thread answers warm requests only).

        Raises :class:`~repro.exceptions.InvalidParameterError` for
        malformed requests (the HTTP layer maps it to 400) and
        ``KeyError``-free 404s are the HTTP layer's business.
        """
        if isinstance(request, bytes):
            spelling = (endpoint, blake2b(request, digest_size=16).digest())
            key = self.spellings.get(spelling)
            if key is None:
                if not compute:
                    return None
                request = parse_request(endpoint, _load_body(request))
                key = self.request_key(endpoint, request)
                self.spellings.put(spelling, key)
        else:
            if not isinstance(request, Request):
                request = parse_request(endpoint, request)
            key = self.request_key(endpoint, request)
        if not compute and key not in self.cache:
            return None
        t0 = perf_counter()
        cached = self.cache.get(key)
        if cached is None and not compute:
            return None  # evicted since the check above
        leader = flight = None
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            if cached is None:
                flight = self._inflight.get(key)
                if flight is None:
                    leader = self._inflight[key] = Future()
            if leader is None:
                self._cache_hits[endpoint] = (
                    self._cache_hits.get(endpoint, 0) + 1
                )
        if flight is not None:
            # an identical request is computing: share its body (or error)
            cached = flight.result()
        if cached is not None:
            wall = perf_counter() - t0
            with self._lock:
                self._service.histogram("service.request.wall_s").observe(wall)
            return EngineResponse(
                body=cached,
                cache="hit",
                key=key,
                endpoint=endpoint,
                wall_s=wall,
            )
        registry = MetricsRegistry()
        tracer = Tracer()
        if events is None:
            events = TaggedBus(self.events, endpoint=endpoint)
        try:
            if isinstance(request, bytes):  # a known spelling, evicted
                request = parse_request(endpoint, _load_body(request))
            with instrument(registry, tracer, events=events), span(
                f"service.{endpoint}", key=key[:12]
            ):
                doc = run(request).document()
            wall = perf_counter() - t0
            body = _render(doc)
            self.cache.put(key, body)
            leader.set_result(body)
        except BaseException as exc:
            leader.set_exception(exc)
            raise
        finally:
            with self._lock:
                del self._inflight[key]
        logger.info("computed /%s %s in %.3fs", endpoint, key[:12], wall)
        snapshot = registry.snapshot()
        with self._lock:
            self._service.histogram("service.request.wall_s").observe(wall)
            self._cumulative = self._cumulative.merge(snapshot)
        profile = build_profile(
            snapshot, tracer, command=f"service.{endpoint}", wall_s=wall
        )
        return EngineResponse(
            body=body,
            cache="miss",
            key=key,
            endpoint=endpoint,
            wall_s=wall,
            profile=profile,
            trace=tracer.to_chrome_trace() if collect_trace else None,
        )

    def request_key(self, endpoint: str, request: dict | Request) -> str:
        """Content address of a request: model objects, not spellings.

        Two requests naming the same platform, the same weights (via a
        pattern or an explicit list), and the same options collide on
        purpose; dict ordering and display names never matter.
        """
        if not isinstance(request, Request):
            request = parse_request(endpoint, request)
        return canonical_hash([endpoint, request.content()])

    # -- observability -------------------------------------------------
    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold an externally-collected session snapshot into the pool
        (the job queue ships each job's snapshot here)."""
        with self._lock:
            self._cumulative = self._cumulative.merge(snapshot)

    def metrics_snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return self._cumulative.merge(self._service.snapshot())

    def metrics_document(self, *, jobs: dict | None = None) -> dict:
        with self._lock:
            snapshot = self._cumulative.merge(self._service.snapshot())
            requests = dict(self._requests)
            cache_hits = dict(self._cache_hits)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "service_metrics",
            "requests": {
                "total": sum(requests.values()),
                "by_endpoint": {k: requests[k] for k in sorted(requests)},
                "cache_hits": {
                    k: cache_hits[k] for k in sorted(cache_hits)
                },
            },
            "cache": self.cache.stats(),
            "metrics": snapshot.as_dict(),
        }
        if jobs is not None:
            doc["jobs"] = jobs
        return doc

    def metrics_prometheus(self, *, jobs: dict | None = None) -> str:
        """``GET /metrics?format=prometheus``: the merged snapshot plus
        service-level request/cache/job series as text exposition 0.0.4."""
        with self._lock:
            snapshot = self._cumulative.merge(self._service.snapshot())
            requests = dict(self._requests)
            cache_hits = dict(self._cache_hits)
        extra_counters: dict[str, int] = {
            "service.requests": sum(requests.values()),
        }
        for endpoint, count in requests.items():
            extra_counters[f"service.requests.{endpoint}"] = count
        for endpoint, count in cache_hits.items():
            extra_counters[f"service.cache_hits.{endpoint}"] = count
        extra_gauges: dict[str, float] = {}
        cache_stats = self.cache.stats()
        for key, value in cache_stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                extra_gauges[f"service.cache.{key}"] = float(value)
        if jobs is not None:
            for key, value in jobs.items():
                if key == "by_status":
                    for status, count in value.items():
                        extra_gauges[f"service.jobs.{status}"] = float(count)
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    extra_gauges[f"service.jobs.{key}"] = float(value)
        extra_gauges["service.events.last_seq"] = float(self.events.last_seq)
        return render_prometheus(
            snapshot,
            extra_counters=extra_counters,
            extra_gauges=extra_gauges,
        )

    def platforms_document(self) -> list[dict]:
        return [p.as_dict() for p in TABLE1_ROWS]
