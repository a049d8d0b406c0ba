"""The persistent optimizer/simulator engine behind ``repro serve``.

An :class:`Engine` is the long-lived object the CLI never had: it owns

- one :class:`~repro.service.cache.ContentCache` holding every expensive
  artefact — rendered response payloads (a DP solve, a search campaign,
  an MC stamp) keyed by :func:`repro.api.canonical_hash` of the
  *normalized request content*, plus the ``ChainObjective`` exact-solve
  memos as namespaced views into the same evictable pool;
- the cumulative :class:`~repro.obs.MetricsSnapshot` merged from every
  request/job session (each runs under its own thread-local
  :func:`repro.obs.instrument` scope, so concurrent requests never
  cross-contaminate);
- the endpoint implementations themselves (``solve`` / ``simulate`` /
  ``dag/optimize``), which mirror the CLI subcommands and emit the
  unified ``repro.api`` documents.

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
from typing import Any, Callable

import numpy as np

from ..api import SCHEMA_VERSION, as_document, canonical_hash
from ..chains import PAPER_TOTAL_WEIGHT, PATTERNS, TaskChain, make_chain
from ..core import Schedule, evaluate_schedule, optimize
from ..core.solver import canonical_algorithm
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
from ..platforms import TABLE1_ROWS, Platform, get_platform
from ..simulation import run_monte_carlo
from .cache import ContentCache

logger = get_logger(__name__)

__all__ = ["Engine", "EngineResponse", "ENDPOINTS"]

#: Endpoints the engine executes (the HTTP layer maps URLs onto these).
ENDPOINTS = ("solve", "simulate", "dag/optimize")


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


def _reject_unknown(request: dict, allowed: tuple[str, ...], endpoint: str):
    unknown = sorted(set(request) - set(allowed))
    if unknown:
        raise InvalidParameterError(
            f"unknown field(s) {', '.join(unknown)} for /{endpoint}; "
            f"accepted: {', '.join(allowed)}"
        )


def _weights(value) -> np.ndarray:
    # the conversion TaskChain applies, so that it raises here, not there
    return np.asarray(list(value), dtype=np.float64)


_EXPECTED = {int: "an integer", float: "a number", _weights: "a list of numbers"}


def _coerce(value: Any, kind: Callable, name: str) -> Any:
    """``kind(value)``, or a typed 400 naming the request field.

    ``int``/``float`` coercion of a client's JSON raises a bare
    ``ValueError``/``TypeError`` on a non-numeric value, which would
    surface as a 500.
    """
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(
            f"field {name!r} must be {_EXPECTED[kind]}, got {value!r}"
        ) from None


def _field(request: dict, name: str, kind: Callable, default: Any = None) -> Any:
    """``request[name]`` (``default`` when absent) coerced by ``kind``."""
    return _coerce(request.get(name, default), kind, name)


def _parse_platform(request: dict) -> Platform:
    spec = request.get("platform", "hera")
    if isinstance(spec, dict):
        return Platform.from_dict(spec)
    try:
        return get_platform(str(spec))
    except KeyError as exc:
        raise InvalidParameterError(str(exc.args[0])) from None


def _parse_chain(request: dict) -> TaskChain:
    if request.get("weights") is not None:
        return TaskChain(
            _field(request, "weights", _weights),
            name=str(request.get("chain", "custom")),
        )
    pattern = str(request.get("pattern", "uniform"))
    if pattern not in PATTERNS:
        raise InvalidParameterError(
            f"unknown pattern {pattern!r}; expected one of "
            f"{', '.join(sorted(PATTERNS))}"
        )
    # the random pattern draws its weights from the request's seed, so
    # that identical requests name identical chains
    seeded = {"rng": _field(request, "seed", int, 0)} if pattern == "random" else {}
    return make_chain(
        pattern,
        _field(request, "tasks", int, 20),
        _field(request, "total_weight", float, PAPER_TOTAL_WEIGHT),
        **seeded,
    )


def _parse_dag(request: dict):
    from ..dag import WorkflowDAG
    from ..dag.generate import generate

    spec = request.get("dag")
    if isinstance(spec, dict):
        return WorkflowDAG.from_dict(spec)
    if spec is not None:
        raise InvalidParameterError(
            "'dag' must be a workflow document (see `repro dag generate "
            "--json`)"
        )
    generator = request.get("generator") or {}
    if not isinstance(generator, dict):
        raise InvalidParameterError("'generator' must be an object")
    generator = dict(generator)
    kind = str(generator.pop("kind", "layered"))
    seed = _coerce(generator.pop("seed", 0), int, "generator.seed")
    try:
        return generate(kind, seed=seed, **generator)
    except TypeError as exc:  # an option the generator does not take
        raise InvalidParameterError(f"bad 'generator': {exc}") from None


_SOLVE_FIELDS = (
    "platform", "pattern", "tasks", "total_weight", "weights", "chain",
    "algorithm", "seed",
)
_SIMULATE_FIELDS = _SOLVE_FIELDS + (
    "schedule", "runs", "target_ci", "backend", "engine",
)
_DAG_FIELDS = (
    "platform", "dag", "generator", "algorithm", "strategy", "method",
    "seed", "restarts", "iterations", "recombine", "certify", "target_ci",
    "backend", "processors",
)


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
        self._handlers: dict[str, Callable[[dict], dict]] = {
            "solve": self._do_solve,
            "simulate": self._do_simulate,
            "dag/optimize": self._do_dag_optimize,
        }

    # -- request execution ---------------------------------------------
    def handle(
        self,
        endpoint: str,
        request: dict | bytes,
        *,
        collect_trace: bool = False,
        events: "EventBus | TaggedBus | None" = None,
        compute: bool = True,
    ) -> EngineResponse | None:
        """Execute one endpoint request (cache-aware).

        ``request`` is the request document or its raw JSON body.  A body
        goes through the spelling memo, so a repeated one skips
        ``json.loads`` and :meth:`request_key`.  With ``compute=False``
        only a cached reply is returned, and ``None`` stands for any
        request that would need work (the HTTP loop thread answers warm
        requests only).

        Raises :class:`~repro.exceptions.InvalidParameterError` for
        malformed requests (the HTTP layer maps it to 400) and
        ``KeyError``-free 404s are the HTTP layer's business.
        """
        handler = self._handlers.get(endpoint)
        if handler is None:
            raise InvalidParameterError(
                f"unknown endpoint {endpoint!r}; expected one of "
                f"{', '.join(ENDPOINTS)}"
            )
        if isinstance(request, bytes):
            spelling = (endpoint, blake2b(request, digest_size=16).digest())
            key = self.spellings.get(spelling)
            if key is None:
                if not compute:
                    return None
                request = _load_body(request)
                key = self.request_key(endpoint, request)
                self.spellings.put(spelling, key)
        else:
            key = self.request_key(endpoint, request)
        if not compute and ("response", key) not in self.cache:
            return None
        t0 = perf_counter()
        cached = self.cache.get(("response", key))
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
            if isinstance(request, bytes):
                request = _load_body(request)
            with instrument(registry, tracer, events=events), span(
                f"service.{endpoint}", key=key[:12]
            ):
                doc = handler(request)
            wall = perf_counter() - t0
            body = _render(doc)
            self.cache.put(("response", key), body)
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

    def request_key(self, endpoint: str, request: dict) -> str:
        """Content address of a request: model objects, not spellings.

        Two requests naming the same platform, the same weights (via a
        pattern or an explicit list), and the same options collide on
        purpose; dict ordering and display names never matter.
        """
        if not isinstance(request, dict):
            raise InvalidParameterError(
                f"request body must be a JSON object, got "
                f"{type(request).__name__}"
            )
        if endpoint == "solve":
            _reject_unknown(request, _SOLVE_FIELDS, endpoint)
            content: dict[str, Any] = {
                "platform": _parse_platform(request),
                "chain": _parse_chain(request),
                # a random pattern's seed reaches the key through the
                # chain it draws
                "algorithm": canonical_algorithm(
                    str(request.get("algorithm", "admv"))
                ),
            }
        elif endpoint == "simulate":
            _reject_unknown(request, _SIMULATE_FIELDS, endpoint)
            content = {
                "platform": _parse_platform(request),
                "chain": _parse_chain(request),
                "schedule": request.get("schedule"),
                "algorithm": canonical_algorithm(
                    str(request.get("algorithm", "admv"))
                ),
                "runs": request.get("runs"),
                "seed": _field(request, "seed", int, 0),
                "target_ci": request.get("target_ci"),
                "backend": self._backend_name(request.get("backend")),
                "engine": str(request.get("engine", "batch")),
            }
        else:
            _reject_unknown(request, _DAG_FIELDS, endpoint)
            content = {
                "platform": _parse_platform(request),
                "dag": _parse_dag(request),
                "algorithm": canonical_algorithm(
                    str(request.get("algorithm", "admv"))
                ),
                "strategy": str(request.get("strategy", "auto")),
                "method": str(request.get("method", "hill_climb")),
                "seed": _field(request, "seed", int, 0),
                "restarts": _field(request, "restarts", int, 2),
                "iterations": _field(request, "iterations", int, 400),
                "recombine": _field(request, "recombine", int, 2),
                "certify": bool(request.get("certify", False)),
                "target_ci": _field(request, "target_ci", float, 0.01),
                "backend": self._backend_name(request.get("backend"))
                if request.get("certify") or request.get("processors")
                else None,
                "processors": request.get("processors"),
            }
        return canonical_hash([endpoint, content])

    @staticmethod
    def _backend_name(spec) -> str:
        from ..simulation import get_backend

        return get_backend(spec).name

    # -- endpoint implementations --------------------------------------
    def _do_solve(self, request: dict) -> dict:
        chain = _parse_chain(request)
        platform = _parse_platform(request)
        solution = optimize(
            chain, platform, algorithm=str(request.get("algorithm", "admv"))
        )
        return as_document(solution)

    def _do_simulate(self, request: dict) -> dict:
        chain = _parse_chain(request)
        platform = _parse_platform(request)
        algorithm = str(request.get("algorithm", "admv"))
        if request.get("schedule"):
            schedule = Schedule.from_string(str(request["schedule"]))
            analytic = evaluate_schedule(
                chain, platform, schedule
            ).expected_time
        else:
            solution = optimize(chain, platform, algorithm=algorithm)
            schedule = solution.schedule
            analytic = solution.expected_time
        seed = _field(request, "seed", int, 0)
        target_ci = request.get("target_ci")
        if request.get("runs") is not None:
            runs = _field(request, "runs", int)
        elif target_ci is not None:
            from ..simulation import DEFAULT_MAX_RUNS

            runs = DEFAULT_MAX_RUNS
        else:
            runs = 1000
        mc = run_monte_carlo(
            chain,
            platform,
            schedule,
            runs=runs,
            seed=seed,
            analytic=analytic,
            engine=str(request.get("engine", "batch")),
            target_ci=None
            if target_ci is None
            else _field(request, "target_ci", float),
            backend=request.get("backend"),
        )
        doc = as_document(mc)
        doc.update(
            platform=platform.name,
            schedule=schedule.to_string(),
            seed=seed,
            engine=str(request.get("engine", "batch")),
        )
        return doc

    def _do_dag_optimize(self, request: dict) -> dict:
        from ..dag import optimize_dag, search_order, search_parallel
        from ..dag.search import ChainObjective, uses_join_objective

        dag = _parse_dag(request)
        platform = _parse_platform(request)
        algorithm = str(request.get("algorithm", "admv"))
        seed = _field(request, "seed", int, 0)
        backend = request.get("backend")
        target_ci = _field(request, "target_ci", float, 0.01)
        processors = request.get("processors")

        if processors is not None:
            result = search_parallel(
                dag,
                platform,
                _field(request, "processors", int),
                algorithm=algorithm,
                method=str(request.get("method", "hill_climb")),
                seed=seed,
                restarts=_field(request, "restarts", int, 2),
                iterations=_field(request, "iterations", int, 400),
            )
            doc = as_document(result)
            doc.update(seed=seed, backend=None)
            return doc

        strategy = str(request.get("strategy", "auto"))
        if strategy == "search":
            objective = None
            if not uses_join_objective(dag):
                # the multi-layer extraction: this objective's exact-DP
                # memo lives in the engine's shared evictable pool, so a
                # re-search of the same platform/algorithm pays only for
                # orders it has never priced
                objective = ChainObjective(
                    dag,
                    platform,
                    algorithm=algorithm,
                    exact_cache=self.cache.namespaced(
                        (
                            "objective",
                            canonical_hash([dag, platform]),
                            canonical_algorithm(algorithm),
                        )
                    ),
                )
            search_result = search_order(
                dag,
                platform,
                algorithm=algorithm,
                method=str(request.get("method", "hill_climb")),
                seed=seed,
                restarts=_field(request, "restarts", int, 2),
                iterations=_field(request, "iterations", int, 400),
                recombine=_field(request, "recombine", int, 2),
                certify=bool(request.get("certify", False)),
                backend=backend,
                target_ci=target_ci,
                objective=objective,
            )
            doc = as_document(search_result)
        else:
            solution = optimize_dag(
                dag,
                platform,
                algorithm=algorithm,
                strategy=strategy,
                seed=seed,
            )
            doc = as_document(solution)
            if request.get("certify"):
                from ..experiments.common import certify_solution

                _, chain = dag.serialise(solution.order)
                stamp = certify_solution(
                    chain,
                    platform,
                    solution,
                    label=f"{dag.name} {strategy} order",
                    seed=seed,
                    backend=backend,
                    target_ci=target_ci,
                    costs=dag.cost_profile(solution.order, platform),
                )
                doc["certificate"] = as_document(stamp)
        doc.update(
            dag=dag.name,
            strategy=strategy,
            seed=seed,
            backend=self._backend_name(backend)
            if request.get("certify")
            else None,
        )
        return doc

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
