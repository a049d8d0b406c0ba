"""Span tracing from outside the program, and the per-layer metrics.

The program binds its public functions by name at each import site
(``from ..core.solver import optimize``), so a wrapper has to replace
the name in every module that calls it.  :data:`IN_PROCESS_SITES` lists
the sites the in-process workloads reach; :data:`SERVER_SITES` adds the
service classes, whose wrappers the launcher installs in the server
process.  Spans are aggregated in memory per name: calls, busy time and
self time (busy time minus the wrapped calls made inside the span).
The recorder is the benchmark's own rather than ``repro.obs.Tracer``:
that one keeps every event, serves one thread, and is code under test.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

from common import ratio


def _optimize_name(args: tuple, kwargs: dict, result: Any) -> str:
    from repro.core.solver import canonical_algorithm

    algorithm = args[2] if len(args) > 2 else kwargs.get("algorithm", "admv")
    return f"core.optimize.{canonical_algorithm(str(algorithm))}"


def _handle_name(args: tuple, kwargs: dict, result: Any) -> str:
    warm = result is not None and result.cache == "hit"
    return "service.handle.warm" if warm else "service.handle.cold"


#: (module, owner class or None, attribute, span name)
IN_PROCESS_SITES: list[tuple[str, str | None, str, Any]] = [
    ("repro.dag.search", None, "optimize", _optimize_name),
    ("repro.dag.parallel", None, "optimize", _optimize_name),
    ("repro.service.engine", None, "optimize", _optimize_name),
    ("repro.dag.search", None, "evaluate_schedule", "core.evaluate"),
    ("repro.service.engine", None, "evaluate_schedule", "core.evaluate"),
    ("repro.simulation.batch", None, "compile_schedule", "sim.compile"),
    ("repro.simulation.adaptive", None, "compile_schedule", "sim.compile"),
    ("repro.simulation.batch", None, "run_compiled", "sim.kernel"),
    ("repro.simulation.adaptive", None, "run_compiled", "sim.kernel"),
    ("repro.service.engine", None, "canonical_hash", "api.canonical_hash"),
    ("repro.service.engine", None, "as_document", "api.as_document"),
]

SERVER_SITES = IN_PROCESS_SITES + [
    ("repro.service.engine", "Engine", "handle", _handle_name),
    ("repro.service.engine", "Engine", "request_key", "service.request_key"),
    ("repro.service.cache", "ContentCache", "get", "service.cache.get"),
    ("repro.service.cache", "ContentCache", "put", "service.cache.put"),
    # the request handler's dispatch: its self time is the http layer
    ("repro.service.http", "_Handler", "do_POST", "service.http"),
]


class SpanRecorder:
    """Thread-safe in-memory aggregation of nested spans by name.

    ``clock`` times the spans: the in-process workloads pass the clock
    of their op times, so that layer shares divide like by like.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: wall of spans opened with no span around them, per thread
        self.top_level = 0.0

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[list[list[float]], list[float], float]:
        stack = self._stack()
        frame = [0.0]  # wall of the spans nested inside this one
        stack.append(frame)
        return stack, frame, self._clock()

    def _exit(self, stack, frame, t0: float, name: str) -> None:
        wall = self._clock() - t0
        stack.pop()
        if stack:
            stack[-1][0] += wall
        with self._lock:
            self.calls[name] += 1
            self.busy[name] += wall
            self.self_time[name] += wall - frame[0]
            if not stack:
                self.top_level += wall

    @contextmanager
    def span(self, name: str):
        stack, frame, t0 = self._enter()
        try:
            yield
        finally:
            self._exit(stack, frame, t0, name)

    def wrap(self, fn: Callable, name) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, frame, t0 = self._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                label = name if isinstance(name, str) else name(args, kwargs, result)
                self._exit(stack, frame, t0, label)

        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy": dict(self.busy),
                "self": dict(self.self_time),
                "top_level": self.top_level,
            }


@contextmanager
def installed(recorder: SpanRecorder, sites=IN_PROCESS_SITES):
    """Replace every site with a recording wrapper; restore on exit."""
    originals = []
    try:
        for module_name, owner_name, attr, name in sites:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(fn, name))
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def _busy_share(spans: dict, name: str, wall: float) -> float:
    return ratio(spans["busy"].get(name, 0.0), wall)


def _self_share(spans: dict, name: str, wall: float) -> float:
    return ratio(spans["self"].get(name, 0.0), wall)


def layer_metrics(
    spans: dict,
    counters: dict[str, int],
    op_wall: float,
    *,
    cache: dict | None = None,
    recompute_ratio: float = 0.0,
    overshoot: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric from one traced phase.

    ``spans`` is a :meth:`SpanRecorder.snapshot`, ``counters`` the
    ``repro.obs`` counters of the same phase and ``op_wall`` the summed
    time of its ops (for service_mix, the summed client latency); times
    are reported as shares of ``op_wall``.  ``trace.unattributed_share``
    is the share outside any span recorded in the program's process:
    benchmark bookkeeping in-process, connection handling outside
    ``do_POST`` for service_mix.  A layer the workload never reaches
    reads 0.
    """
    calls = spans["calls"]
    c = counters.get
    optimize_calls = sum(n for k, n in calls.items() if k.startswith("core.optimize."))
    reps = c("sim.batch.replications", 0)
    steps = c("sim.batch.steps", 0)
    kernel_s = spans["busy"].get("sim.kernel", 0.0)
    metrics = {
        "core.optimize.calls": optimize_calls,
        "core.evaluate.calls": calls.get("core.evaluate", 0),
        "core.evaluate.busy_share": _busy_share(spans, "core.evaluate", op_wall),
        "dag.search.self_share": _self_share(spans, "dag.search", op_wall),
        "dag.moves.accept_ratio": ratio(
            c("search.moves.accepted", 0), c("search.moves.proposed", 0)
        ),
        "dag.exact.hit_ratio": ratio(
            c("search.exact.hits", 0),
            c("search.exact.hits", 0) + c("search.exact.evaluations", 0),
        ),
        "dag.bound.hit_ratio": ratio(
            c("search.bound.hits", 0),
            c("search.bound.hits", 0) + c("search.bound.evaluations", 0),
        ),
        "dag.bound.per_exact": ratio(
            c("search.bound.evaluations", 0), c("search.exact.evaluations", 0)
        ),
        "dag.parallel.self_share": _self_share(spans, "dag.parallel", op_wall),
        "dag.parallel.interval.hit_ratio": ratio(
            c("parallel.interval.hits", 0),
            c("parallel.interval.hits", 0) + c("parallel.interval.solves", 0),
        ),
        "sim.compile.busy_share": _busy_share(spans, "sim.compile", op_wall),
        "sim.adaptive.rounds": c("mc.rounds", 0),
        "sim.adaptive.self_share": _self_share(spans, "sim.adaptive", op_wall),
        "sim.adaptive.overshoot": overshoot,
        "sim.kernel.busy_share": _busy_share(spans, "sim.kernel", op_wall),
        "sim.replications": reps,
        "sim.steps": steps,
        "sim.steps_per_rep": ratio(steps, reps),
        "sim.kernel.reps_per_s": ratio(reps, kernel_s),
        "service.request_key.busy_share": _busy_share(
            spans, "service.request_key", op_wall
        ),
        "api.canonical_hash.busy_share": _busy_share(
            spans, "api.canonical_hash", op_wall
        ),
        "service.http.self_share": _self_share(spans, "service.http", op_wall),
        "service.handle.warm.busy_share": _busy_share(
            spans, "service.handle.warm", op_wall
        ),
        "service.handle.cold.busy_share": _busy_share(
            spans, "service.handle.cold", op_wall
        ),
        "api.as_document.busy_share": _busy_share(spans, "api.as_document", op_wall),
        "service.cache.hit_ratio": ratio(
            (cache or {}).get("hits", 0),
            (cache or {}).get("hits", 0) + (cache or {}).get("misses", 0),
        ),
        "service.cache.evictions": (cache or {}).get("evictions", 0),
        "service.recompute_ratio": recompute_ratio,
        "trace.unattributed_share": ratio(
            max(op_wall - spans["top_level"], 0.0), op_wall
        ),
        # workload-specific end-to-end figures, 0 until the workload that
        # measures them fills them in
        "search_quality": 0.0,
        "mc_reps_per_s": 0.0,
    }
    for algorithm in ("adv_star", "admv_star", "admv"):
        metrics[f"core.optimize.{algorithm}.busy_share"] = _busy_share(
            spans, f"core.optimize.{algorithm}", op_wall
        )
    return metrics
