"""Unified instrumentation layer: metrics, spans, profiles, logging.

``repro.obs`` gives every subsystem one way to report what it did:

- :class:`MetricsRegistry` (:mod:`.registry`) — counters / gauges /
  timers / histograms whose immutable snapshots merge associatively
  across chunks, rounds, and ``n_jobs`` process shards.
- :class:`Tracer` (:mod:`.tracing`) — nested wall-time spans with
  Chrome trace-event JSON (Perfetto) and text-tree exporters.
- :func:`build_profile` (:mod:`.profile`) — the ``--profile`` run
  report derived from a snapshot plus the trace timeline.
- :func:`configure_logging` (:mod:`.log`) — the CLI-side structured
  ``key=value`` formatter for the ``repro`` logger hierarchy.

Library code never holds a registry argument through every call chain;
it asks this module for the *ambient* instrumentation::

    from ..obs import metrics, span

    metrics().counter("dp.solves.admv").inc()
    with span("search.climbs", starts=len(starts)):
        ...

By default the ambient registry is :data:`NULL_REGISTRY` and the tracer
is ``None``, so both lines above are near-free no-ops (bench-gated in
``benchmarks/bench_obs.py``).  The CLI — or a test — turns collection
on for a scope with::

    with instrument(MetricsRegistry(), Tracer()) as inst:
        run_the_workload()
    report = build_profile(inst.registry.snapshot(), inst.tracer)

The ambient state is *thread*-local (and therefore also process-local),
so worker processes start with instrumentation off.  Library code
reaches them through :func:`fan_out` only (lint rule RPR007): when the
caller's scope is observing, each payload runs under a private registry
and event bus in its worker, and the parent merges the shipped metric
snapshots and replays the events in payload order — the same totals and
event multiset as the in-process loop.  The ``repro serve`` worker
threads each carry their own per-request/per-job scope without
cross-talk, keeping every merge explicit and deterministic rather than
ambient.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from concurrent.futures import Executor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

from .events import (
    DEFAULT_EVENT_CAPACITY,
    EMPTY_EVENTS,
    NULL_EVENTS,
    Event,
    EventBus,
    EventPage,
    EventsSnapshot,
    NullEventBus,
    TaggedBus,
    estimate_eta,
)
from .log import ProgressRenderer, configure_logging, get_logger
from .profile import build_profile, render_profile, write_profile
from .prometheus import render_prometheus
from .registry import (
    DEFAULT_BUCKETS,
    EMPTY_SNAPSHOT,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    Timer,
    TimerSnapshot,
)
from .tracing import NULL_SPAN_HANDLE, SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "TimerSnapshot",
    "HistogramSnapshot",
    "MetricsSnapshot",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "EMPTY_SNAPSHOT",
    "DEFAULT_BUCKETS",
    "SpanEvent",
    "Tracer",
    "Event",
    "EventPage",
    "EventsSnapshot",
    "EventBus",
    "TaggedBus",
    "NullEventBus",
    "NULL_EVENTS",
    "EMPTY_EVENTS",
    "DEFAULT_EVENT_CAPACITY",
    "estimate_eta",
    "render_prometheus",
    "Instrumentation",
    "instrument",
    "metrics",
    "tracer",
    "span",
    "instant",
    "events",
    "emit",
    "fan_out",
    "process_pool",
    "build_profile",
    "render_profile",
    "write_profile",
    "configure_logging",
    "get_logger",
    "ProgressRenderer",
]


@dataclass(frozen=True)
class Instrumentation:
    """One scope's collection state: registry, optional tracer, event bus."""

    registry: MetricsRegistry
    tracer: Tracer | None = None
    events: EventBus = NULL_EVENTS


#: Ambient instrumentation (thread-local).  Swapped by :func:`instrument`.
_DISABLED = Instrumentation(registry=NULL_REGISTRY, tracer=None)
_local = threading.local()


def _ambient() -> Instrumentation:
    return getattr(_local, "active", _DISABLED)


def metrics() -> MetricsRegistry:
    """The ambient registry (:data:`NULL_REGISTRY` when disabled)."""
    return _ambient().registry


def tracer() -> Tracer | None:
    """The ambient tracer, or ``None`` when tracing is off."""
    return _ambient().tracer


def events() -> EventBus:
    """The ambient event bus (:data:`NULL_EVENTS` when disabled)."""
    return _ambient().events


def emit(kind: str, **data):
    """Emit a progress event on the ambient bus (no-op when disabled)."""
    return _ambient().events.emit(kind, **data)


class _NullSpanContext:
    """Reusable no-op span: entered when no tracer is active."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN_HANDLE

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


def span(name: str, **args):
    """Open a span on the ambient tracer (no-op context when disabled)."""
    active_tracer = _ambient().tracer
    if active_tracer is None:
        return _NULL_SPAN_CONTEXT
    return active_tracer.span(name, **args)


def instant(name: str, **args) -> None:
    """Record an instant event on the ambient tracer (no-op if disabled)."""
    active_tracer = _ambient().tracer
    if active_tracer is not None:
        active_tracer.instant(name, **args)


class _InstrumentScope:
    """Context manager swapping the ambient instrumentation in and out."""

    __slots__ = ("_inst", "_prior")

    def __init__(self, inst: Instrumentation) -> None:
        self._inst = inst

    def __enter__(self) -> Instrumentation:
        self._prior = _ambient()
        _local.active = self._inst
        return self._inst

    def __exit__(self, *exc) -> None:
        _local.active = self._prior


def instrument(
    registry: MetricsRegistry | None = None,
    trace: Tracer | None = None,
    events: "EventBus | None" = None,
) -> _InstrumentScope:
    """Activate collection for a scope::

        with instrument(MetricsRegistry(), Tracer()) as inst:
            ...
        snapshot = inst.registry.snapshot()

    ``events`` optionally attaches a live :class:`EventBus` (or a
    :class:`TaggedBus` view) for the scope; when omitted the bus stays
    the shared no-op.  Scopes nest; the prior ambient state is restored
    on exit even when the body raises.
    """
    return _InstrumentScope(
        Instrumentation(
            registry=registry if registry is not None else MetricsRegistry(),
            tracer=trace,
            events=events if events is not None else NULL_EVENTS,
        )
    )


def process_pool(max_workers: int) -> Executor:
    """A worker-process pool to pass to several :func:`fan_out` calls."""
    # imported here: multiprocessing stays out of every `import repro`
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _call(fn: Callable, args: tuple):
    return fn(*args)


def _call_observed(fn: Callable, args: tuple):
    registry = MetricsRegistry()
    bus = EventBus()
    with instrument(registry, events=bus):
        result = fn(*args)
    return result, registry.snapshot(), bus.snapshot()


def fan_out(
    fn: Callable,
    payloads: Iterable[tuple],
    *,
    n_jobs: int,
    pool: Executor | None = None,
) -> list:
    """``[fn(*payload) for payload in payloads]`` in worker processes
    (``fn`` module-level, payloads picklable).

    When the ambient registry or event bus is live, each payload runs
    under a private registry and bus whose snapshots ride home, to be
    merged and replayed here in payload order.  ``pool`` reuses a
    :func:`process_pool` (its owner shuts it down); otherwise a pool of
    ``min(n_jobs, len(payloads))`` workers lives for this call.
    """
    payloads = list(payloads)
    registry, bus = metrics(), events()
    observing = registry.enabled or bus.enabled
    entry = _call_observed if observing else _call
    with (
        nullcontext(pool) if pool is not None
        else process_pool(min(n_jobs, len(payloads)))
    ) as running:
        results = list(running.map(entry, repeat(fn), payloads))
    if not observing:
        return results
    for _, snapshot, shipped in results:
        registry.merge_snapshot(snapshot)
        bus.replay(shipped)
    return [result for result, _, _ in results]
