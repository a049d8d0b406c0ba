"""Metrics registry: counters, gauges, timers, histograms.

The registry is the mergeable half of the instrumentation layer
(:mod:`repro.obs`).  Live metric objects are plain mutable cells — no
locks, no I/O, no dependencies — so incrementing one costs an attribute
add.  What crosses process/chunk/round boundaries is never the live
object but its *snapshot*: an immutable, picklable value with an
associative and commutative ``merge``, the same discipline as the
Welford/Chan moment merges in :mod:`repro.simulation.adaptive`.  Worker
shards (the chunk workers of ``simulate_batch``) build a private
registry, ship ``registry.snapshot()`` home, and the parent folds the
shards in any order with the same result.

Merge semantics per metric kind:

- counter:   values add.
- gauge:     high-water mark (``max``) — last-write-wins is not
             commutative across shards, the high-water mark is.
- timer:     ``(count, total, min, max)`` fold; means are derived.
- histogram: fixed bucket bounds, per-bucket counts add.  Merging
             histograms with different bounds is a hard error, not a
             resample.

A disabled path is provided by :data:`NULL_REGISTRY`: its factories hand
back shared no-op metric objects so instrumented call sites stay
branch-free and near-free when observability is off.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any

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
]

#: Default histogram bucket upper bounds (seconds-flavoured, geometric).
#: Observations land in ``len(bounds) + 1`` buckets; the last bucket is
#: the overflow ``(bounds[-1], inf)``.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


class Counter:
    """Monotonically increasing count (int-valued)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time value; snapshots merge by high-water mark."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class _TimerContext:
    """Context manager recording one wall-time observation on exit."""

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.observe(time.perf_counter() - self._t0)


class Timer:
    """Wall-time accumulator: ``(count, total, min, max)`` seconds."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def time(self) -> _TimerContext:
        return _TimerContext(self)


class Histogram:
    """Fixed-bound bucketed distribution; per-bucket counts merge by sum."""

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullTimerContext:
    __slots__ = ()

    def __enter__(self) -> "_NullTimerContext":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_TIMER_CONTEXT = _NullTimerContext()


class _NullTimer(Timer):
    __slots__ = ()

    def observe(self, seconds: float) -> None:
        pass

    def time(self) -> _NullTimerContext:  # type: ignore[override]
        return _NULL_TIMER_CONTEXT


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


@dataclass(frozen=True)
class TimerSnapshot:
    """Immutable ``(count, total, min, max)`` fold of a :class:`Timer`."""

    count: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "TimerSnapshot") -> "TimerSnapshot":
        return TimerSnapshot(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "mean_s": self.mean,
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "TimerSnapshot":
        return TimerSnapshot(
            count=int(doc["count"]),
            total=float(doc["total_s"]),
            min=float(doc["min_s"]),
            max=float(doc["max_s"]),
        )


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable bucket counts of a :class:`Histogram`."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total: float

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            total=self.total + other.total,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "HistogramSnapshot":
        return HistogramSnapshot(
            bounds=tuple(float(b) for b in doc["bounds"]),
            counts=tuple(int(c) for c in doc["counts"]),
            count=int(doc["count"]),
            total=float(doc["total"]),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, picklable registry state with an associative ``merge``.

    ``a.merge(b).merge(c) == a.merge(b.merge(c))`` and
    ``a.merge(b) == b.merge(a)`` hold exactly for counters/gauges and
    for timers/histograms whose observations are exactly representable
    (property-tested in ``tests/test_obs.py``).
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    timers: dict[str, TimerSnapshot] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        timers = dict(self.timers)
        for name, snap in other.timers.items():
            mine = timers.get(name)
            timers[name] = snap if mine is None else mine.merge(snap)
        histograms = dict(self.histograms)
        for name, snap in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = snap if mine is None else mine.merge(snap)
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            timers=timers,
            histograms=histograms,
        )

    def counter(self, name: str) -> int:
        """The merged value of counter ``name`` (0 when absent)."""
        return self.counters.get(name, 0)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (sorted keys for stable output)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "timers": {
                k: self.timers[k].as_dict() for k in sorted(self.timers)
            },
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`as_dict` (used by the service/JSON layer)."""
        return MetricsSnapshot(
            counters={
                str(k): int(v) for k, v in doc.get("counters", {}).items()
            },
            gauges={
                str(k): float(v) for k, v in doc.get("gauges", {}).items()
            },
            timers={
                str(k): TimerSnapshot.from_dict(v)
                for k, v in doc.get("timers", {}).items()
            },
            histograms={
                str(k): HistogramSnapshot.from_dict(v)
                for k, v in doc.get("histograms", {}).items()
            },
        )


EMPTY_SNAPSHOT = MetricsSnapshot()


class MetricsRegistry:
    """Namespace of live metrics; ``snapshot()`` freezes it for shipping.

    Factories are get-or-create: two calls with the same name return the
    same metric object, which is what lets call sites hold "views over
    shared metric objects" (the ``ChainObjective`` cache counters keep
    their int-attribute API as properties over registry counters).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer()
        return metric

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={
                name: c.value for name, c in self._counters.items() if c.value
            },
            gauges={name: g.value for name, g in self._gauges.items()},
            timers={
                name: TimerSnapshot(t.count, t.total, t.min, t.max)
                for name, t in self._timers.items()
                if t.count
            },
            histograms={
                name: HistogramSnapshot(
                    h.bounds, tuple(h.counts), h.count, h.total
                )
                for name, h in self._histograms.items()
                if h.count
            },
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a shipped shard snapshot into the live metrics."""
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, snap in snapshot.timers.items():
            timer = self.timer(name)
            timer.count += snap.count
            timer.total += snap.total
            timer.min = min(timer.min, snap.min)
            timer.max = max(timer.max, snap.max)
        for name, snap in snapshot.histograms.items():
            hist = self.histogram(name, snap.bounds)
            if hist.bounds != snap.bounds:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ across shards"
                )
            for i, n in enumerate(snap.counts):
                hist.counts[i] += n
            hist.count += snap.count
            hist.total += snap.total


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_TIMER = _NullTimer()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """Disabled registry: factories return shared no-op metrics.

    Every mutator is a pass-through so instrumentation left inline in
    hot code costs a dict-free method call and nothing else
    (bench-gated in ``benchmarks/bench_obs.py``).
    """

    enabled = False

    def __init__(self) -> None:
        pass  # no dicts: the null registry never accumulates state

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def timer(self, name: str) -> Timer:
        return _NULL_TIMER

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> MetricsSnapshot:
        return EMPTY_SNAPSHOT

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        pass


NULL_REGISTRY = NullRegistry()
