"""Tests for the instrumentation layer (repro.obs).

Covers the snapshot merge algebra (property-tested: associative,
commutative, identity), histogram bucket merges, span nesting and the
Chrome trace-event schema, the disabled-path no-op guarantees, snapshot
pickling (the process-shard transport).  The merge properties are exact only for exactly
representable observations, so the strategies draw multiples of 0.25.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    EMPTY_SNAPSHOT,
    NULL_REGISTRY,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    TimerSnapshot,
    Tracer,
    build_profile,
    instant,
    instrument,
    metrics,
    render_profile,
    span,
    tracer,
)

# ----------------------------------------------------------------------
# strategies: observations drawn as multiples of 0.25 so that sums,
# mins, and maxes are exact in binary floating point and the merge
# algebra holds with == rather than approx
# ----------------------------------------------------------------------
exact_floats = st.integers(min_value=0, max_value=400).map(lambda n: n * 0.25)

HIST_BOUNDS = (1.0, 4.0, 16.0)


def _timer_snapshot(observations: list[float]) -> TimerSnapshot:
    return TimerSnapshot(
        count=len(observations),
        total=sum(observations),
        min=min(observations),
        max=max(observations),
    )


def _hist_snapshot(observations: list[float]) -> HistogramSnapshot:
    hist = Histogram(bounds=HIST_BOUNDS)
    for value in observations:
        hist.observe(value)
    return HistogramSnapshot(
        bounds=hist.bounds,
        counts=tuple(hist.counts),
        count=hist.count,
        total=hist.total,
    )


observation_lists = st.lists(exact_floats, min_size=1, max_size=5)
names = st.sampled_from(["alpha", "beta", "gamma"])
snapshots = st.builds(
    MetricsSnapshot,
    counters=st.dictionaries(names, st.integers(0, 100), max_size=3),
    gauges=st.dictionaries(names, exact_floats, max_size=3),
    timers=st.dictionaries(
        names, observation_lists.map(_timer_snapshot), max_size=3
    ),
    histograms=st.dictionaries(
        names, observation_lists.map(_hist_snapshot), max_size=3
    ),
)


# ----------------------------------------------------------------------
# merge algebra
# ----------------------------------------------------------------------
class TestMergeAlgebra:
    @given(a=snapshots, b=snapshots, c=snapshots)
    @settings(max_examples=60)
    def test_merge_is_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(a=snapshots, b=snapshots)
    @settings(max_examples=60)
    def test_merge_is_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(a=snapshots)
    @settings(max_examples=30)
    def test_empty_is_identity(self, a):
        assert EMPTY_SNAPSHOT.merge(a) == a
        assert a.merge(EMPTY_SNAPSHOT) == a

    def test_counter_semantics(self):
        a = MetricsSnapshot(counters={"x": 3})
        b = MetricsSnapshot(counters={"x": 4, "y": 1})
        merged = a.merge(b)
        assert merged.counter("x") == 7
        assert merged.counter("y") == 1
        assert merged.counter("absent") == 0

    def test_gauge_merges_as_high_water(self):
        a = MetricsSnapshot(gauges={"peak": 2.5})
        b = MetricsSnapshot(gauges={"peak": 1.0})
        assert a.merge(b).gauges["peak"] == 2.5
        assert b.merge(a).gauges["peak"] == 2.5

    def test_timer_merge_folds_count_total_min_max(self):
        a = _timer_snapshot([1.0, 3.0])
        b = _timer_snapshot([0.5])
        merged = a.merge(b)
        assert merged == TimerSnapshot(count=3, total=4.5, min=0.5, max=3.0)
        assert merged.mean == 1.5


class TestHistogram:
    def test_bucketing_is_right_open(self):
        hist = Histogram(bounds=HIST_BOUNDS)
        for value in (0.5, 1.0, 2.0, 100.0):
            hist.observe(value)
        # bisect_right: a value equal to a bound lands in the bucket
        # *above* it (counts[i] holds bounds[i-1] < value < bounds[i]).
        assert hist.counts == [1, 2, 0, 1]
        assert hist.count == 4
        assert hist.total == 103.5

    def test_merge_adds_bucket_counts(self):
        a = _hist_snapshot([0.5, 2.0])
        b = _hist_snapshot([2.0, 100.0])
        merged = a.merge(b)
        assert merged.counts == (1, 2, 0, 1)
        assert merged.count == 4
        assert merged.total == 104.5

    def test_merge_rejects_mismatched_bounds(self):
        a = _hist_snapshot([1.0])
        other = Histogram()  # DEFAULT_BUCKETS
        other.observe(1.0)
        b = HistogramSnapshot(
            bounds=other.bounds,
            counts=tuple(other.counts),
            count=other.count,
            total=other.total,
        )
        with pytest.raises(ValueError, match="different bucket bounds"):
            a.merge(b)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(1.0, 1.0, 2.0))
        assert Histogram().bounds == DEFAULT_BUCKETS


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_snapshot_roundtrip_and_zero_filter(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.counter("never")  # created but untouched: filtered out
        reg.gauge("peak").set(2.0)
        reg.timer("t").observe(0.25)
        with reg.timer("t").time():
            pass
        reg.histogram("h", bounds=HIST_BOUNDS).observe(2.0)
        snap = reg.snapshot()
        assert snap.counters == {"hits": 3}
        assert "never" not in snap.counters
        assert snap.gauges == {"peak": 2.0}
        assert snap.timers["t"].count == 2
        assert snap.histograms["h"].count == 1

    def test_get_or_create_returns_same_cell(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.timer("t") is reg.timer("t")

    def test_merge_snapshot_folds_into_live_metrics(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(1)
        shard = MetricsSnapshot(
            counters={"x": 2, "y": 5},
            timers={"t": _timer_snapshot([0.5])},
        )
        reg.merge_snapshot(shard)
        snap = reg.snapshot()
        assert snap.counter("x") == 3
        assert snap.counter("y") == 5
        assert snap.timers["t"].count == 1

    def test_snapshot_is_picklable(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(7)
        reg.timer("t").observe(0.25)
        reg.histogram("h", bounds=HIST_BOUNDS).observe(2.0)
        snap = reg.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_as_dict_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.timer("t").observe(0.5)
        doc = json.loads(json.dumps(reg.snapshot().as_dict()))
        assert doc["counters"] == {"x": 1}
        assert doc["timers"]["t"]["count"] == 1
        assert doc["timers"]["t"]["mean_s"] == 0.5


# ----------------------------------------------------------------------
# disabled path: everything must be a shared no-op
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_null_registry_is_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_null_cells_are_shared_singletons(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.gauge("a") is NULL_REGISTRY.gauge("b")
        assert NULL_REGISTRY.timer("a") is NULL_REGISTRY.timer("b")
        assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")

    def test_null_operations_record_nothing(self):
        NULL_REGISTRY.counter("x").inc(10)
        NULL_REGISTRY.gauge("g").set(1.0)
        NULL_REGISTRY.timer("t").observe(1.0)
        with NULL_REGISTRY.timer("t").time():
            pass
        NULL_REGISTRY.histogram("h").observe(1.0)
        NULL_REGISTRY.merge_snapshot(MetricsSnapshot(counters={"x": 1}))
        assert NULL_REGISTRY.snapshot() is EMPTY_SNAPSHOT

    def test_ambient_defaults_to_disabled(self):
        assert metrics() is NULL_REGISTRY
        assert tracer() is None
        with span("anything", k=1) as handle:
            handle.set(done=True)  # accepted, recorded nowhere
        instant("nothing", n=2)

    def test_instrument_scopes_and_restores_on_error(self):
        reg, tr = MetricsRegistry(), Tracer()
        with pytest.raises(RuntimeError):
            with instrument(reg, tr):
                assert metrics() is reg
                assert tracer() is tr
                with span("outer"):
                    raise RuntimeError("boom")
        assert metrics() is NULL_REGISTRY
        assert tracer() is None
        # the span still closed with a duration despite the exception
        assert tr.events[0].name == "outer"
        assert tr.events[0].dur is not None


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_depth_and_parent(self):
        tr = Tracer()
        with tr.span("root", runs=2):
            with tr.span("child") as handle:
                handle.set(value=1.5)
            tr.instant("mark", n=3)
        root, child, mark = tr.events
        assert (root.depth, root.parent) == (0, None)
        assert (child.depth, child.parent) == (1, 0)
        assert (mark.depth, mark.parent) == (1, 0)
        assert child.args == {"value": 1.5}
        assert mark.dur is None
        assert root.dur >= child.dur >= 0.0

    def test_exception_unwinds_nested_spans(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise ValueError("boom")
        assert [e.name for e in tr.events] == ["outer", "inner"]
        assert all(e.dur is not None for e in tr.events)
        # the stack fully unwound: a new span is top-level again
        with tr.span("after"):
            pass
        assert tr.named("after")[0].depth == 0

    def test_chrome_trace_schema(self, tmp_path):
        tr = Tracer()
        with tr.span("root", label="x"):
            with tr.span("child"):
                pass
            tr.instant("mark", reps=100)
        path = tmp_path / "trace.json"
        tr.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["root", "child", "mark"]
        for event in events:
            assert event["ph"] in ("X", "i")
            assert event["ts"] >= 0.0  # microseconds since tracer epoch
            assert event["pid"] == 1 and event["tid"] == 1
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            else:
                assert event["s"] == "t" and "dur" not in event
        assert events[0]["args"] == {"label": "x"}
        assert events[2]["args"] == {"reps": 100}

    def test_render_tree_indents_and_truncates(self):
        tr = Tracer()
        with tr.span("root"):
            for i in range(3):
                with tr.span("step", i=i):
                    pass
        tree = tr.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  step")
        assert "[i=0]" in lines[1]
        assert "more events" in tr.render_tree(max_events=2)


# ----------------------------------------------------------------------
# profile builder
# ----------------------------------------------------------------------
class TestProfileBuilder:
    def test_profile_from_snapshot(self):
        snap = MetricsSnapshot(
            counters={
                "dp.solves.admv": 4,
                "search.exact.evaluations": 10,
                "search.exact.hits": 5,
                "search.moves.proposed": 20,
                "search.moves.accepted": 4,
                "search.starts": 3,
                "sim.batch.replications": 1000,
            },
            timers={"sim.batch.kernel": _timer_snapshot([0.5])},
        )
        profile = build_profile(snap, None, command="test", wall_s=1.25)
        assert profile["command"] == "test"
        assert profile["wall_s"] == 1.25
        assert profile["dp"]["solves"] == {"admv": 4}
        # hit rate is hits / (evaluations + hits): evaluations count the
        # priced misses, hits the memo short-circuits
        assert profile["caches"]["search.exact"]["hit_rate"] == pytest.approx(
            1 / 3
        )
        assert profile["search"]["acceptance_rate"] == 0.2
        assert profile["simulation"]["runs_per_s"] == 2000.0
        text = render_profile(profile)
        assert "=== run report ===" in text
        assert "dp solves: 4" in text
        json.dumps(profile)  # strict-JSON serialisable

    def test_empty_snapshot_profile_renders(self):
        profile = build_profile(EMPTY_SNAPSHOT, None, command="noop")
        assert render_profile(profile).startswith("=== run report ===")


# ----------------------------------------------------------------------
# library hygiene: no stray stdout in library code
# ----------------------------------------------------------------------
def test_library_code_never_prints():
    # The ad-hoc ast walk this test used to carry moved into the
    # devtools ruleset (RPR004, which also bans bare ``except:``); the
    # invariant itself still belongs to the obs suite.
    from repro.devtools import run_checks

    report = run_checks(select=["RPR004"])
    offenders = [f.location() for f in report.active]
    assert not offenders, f"library hygiene violations: {offenders}"
