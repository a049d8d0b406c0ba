"""The live progress event bus: ordering, merging, and the no-op path.

Three property families anchor the tentpole:

- **sequence/cursor discipline** — ``emit`` numbers events monotonically
  from 1, ``poll(after)`` pages never gap or duplicate, and ring
  truncation is *signalled* (``EventPage.truncated`` + ``missed``),
  never silent;
- **snapshot merge** — :class:`EventsSnapshot.merge` is associative and
  commutative (hypothesis), which is what makes the ``n_jobs`` shipping
  discipline order-independent;
- **disabled path** — :data:`NULL_EVENTS` is a shared no-op whose every
  operation returns the same cheap constants, so instrumented call
  sites cost one attribute check when events are off.

Plus the emitters themselves: adaptive campaigns and the batched kernel
produce the same event multiset in-process and through the ``n_jobs``
process pool, and the ETA estimator follows the 1/sqrt(n) half-width
model exactly.
"""

import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    EMPTY_EVENTS,
    NULL_EVENTS,
    Event,
    EventBus,
    EventsSnapshot,
    MetricsRegistry,
    TaggedBus,
    estimate_eta,
    instrument,
)
from repro.obs import events as ambient_events
from repro.obs import emit as ambient_emit


# ----------------------------------------------------------------------
# bus: sequence numbers, cursors, truncation
# ----------------------------------------------------------------------
class TestEventBus:
    def test_sequences_are_monotonic_from_one(self):
        bus = EventBus()
        seqs = [bus.emit("k", i=i).seq for i in range(10)]
        assert seqs == list(range(1, 11))
        assert bus.last_seq == 10

    def test_poll_cursor_never_gaps_or_duplicates(self):
        bus = EventBus()
        for i in range(25):
            bus.emit("k", i=i)
        seen = []
        cursor = 0
        while True:
            page = bus.poll(cursor, limit=7)
            if not page.events:
                break
            seen.extend(e.seq for e in page.events)
            cursor = page.cursor
        assert seen == list(range(1, 26))

    def test_ring_truncation_is_signalled(self):
        bus = EventBus(capacity=4)
        for i in range(6):
            bus.emit("k", i=i)
        page = bus.poll(0)
        assert page.truncated and page.missed == 2
        assert [e.seq for e in page.events] == [3, 4, 5, 6]
        # a caught-up cursor sees no truncation
        assert not bus.poll(page.cursor).truncated

    def test_blocking_poll_wakes_on_emit(self):
        bus = EventBus()
        got = []

        def consume():
            got.append(bus.poll(0, timeout=5.0))

        t = threading.Thread(target=consume)
        t.start()
        bus.emit("wake", n=1)
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert [e.kind for e in got[0].events] == ["wake"]

    def test_on_emit_hook_sees_every_event(self):
        seen = []
        bus = EventBus(on_emit=seen.append)
        bus.emit("a", x=1)
        bus.emit("b", y=2)
        assert [(e.kind, e.seq) for e in seen] == [("a", 1), ("b", 2)]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)

    def test_event_round_trips_through_dict(self):
        event = Event(seq=3, ts=12.5, kind="mc.round", data={"reps": 7})
        assert Event.from_dict(event.as_dict()) == event

    def test_tagged_bus_merges_tags_and_forwards(self):
        bus = EventBus()
        forwarded = []
        view = TaggedBus(bus, on_forward=forwarded.append, job="job-9")
        view.emit("mc.round", reps=10)
        (event,) = bus.poll(0).events
        assert event.data == {"job": "job-9", "reps": 10}
        assert forwarded == [event]
        # emit-only: the view itself retains nothing
        assert view.snapshot() is EMPTY_EVENTS
        assert view.poll(0).events == ()


# ----------------------------------------------------------------------
# snapshot merge: associative + commutative (the n_jobs discipline)
# ----------------------------------------------------------------------
_event = st.builds(
    Event,
    seq=st.integers(min_value=1, max_value=50),
    ts=st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    kind=st.sampled_from(["mc.round", "search.climb", "sim.chunk"]),
    data=st.dictionaries(
        st.sampled_from(["reps", "value", "label"]),
        st.integers(min_value=0, max_value=99),
        max_size=3,
    ),
)
_snapshot = st.builds(
    lambda evs: EventsSnapshot(events=tuple(evs)),
    st.lists(_event, max_size=8),
)


class TestEventsSnapshotMerge:
    @settings(max_examples=60, deadline=None)
    @given(a=_snapshot, b=_snapshot)
    def test_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=60, deadline=None)
    @given(a=_snapshot, b=_snapshot, c=_snapshot)
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=30, deadline=None)
    @given(a=_snapshot)
    def test_identity_and_resequencing(self, a):
        merged = a.merge(EMPTY_EVENTS)
        assert merged is a or merged == a
        both = a.merge(a)
        assert [e.seq for e in both.events] == list(
            range(1, len(both.events) + 1)
        )

    def test_merge_orders_by_timestamp(self):
        early = EventsSnapshot(
            events=(Event(seq=1, ts=1.0, kind="a", data={}),)
        )
        late = EventsSnapshot(
            events=(Event(seq=1, ts=2.0, kind="b", data={}),)
        )
        merged = late.merge(early)
        assert [e.kind for e in merged.events] == ["a", "b"]
        assert [e.seq for e in merged.events] == [1, 2]

    def test_replay_preserves_timestamps(self):
        src = EventBus()
        src.emit("k", _ts=42.0, x=1)
        dst = EventBus()
        dst.replay(src.snapshot())
        (event,) = dst.poll(0).events
        assert event.ts == 42.0 and event.seq == 1


# ----------------------------------------------------------------------
# disabled path
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_null_bus_is_ambient_default(self):
        assert ambient_events() is NULL_EVENTS
        assert not ambient_events().enabled

    def test_null_operations_are_no_ops(self):
        assert NULL_EVENTS.emit("k", x=1) is None
        assert NULL_EVENTS.last_seq == 0
        assert NULL_EVENTS.poll(0).events == ()
        assert NULL_EVENTS.snapshot() is EMPTY_EVENTS
        NULL_EVENTS.replay(EMPTY_EVENTS)  # no-op, no error
        assert ambient_emit("k", x=1) is None

    def test_instrument_scopes_the_bus(self):
        bus = EventBus()
        with instrument(MetricsRegistry(), events=bus):
            assert ambient_events() is bus
            ambient_emit("scoped", n=1)
        assert ambient_events() is NULL_EVENTS
        assert [e.kind for e in bus.poll(0).events] == ["scoped"]


# ----------------------------------------------------------------------
# ETA estimator
# ----------------------------------------------------------------------
class TestEstimateEta:
    def test_inverse_sqrt_model(self):
        # at 2% after 1000 reps, reaching 1% needs 4x the reps
        eta = estimate_eta(1000, 0.02, 0.01, 2.0)
        assert eta["predicted_total_reps"] == 4000
        assert eta["remaining_reps"] == 3000
        assert eta["reps_per_s"] == 500.0
        assert eta["eta_s"] == pytest.approx(6.0)

    def test_already_converged_predicts_zero_remaining(self):
        eta = estimate_eta(1000, 0.005, 0.01, 1.0)
        assert eta["remaining_reps"] == 0
        assert eta["eta_s"] == 0.0

    @pytest.mark.parametrize(
        "reps,hw,target,elapsed",
        [
            (0, 0.02, 0.01, 1.0),
            (100, math.inf, 0.01, 1.0),
            (100, math.nan, 0.01, 1.0),
            (100, 0.0, 0.01, 1.0),
            (100, 0.02, 0.0, 1.0),
        ],
    )
    def test_degenerate_inputs_yield_none_not_nonfinite(
        self, reps, hw, target, elapsed
    ):
        eta = estimate_eta(reps, hw, target, elapsed)
        assert eta["predicted_total_reps"] is None
        assert eta["eta_s"] is None
        # every populated field must be JSON-representable (finite)
        for value in eta.values():
            if value is not None:
                assert math.isfinite(value)
        json.dumps(eta)


# ----------------------------------------------------------------------
# emitters: adaptive rounds, batch chunks — and n_jobs invariance
# ----------------------------------------------------------------------
_WALL_CLOCK_FIELDS = ("wall_s", "eta_s", "reps_per_s")


def _event_multiset(bus):
    """Deterministic multiset view: payloads minus wall-clock fields."""
    out = []
    for e in bus.snapshot().events:
        data = {
            k: v for k, v in e.data.items() if k not in _WALL_CLOCK_FIELDS
        }
        out.append((e.kind, json.dumps(data, sort_keys=True, default=str)))
    return sorted(out)


class TestEmitters:
    def test_adaptive_rounds_and_convergence(self):
        from repro.chains import uniform_chain
        from repro.core import optimize
        from repro.platforms import HERA
        from repro.simulation import run_adaptive

        chain = uniform_chain(6, 50.0)
        sol = optimize(chain, HERA)
        bus = EventBus()
        with instrument(MetricsRegistry(), events=bus):
            result = run_adaptive(
                chain,
                HERA,
                sol.schedule,
                target_relative_ci=0.05,
                min_runs=200,
                max_runs=2000,
                seed=1,
            )
        events = bus.snapshot().events
        rounds = [e for e in events if e.kind == "mc.round"]
        assert len(rounds) == len(result.rounds)
        for event, r in zip(rounds, result.rounds):
            assert event.data["total_reps"] == r.total_reps
            assert event.data["target"] == 0.05
            assert "eta_s" in event.data and "reps_per_s" in event.data
        terminal = events[-1]
        assert terminal.kind == (
            "mc.converged" if result.converged else "mc.capped"
        )
        assert terminal.data["total_reps"] == result.reps_used

    def test_batch_chunk_events_ship_from_n_jobs_workers(self):
        from repro.chains import uniform_chain
        from repro.core import optimize
        from repro.platforms import HERA
        from repro.simulation import simulate_batch

        chain = uniform_chain(6, 50.0)
        sol = optimize(chain, HERA)

        def run(n_jobs):
            bus = EventBus()
            with instrument(MetricsRegistry(), events=bus):
                simulate_batch(
                    chain,
                    HERA,
                    sol.schedule,
                    800,
                    seed=3,
                    chunk_size=200,
                    n_jobs=n_jobs,
                )
            return bus

        serial, sharded = run(None), run(2)
        kinds = [e.kind for e in serial.snapshot().events]
        assert kinds.count("sim.chunk") == 4
        assert _event_multiset(serial) == _event_multiset(sharded)

    def test_disabled_run_emits_nothing_and_matches_enabled_result(self):
        from repro.chains import uniform_chain
        from repro.core import optimize
        from repro.platforms import HERA
        from repro.simulation import run_adaptive

        chain = uniform_chain(6, 50.0)
        sol = optimize(chain, HERA)
        kwargs = dict(
            target_relative_ci=0.05, min_runs=200, max_runs=1000, seed=7
        )
        plain = run_adaptive(chain, HERA, sol.schedule, **kwargs)
        bus = EventBus()
        with instrument(MetricsRegistry(), events=bus):
            observed = run_adaptive(chain, HERA, sol.schedule, **kwargs)
        assert ambient_events() is NULL_EVENTS
        assert plain.mean == observed.mean
        assert plain.reps_used == observed.reps_used


# ----------------------------------------------------------------------
# CLI progress formatting (non-TTY discipline)
# ----------------------------------------------------------------------
class TestProgressRendering:
    def test_non_tty_lines_are_newline_terminated_records(self):
        import io

        from repro.obs import ProgressRenderer

        stream = io.StringIO()  # not a TTY
        renderer = ProgressRenderer(stream)
        renderer.update("mc.round 0 reps=400")
        renderer.update("mc.round 1 reps=800")
        renderer.finish()
        out = stream.getvalue()
        assert "\r" not in out and "\x1b" not in out
        lines = out.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("ts=")
            assert 'logger=repro.progress msg="mc.round' in line

    def test_progress_line_shows_eta(self):
        from repro.cli import _progress_line

        bus = EventBus()
        event = bus.emit(
            "mc.round",
            index=2,
            total_reps=4000,
            relative_half_width=0.013,
            target=0.01,
            reps_per_s=52000.0,
            eta_s=2.1,
        )
        line = _progress_line(event)
        assert "mc.round 2" in line
        assert "reps=4000" in line
        assert "eta=2.1s" in line
        assert "reps/s=52,000" in line
