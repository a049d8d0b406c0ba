"""The chain, join and p=2 searches share one set of search semantics.

Every variant counts ``rounds`` as the moves it accepted, and emits the
same progress events with the same payload keys for each method.
"""

from __future__ import annotations

import pytest

from repro.dag.generate import generate
from repro.dag.parallel import search_parallel
from repro.dag.search import SEARCH_METHODS, search_order
from repro.experiments.dag_search import stress_platform
from repro.obs import EventBus, MetricsRegistry, instrument

OPTIONS = dict(seed=7, restarts=1, iterations=40, max_rounds=3)
LAYERED = dict(tasks=8, layers=3, density=0.5, weights="lognormal", seed=3)


def _run(variant: str, method: str):
    platform = stress_platform()
    if variant == "chain":
        dag = generate("layered", **LAYERED)
        return search_order(
            dag, platform, algorithm="admv_star", method=method, **OPTIONS
        )
    if variant == "join":
        dag = generate("join", sources=6, seed=1, weights="lognormal")
        result = search_order(dag, platform, method=method, **OPTIONS)
        assert result.algorithm == "join"
        return result
    dag = generate("layered", **LAYERED)
    return search_parallel(
        dag, platform, 2, algorithm="admv_star", method=method, **OPTIONS
    )


VARIANTS = ("chain", "join", "parallel")


@pytest.mark.parametrize("method", SEARCH_METHODS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_rounds_count_accepted_moves(variant, method):
    result = _run(variant, method)
    assert result.rounds == result.metrics.counter("search.moves.accepted")


PAYLOAD_KEYS = {
    "search.round": {"round", "value", "proposed"},
    "search.best": {"iteration", "value", "accepted"},
    "search.climb": {"label", "value", "rounds"},
}
#: event kinds each method emits on these instances
EXPECTED_KINDS = {
    "hill_climb": {"search.round", "search.climb"},
    "anneal": {"search.best", "search.climb"},
}


@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_every_variant_emits_the_same_events(method):
    for variant in VARIANTS:
        bus = EventBus()
        with instrument(MetricsRegistry(), events=bus):
            _run(variant, method)
        events = bus.snapshot().events
        assert {event.kind for event in events} == EXPECTED_KINDS[method], variant
        for event in events:
            assert set(event.data) == PAYLOAD_KEYS[event.kind], (variant, event)
