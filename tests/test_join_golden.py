"""Pin the join-objective search: same moves, same prices, same counts.

Join-shaped DAGs are searched over (source order, checkpoint decisions)
under the forever-vulnerable join objective.  These seeded runs pin, for
every search method, the winner's order, decisions and the bits of its
expected time, the bits of every start's climbed value, and the
``search.join.*`` and ``search.moves.*`` counters.  The hill climber of
:func:`repro.dag.join.local_search_join` is pinned on seeded instances
with and without order moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dag.generate import generate
from repro.dag.join import JoinInstance, local_search_join
from repro.dag.search import search_order
from repro.experiments.dag_search import stress_platform

DAGS = {
    "join-6": dict(sources=6, seed=1, weights="lognormal"),
    "join-9": dict(sources=9, seed=4, weights="bimodal"),
    "join-12": dict(sources=12, seed=2, weights="lognormal", spread=1.0),
}
SEARCH = dict(seed=3, restarts=2, iterations=60, max_rounds=6)
COUNTERS = (
    "search.join.evaluations",
    "search.join.hits",
    "search.moves.accepted",
    "search.moves.proposed",
)

#: (dag, method, winning source order, decisions, expected_time.hex(),
#:  (start label, climbed value hex) per start, counters)
GOLDEN = [
    (
        "join-6",
        "hill_climb",
        "4 1 5 0 2 3",
        "111110",
        "0x1.2b4e0bd789164p+12",
        (
            ("threshold", "0x1.2cf587b8f4281p+12"),
            ("heavy-first", "0x1.2b4e0bd789164p+12"),
            ("light-first", "0x1.2cf587b8f4281p+12"),
            ("random-0", "0x1.2cf587b8f4281p+12"),
            ("random-1", "0x1.2cf587b8f4281p+12"),
        ),
        (623, 210, 19, 828),
    ),
    (
        "join-6",
        "anneal",
        "4 5 1 2 0 3",
        "111110",
        "0x1.2b4e0bd789164p+12",
        (
            ("threshold", "0x1.2eca36ad433b8p+12"),
            ("heavy-first", "0x1.2b4e0bd789164p+12"),
            ("light-first", "0x1.2cf587b8f4281p+12"),
            ("random-0", "0x1.2b4e0bd789164p+12"),
            ("random-1", "0x1.2cf587b8f4281p+12"),
        ),
        (266, 39, 147, 300),
    ),
    (
        "join-9",
        "hill_climb",
        "4 0 1 2 3 5 6 7 8",
        "111111111",
        "0x1.415e77462cf9ep+13",
        (
            ("threshold", "0x1.415e77462cf9ep+13"),
            ("heavy-first", "0x1.415e77462cf9fp+13"),
            ("light-first", "0x1.415e77462cf9fp+13"),
            ("random-0", "0x1.41652f4bf9225p+13"),
            ("random-1", "0x1.415e77462cf9fp+13"),
        ),
        (1831, 280, 23, 2106),
    ),
    (
        "join-9",
        "anneal",
        "6 8 7 3 5 0 1 4 2",
        "111111111",
        "0x1.415fb80d50e8bp+13",
        (
            ("threshold", "0x1.420112040a588p+13"),
            ("heavy-first", "0x1.454ce356ca5f6p+13"),
            ("light-first", "0x1.415fb80d50e8bp+13"),
            ("random-0", "0x1.889171d0a04a9p+13"),
            ("random-1", "0x1.41652f4bf9225p+13"),
        ),
        (277, 28, 122, 300),
    ),
    (
        "join-12",
        "hill_climb",
        "4 5 10 7 8 0 11 6 2 1 9 3",
        "111111111100",
        "0x1.bb4f74d9d187ep+13",
        (
            ("threshold", "0x1.c0612f025ed89p+13"),
            ("heavy-first", "0x1.bb4f74d9d187ep+13"),
            ("light-first", "0x1.d7d36fdcd3d62p+13"),
            ("random-0", "0x1.bf7a7c9e6640dp+13"),
            ("random-1", "0x1.fca7dc0e0c24bp+13"),
        ),
        (3860, 465, 29, 4320),
    ),
    (
        "join-12",
        "anneal",
        "1 2 4 8 9 6 0 7 10 5 3 11",
        "111111111100",
        "0x1.be43667416c49p+13",
        (
            ("threshold", "0x1.be43667416c49p+13"),
            ("heavy-first", "0x1.c5064d76f6bbbp+13"),
            ("light-first", "0x1.d0428a23c984bp+13"),
            ("random-0", "0x1.c0eba741b6cd1p+13"),
            ("random-1", "0x1.cd9b65bfcabc9p+13"),
        ),
        (298, 7, 140, 300),
    ),
]

@pytest.mark.parametrize(
    "dag_name, method, order, decisions, value, start_values, counters",
    GOLDEN,
    ids=[f"{g[0]}-{g[1]}" for g in GOLDEN],
)
def test_join_search_is_pinned(
    dag_name, method, order, decisions, value, start_values, counters
):
    dag = generate("join", **DAGS[dag_name])
    result = search_order(dag, stress_platform(), method=method, **SEARCH)
    assert result.algorithm == "join"
    schedule = result.solution.join_schedule
    assert " ".join(map(str, schedule.order)) == order
    assert "".join("1" if d else "0" for d in schedule.checkpoint) == decisions
    assert result.expected_time.hex() == value
    assert (
        tuple((label, v.hex()) for label, v in result.start_values.items())
        == start_values
    )
    assert tuple(result.metrics.counter(name) for name in COUNTERS) == counters
    assert {
        name
        for name in result.metrics.counters
        if name.startswith(("search.join.", "search.moves."))
    } <= set(COUNTERS)


def _instance(seed: int) -> JoinInstance:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    return JoinInstance(
        tuple(float(x) for x in rng.lognormal(np.log(400), 1.2, n)),
        float(rng.uniform(100, 2000)),
        rate=float(rng.uniform(1e-5, 1e-3)),
        C=float(rng.uniform(10, 800)),
        R=float(rng.uniform(10, 800)),
    )


#: (instance seed, optimize_order, value hex, source order, decisions)
LOCAL_SEARCH = [
    (0, True, "0x1.c0e5c719404eep+13", "5 6 1 4 2 0 3 9 7 8", "1111111110"),
    (0, False, "0x1.c0e5c719404eep+13", "5 6 1 4 2 0 3 9 7 8", "1111111110"),
    (1, True, "0x1.92e575554dc86p+12", "3 0 6 4 1 5 2", "0000000"),
    (1, False, "0x1.92e575554dc86p+12", "3 0 6 4 1 5 2", "0000000"),
    (2, True, "0x1.34b89ac2eb7b6p+14", "3 4 9 6 7 5 1 0 8 2", "1111100000"),
    (2, False, "0x1.34b89ac2eb7b6p+14", "3 4 9 6 7 5 1 0 8 2", "1111100000"),
    (3, True, "0x1.abbaccd172c89p+24", "8 1 9 4 6 3 2 7 5 0", "1111000000"),
    (3, False, "0x1.abbaccd172c89p+24", "8 1 9 4 6 3 2 7 5 0", "1111000000"),
    (4, True, "0x1.0ee1c05749012p+14", "1 2 8 6 4 0 5 7 3", "111111100"),
    (4, False, "0x1.0ee1c05749012p+14", "1 2 8 6 4 0 5 7 3", "111111100"),
]

@pytest.mark.parametrize(
    "seed, optimize_order, value, order, decisions",
    LOCAL_SEARCH,
    ids=[f"seed{s[0]}-order{int(s[1])}" for s in LOCAL_SEARCH],
)
def test_local_search_join_is_pinned(seed, optimize_order, value, order, decisions):
    found, schedule = local_search_join(
        _instance(seed), optimize_order=optimize_order
    )
    assert found.hex() == value
    assert " ".join(map(str, schedule.order)) == order
    assert "".join("1" if d else "0" for d in schedule.checkpoint) == decisions
