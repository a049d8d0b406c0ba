"""Pin the order-search path: same moves, same prices, same counts.

Batching the bound screen (one :meth:`ChainObjective.bounds` call per
neighbourhood) and the ``d1``-batched ``ADMV*`` DP must leave every
search decision as it was.  These seeded runs were recorded with the
one-neighbour-at-a-time screen and the one-``d1``-at-a-time DP: the
winning order, the bits of its expected time and the bound/exact
evaluation and memo-hit counters must all come out unchanged.
"""

from __future__ import annotations

import pytest

from repro.dag.generate import generate
from repro.dag.search import search_order
from repro.experiments.dag_search import stress_platform

DAGS = {
    "uniform": dict(
        kind="layered", seed=3, tasks=12, layers=4, density=0.5,
        weights="lognormal",
    ),
    "hetero": dict(
        kind="layered", seed=5, tasks=12, layers=4, density=0.5,
        weights="lognormal", cost_spread=1.0,
    ),
}
SEARCH = dict(
    seed=7, restarts=1, iterations=20, max_rounds=3, polish_budget=2,
    recombine=1,
)
COUNTERS = (
    "search.bound.evaluations",
    "search.bound.hits",
    "search.exact.evaluations",
    "search.exact.hits",
)

#: (dag, algorithm, method, winning order, expected_time.hex(), counters)
GOLDEN = [
    (
        "uniform",
        "admv_star",
        "hill_climb",
        "t01 t00 t02 t03 t04 t05 t06 t07 t08 t09 t10 t11",
        "0x1.16072a7046e80p+14",
        (281, 37, 24, 2),
    ),
    (
        "uniform",
        "admv_star",
        "anneal",
        "t01 t00 t02 t03 t04 t05 t07 t06 t08 t09 t10 t11",
        "0x1.16072a7046e81p+14",
        (141, 19, 148, 20),
    ),
    (
        "uniform",
        "admv",
        "hill_climb",
        "t01 t00 t02 t03 t04 t05 t06 t07 t08 t09 t10 t11",
        "0x1.16072a7046e80p+14",
        (281, 37, 24, 2),
    ),
    (
        "hetero",
        "admv_star",
        "hill_climb",
        "t01 t00 t03 t04 t08 t05 t09 t02 t07 t06 t11 t10",
        "0x1.5b7f5d735756fp+13",
        (445, 45, 30, 4),
    ),
    (
        "hetero",
        "admv_star",
        "anneal",
        "t00 t01 t02 t06 t03 t04 t05 t08 t09 t07 t11 t10",
        "0x1.5b4adf692d4abp+13",
        (140, 20, 82, 22),
    ),
    (
        "hetero",
        "admv",
        "hill_climb",
        "t01 t00 t03 t02 t04 t05 t07 t10 t08 t06 t11 t09",
        "0x1.5968b4866d389p+13",
        (492, 35, 33, 2),
    ),
]


@pytest.mark.parametrize(
    "dag_name, algorithm, method, order, value, counters",
    GOLDEN,
    ids=[f"{g[0]}-{g[1]}-{g[2]}" for g in GOLDEN],
)
def test_search_path_is_pinned(dag_name, algorithm, method, order, value, counters):
    spec = dict(DAGS[dag_name])
    dag = generate(spec.pop("kind"), **spec)
    result = search_order(
        dag, stress_platform(), algorithm=algorithm, method=method, **SEARCH
    )
    assert " ".join(map(str, result.solution.order)) == order
    assert result.expected_time.hex() == value
    assert tuple(result.metrics.counter(name) for name in COUNTERS) == counters
