"""Pin the p=2 search path: same moves, same prices, same counts.

Pricing a hill-climbing round's whole neighbourhood in one
:meth:`ParallelObjective.values` call, with the interval solves batched
through :func:`repro.core.optimize_batch`, must leave every search
decision as it was.  These seeded runs were recorded with the
one-state-at-a-time objective and one ``optimize`` call per interval:
the winning order and assignment, the bits of its surrogate value, each
worker's schedule and every ``parallel.*`` and ``search.moves.*``
counter must all come out unchanged.  The anneal pins were
re-recorded when the p=2 annealer took the chain and join annealers'
``delta <= 0`` acceptance rule (a zero-cost move is accepted without
drawing a uniform).

The platform makes disk checkpoints dear and memory checkpoints cheap,
so the worker schedules mix both levels instead of checkpointing every
task to disk.
"""

from __future__ import annotations

import pytest

from repro.dag.generate import generate
from repro.dag.parallel import search_parallel
from repro.platforms import Platform

PLATFORM = Platform.from_costs(
    "golden-parallel", lf=1e-4, ls=8e-4, CD=600.0, CM=10.0, Vg=2.0, r=0.8
)
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
SEARCH = dict(seed=7, restarts=1, iterations=40, max_rounds=4)
COUNTERS = (
    "parallel.interval.hits",
    "parallel.interval.solves",
    "parallel.state.hits",
    "parallel.state.priced",
    "parallel.worker.hits",
    "parallel.worker.priced",
    "search.moves.accepted",
    "search.moves.proposed",
)

#: (dag, algorithm, method, winning order, worker per position,
#:  expected_time.hex(), per-worker schedule levels, counters)
GOLDEN = [
    (
        "uniform",
        "admv_star",
        "hill_climb",
        "t01 t02 t00 t04 t03 t05 t06 t07 t09 t08 t11 t10",
        "011011100001",
        "0x1.4ee68b9cae262p+13",
        ("443334", "334434"),
        (3021, 142, 35, 971, 1164, 780, 17, 999),
    ),
    (
        "uniform",
        "admv_star",
        "anneal",
        "t01 t02 t03 t00 t05 t04 t06 t10 t07 t08 t09 t11",
        "101010001111",
        "0x1.64ea8c7d67aeep+13",
        ("44434", "3443334"),
        (1057, 115, 30, 257, 229, 287, 154, 280),
    ),
    (
        "hetero",
        "admv_star",
        "hill_climb",
        "t00 t01 t02 t04 t03 t08 t07 t05 t11 t09 t10 t06",
        "101100011001",
        "0x1.2c67582926c89p+13",
        ("444434", "444434"),
        (3939, 233, 53, 930, 1085, 777, 26, 976),
    ),
    (
        "hetero",
        "admv",
        "anneal",
        "t00 t01 t04 t02 t03 t06 t05 t07 t08 t09 t11 t10",
        "010101100100",
        "0x1.3951f7225e707p+13",
        ("4443434", "44444"),
        (1286, 170, 39, 248, 208, 290, 147, 280),
    ),
]


@pytest.mark.parametrize(
    "dag_name, algorithm, method, order, workers, value, levels, counters",
    GOLDEN,
    ids=[f"{g[0]}-{g[1]}-{g[2]}" for g in GOLDEN],
)
def test_parallel_search_path_is_pinned(
    dag_name, algorithm, method, order, workers, value, levels, counters
):
    spec = dict(DAGS[dag_name])
    dag = generate(spec.pop("kind"), **spec)
    result = search_parallel(
        dag, PLATFORM, 2, algorithm=algorithm, method=method, **SEARCH
    )
    solution = result.solution
    assert " ".join(map(str, solution.order)) == order
    assert "".join(str(solution.assignment[v]) for v in solution.order) == workers
    assert solution.expected_time.hex() == value
    assert (
        tuple(
            "".join(str(int(a)) for a in schedule.levels_array())
            for schedule in solution.worker_schedules
        )
        == levels
    )
    assert tuple(result.metrics.counter(name) for name in COUNTERS) == counters
    # no counter of either family appears outside the pinned list
    assert {
        name
        for name in result.metrics.counters
        if name.startswith(("parallel.", "search.moves."))
    } <= set(COUNTERS)
