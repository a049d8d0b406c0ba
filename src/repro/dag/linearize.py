"""Linearize-then-optimize heuristics for general workflows.

With whole-platform tasks, executing a DAG means choosing a topological
order and then running the linear-chain optimizer on the serialisation.
The *order* changes the optimum: placing heavy tasks early (so failures hit
before much state accumulates) or grouping subtrees can both matter.

:func:`optimize_dag` tries a set of candidate orders and keeps the best:

* ``"lexicographic"`` — deterministic baseline (canonical node order);
* ``"heavy_first"`` / ``"light_first"`` — greedy list scheduling by weight
  among ready tasks;
* ``"dfs"`` — depth-first from each source (keeps related tasks adjacent);
* ``"bottom_level"`` — classic critical-path list scheduling: among ready
  tasks pick the one with the largest *bottom level* (its weight plus the
  heaviest downstream path), so long chains of work drain first;
* ``"critical_path"`` — rank ready tasks by the longest path *through*
  them (top level + bottom level): tasks on the critical path run as
  early as their predecessors allow;
* ``"all"`` — every topological order (small DAGs only, capped);
* ``"search"`` — metaheuristic order search (:mod:`repro.dag.search`).

The fixed orders are *heuristics* for the NP-hard general problem (paper
§V); for chains all orders coincide and the result is exactly the chain
optimum.  All deterministic tie-breaks use the numeric-aware
:func:`~repro.dag.workflow.canonical_node_key` (``t2`` before ``t10``).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable

from ..exceptions import InvalidParameterError
from ..platforms import Platform
from ..core.result import Solution
from ..core.solver import optimize
from .workflow import WorkflowDAG, canonical_node_key

__all__ = ["candidate_orders", "optimize_dag", "DagSolution", "ORDER_STRATEGIES"]

#: Maximum number of candidate orders strategy "all" will enumerate.  The
#: count of topological orders grows factorially with DAG *width* (already
#: 9! = 362 880 for nine independent tasks), so the cap is on the orders
#: actually produced, not on ``n``: deep narrow DAGs of any size pass,
#: wide ones fail fast with a pointer at ``strategy="search"``.
MAX_EXHAUSTIVE_ORDERS = 20_000


def _greedy_order(dag: WorkflowDAG, *, heavy_first: bool) -> list[Hashable]:
    """List scheduling: among ready tasks, pick the heaviest (or lightest)."""
    sign = -1.0 if heavy_first else 1.0
    return dag.graph.canonical_sort(lambda v: sign * dag.weight(v))


def _level_keys(dag: WorkflowDAG) -> tuple[dict, dict]:
    """``(top_level, bottom_level)`` per node.

    ``bottom_level[v]`` is the heaviest weighted path starting at ``v``
    (``v`` included); ``top_level[v]`` the heaviest path ending at ``v``
    (``v`` excluded).  Their sum is the longest path *through* ``v``.
    """
    graph = dag.graph
    order = graph.topological_sort()
    top: dict[Hashable, float] = {}
    for v in order:
        top[v] = max(
            (top[u] + dag.weight(u) for u in graph.predecessors(v)),
            default=0.0,
        )
    bottom: dict[Hashable, float] = {}
    for v in reversed(order):
        bottom[v] = dag.weight(v) + max(
            (bottom[w] for w in graph.successors(v)), default=0.0
        )
    return top, bottom


def _bottom_level_order(dag: WorkflowDAG) -> list[Hashable]:
    """Priority rule: largest bottom level first (critical-path method)."""
    _, bottom = _level_keys(dag)
    return dag.graph.canonical_sort(lambda v: -bottom[v])


def _critical_path_order(dag: WorkflowDAG) -> list[Hashable]:
    """Priority rule: longest path through the task first."""
    top, bottom = _level_keys(dag)
    return dag.graph.canonical_sort(lambda v: -(top[v] + bottom[v]))


def _dfs_order(dag: WorkflowDAG) -> list[Hashable]:
    """Depth-first topological order (children visited heaviest-first)."""
    graph = dag.graph
    indeg = {v: graph.in_degree(v) for v in graph}
    order: list[Hashable] = []

    def dfs_key(v: Hashable):
        return (dag.weight(v), canonical_node_key(v))

    stack = sorted((v for v in graph if indeg[v] == 0), key=dfs_key)
    while stack:
        v = stack.pop()
        order.append(v)
        newly_ready = []
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                newly_ready.append(w)
        stack.extend(sorted(newly_ready, key=dfs_key))
    return order


ORDER_STRATEGIES = (
    "lexicographic",
    "heavy_first",
    "light_first",
    "dfs",
    "bottom_level",
    "critical_path",
)


def candidate_orders(
    dag: WorkflowDAG,
    strategy: str = "auto",
    *,
    max_orders: int = MAX_EXHAUSTIVE_ORDERS,
) -> list[list[Hashable]]:
    """Candidate topological orders for ``strategy`` (deduplicated).

    ``"auto"`` returns every fixed heuristic order; ``"all"`` enumerates every
    topological order, refusing (with :class:`InvalidParameterError`) as
    soon as more than ``max_orders`` candidates exist — a wide DAG has
    factorially many and would silently hang otherwise.
    """
    if strategy == "all":
        orders = [
            list(o)
            for o in itertools.islice(dag.topological_orders(), max_orders + 1)
        ]
        if len(orders) > max_orders:
            raise InvalidParameterError(
                f"{dag.name!r} has more than {max_orders} topological orders; "
                f'exhaustive enumeration is infeasible — use strategy="search" '
                f"(metaheuristic order search) instead, or raise max_orders"
            )
        return orders
    if strategy == "search":
        raise InvalidParameterError(
            'strategy "search" explores orders instead of enumerating '
            "candidates; call optimize_dag(strategy=\"search\") or "
            "repro.dag.search.search_order directly"
        )
    if strategy == "auto":
        names = ORDER_STRATEGIES
    elif strategy in ORDER_STRATEGIES:
        names = (strategy,)
    else:
        raise InvalidParameterError(
            f"unknown order strategy {strategy!r}; expected one of "
            f"{ORDER_STRATEGIES + ('all', 'auto', 'search')}"
        )
    orders: list[list[Hashable]] = []
    for name in names:
        if name == "lexicographic":
            order = dag.graph.canonical_sort()
        elif name == "heavy_first":
            order = _greedy_order(dag, heavy_first=True)
        elif name == "light_first":
            order = _greedy_order(dag, heavy_first=False)
        elif name == "bottom_level":
            order = _bottom_level_order(dag)
        elif name == "critical_path":
            order = _critical_path_order(dag)
        else:
            order = _dfs_order(dag)
        if order not in orders:
            orders.append(order)
    return orders


class DagSolution(Solution):
    """A :class:`Solution` extended with the serialisation order."""

    def __init__(self, order: list[Hashable], base: Solution) -> None:
        super().__init__(
            algorithm=f"dag+{base.algorithm}",
            chain=base.chain,
            platform=base.platform,
            expected_time=base.expected_time,
            schedule=base.schedule,
            diagnostics=dict(base.diagnostics),
        )
        object.__setattr__(self, "order", order)

    order: list[Hashable]


def optimize_dag(
    dag: WorkflowDAG,
    platform: Platform,
    *,
    algorithm: str = "admv",
    strategy: str = "auto",
    seed: int = 0,
    search_options: dict | None = None,
    processors: int | None = None,
) -> "DagSolution":
    """Best (order, chain schedule) over the candidate serialisations.

    ``processors=p`` dispatches to the p-processor scheduler instead
    (:func:`repro.dag.parallel.optimize_parallel`: list-schedule seeds,
    (assignment, order) search, per-worker checkpoint placement) and
    returns its :class:`~repro.dag.parallel.ParallelSolution` — whose
    ``expected_time`` is the parallel surrogate, comparable to but not
    the same quantity as the serialized chain value; ``strategy`` does
    not apply there.  ``processors=None`` (default) keeps the
    single-processor serialisation below.

    ``strategy="search"`` runs the metaheuristic order search
    (:func:`repro.dag.search.search_order`, seeded by ``seed``;
    ``search_options`` are passed through) instead of fixed candidates —
    and *dispatches on the DAG shape*: a join-shaped DAG is searched
    under the APDCM'15 forever-vulnerable join objective (orders plus
    per-source checkpoint decisions), any other shape under the chain
    serialisation objective.  Heterogeneous per-task cost multipliers
    (:meth:`WorkflowDAG.cost_profile`) are priced through every strategy.
    Returns a :class:`DagSolution` carrying the winning topological order;
    ``solution.schedule`` indexes tasks by their position in that order.
    """
    if processors is not None:
        from .parallel import optimize_parallel

        if strategy != "auto":
            raise InvalidParameterError(
                "strategy only affects single-processor serialisation; "
                f"processors={processors} runs the parallel search "
                f"(got strategy={strategy!r})"
            )
        return optimize_parallel(
            dag,
            platform,
            processors,
            algorithm=algorithm,
            seed=seed,
            search_options=search_options,
        )
    if strategy == "search":
        from .search import search_order

        result = search_order(
            dag, platform, algorithm=algorithm, seed=seed,
            **(search_options or {}),
        )
        return result.solution
    best: DagSolution | None = None
    for order in candidate_orders(dag, strategy):
        _, chain = dag.serialise(order)
        sol = optimize(
            chain,
            platform,
            algorithm=algorithm,
            costs=dag.cost_profile(order, platform),
        )
        if best is None or sol.expected_time < best.expected_time:
            best = DagSolution(order, sol)
    assert best is not None  # candidate_orders is never empty
    return best
