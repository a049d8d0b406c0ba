"""General workflow DAGs — the paper's future-work direction (§V).

* :class:`~repro.dag.workflow.WorkflowDAG` — weighted task DAG executed
  one task at a time on the whole platform;
* :func:`~repro.dag.linearize.optimize_dag` — linearize-then-DP heuristics
  (the general problem is NP-hard);
* :mod:`~repro.dag.generate` — seeded random-workflow generators (layered
  Erdős–Rényi, fork-join, trees, stencil meshes) and sweep campaigns;
* :mod:`~repro.dag.search` — metaheuristic search over topological orders
  (precedence-preserving moves, memoized incremental evaluation,
  hill climbing + simulated annealing), also reachable through
  ``optimize_dag(strategy="search")``;
* :mod:`~repro.dag.join` — the APDCM'15 join-graph checkpointing problem
  (fail-stop only): exact evaluator, brute force, local search;
* :mod:`~repro.dag.parallel` — p-processor list scheduling and
  (assignment, order) search with per-worker checkpoint placement, also
  reachable through ``optimize_dag(processors=p)``.
"""

from .generate import CAMPAIGNS, GENERATORS, campaign, draw_weights, generate
from .join import (
    JoinInstance,
    JoinSchedule,
    evaluate_join,
    exhaustive_join,
    join_from_dag,
    join_sources,
    local_search_join,
    simulate_join,
    threshold_join,
)
from .linearize import (
    ORDER_STRATEGIES,
    DagSolution,
    candidate_orders,
    optimize_dag,
)
from .parallel import (
    ParallelObjective,
    ParallelSchedule,
    ParallelSearchResult,
    ParallelSolution,
    greedy_assignment,
    list_schedule,
    optimize_parallel,
    search_parallel,
)
from .search import (
    ChainObjective,
    JoinDagSolution,
    JoinObjective,
    SearchResult,
    crossover_orders,
    search_order,
)
from .workflow import DagGraph, WorkflowDAG, canonical_node_key

__all__ = [
    "DagGraph",
    "WorkflowDAG",
    "canonical_node_key",
    "DagSolution",
    "candidate_orders",
    "optimize_dag",
    "ORDER_STRATEGIES",
    "CAMPAIGNS",
    "GENERATORS",
    "campaign",
    "draw_weights",
    "generate",
    "ChainObjective",
    "JoinObjective",
    "JoinDagSolution",
    "SearchResult",
    "crossover_orders",
    "search_order",
    "ParallelSchedule",
    "ParallelObjective",
    "ParallelSolution",
    "ParallelSearchResult",
    "list_schedule",
    "greedy_assignment",
    "search_parallel",
    "optimize_parallel",
    "JoinInstance",
    "JoinSchedule",
    "evaluate_join",
    "exhaustive_join",
    "join_from_dag",
    "join_sources",
    "local_search_join",
    "simulate_join",
    "threshold_join",
]
