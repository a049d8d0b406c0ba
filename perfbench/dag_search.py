"""dag_search: in-process order searches on seeded workflow DAGs.

Each rotation holds two shapes of the ``default`` campaign and two of
the ``hetero`` campaign (20-24 tasks; the window slides by two shapes
per rotation, so three rotations cover all six shapes of each), searched
with ``admv_star``, plus one 12-task layered DAG searched with ``admv``.
Every DAG gets one serialised ``search_order`` op and one
``search_parallel(processors=2)`` op.  The search budgets are cut so that
an op takes about half a second and a run holds some fifty ops, and
they are set so that both kinds of op cost about the same: with two
separate clusters of op times, half the ops in each, the median would
fall into the gap between them and jump with every small change.  All
searches run on the failure-intense ``stress`` platform, where the
serialisation order matters.

The DAG structures come from a fixed seed, rotation by rotation; the
workload seed draws their task weights, cost multipliers and search
seeds.  The structure sets how many neighbours a search screens, so
fixing it keeps the mix of op costs the same for every workload seed,
and every run of one length searches the same rotations.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from common import Tally, child_seed, op_clock

from repro.core import evaluate_schedule
from repro.dag.generate import (
    CAMPAIGNS,
    campaign,
    draw_cost_multipliers,
    draw_weights,
    generate,
)
from repro.dag.linearize import optimize_dag
from repro.dag.parallel import search_parallel
from repro.dag.search import search_order
from repro.dag.workflow import WorkflowDAG
from repro.experiments.dag_search import stress_platform

PLATFORM = stress_platform()
ORDER_OPTIONS = dict(
    method="hill_climb", restarts=1, max_rounds=1, polish_budget=0, recombine=0
)
PARALLEL_OPTIONS = dict(method="hill_climb", restarts=1, max_rounds=6)
PROCESSORS = 2
STRUCTURE_SEED = 0
SMALL = dict(tasks=12, layers=4, density=0.5, weights="lognormal")
#: passes over one op list per run
PASSES = 1
#: rotations per cycle of shapes; the traced run repeats one cycle and
#: its untraced pass scores ``search_quality``
CYCLE = 3
#: nominal wall of one rotation, which sizes a run in whole rotations
ROTATION_S = 6.0


@dataclass(frozen=True)
class Op:
    kind: str  # "order" | "parallel"
    dag: WorkflowDAG
    algorithm: str
    seed: int


def _reweighted(dag: WorkflowDAG, spec: dict, rng: np.random.Generator) -> WorkflowDAG:
    """``dag``'s structure with weights and cost multipliers from ``rng``."""
    doc = dag.as_dict()
    names = list(doc["tasks"])
    weights = draw_weights(rng, len(names), spec.get("weights", "uniform"))
    doc["tasks"] = dict(zip(names, weights.tolist()))
    multipliers = draw_cost_multipliers(
        rng, len(names), spread=spec.get("cost_spread", 0.0)
    )
    if multipliers is not None:
        doc["cost_multipliers"] = dict(zip(names, multipliers.tolist()))
    return WorkflowDAG.from_dict(doc)


def rotation_ops(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng(child_seed(seed, r))
    k = (2 * r) % len(CAMPAIGNS["default"])
    dags = []
    for c, name in enumerate(("default", "hetero")):
        structures = campaign(name, seed=child_seed(STRUCTURE_SEED, r, c))
        specs = [kwargs for _, kwargs in CAMPAIGNS[name].values()]
        for j in (k, k + 1):
            dags.append((_reweighted(structures[j], specs[j], rng), "admv_star"))
    small = generate(
        "layered", seed=child_seed(STRUCTURE_SEED, r, 2), name="layered-12", **SMALL
    )
    dags.append((_reweighted(small, SMALL, rng), "admv"))
    return [
        Op(kind, dag, algorithm, child_seed(seed, r, 3, i))
        for i, (dag, algorithm) in enumerate(dags)
        for kind in ("order", "parallel")
    ]


def setup(seed: int) -> dict:
    return {"seed": seed, "cycle": [rotation_ops(seed, r) for r in range(CYCLE)]}


def _execute(op: Op, recorder):
    span = recorder.span if recorder is not None else lambda name: nullcontext()
    t0 = op_clock()
    if op.kind == "order":
        with span("dag.search"):
            result = search_order(
                op.dag, PLATFORM, algorithm=op.algorithm, seed=op.seed, **ORDER_OPTIONS
            )
    else:
        with span("dag.parallel"):
            result = search_parallel(
                op.dag,
                PLATFORM,
                PROCESSORS,
                algorithm=op.algorithm,
                seed=op.seed,
                **PARALLEL_OPTIONS,
            )
    return op_clock() - t0, result


def _is_topological(dag: WorkflowDAG, order) -> bool:
    position = {v: i for i, v in enumerate(order)}
    return (
        len(order) == len(position) == dag.n
        and set(position) == set(dag.graph.nodes)
        and all(position[u] < position[v] for u, v in dag.graph.edges)
    )


def _check(op: Op, result) -> bool:
    solution = result.solution
    if not _is_topological(op.dag, solution.order):
        return False
    if op.kind == "parallel":
        solution.plan()  # raises on an invalid assignment or a deadlock
        return math.isfinite(solution.expected_time) and solution.expected_time > 0
    order = list(solution.order)
    _, chain = op.dag.serialise(order)
    replayed = evaluate_schedule(
        chain, PLATFORM, solution.schedule, costs=op.dag.cost_profile(order, PLATFORM)
    ).expected_time
    return abs(replayed - solution.expected_time) <= 1e-9 * solution.expected_time


class Phase(Tally):
    """A dag_search tally that also scores search quality."""

    def __init__(self) -> None:
        super().__init__()
        self.log_quality: list[float] = []

    def run(self, op: Op, recorder=None, *, score: bool = False) -> None:
        """Run, time and check one op; ``score`` adds its search quality."""
        result = self.attempt(
            f"{op.kind} {op.dag.name}",
            lambda: _execute(op, recorder),
            lambda res: _check(op, res),
        )
        if result is not None and score and op.kind == "order":
            # the search value over the best fixed ORDER_STRATEGIES order
            best_fixed = optimize_dag(
                op.dag, PLATFORM, algorithm=op.algorithm, strategy="auto"
            )
            self.log_quality.append(
                math.log(result.expected_time / best_fixed.expected_time)
            )

    def extra(self, times: list[float]) -> dict[str, float]:
        if not self.log_quality:
            return {}
        return {
            "search_quality": math.exp(sum(self.log_quality) / len(self.log_quality))
        }


def run(state: dict, seconds: float) -> Phase:
    """Whole rotations, about ``seconds`` of op time."""
    phase = Phase()
    for r in range(max(1, round(seconds / ROTATION_S))):
        for op in state["cycle"][r] if r < CYCLE else rotation_ops(state["seed"], r):
            phase.run(op)
    return phase


def fixed_ops(state: dict, seconds: float) -> list[Op]:
    """The ops the traced run repeats: the first cycle."""
    return [op for rotation in state["cycle"] for op in rotation]
