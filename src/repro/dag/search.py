"""Metaheuristic search over topological orders (paper §V, NP-hard).

The linearize-then-optimize heuristics (:mod:`repro.dag.linearize`) try a
handful of fixed orders; ``strategy="all"`` enumerates factorially many.
This module fills the gap between them: local search over the space of
*topological orders* with precedence-preserving moves —

* **adjacent swap** — exchange ``order[i]`` and ``order[i+1]`` (feasible
  iff there is no edge between them);
* **block reinsertion** — pull one task out and re-insert it anywhere in
  its feasibility window (after its last predecessor, before its first
  successor).

Both are classic linear-extension moves: every neighbor is again a valid
topological order, and repeated adjacent swaps connect the whole order
space, so the search can in principle reach any serialisation.

Incremental evaluation
----------------------
Scoring one order exactly means serialising it and running the chain DP
(:func:`repro.core.solver.optimize`) — ``O(n^5)`` for ``ADMV``.  Doing
that per neighbor would throttle the search, so :class:`ChainObjective`
layers two reuse mechanisms on top of the exact solver:

* **weight-tuple memo** — the chain optimum depends on the order only
  through the serialised weight sequence, so exact solutions are memoized
  on it (revisited orders, and distinct orders that serialise identically,
  cost a dictionary lookup);
* **frozen-schedule bounds** — a neighbor is screened by re-pricing the
  *incumbent's* optimal action sequence on the neighbor's weight sequence
  through the Markov evaluator — a linear solve over the schedule's stop
  states instead of the DP.  A hill-climbing round prices its whole
  neighborhood at once (:meth:`ChainObjective.bounds`, one
  :func:`repro.core.evaluator.evaluate_schedules` batch, since every
  neighbor shares the frozen schedule).  The frozen actions are one
  feasible schedule for the neighbor, so the bound is an *upper* bound on
  the neighbor's optimum and exact for the incumbent itself; accepting
  only exact-confirmed improvements keeps hill climbing sound.  The
  evaluation depends on the weights only through the segment weights
  between consecutive verified positions, so bounds are memoized on that
  segment vector: a move that permutes tasks strictly inside one
  verification segment leaves every segment weight unchanged and costs a
  cache hit — no evaluation at all.

Heterogeneous per-task costs
----------------------------
When the DAG carries per-task cost multipliers
(:meth:`~repro.dag.workflow.WorkflowDAG.cost_profile`), both evaluation
paths price them through a permuted :class:`~repro.core.costs.CostProfile`
— the multiplier travels with the *task*, so reordering changes which
position pays which checkpoint/verification/recovery cost.  This is what
makes the order genuinely matter: on uniform-cost instances the optimal
schedules are nearly order-insensitive (gains < 0.14%), with
heterogeneous costs the search can park cheap-checkpoint tasks at the
positions the schedule wants to protect.

Join-shaped DAGs
----------------
A join graph (``n-1`` independent sources feeding one sink) is searched
under the APDCM'15 **forever-vulnerable** objective instead
(:class:`JoinObjective`, scored by :func:`repro.dag.join.evaluate_join`
with ``rate = λ_f``, ``C = C_D``, ``R = R_D``): the state is an order
*plus* per-source checkpoint decisions, and the moves are
reposition-source (the decision travels with the source) and
flip-decision.  :func:`search_order` dispatches on
:meth:`~repro.dag.workflow.WorkflowDAG.is_join` automatically.

Multi-start, crossover, parallelism
-----------------------------------
The climbs start from every fixed heuristic order (including the
critical-path / bottom-level priority rules) plus random restarts; each
start draws its moves from an independently spawned child seed, so the
result is reproducible for a fixed ``(seed, n_jobs)`` — in fact invariant
in ``n_jobs``, which only shards the start climbs across worker
processes.  Elite survivors are then recombined with a
precedence-preserving one-point order crossover (MoRoTA-style: a prefix
of one parent completed in the other parent's relative order is always a
valid linear extension) and the children are climbed too.

The winning order can optionally be **certified** by replaying it through
the batched adaptive Monte-Carlo engine (``certify=True``; the array-API
``backend=`` is threaded through; heterogeneous cost profiles are priced
in the simulation as well), attaching an analytic-vs-simulated agreement
stamp to the result.  Join winners are certified against
:func:`repro.dag.join.simulate_join` instead.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterator, MutableMapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.costs import CostProfile
# evaluate_schedule stays importable here: profilers wrap the evaluator
# by its attribute on each calling module
from ..core.evaluator import evaluate_schedule  # noqa: F401
from ..core.evaluator import evaluate_schedules
from ..core.result import Solution
from ..core.schedule import Schedule
from ..core.solver import optimize
from ..exceptions import InvalidParameterError
from ..obs import MetricsRegistry, MetricsSnapshot, get_logger
from ..obs import events as _ambient_events
from ..obs import metrics as _ambient_metrics
from ..obs import span as _span
from ..platforms import Platform
from .join import (
    JoinInstance,
    JoinSchedule,
    evaluate_join,
    join_from_dag,
    join_sources,
    simulate_join,
    threshold_join,
)
from .linearize import DagSolution, candidate_orders
from .workflow import WorkflowDAG, canonical_node_key

__all__ = [
    "ChainObjective",
    "JoinObjective",
    "JoinDagSolution",
    "SearchResult",
    "adjacent_swaps",
    "apply_reinsertion",
    "apply_swap",
    "crossover_orders",
    "hill_climb",
    "join_neighborhood",
    "neighborhood",
    "random_join_neighbor",
    "random_neighbor",
    "random_order",
    "reinsertion_window",
    "search_order",
    "simulated_annealing",
    "uses_join_objective",
    "SEARCH_METHODS",
]

#: Relative improvement below which two orders are considered equivalent
#: (guards against accepting float noise as progress).
RELATIVE_TOLERANCE = 1e-12

logger = get_logger(__name__)


# ----------------------------------------------------------------------
# precedence-preserving moves
# ----------------------------------------------------------------------
def adjacent_swaps(dag: WorkflowDAG, order: Sequence[Hashable]) -> list[int]:
    """Positions ``i`` where swapping ``order[i]`` and ``order[i+1]`` is
    precedence-preserving (no edge between the two)."""
    graph = dag.graph
    return [
        i
        for i in range(len(order) - 1)
        if not graph.has_edge(order[i], order[i + 1])
    ]


def apply_swap(order: Sequence[Hashable], i: int) -> list[Hashable]:
    """The order with positions ``i`` and ``i + 1`` exchanged."""
    new = list(order)
    new[i], new[i + 1] = new[i + 1], new[i]
    return new


def reinsertion_window(
    dag: WorkflowDAG, order: Sequence[Hashable], i: int
) -> tuple[int, int]:
    """Feasible insertion slots ``[lo, hi]`` for task ``order[i]``.

    Slots index the order *with the task removed*: inserting at ``j``
    places the task before the element currently at position ``j`` of the
    shortened order.  ``lo`` is just after the last predecessor, ``hi``
    just before the first successor; ``j == i`` reproduces the original
    order.
    """
    graph = dag.graph
    position = {v: p for p, v in enumerate(order)}
    task = order[i]
    lo = max((position[u] for u in graph.predecessors(task)), default=-1) + 1
    hi = min(
        (position[w] for w in graph.successors(task)), default=len(order)
    ) - 1  # shifted left by the removal
    return lo, hi


def apply_reinsertion(
    order: Sequence[Hashable], i: int, j: int
) -> list[Hashable]:
    """Remove the task at position ``i`` and insert it at slot ``j``."""
    new = list(order)
    task = new.pop(i)
    new.insert(j, task)
    return new


def neighborhood(
    dag: WorkflowDAG,
    order: Sequence[Hashable],
    *,
    rng: np.random.Generator | None = None,
    max_reinsertions: int | None = None,
) -> Iterator[tuple[list[Hashable], tuple]]:
    """Yield ``(neighbor, move)`` pairs around ``order``.

    All feasible adjacent swaps are yielded first (moves ``("swap", i)``),
    then block reinsertions (``("reinsert", i, j)``) — every slot of every
    task's feasibility window, excluding the no-ops the swaps already
    cover.  ``max_reinsertions`` caps the reinsertion count by uniform
    subsampling (``rng`` required), keeping neighborhoods linear-sized on
    big DAGs.
    """
    for i in adjacent_swaps(dag, order):
        yield apply_swap(order, i), ("swap", i)
    moves: list[tuple[int, int]] = []
    for i in range(len(order)):
        lo, hi = reinsertion_window(dag, order, i)
        for j in range(lo, hi + 1):
            if j == i or abs(j - i) == 1:  # no-op / duplicate of a swap
                continue
            moves.append((i, j))
    if max_reinsertions is not None and len(moves) > max_reinsertions:
        if rng is None:
            raise InvalidParameterError(
                "max_reinsertions requires an rng to subsample"
            )
        picked = rng.choice(len(moves), size=max_reinsertions, replace=False)
        moves = [moves[int(k)] for k in sorted(picked)]
    for i, j in moves:
        yield apply_reinsertion(order, i, j), ("reinsert", i, j)


def random_neighbor(
    dag: WorkflowDAG,
    order: Sequence[Hashable],
    rng: np.random.Generator,
    *,
    p_reinsert: float = 0.5,
) -> tuple[list[Hashable], tuple] | None:
    """One uniformly-drawn feasible move (``None`` iff the order is rigid)."""
    if rng.random() >= p_reinsert:
        swaps = adjacent_swaps(dag, order)
        if swaps:
            i = int(swaps[int(rng.integers(len(swaps)))])
            return apply_swap(order, i), ("swap", i)
    # fall through to reinsertion (also the swap fallback)
    starts = list(rng.permutation(len(order)))
    for i in starts:
        i = int(i)
        lo, hi = reinsertion_window(dag, order, i)
        slots = [j for j in range(lo, hi + 1) if j != i]
        if slots:
            j = int(slots[int(rng.integers(len(slots)))])
            return apply_reinsertion(order, i, j), ("reinsert", i, j)
    return None


def random_order(
    dag: WorkflowDAG, rng: np.random.Generator
) -> list[Hashable]:
    """A uniformly-random-ish topological order (random ready-task picks).

    The initial ready set is put in canonical node order
    (:func:`~repro.dag.workflow.canonical_node_key`) so a given ``rng``
    state maps to the same order regardless of dict/graph insertion
    history — and numerically, not by ``repr`` (``t2`` before ``t10``).
    """
    graph = dag.graph
    indeg = {v: graph.in_degree(v) for v in graph}
    ready = sorted((v for v in graph if indeg[v] == 0), key=canonical_node_key)
    order: list[Hashable] = []
    while ready:
        v = ready.pop(int(rng.integers(len(ready))))
        order.append(v)
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order


def crossover_orders(
    a: Sequence[Hashable], b: Sequence[Hashable], cut: int
) -> list[Hashable]:
    """Precedence-preserving one-point order crossover (OX).

    The child copies ``a[:cut]`` and completes it with the remaining
    tasks *in the relative order of* ``b``.  If ``a`` and ``b`` are
    topological orders of the same DAG the child is one too: a prefix of
    ``a`` is closed under predecessors, and any edge with both endpoints
    in the suffix appears in ``b``'s (topological) relative order.
    """
    if not 0 <= cut <= len(a):
        raise InvalidParameterError(
            f"crossover cut must be in [0, {len(a)}], got {cut}"
        )
    prefix = list(a[:cut])
    taken = set(prefix)
    return prefix + [v for v in b if v not in taken]


# ----------------------------------------------------------------------
# the pluggable objective
# ----------------------------------------------------------------------
class ChainObjective:
    """Expected-makespan objective with memoized incremental evaluation.

    ``exact(order)`` serialises the order and runs the chain optimizer,
    memoized on the weight tuple.  ``bound(order, reference)`` re-prices
    the reference solution's frozen schedule on the order's weights — an
    upper bound on ``exact(order).expected_time``, memoized on the
    verification-segment weight vector.  Counters expose the work done so
    benchmarks and diagnostics can report evaluation rates and hit ratios.

    Heterogeneous DAGs (per-task cost multipliers) are priced through a
    :class:`~repro.core.costs.CostProfile` permuted with each order; the
    memo keys then carry the serialised multiplier vector too, because
    two orders with equal weights can still pay different costs.  The
    frozen-schedule bound stays sound: the reference's action sequence is
    one feasible schedule for the neighbor *under the neighbor's permuted
    costs*, so its evaluation upper-bounds the neighbor's optimum.

    The counters live in a private :class:`~repro.obs.MetricsRegistry`
    (``self.metrics``); the legacy int attributes
    (``exact_evaluations`` …) are read-only views over those shared
    metric objects, so existing accounting code keeps working while
    ``metrics.snapshot()`` ships the same numbers across process shards.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        platform: Platform,
        *,
        algorithm: str = "admv",
        metrics: MetricsRegistry | None = None,
        exact_cache: MutableMapping[bytes, Solution] | None = None,
    ) -> None:
        self.dag = dag
        self.platform = platform
        self.algorithm = algorithm
        self.heterogeneous = dag.has_heterogeneous_costs()
        self._weight = {v: dag.weight(v) for v in dag.graph}
        self._multiplier = (
            {v: dag.cost_multiplier(v) for v in dag.graph}
            if self.heterogeneous
            else None
        )
        # exact_cache lets a service engine share one evictable memo pool
        # across objectives; the keys are pure weight/multiplier content,
        # so the caller must namespace the mapping by (platform,
        # algorithm) — see repro.service.cache.namespaced
        self._exact: MutableMapping[bytes, Solution] = (
            exact_cache if exact_cache is not None else {}
        )
        self._bounds: dict[tuple[bytes, bytes], float] = {}
        self._stops: dict[bytes, np.ndarray] = {}
        # Always a live registry (never the ambient null one): the
        # SearchResult accounting must exist with observability off.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_exact_evals = self.metrics.counter("search.exact.evaluations")
        self._c_exact_hits = self.metrics.counter("search.exact.hits")
        self._c_bound_evals = self.metrics.counter("search.bound.evaluations")
        self._c_bound_hits = self.metrics.counter("search.bound.hits")

    # -- counter views (legacy int-attribute API) ----------------------
    @property
    def exact_evaluations(self) -> int:
        return self._c_exact_evals.value

    @property
    def exact_cache_hits(self) -> int:
        return self._c_exact_hits.value

    @property
    def bound_evaluations(self) -> int:
        return self._c_bound_evals.value

    @property
    def bound_cache_hits(self) -> int:
        return self._c_bound_hits.value

    # -- helpers -------------------------------------------------------
    def weights_of(self, order: Sequence[Hashable]) -> np.ndarray:
        return np.asarray([self._weight[v] for v in order], dtype=np.float64)

    def multipliers_of(self, order: Sequence[Hashable]) -> np.ndarray | None:
        """Per-position cost multipliers (``None`` on homogeneous DAGs)."""
        if self._multiplier is None:
            return None
        return np.asarray(
            [self._multiplier[v] for v in order], dtype=np.float64
        )

    def costs_of(self, order: Sequence[Hashable]) -> CostProfile | None:
        """The order's permuted cost profile (``None`` = uniform model)."""
        mult = self.multipliers_of(order)
        if mult is None:
            return None
        return CostProfile.scaled(self.platform, mult)

    @property
    def orders_scored(self) -> int:
        """Total candidate orders this objective has priced (any path)."""
        return (
            self.exact_evaluations
            + self.exact_cache_hits
            + self.bound_evaluations
            + self.bound_cache_hits
        )

    # -- exact path ----------------------------------------------------
    def exact(self, order: Sequence[Hashable]) -> Solution:
        """Optimal chain solution for this serialisation (memoized)."""
        weights = self.weights_of(order)
        mult = self.multipliers_of(order)
        key = (
            weights.tobytes()
            if mult is None
            else weights.tobytes() + b"|" + mult.tobytes()
        )
        cached = self._exact.get(key)
        if cached is not None:
            self._c_exact_hits.inc()
            return cached
        _, chain = self.dag.serialise(list(order))
        solution = optimize(
            chain,
            self.platform,
            algorithm=self.algorithm,
            costs=self.costs_of(order),
        )
        self._exact[key] = solution
        self._c_exact_evals.inc()
        return solution

    # -- incremental bound path ----------------------------------------
    def _schedule_key(self, reference: Solution) -> bytes:
        # content-keyed (not id()-keyed): identical schedules share cache
        # entries, and a reference the caller dropped can never alias a
        # later one through address reuse
        return reference.schedule.levels_array().tobytes()

    def _stop_positions(self, reference: Solution, key: bytes) -> np.ndarray:
        stops = self._stops.get(key)
        if stops is None:
            stops = np.asarray(
                [0] + reference.schedule.verified_positions, dtype=np.intp
            )
            self._stops[key] = stops
        return stops

    def bound(
        self, order: Sequence[Hashable], reference: Solution
    ) -> float:
        """Upper bound: the reference schedule re-priced on ``order``.

        Exact when ``order`` serialises like the reference's chain; for a
        neighbor it is the expected makespan of one feasible (frozen)
        schedule, hence ``>= exact(order).expected_time``.
        """
        return self.bounds([order], reference)[0]

    def bounds(
        self, orders: Sequence[Sequence[Hashable]], reference: Solution
    ) -> list[float]:
        """:meth:`bound` for every order of ``orders``, in one batch.

        The orders share the reference schedule, so the ones missing from
        the memo are priced by one
        :func:`~repro.core.evaluator.evaluate_schedules` call.  Values,
        memo entries and counters equal those of calling :meth:`bound`
        on each order in turn: an order whose key an earlier order of the
        batch already carries counts as a cache hit.
        """
        if not orders:
            return []
        schedule_key = self._schedule_key(reference)
        stops = self._stop_positions(reference, schedule_key)
        weights = np.stack([self.weights_of(order) for order in orders])
        mult = (
            None
            if self._multiplier is None
            else np.stack([self.multipliers_of(order) for order in orders])
        )
        prefix = np.zeros((len(orders), weights.shape[1] + 1))
        np.cumsum(weights, axis=1, out=prefix[:, 1:])
        segments = prefix[:, stops[1:]] - prefix[:, stops[:-1]]
        keys = []
        fresh: dict[tuple[bytes, bytes], int] = {}
        for i in range(len(orders)):
            # heterogeneous costs break the segment-weights sufficiency (a
            # move inside one verification segment relocates which
            # position pays which cost), so the memo key grows the
            # multiplier vector
            segment_key = (
                segments[i].tobytes()
                if mult is None
                else segments[i].tobytes() + b"|" + mult[i].tobytes()
            )
            key = (schedule_key, segment_key)
            keys.append(key)
            if key not in self._bounds and key not in fresh:
                fresh[key] = i
        if fresh:
            rows = list(fresh.values())
            priced = evaluate_schedules(
                weights[rows],
                self.platform,
                reference.schedule,
                multipliers=None if mult is None else mult[rows],
            )
            self._bounds.update(
                (key, e.expected_time) for key, e in zip(fresh, priced)
            )
            self._c_bound_evals.inc(len(fresh))
        if len(orders) > len(fresh):
            self._c_bound_hits.inc(len(orders) - len(fresh))
        return [self._bounds[key] for key in keys]


# ----------------------------------------------------------------------
# search drivers
# ----------------------------------------------------------------------
def _improves(candidate: float, incumbent: float) -> bool:
    return candidate < incumbent * (1.0 - RELATIVE_TOLERANCE)


def hill_climb(
    dag: WorkflowDAG,
    objective: ChainObjective,
    start: Sequence[Hashable],
    rng: np.random.Generator,
    *,
    max_rounds: int = 200,
    max_reinsertions: int | None = None,
    polish_budget: int | None = None,
) -> tuple[list[Hashable], Solution, int]:
    """Steepest-feasible descent from ``start``; returns order, solution
    and the number of improvement rounds taken.

    Each round screens the whole neighborhood with frozen-schedule bounds
    (one :meth:`ChainObjective.bounds` batch), exact-confirms candidates
    in bound order, and accepts the first genuine improvement.  When no bound promises progress, the round
    *polishes*: it exact-evaluates the ``polish_budget`` most promising
    neighbors anyway (``None`` = all of them), because the bound can hide
    an improvement that only materialises after re-optimizing the
    placements.  The climb stops at an order no evaluated neighbor beats.
    """
    order = list(start)
    solution = objective.exact(order)
    if max_reinsertions is None:
        max_reinsertions = max(16, 2 * dag.n)
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    rounds = 0
    for _ in range(max_rounds):
        cands = [
            cand
            for cand, _ in neighborhood(
                dag, order, rng=rng, max_reinsertions=max_reinsertions
            )
        ]
        scored = sorted(
            zip(objective.bounds(cands, solution), cands),
            key=lambda pair: pair[0],
        )
        c_proposed.inc(len(scored))
        accepted = False
        value = solution.expected_time
        for b, cand in scored:
            if not _improves(b, value):
                break
            cand_solution = objective.exact(cand)
            if _improves(cand_solution.expected_time, value):
                order, solution, accepted = cand, cand_solution, True
                break
        if not accepted:
            budget = len(scored) if polish_budget is None else polish_budget
            for b, cand in scored[:budget]:
                cand_solution = objective.exact(cand)
                if _improves(cand_solution.expected_time, value):
                    order, solution, accepted = cand, cand_solution, True
                    break
        if not accepted:
            return order, solution, rounds
        c_accepted.inc()
        rounds += 1
        if bus.enabled:
            bus.emit(
                "search.round",
                round=rounds,
                value=solution.expected_time,
                proposed=len(scored),
            )
    return order, solution, rounds


def simulated_annealing(
    dag: WorkflowDAG,
    objective: ChainObjective,
    start: Sequence[Hashable],
    rng: np.random.Generator,
    *,
    iterations: int = 400,
    initial_temperature: float | None = None,
    cooling: float = 0.99,
) -> tuple[list[Hashable], Solution, int]:
    """Metropolis walk over orders; returns the best order visited.

    Moves are screened with the frozen-schedule bound of the *current*
    solution; accepted moves are exact-evaluated (memoized), so the walk
    anneals on true values while paying the DP only for accepted states.
    The default initial temperature is 2% of the start value — enough to
    hop over order-of-``V*`` barriers without random-walking.
    """
    order = list(start)
    solution = objective.exact(order)
    best_order, best_solution = order, solution
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else 0.02 * solution.expected_time
    )
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    accepted = 0
    for it in range(iterations):
        neighbor = random_neighbor(dag, order, rng)
        if neighbor is None:  # rigid DAG (a chain): nothing to explore
            break
        cand, _move = neighbor
        c_proposed.inc()
        b = objective.bound(cand, solution)
        delta = b - solution.expected_time
        if delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-300)
        ):
            solution = objective.exact(cand)
            order = cand
            accepted += 1
            c_accepted.inc()
            if _improves(solution.expected_time, best_solution.expected_time):
                best_order, best_solution = order, solution
                if bus.enabled:
                    bus.emit(
                        "search.best",
                        iteration=it,
                        value=best_solution.expected_time,
                        accepted=accepted,
                    )
        temperature *= cooling
    return best_order, best_solution, accepted


SEARCH_METHODS = ("hill_climb", "anneal", "hybrid")


# ----------------------------------------------------------------------
# join-aware search (APDCM'15 forever-vulnerable objective)
# ----------------------------------------------------------------------
class JoinObjective:
    """Memoized exact objective over join states (order + decisions).

    :func:`repro.dag.join.evaluate_join` is an exact ``O(n)`` closed
    form, so unlike :class:`ChainObjective` there is no DP/bound split —
    every state is priced exactly and memoized on the
    ``(order, checkpoint)`` tuple.  The *forever-vulnerable* semantics
    are what make order search worthwhile here: an unprotected source
    inflates every later segment, so repositioning sources interacts
    with the checkpoint decisions.
    """

    def __init__(
        self,
        instance: JoinInstance,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.instance = instance
        self._memo: dict[tuple, float] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_evals = self.metrics.counter("search.join.evaluations")
        self._c_hits = self.metrics.counter("search.join.hits")

    @property
    def evaluations(self) -> int:
        return self._c_evals.value

    @property
    def cache_hits(self) -> int:
        return self._c_hits.value

    def value(self, schedule: JoinSchedule) -> float:
        key = (schedule.order, schedule.checkpoint)
        cached = self._memo.get(key)
        if cached is not None:
            self._c_hits.inc()
            return cached
        v = evaluate_join(self.instance, schedule)
        self._memo[key] = v
        self._c_evals.inc()
        return v

    @property
    def orders_scored(self) -> int:
        return self.evaluations + self.cache_hits


def join_neighborhood(schedule: JoinSchedule) -> Iterator[JoinSchedule]:
    """All single-move neighbors of a join state.

    Two move families, mirroring the chain search's precedence moves:

    * **flip-decision** — toggle one source's checkpoint bit;
    * **reposition-source** — move one source to another position, its
      decision travelling with it (sources are independent, so every
      permutation is feasible; only the sink is pinned last).
    """
    n = len(schedule.order)
    for i in range(n):
        flipped = list(schedule.checkpoint)
        flipped[i] = not flipped[i]
        yield JoinSchedule(schedule.order, tuple(flipped))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            order = list(schedule.order)
            decisions = list(schedule.checkpoint)
            src = order.pop(i)
            dec = decisions.pop(i)
            order.insert(j, src)
            decisions.insert(j, dec)
            yield JoinSchedule(tuple(order), tuple(decisions))


def random_join_neighbor(
    schedule: JoinSchedule,
    rng: np.random.Generator,
    *,
    p_flip: float = 0.5,
) -> JoinSchedule:
    """One uniformly-drawn join move (flip with probability ``p_flip``)."""
    n = len(schedule.order)
    if n < 2 or rng.random() < p_flip:
        i = int(rng.integers(n))
        flipped = list(schedule.checkpoint)
        flipped[i] = not flipped[i]
        return JoinSchedule(schedule.order, tuple(flipped))
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    order = list(schedule.order)
    decisions = list(schedule.checkpoint)
    src = order.pop(i)
    dec = decisions.pop(i)
    order.insert(j, src)
    decisions.insert(j, dec)
    return JoinSchedule(tuple(order), tuple(decisions))


def _join_hill_climb(
    objective: JoinObjective,
    schedule: JoinSchedule,
    *,
    max_rounds: int = 200,
) -> tuple[JoinSchedule, float, int]:
    """Steepest descent over flips + repositions; exact values only."""
    value = objective.value(schedule)
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    rounds = 0
    for _ in range(max_rounds):
        best_value, best_schedule = value, schedule
        for cand in join_neighborhood(schedule):
            c_proposed.inc()
            v = objective.value(cand)
            if _improves(v, best_value):
                best_value, best_schedule = v, cand
        if not _improves(best_value, value):
            break
        value, schedule = best_value, best_schedule
        c_accepted.inc()
        rounds += 1
    return schedule, value, rounds


def _join_anneal(
    objective: JoinObjective,
    schedule: JoinSchedule,
    rng: np.random.Generator,
    *,
    iterations: int = 400,
    cooling: float = 0.99,
) -> tuple[JoinSchedule, float, int]:
    """Metropolis walk over join states; returns the best state visited."""
    value = objective.value(schedule)
    best_schedule, best_value = schedule, value
    temperature = 0.02 * value
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    accepted = 0
    for _ in range(iterations):
        cand = random_join_neighbor(schedule, rng)
        c_proposed.inc()
        v = objective.value(cand)
        delta = v - value
        if delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-300)
        ):
            schedule, value = cand, v
            accepted += 1
            c_accepted.inc()
            if _improves(value, best_value):
                best_schedule, best_value = schedule, value
        temperature *= cooling
    return best_schedule, best_value, accepted


class JoinDagSolution(DagSolution):
    """A :class:`DagSolution` priced under the join model.

    ``expected_time`` is :func:`repro.dag.join.evaluate_join`'s
    forever-vulnerable value (fail-stop errors only, single disk level)
    — *not* the chain evaluator's value for ``schedule``.  The chain
    ``schedule`` renders the decisions in chain notation (``D`` after
    each checkpointed source, the sink unprotected); ``join_schedule``
    and ``decisions`` carry the native representation.
    """

    join_schedule: JoinSchedule
    decisions: dict
    instance: JoinInstance

    def __init__(
        self,
        order: list[Hashable],
        base: Solution,
        join_schedule: JoinSchedule,
        decisions: dict,
        instance: JoinInstance,
    ) -> None:
        super().__init__(order, base)
        object.__setattr__(self, "join_schedule", join_schedule)
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "instance", instance)


def _certify_join(
    instance: JoinInstance,
    schedule: JoinSchedule,
    platform: Platform,
    label: str,
    *,
    analytic: float,
    target_ci: float,
    max_runs: int,
    seed: int,
):
    """Monte-Carlo agreement stamp for a join schedule.

    Replays the schedule through :func:`repro.dag.join.simulate_join` in
    geometrically growing rounds until the relative CI half-width on the
    mean reaches ``target_ci`` (or ``max_runs`` caps the spend) — the
    join-model analogue of the adaptive chain certification.
    """
    from ..experiments.common import AgreementStamp
    from ..simulation.stats import summarize

    rng = np.random.default_rng(seed)
    samples = np.empty(0, dtype=np.float64)
    batch = 2000
    while True:
        batch = max(1, min(batch, max_runs - samples.size))
        samples = np.concatenate(
            [samples, simulate_join(instance, schedule, runs=batch, rng=rng)]
        )
        summary = summarize(samples)
        if (
            summary.relative_ci_half_width <= target_ci
            or samples.size >= max_runs
        ):
            break
        batch *= 2
    return AgreementStamp(
        platform=platform.name,
        label=label,
        analytic=analytic,
        simulated=summary.mean,
        relative_gap=(summary.mean - analytic) / analytic,
        reps=int(samples.size),
        relative_half_width=summary.relative_ci_half_width,
        target_ci=target_ci,
        agrees=summary.contains(analytic),
        converged=summary.relative_ci_half_width <= target_ci,
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`search_order` with its work accounting."""

    solution: DagSolution
    method: str
    seed: int
    algorithm: str
    starts: int  #: heuristic + random starting orders explored
    rounds: int  #: hill-climb improvement rounds (plus SA acceptances)
    orders_scored: int  #: candidate orders priced by any path
    exact_evaluations: int  #: full chain-DP solves
    exact_cache_hits: int
    bound_evaluations: int  #: frozen-schedule Markov evaluations
    bound_cache_hits: int
    start_values: dict[str, float] = field(default_factory=dict)
    certificate: object | None = None  #: AgreementStamp when certify=True
    n_jobs: int | None = None  #: worker processes the start climbs used
    recombined: int = 0  #: crossover children climbed
    #: Full merged metric snapshot (in-process objective + worker shards);
    #: the int fields above are views into its counters.
    metrics: MetricsSnapshot | None = None

    @property
    def expected_time(self) -> float:
        return self.solution.expected_time

    def summary(self) -> str:
        if self.algorithm == "join":
            accounting = (
                f"  states scored: {self.orders_scored} "
                f"({self.exact_evaluations} join evaluations, "
                f"{self.exact_cache_hits} cache hits)"
            )
        else:
            accounting = (
                f"  orders scored: {self.orders_scored} "
                f"({self.exact_evaluations} exact DP solves, "
                f"{self.bound_evaluations} frozen-schedule bounds, "
                f"{self.exact_cache_hits + self.bound_cache_hits} cache hits)"
            )
        lines = [
            f"order search ({self.method}, seed {self.seed}) over "
            f"{self.starts} starts: E[T] = {self.expected_time:.2f}s",
            accounting,
        ]
        if self.certificate is not None:
            lines.append(self.certificate.line())
        return "\n".join(lines)


def _climb(
    dag: WorkflowDAG,
    objective: ChainObjective,
    method: str,
    start: Sequence[Hashable],
    rng: np.random.Generator,
    *,
    iterations: int,
    max_rounds: int,
    polish_budget: int | None,
) -> tuple[list[Hashable], Solution, int]:
    """One climb (hill climbing or annealing, per ``method``)."""
    if method == "anneal":
        return simulated_annealing(
            dag, objective, start, rng, iterations=iterations
        )
    return hill_climb(
        dag,
        objective,
        start,
        rng,
        max_rounds=max_rounds,
        polish_budget=polish_budget,
    )


def _climb_worker(payload: tuple):
    """Process-pool entry point: one start climbed with a fresh objective.

    Module-level so it pickles; each worker builds its own
    :class:`ChainObjective` (memos are value-transparent, so private
    caches change the work accounting but never the result) and ships
    its registry snapshot home for the associative merge.
    """
    (
        dag,
        platform,
        algorithm,
        method,
        start,
        seed_seq,
        iterations,
        max_rounds,
        polish_budget,
    ) = payload
    from ..obs import NULL_REGISTRY, EventBus, instrument

    objective = ChainObjective(dag, platform, algorithm=algorithm)
    bus = EventBus()
    # the climb's counters live on the objective's own registry; the
    # ambient scope only carries the event bus home
    with instrument(NULL_REGISTRY, events=bus):
        order, solution, rounds = _climb(
            dag,
            objective,
            method,
            start,
            np.random.default_rng(seed_seq),
            iterations=iterations,
            max_rounds=max_rounds,
            polish_budget=polish_budget,
        )
    return order, solution, rounds, objective.metrics.snapshot(), bus.snapshot()


def uses_join_objective(dag: WorkflowDAG) -> bool:
    """Will :func:`search_order` price ``dag`` under the join objective?

    True exactly when the join model applies: join-shaped, at least two
    sources (single tasks and 2-node chains are degenerate-join-shaped
    but keep the chain model, whose values stay comparable across
    strategies), and uniform costs (the join model has one scalar ``C``,
    so heterogeneous DAGs keep the cost-pricing chain objective).
    """
    return dag.is_join() and dag.n >= 3 and not dag.has_heterogeneous_costs()


def _search_join_order(
    dag: WorkflowDAG,
    platform: Platform,
    *,
    method: str,
    seed: int,
    restarts: int,
    iterations: int,
    max_rounds: int,
    certify: bool,
    target_ci: float,
    certify_runs: int,
) -> SearchResult:
    """Join-shaped dispatch target of :func:`search_order`.

    Searches (source order, checkpoint decisions) jointly under the
    forever-vulnerable join objective.  The platform maps onto the join
    model's fail-stop parameters as ``rate = λ_f``, ``C = C_D``,
    ``R = R_D``; silent-error handling does not exist in the APDCM'15
    model, so ``λ_s`` is deliberately ignored.
    """
    instance = join_from_dag(
        dag, rate=platform.lf, C=platform.CD, R=platform.RD
    )
    sources = join_sources(dag)
    sink = dag.sinks()[0]
    n = instance.n_sources
    objective = JoinObjective(instance)

    ss_starts, ss_climbs, ss_anneal = np.random.SeedSequence(seed).spawn(3)
    _, thr = threshold_join(instance)
    starts: list[tuple[str, JoinSchedule]] = [("threshold", thr)]
    for label, sign in (("heavy-first", -1.0), ("light-first", 1.0)):
        order = tuple(
            sorted(range(n), key=lambda i: sign * instance.source_weights[i])
        )
        # decisions travel with the sources (thr uses the natural order,
        # so thr.checkpoint[src] is src's own decision)
        decisions = tuple(thr.checkpoint[src] for src in order)
        starts.append((label, JoinSchedule(order, decisions)))
    start_rng = np.random.default_rng(ss_starts)
    for r in range(max(0, restarts)):
        order = tuple(int(x) for x in start_rng.permutation(n))
        decisions = tuple(bool(b) for b in start_rng.random(n) < 0.5)
        starts.append((f"random-{r}", JoinSchedule(order, decisions)))

    objective.metrics.counter("search.starts").inc(len(starts))
    objective.metrics.counter("search.restarts").inc(max(0, restarts))
    best_schedule: JoinSchedule | None = None
    best_value = math.inf
    rounds_total = 0
    start_values: dict[str, float] = {}
    for (label, start), climb_seed in zip(starts, ss_climbs.spawn(len(starts))):
        with _span("search.start", label=label) as sp:
            if method == "anneal":
                sched, value, rounds = _join_anneal(
                    objective,
                    start,
                    np.random.default_rng(climb_seed),
                    iterations=iterations,
                )
            else:
                sched, value, rounds = _join_hill_climb(
                    objective, start, max_rounds=max_rounds
                )
            sp.set(rounds=rounds, value=value)
        if _ambient_events().enabled:
            _ambient_events().emit(
                "search.climb", label=label, value=value, rounds=rounds
            )
        start_values[label] = value
        rounds_total += rounds
        if best_schedule is None or _improves(value, best_value):
            best_schedule, best_value = sched, value
    assert best_schedule is not None

    if method == "hybrid":
        sched, value, rounds = _join_anneal(
            objective,
            best_schedule,
            np.random.default_rng(ss_anneal),
            iterations=iterations,
        )
        rounds_total += rounds
        start_values["anneal"] = value
        if _improves(value, best_value):
            best_schedule, best_value = sched, value

    order_nodes = [sources[i] for i in best_schedule.order] + [sink]
    _, chain = dag.serialise(order_nodes)
    schedule = Schedule.from_positions(
        chain.n,
        disk=[
            pos + 1
            for pos, decided in enumerate(best_schedule.checkpoint)
            if decided
        ],
    )
    base = Solution(
        algorithm="join",
        chain=chain,
        platform=platform,
        expected_time=best_value,
        schedule=schedule,
    )
    solution = JoinDagSolution(
        order_nodes,
        base,
        best_schedule,
        {
            sources[src]: decided
            for src, decided in zip(best_schedule.order, best_schedule.checkpoint)
        },
        instance,
    )
    solution.diagnostics.update(
        search_method=method,
        search_seed=seed,
        search_starts=len(starts),
        search_exact_evaluations=objective.evaluations,
        search_bound_evaluations=0,
        join_rate=instance.rate,
        join_C=instance.C,
        join_R=instance.R,
        join_checkpoints=best_schedule.n_checkpoints,
    )

    certificate = None
    if certify:
        certificate = _certify_join(
            instance,
            best_schedule,
            platform,
            label=f"{dag.name} join order",
            analytic=best_value,
            target_ci=target_ci,
            max_runs=certify_runs,
            seed=seed,
        )

    merged = objective.metrics.snapshot()
    _ambient_metrics().merge_snapshot(merged)
    return SearchResult(
        solution=solution,
        method=method,
        seed=seed,
        algorithm="join",
        starts=len(starts),
        rounds=rounds_total,
        orders_scored=objective.orders_scored,
        exact_evaluations=objective.evaluations,
        exact_cache_hits=objective.cache_hits,
        bound_evaluations=0,
        bound_cache_hits=0,
        start_values=start_values,
        certificate=certificate,
        metrics=merged,
    )


def search_order(
    dag: WorkflowDAG,
    platform: Platform,
    *,
    algorithm: str = "admv",
    method: str = "hill_climb",
    seed: int = 0,
    restarts: int = 2,
    iterations: int = 400,
    max_rounds: int = 200,
    polish_budget: int | None = None,
    objective: ChainObjective | None = None,
    certify: bool = False,
    backend: str | None = None,
    target_ci: float = 0.01,
    certify_runs: int = 200_000,
    n_jobs: int | None = None,
    recombine: int = 2,
) -> SearchResult:
    """Best serialisation of ``dag`` found by metaheuristic order search.

    Join-shaped DAGs (:meth:`WorkflowDAG.is_join`) dispatch to the
    APDCM'15 join objective — orders *plus* per-source checkpoint
    decisions under forever-vulnerable semantics — when the join model
    actually applies: at least two sources (a single task or a 2-node
    chain is degenerate-join-shaped but stays on the chain model, whose
    values remain comparable across strategies) and uniform costs (the
    join model has one scalar ``C``, so heterogeneous DAGs keep the
    chain objective, which does price the multipliers).  Passing an
    explicit ``objective`` also pins chain semantics.  The join path
    evaluates states exactly in ``O(n)``, so ``n_jobs``/``recombine``
    (and ``algorithm``/``polish_budget``/``backend``) do not apply and
    are ignored there.

    Parameters
    ----------
    method:
        ``"hill_climb"`` — steepest descent from every heuristic order
        plus ``restarts`` random orders; ``"anneal"`` — an independent
        ``iterations``-step simulated-annealing walk from *each* of those
        starts (so total work scales with the start count); ``"hybrid"``
        — hill climbing from every start, then one annealing walk from
        its winner.
    seed:
        Single seed pinning every random choice.  Each start climbs with
        an independently spawned child seed, so results are reproducible
        for a fixed ``(seed, n_jobs)`` — and in fact invariant in
        ``n_jobs``, which only shards the start climbs across processes.
    n_jobs:
        Worker processes for the start climbs (``None``/1 = in-process,
        sharing one memoized objective).  Workers use private memos, so
        the work *accounting* differs from the in-process run but the
        winning order and value do not.
    recombine:
        Crossover children to breed from the elite start-climb results
        (precedence-preserving one-point OX, decisions N/A on chains);
        each child is climbed like a start.  0 disables recombination.
    objective:
        Pluggable evaluation — pass a prepared :class:`ChainObjective`
        (e.g. shared across calls to reuse its memo) or leave ``None`` to
        build one for ``algorithm``.  Passing one also forces chain
        semantics on join-shaped DAGs.
    certify:
        Replay the winning order through the batched adaptive Monte-Carlo
        engine until the mean is certified to ``target_ci`` (running on
        the array-API ``backend``; heterogeneous cost profiles are priced
        in the simulation too), attaching the agreement stamp.  Join
        winners replay through :func:`repro.dag.join.simulate_join`.
    """
    if method not in SEARCH_METHODS:
        raise InvalidParameterError(
            f"unknown search method {method!r}; expected one of {SEARCH_METHODS}"
        )
    if objective is None and uses_join_objective(dag):
        return _search_join_order(
            dag,
            platform,
            method=method,
            seed=seed,
            restarts=restarts,
            iterations=iterations,
            max_rounds=max_rounds,
            certify=certify,
            target_ci=target_ci,
            certify_runs=certify_runs,
        )
    if objective is None:
        objective = ChainObjective(dag, platform, algorithm=algorithm)

    ss_starts, ss_climbs, ss_recombine, ss_anneal = np.random.SeedSequence(
        seed
    ).spawn(4)
    start_rng = np.random.default_rng(ss_starts)
    starts: list[tuple[str, list[Hashable]]] = [
        (f"heuristic-{k}", order)
        for k, order in enumerate(candidate_orders(dag, "auto"))
    ]
    for r in range(max(0, restarts)):
        starts.append((f"random-{r}", random_order(dag, start_rng)))
    climb_seeds = ss_climbs.spawn(len(starts))
    climb_kwargs = dict(
        iterations=iterations,
        max_rounds=max_rounds,
        polish_budget=polish_budget,
    )

    objective.metrics.counter("search.starts").inc(len(starts))
    objective.metrics.counter("search.restarts").inc(max(0, restarts))
    results: list[tuple[str, list[Hashable], Solution, int]] = []
    shard_snapshots: list[MetricsSnapshot] = []
    # pool workers rebuild a *stock* ChainObjective from the algorithm
    # name, so a caller-supplied objective (possibly a subclass with its
    # own pricing) must keep every climb in-process to stay authoritative
    use_pool = (
        n_jobs is not None
        and n_jobs > 1
        and len(starts) > 1
        and type(objective) is ChainObjective
    )
    if use_pool:
        from concurrent.futures import ProcessPoolExecutor

        payloads = [
            (
                dag,
                platform,
                objective.algorithm,
                method,
                start,
                climb_seed,
                iterations,
                max_rounds,
                polish_budget,
            )
            for (_, start), climb_seed in zip(starts, climb_seeds)
        ]
        with _span(
            "search.pool", n_jobs=min(n_jobs, len(starts)), starts=len(starts)
        ), ProcessPoolExecutor(max_workers=min(n_jobs, len(starts))) as pool:
            bus = _ambient_events()
            for (label, _), (order, solution, rounds, shard, eshard) in zip(
                starts, pool.map(_climb_worker, payloads)
            ):
                results.append((label, order, solution, rounds))
                shard_snapshots.append(shard)
                bus.replay(eshard)
    else:
        for (label, start), climb_seed in zip(starts, climb_seeds):
            with _span("search.start", label=label) as sp:
                order, solution, rounds = _climb(
                    dag,
                    objective,
                    method,
                    start,
                    np.random.default_rng(climb_seed),
                    **climb_kwargs,
                )
                sp.set(rounds=rounds, value=solution.expected_time)
            results.append((label, order, solution, rounds))

    best_order: list[Hashable] | None = None
    best_solution: Solution | None = None
    rounds_total = 0
    start_values: dict[str, float] = {}
    bus = _ambient_events()
    for label, order, solution, rounds in results:
        start_values[label] = solution.expected_time
        rounds_total += rounds
        if bus.enabled:
            bus.emit(
                "search.climb",
                label=label,
                value=solution.expected_time,
                rounds=rounds,
            )
        if best_solution is None or _improves(
            solution.expected_time, best_solution.expected_time
        ):
            best_order, best_solution = order, solution
    assert best_order is not None and best_solution is not None

    # -- elite recombination (precedence-preserving one-point OX) ------
    recombined = 0
    if recombine > 0 and dag.n >= 2:
        elites: list[list[Hashable]] = []
        for _, order, solution, _ in sorted(
            results, key=lambda r: r[2].expected_time
        ):
            if order not in elites:
                elites.append(order)
            if len(elites) >= 4:
                break
        if len(elites) >= 2:
            seeds = ss_recombine.spawn(recombine + 1)
            select_rng = np.random.default_rng(seeds[0])
            for c in range(recombine):
                a, b = select_rng.choice(len(elites), size=2, replace=False)
                cut = int(select_rng.integers(1, dag.n))
                child = crossover_orders(elites[int(a)], elites[int(b)], cut)
                with _span("search.crossover", child=c) as sp:
                    order, solution, rounds = _climb(
                        dag,
                        objective,
                        method,
                        child,
                        np.random.default_rng(seeds[c + 1]),
                        **climb_kwargs,
                    )
                    sp.set(value=solution.expected_time)
                start_values[f"crossover-{c}"] = solution.expected_time
                rounds_total += rounds
                recombined += 1
                if _improves(
                    solution.expected_time, best_solution.expected_time
                ):
                    best_order, best_solution = order, solution

    if method == "hybrid":
        with _span("search.anneal") as sp:
            order, solution, rounds = simulated_annealing(
                dag,
                objective,
                best_order,
                np.random.default_rng(ss_anneal),
                iterations=iterations,
            )
            sp.set(value=solution.expected_time)
        rounds_total += rounds
        start_values["anneal"] = solution.expected_time
        if _improves(solution.expected_time, best_solution.expected_time):
            best_order, best_solution = order, solution

    # One associative fold replaces the old pool_counters int array: the
    # in-process objective's snapshot plus every worker shard, merged in
    # any order with the same totals.
    merged = MetricsSnapshot.merge_all(
        [objective.metrics.snapshot(), *shard_snapshots]
    )
    _ambient_metrics().merge_snapshot(merged)
    exact_evaluations = merged.counter("search.exact.evaluations")
    exact_cache_hits = merged.counter("search.exact.hits")
    bound_evaluations = merged.counter("search.bound.evaluations")
    bound_cache_hits = merged.counter("search.bound.hits")

    dag_solution = DagSolution(best_order, best_solution)
    dag_solution.diagnostics.update(
        search_method=method,
        search_seed=seed,
        search_starts=len(starts),
        search_exact_evaluations=exact_evaluations,
        search_bound_evaluations=bound_evaluations,
        search_n_jobs=n_jobs,
        search_recombined=recombined,
    )

    certificate = None
    if certify:
        from ..experiments.common import certify_solution

        _, chain = dag.serialise(list(best_order))
        certificate = certify_solution(
            chain,
            platform,
            best_solution,
            label=f"{dag.name} search order",
            target_ci=target_ci,
            seed=seed,
            backend=backend,
            max_runs=certify_runs,
            costs=dag.cost_profile(list(best_order), platform),
        )

    logger.debug(
        "search_order done: dag=%s method=%s seed=%d starts=%d value=%.6g "
        "exact=%d bounds=%d",
        dag.name,
        method,
        seed,
        len(starts),
        best_solution.expected_time,
        exact_evaluations,
        bound_evaluations,
    )
    return SearchResult(
        solution=dag_solution,
        method=method,
        seed=seed,
        algorithm=objective.algorithm,
        starts=len(starts),
        rounds=rounds_total,
        orders_scored=(
            exact_evaluations
            + exact_cache_hits
            + bound_evaluations
            + bound_cache_hits
        ),
        exact_evaluations=exact_evaluations,
        exact_cache_hits=exact_cache_hits,
        bound_evaluations=bound_evaluations,
        bound_cache_hits=bound_cache_hits,
        start_values=start_values,
        certificate=certificate,
        n_jobs=n_jobs,
        recombined=recombined,
        metrics=merged,
    )
