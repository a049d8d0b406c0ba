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
  cache hit — no evaluation at all;
* **batched exact solves** — the kernel climbs a multistart's starts in
  lockstep, so the exact solves of the start scores and of each wave of
  confirms arrive together, and :meth:`ChainObjective.exact_all` solves
  the memo misses among them in one
  :func:`~repro.core.solver.optimize_batch` call per :func:`dp_rows`
  misses, whose DP costs far less per row than one solve per order.

Heterogeneous per-task costs
----------------------------
When the DAG carries per-task cost multipliers
(:meth:`~repro.dag.workflow.WorkflowDAG.cost_profile`), both evaluation
paths price them through one :func:`~repro.core.costs.scaled_costs` stack
of the permuted multipliers — the multiplier travels with the *task*, so
reordering changes which position pays which
checkpoint/verification/recovery cost.  This is what
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

One kernel, multi-start, crossover, parallelism
-----------------------------------------------
Both objectives implement the problem protocol of
:mod:`repro.dag.local_search` (``score``, ``neighbors``,
``random_neighbor``, ``screen``, ``confirm``), and every climb runs on
that one kernel — the same hill climber, annealer and multistart driver
as the p=2 search (:mod:`repro.dag.parallel`).  A hill-climbing round
accepts the first bound-ranked neighbour an exact solve confirms as an
improvement, which on an exact screen (join states) is the first minimum
of the neighbourhood; annealing accepts a move on ``delta <= 0`` or with
Metropolis probability.  The climbs start from every fixed heuristic
order (including the critical-path / bottom-level priority rules) plus
random restarts; each start draws its moves from an independently
spawned child seed, so the result is reproducible for a fixed ``seed``,
and all starts climb in one lockstep call.  Elite survivors are then
recombined with a precedence-preserving one-point order crossover
(MoRoTA-style: a prefix of one parent completed in the other parent's
relative order is always a valid linear extension) and the children are
climbed too, in one lockstep call.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

# evaluate_schedule and optimize stay importable here: profilers wrap
# them by their attribute on each calling module
from ..core.costs import scaled_costs
from ..core.evaluator import evaluate_schedule  # noqa: F401
from ..core.evaluator import evaluate_schedules
from ..core.result import Solution
from ..core.schedule import Schedule
from ..core.solver import optimize  # noqa: F401
from ..core.solver import optimize_batch
from ..exceptions import InvalidParameterError
from ..obs import MetricsRegistry, MetricsSnapshot, get_logger
from ..platforms import Platform
from .join import (
    JoinInstance,
    JoinObjective,
    JoinSchedule,
    join_from_dag,
    join_neighborhood,
    join_sources,
    random_join_neighbor,
    threshold_join,
)
from .linearize import DagSolution, candidate_orders
from .local_search import (
    SEARCH_METHODS,
    hill_climb,
    multistart,
    neighbor_cap,
    simulated_annealing,
)
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

logger = get_logger(__name__)

#: Most DP cells one batched chain-DP call holds: ``ADMV*`` and ``ADMV``
#: keep ``(n + 1)^3`` entries of 12 and ~30 bytes per row of length ``n``.
DP_CELLS = 2**20


def dp_rows(n: int) -> int:
    """Most rows of length ``n`` one batched DP call solves (at least 1)."""
    return max(1, DP_CELLS // (n + 1) ** 3)


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
    return _window(dag, order, {v: p for p, v in enumerate(order)}, i)


def _window(
    dag: WorkflowDAG,
    order: Sequence[Hashable],
    position: dict[Hashable, int],
    i: int,
) -> tuple[int, int]:
    """:func:`reinsertion_window` given ``order``'s task -> position map,
    which a caller scanning many tasks builds once."""
    graph = dag.graph
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
    position = {v: p for p, v in enumerate(order)}
    for i in range(len(order)):
        lo, hi = _window(dag, order, position, i)
        for j in range(lo, hi + 1):
            if j == i or abs(j - i) == 1:  # no-op / duplicate of a swap
                continue
            moves.append((i, j))
    for i, j in subsample(moves, max_reinsertions, rng, "max_reinsertions"):
        yield apply_reinsertion(order, i, j), ("reinsert", i, j)


def subsample(moves: list, cap: int | None, rng, name: str) -> list:
    """``cap`` of ``moves`` drawn uniformly by ``rng``, in their order
    (all of them when ``cap`` is ``None`` or not below their count)."""
    if cap is None or len(moves) <= cap:
        return moves
    if rng is None:
        raise InvalidParameterError(f"{name} requires an rng to subsample")
    picked = rng.choice(len(moves), size=cap, replace=False)
    return [moves[int(k)] for k in sorted(picked)]


def random_neighbor(
    dag: WorkflowDAG,
    order: Sequence[Hashable],
    rng: np.random.Generator,
) -> tuple[list[Hashable], tuple] | None:
    """One uniformly-drawn feasible move (``None`` iff the order is rigid):
    an adjacent swap or a reinsertion, with equal probability."""
    if rng.random() >= 0.5:
        swaps = adjacent_swaps(dag, order)
        if swaps:
            i = int(swaps[int(rng.integers(len(swaps)))])
            return apply_swap(order, i), ("swap", i)
    # fall through to reinsertion (also the swap fallback)
    starts = list(rng.permutation(len(order)))
    position = {v: p for p, v in enumerate(order)}
    for i in starts:
        i = int(i)
        lo, hi = _window(dag, order, position, i)
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


def start_orders(
    dag: WorkflowDAG, restarts: int, rng: np.random.Generator
) -> list[tuple[str, list[Hashable]]]:
    """Labelled start orders: every fixed heuristic order
    (:func:`~repro.dag.linearize.candidate_orders`), then ``restarts``
    random ones drawn from ``rng``."""
    return [
        (f"heuristic-{k}", order)
        for k, order in enumerate(candidate_orders(dag, "auto"))
    ] + [(f"random-{r}", random_order(dag, rng)) for r in range(max(0, restarts))]


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

    ``exact_all(orders)`` serialises each order and runs the chain
    optimizer, memoized on the weight tuple in a plain dict that lives
    and dies with the objective (one search), its misses solved in
    batched DP calls; ``exact(order)`` is its one-order call.
    ``bound(order, reference)`` re-prices the reference solution's
    frozen schedule on the order's weights — an upper bound on
    ``exact(order).expected_time``, memoized on the verification-segment
    weight vector.  Counters expose the work done so benchmarks and
    diagnostics can report evaluation rates and hit ratios.

    Heterogeneous DAGs (per-task cost multipliers) are priced through one
    :func:`~repro.core.costs.scaled_costs` stack of each batch's permuted
    multipliers, which the exact solves and the bound screens both take;
    the memo keys then carry the serialised multiplier vector too, because
    two orders with equal weights can still pay different costs.  The
    frozen-schedule bound stays sound: the reference's action sequence is
    one feasible schedule for the neighbor *under the neighbor's permuted
    costs*, so its evaluation upper-bounds the neighbor's optimum.

    The counters live in a private :class:`~repro.obs.MetricsRegistry`
    (``self.metrics``); the legacy int attributes
    (``exact_evaluations`` …) are read-only views over those shared
    metric objects, so existing accounting code keeps working while
    ``metrics.snapshot()`` carries the same numbers.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        platform: Platform,
        *,
        algorithm: str = "admv",
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
        self._exact: dict[bytes, Solution] = {}
        self._bounds: dict[tuple[bytes, bytes], float] = {}
        self._stops: dict[bytes, np.ndarray] = {}
        # Always a live registry (never the ambient null one): the
        # SearchResult accounting must exist with observability off.
        self.metrics = MetricsRegistry()
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

    def _cost_stack(self, orders: Sequence[Sequence[Hashable]]) -> np.ndarray | None:
        """The costs of ``orders`` (``None`` on homogeneous DAGs)."""
        if self._multiplier is None:
            return None
        return scaled_costs(
            self.platform, np.stack([self.multipliers_of(order) for order in orders])
        )

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
    def _exact_key(self, order: Sequence[Hashable]) -> bytes:
        weights = self.weights_of(order).tobytes()
        mult = self.multipliers_of(order)
        return weights if mult is None else weights + b"|" + mult.tobytes()

    def exact(self, order: Sequence[Hashable]) -> Solution:
        """Optimal chain solution for this serialisation (memoized)."""
        return self.exact_all([order])[0]

    def exact_all(self, orders: Sequence[Sequence[Hashable]]) -> list[Solution]:
        """:meth:`exact` of every order of ``orders``.

        The distinct orders missing from the memo are solved straight
        into the memo by :func:`~repro.core.solver.optimize_batch` calls
        of at most :func:`dp_rows` rows; each row equals its own
        ``optimize`` call bit for bit.  An order whose key the memo, or
        an earlier order of the batch, already holds counts as a hit.
        """
        keys = [self._exact_key(order) for order in orders]
        misses: dict[bytes, Sequence[Hashable]] = {}
        for key, order in zip(keys, orders):
            if key not in self._exact:
                misses.setdefault(key, order)
        pending = list(misses.items())
        rows = dp_rows(self.dag.n)
        for lo in range(0, len(pending), rows):
            chunk = pending[lo : lo + rows]
            solutions = optimize_batch(
                [self.dag.serialise(list(o))[1] for _, o in chunk],
                self.platform,
                self.algorithm,
                costs=self._cost_stack([o for _, o in chunk]),
            )
            self._exact.update(zip((key for key, _ in chunk), solutions))
        self._c_exact_evals.inc(len(misses))
        self._c_exact_hits.inc(len(orders) - len(misses))
        return [self._exact[key] for key in keys]

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
                costs=self._cost_stack([orders[i] for i in rows]),
            )
            self._bounds.update(
                (key, e.expected_time) for key, e in zip(fresh, priced)
            )
            self._c_bound_evals.inc(len(fresh))
        if len(orders) > len(fresh):
            self._c_bound_hits.inc(len(orders) - len(fresh))
        return [self._bounds[key] for key in keys]

    # -- the local-search protocol (repro.dag.local_search) ------------
    def score(self, orders: Sequence[Sequence[Hashable]]) -> list[tuple]:
        return [(s.expected_time, s) for s in self.exact_all(orders)]

    def neighbors(self, order: Sequence[Hashable], rng) -> list[list[Hashable]]:
        moves = neighborhood(
            self.dag, order, rng=rng, max_reinsertions=neighbor_cap(self.dag.n)
        )
        return [cand for cand, _ in moves]

    def random_neighbor(self, order: Sequence[Hashable], rng) -> list[Hashable] | None:
        picked = random_neighbor(self.dag, order, rng)
        return None if picked is None else picked[0]

    def screen(self, rounds: Sequence[tuple[Sequence, Solution]]) -> list[list]:
        return [self.bounds(orders, incumbent) for orders, incumbent in rounds]

    def confirm(self, orders: Sequence, screened: Sequence[float]) -> list[tuple]:
        return self.score(orders)


# ----------------------------------------------------------------------
# join-aware search (APDCM'15 forever-vulnerable objective)
# ----------------------------------------------------------------------
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
    recombined: int = 0  #: crossover children climbed
    #: The objective's metric snapshot; the int fields above are views
    #: into its counters.
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
        return (
            f"order search ({self.method}, seed {self.seed}) over "
            f"{self.starts} starts: E[T] = {self.expected_time:.2f}s\n{accounting}"
        )


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

    ss_starts, ss_climbs = np.random.SeedSequence(seed).spawn(2)
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

    objective.metrics.counter("search.restarts").inc(max(0, restarts))
    search = multistart(
        objective,
        starts,
        ss_climbs.spawn(len(starts)),
        method=method,
        iterations=iterations,
        max_rounds=max_rounds,
    )
    best_schedule, best_value = search.best.state, search.best.value

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

    merged = search.publish()
    return SearchResult(
        solution=solution,
        method=method,
        seed=seed,
        algorithm="join",
        starts=len(starts),
        rounds=search.rounds,
        orders_scored=objective.orders_scored,
        exact_evaluations=objective.evaluations,
        exact_cache_hits=objective.cache_hits,
        bound_evaluations=0,
        bound_cache_hits=0,
        start_values=search.start_values,
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
    chain objective, which does price the multipliers).  The join path
    evaluates states exactly in ``O(n)``, so ``recombine``
    (and ``algorithm``/``polish_budget``) do not apply and are ignored
    there.

    Parameters
    ----------
    method:
        ``"hill_climb"`` — steepest descent from every heuristic order
        plus ``restarts`` random orders; ``"anneal"`` — an independent
        ``iterations``-step simulated-annealing walk from *each* of those
        starts (so total work scales with the start count).  Either way
        the starts run in lockstep (:mod:`repro.dag.local_search`).
    seed:
        Single seed pinning every random choice.  Each start climbs with
        an independently spawned child seed, so results are reproducible
        for a fixed ``seed``.
    recombine:
        Crossover children to breed from the elite start-climb results
        (precedence-preserving one-point OX, decisions N/A on chains);
        each child is climbed like a start.  0 disables recombination.
    """
    if uses_join_objective(dag):
        return _search_join_order(
            dag,
            platform,
            method=method,
            seed=seed,
            restarts=restarts,
            iterations=iterations,
            max_rounds=max_rounds,
        )
    objective = ChainObjective(dag, platform, algorithm=algorithm)

    ss_starts, ss_climbs, ss_recombine = np.random.SeedSequence(seed).spawn(3)
    starts = start_orders(dag, restarts, np.random.default_rng(ss_starts))
    objective.metrics.counter("search.restarts").inc(max(0, restarts))
    search = multistart(
        objective,
        starts,
        ss_climbs.spawn(len(starts)),
        method=method,
        iterations=iterations,
        max_rounds=max_rounds,
        polish_budget=polish_budget,
    )

    # -- elite recombination (precedence-preserving one-point OX) ------
    recombined = 0
    if recombine > 0 and dag.n >= 2:
        elites: list[list[Hashable]] = []
        for climb in sorted(search.climbs, key=lambda c: c.value):
            if climb.state not in elites:
                elites.append(climb.state)
            if len(elites) >= 4:
                break
        if len(elites) >= 2:
            seeds = ss_recombine.spawn(recombine + 1)
            select_rng = np.random.default_rng(seeds[0])
            children = []
            for c in range(recombine):
                a, b = select_rng.choice(len(elites), size=2, replace=False)
                cut = int(select_rng.integers(1, dag.n))
                child = crossover_orders(elites[int(a)], elites[int(b)], cut)
                children.append((f"crossover-{c}", child))
            # climbed together, offered in child order (ties resolve so)
            search.climb_all(children, seeds[1:])
            recombined = len(children)

    best_order, best_solution = search.best.state, search.best.detail

    merged = search.publish()
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
        search_recombined=recombined,
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
        rounds=search.rounds,
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
        start_values=search.start_values,
        recombined=recombined,
        metrics=merged,
    )
