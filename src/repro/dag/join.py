"""Checkpointing join graphs under fail-stop errors (APDCM'15 model).

The paper's conclusion points at the simplest hard case of general
workflows: a *join graph* — ``n-1`` independent source tasks feeding one
sink — executed sequentially on the whole platform, subject to fail-stop
errors only, with a single (disk) checkpoint level and no verifications.
Deciding which source outputs to checkpoint is already NP-hard
[Aupy, Benoit, Casanova, Robert, APDCM 2015].

Model
-----
Sources run in a given order, then the sink.  Completing a source whose
``checkpoint`` decision is True immediately stores its output (cost ``C``);
checkpointed outputs survive crashes.  A crash (Poisson rate ``λ``) wipes
every *unprotected* completed output, pays the recovery cost ``R`` (0 when
nothing has been checkpointed yet — restart from scratch), and forces the
re-execution of every lost source before execution can move on.  Note the
crucial difference with a chain: an unprotected source stays vulnerable
*forever* — its work is part of the volatile state of every later segment.

Exact expected makespan
-----------------------
Between two consecutive checkpoint events the volatile work is

    V_m = (all unprotected source weights that precede the m-th
           checkpointed task in the order) + w_{k_m},

and a memoryless segment with volatile work ``V`` costs, in expectation,
``(e^{λV} - 1)(1/λ + R_eff)`` (geometric retries, each failed attempt
losing ``T_lost`` and paying the recovery) — the same algebra as the
chain's eq. (4) restricted to fail-stop errors.  Summing segments (plus
``C`` per checkpoint, the sink being the final segment) gives the exact
expected makespan in ``O(n)``: see :func:`evaluate_join`.

Optimization
------------
:func:`exhaustive_join` enumerates all ``2^(n-1)`` decision vectors (and
optionally source orders); :func:`local_search_join` is a hill-climbing
heuristic (flip / adjacent-swap moves) that matches the exhaustive optimum on
small instances in our tests and scales to hundreds of sources.
:class:`JoinObjective` is the memoized objective both it and the join-aware
order search (:func:`repro.dag.search.search_order`) climb through the
shared local-search kernel (:mod:`repro.dag.local_search`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from ..obs import MetricsRegistry
from .local_search import hill_climb
from .workflow import WorkflowDAG, canonical_node_key

__all__ = [
    "JoinInstance",
    "JoinObjective",
    "JoinSchedule",
    "join_neighborhood",
    "random_join_neighbor",
    "evaluate_join",
    "exhaustive_join",
    "local_search_join",
    "threshold_join",
    "simulate_join",
    "join_from_dag",
    "join_sources",
]

@dataclass(frozen=True)
class JoinInstance:
    """A join-graph instance: source weights, sink weight, error model.

    Parameters
    ----------
    source_weights:
        Weights of the ``n-1`` independent sources (> 0).
    sink_weight:
        Weight of the sink task (> 0).
    rate:
        Fail-stop Poisson rate ``λ`` (>= 0).
    C:
        Checkpoint cost.
    R:
        Recovery cost, paid on every crash once at least one checkpoint
        exists (restart-from-scratch is free, as in the chain model).
    """

    source_weights: tuple[float, ...]
    sink_weight: float
    rate: float
    C: float
    R: float

    def __post_init__(self) -> None:
        if not self.source_weights:
            raise InvalidParameterError("a join graph needs at least one source")
        if any(not (math.isfinite(w) and w > 0) for w in self.source_weights):
            raise InvalidParameterError("source weights must be positive and finite")
        if not (math.isfinite(self.sink_weight) and self.sink_weight > 0):
            raise InvalidParameterError("sink weight must be positive and finite")
        if self.rate < 0 or self.C < 0 or self.R < 0:
            raise InvalidParameterError("rate and costs must be >= 0")

    @property
    def n_sources(self) -> int:
        return len(self.source_weights)


@dataclass(frozen=True)
class JoinSchedule:
    """An execution order plus per-source checkpoint decisions.

    ``order[i]`` is the index (into ``source_weights``) of the ``i``-th
    executed source; ``checkpoint[i]`` says whether the ``i``-th *executed*
    source stores its output.
    """

    order: tuple[int, ...]
    checkpoint: tuple[bool, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise InvalidParameterError(
                f"order must be a permutation of 0..{len(self.order) - 1}"
            )
        if len(self.checkpoint) != len(self.order):
            raise InvalidParameterError(
                "checkpoint vector must match the order length"
            )

    @property
    def n_checkpoints(self) -> int:
        return sum(self.checkpoint)


class JoinObjective:
    """Memoized exact objective over join states (order + decisions).

    :func:`evaluate_join` is an exact ``O(n)`` closed form, so unlike
    :class:`~repro.dag.search.ChainObjective` there is no DP/bound split
    — every state is priced exactly and memoized on the
    ``(order, checkpoint)`` tuple, and :meth:`screen` is exact.  The
    *forever-vulnerable* semantics are what make order search worthwhile
    here: an unprotected source inflates every later segment, so
    repositioning sources interacts with the checkpoint decisions.
    """

    def __init__(self, instance: JoinInstance) -> None:
        self.instance = instance
        self._memo: dict[tuple, float] = {}
        self.metrics = MetricsRegistry()
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

    # -- the local-search protocol (repro.dag.local_search) ------------
    def score(self, schedules: Sequence[JoinSchedule]) -> list[tuple[float, None]]:
        return [(self.value(schedule), None) for schedule in schedules]

    def neighbors(self, schedule: JoinSchedule, rng) -> list[JoinSchedule]:
        return list(join_neighborhood(schedule))

    def random_neighbor(self, schedule: JoinSchedule, rng) -> JoinSchedule:
        return random_join_neighbor(schedule, rng)

    def screen(self, rounds) -> list[list[float]]:
        return [[self.value(s) for s in schedules] for schedules, _ in rounds]

    def confirm(self, schedules, screened: Sequence[float]) -> list[tuple[float, None]]:
        return [(value, None) for value in screened]


def _reposition(schedule: JoinSchedule, i: int, j: int) -> JoinSchedule:
    """Move the ``i``-th source to position ``j``, its decision with it."""
    order = list(schedule.order)
    decisions = list(schedule.checkpoint)
    order.insert(j, order.pop(i))
    decisions.insert(j, decisions.pop(i))
    return JoinSchedule(tuple(order), tuple(decisions))


def _flip(schedule: JoinSchedule, i: int) -> JoinSchedule:
    """Toggle the ``i``-th source's checkpoint decision."""
    flipped = list(schedule.checkpoint)
    flipped[i] = not flipped[i]
    return JoinSchedule(schedule.order, tuple(flipped))


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
        yield _flip(schedule, i)
    for i in range(n):
        for j in range(n):
            if j != i:
                yield _reposition(schedule, i, j)


def random_join_neighbor(
    schedule: JoinSchedule, rng: np.random.Generator
) -> JoinSchedule:
    """One uniformly-drawn join move: a flip or a reposition, with equal
    probability."""
    n = len(schedule.order)
    if n < 2 or rng.random() < 0.5:
        return _flip(schedule, int(rng.integers(n)))
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    return _reposition(schedule, i, j)


def _segment_cost(V: float, rate: float, R_eff: float) -> float:
    """Expected time of a volatile segment: ``(e^{λV} - 1)(1/λ + R)``.

    λ -> 0 limit: ``V`` (no failures, no retries).
    """
    if rate == 0.0:
        return V
    return math.expm1(rate * V) * (1.0 / rate + R_eff)


def evaluate_join(instance: JoinInstance, schedule: JoinSchedule) -> float:
    """Exact expected makespan of ``schedule`` on ``instance`` (O(n))."""
    if len(schedule.order) != instance.n_sources:
        raise InvalidParameterError(
            f"schedule covers {len(schedule.order)} sources, instance has "
            f"{instance.n_sources}"
        )
    rate = instance.rate
    total = 0.0
    volatile = 0.0  # accumulated unprotected work
    have_checkpoint = False
    for pos, src in enumerate(schedule.order):
        w = instance.source_weights[src]
        if schedule.checkpoint[pos]:
            V = volatile + w
            R_eff = instance.R if have_checkpoint else 0.0
            total += _segment_cost(V, rate, R_eff) + instance.C
            have_checkpoint = True
            # the just-checkpointed task is protected; earlier unprotected
            # tasks remain volatile for all later segments
        else:
            volatile += w
            continue
    # final segment: remaining unprotected sources + the sink
    V = volatile + instance.sink_weight
    R_eff = instance.R if have_checkpoint else 0.0
    total += _segment_cost(V, rate, R_eff)
    return total


def exhaustive_join(
    instance: JoinInstance,
    *,
    optimize_order: bool = False,
    max_n: int = 12,
) -> tuple[float, JoinSchedule]:
    """Brute-force optimum over decisions (and optionally orders).

    ``2^n`` decision vectors, times ``n!`` orders when ``optimize_order``
    (then ``max_n`` applies to much smaller instances; the default only
    enumerates decisions for the natural order 0..n-1).
    """
    n = instance.n_sources
    if n > max_n:
        raise InvalidParameterError(
            f"exhaustive join search limited to n <= {max_n} sources"
        )
    if optimize_order and n > 7:
        raise InvalidParameterError(
            "order enumeration limited to n <= 7 sources (n! blow-up)"
        )
    orders = (
        itertools.permutations(range(n))
        if optimize_order
        else [tuple(range(n))]
    )
    best_value = math.inf
    best_schedule: JoinSchedule | None = None
    for order in orders:
        for bits in itertools.product((False, True), repeat=n):
            schedule = JoinSchedule(tuple(order), bits)
            value = evaluate_join(instance, schedule)
            if value < best_value:
                best_value = value
                best_schedule = schedule
    assert best_schedule is not None
    return best_value, best_schedule


def threshold_join(instance: JoinInstance) -> tuple[float, JoinSchedule]:
    """Young/Daly-flavoured heuristic: checkpoint sources whose weight
    exceeds ``sqrt(2C/λ)``.

    Derivation: checkpointing a source of weight ``w`` pays ``C`` once but
    removes ``w`` from the volatile work of every later segment; to first
    order in ``λV`` a segment of volatile work ``V`` wastes ``λV²/2``
    (failures arrive uniformly over the segment and lose half of it on
    average), so carrying ``w`` through one more segment of its own size
    costs ~``λw²/2`` extra.  Balancing ``C = λw²/2`` gives the classic
    Young/Daly break-even ``w = sqrt(2C/λ)`` — a per-source transplant of
    the periodic-checkpointing period.

    Degenerate regimes are handled explicitly, not through the formula:

    * ``λ = 0`` — failures never happen, checkpoints are pure cost:
      never checkpoint (this one *is* exact);
    * ``C = 0`` — the rule's natural limit: the threshold goes to 0, so
      every source is checkpointed.  Splitting volatile work into more
      segments shrinks the failure-work term by convexity of ``expm1``
      (``e^{λ(a+b)} − 1 ≥ (e^{λa} − 1) + (e^{λb} − 1)``), but — like the
      threshold rule everywhere — this ignores the recovery surcharge:
      once any checkpoint exists, every later retry pays ``R``, so on
      ``R``-heavy instances checkpointing nothing can still win (the
      local search and the join-aware order search explore that; this
      function is the cheap starting heuristic).  The point of deciding
      ``C = 0`` explicitly is consistency: an earlier clamp
      ``max(C, 1e-12)`` silently produced a *positive* threshold at
      ``C = 0``, skipping checkpoints on very light sources only.
    """
    n = instance.n_sources
    order = tuple(range(n))
    if instance.rate == 0.0:
        decisions = tuple([False] * n)
    elif instance.C == 0.0:
        decisions = tuple([True] * n)
    else:
        threshold = math.sqrt(2.0 * instance.C / instance.rate)
        decisions = tuple(w >= threshold for w in instance.source_weights)
    schedule = JoinSchedule(order, decisions)
    return evaluate_join(instance, schedule), schedule


def local_search_join(
    instance: JoinInstance,
    *,
    optimize_order: bool = True,
    max_rounds: int = 200,
) -> tuple[float, JoinSchedule]:
    """Hill climbing over (decision flips, adjacent order swaps).

    Starts from the heaviest-first order with the threshold decisions and
    repeatedly applies the best single move until a local optimum — the
    shared kernel's :func:`~repro.dag.local_search.hill_climb` over a
    :class:`JoinObjective` whose neighbours are the flips, then (with
    ``optimize_order``) the adjacent swaps, decisions staying with their
    positions.  Runs in ``O(rounds * n)`` evaluations, each ``O(n)``.
    Convergence uses the kernel's *relative* improvement test: an
    absolute ``1e-15`` epsilon is below one ulp for large makespans,
    which made the loop spin through all ``max_rounds`` re-accepting
    float noise.
    """
    n = instance.n_sources
    start_order = tuple(
        sorted(range(n), key=lambda i: -instance.source_weights[i])
    )
    _, thr = threshold_join(instance)
    decisions = tuple(
        thr.checkpoint[thr.order.index(src)] for src in start_order
    )

    objective = _FlipSwapObjective(instance, optimize_order)
    climb = hill_climb(
        objective, JoinSchedule(start_order, decisions), None, max_rounds=max_rounds
    )
    return climb.value, climb.state


class _FlipSwapObjective(JoinObjective):
    """:func:`local_search_join`'s neighbourhood: every flip, then (with
    ``optimize_order``) every adjacent swap, decisions staying with their
    positions."""

    def __init__(self, instance: JoinInstance, optimize_order: bool) -> None:
        super().__init__(instance)
        self.optimize_order = optimize_order

    def neighbors(self, schedule: JoinSchedule, rng) -> list[JoinSchedule]:
        n = len(schedule.order)
        cands = [_flip(schedule, i) for i in range(n)]
        for i in range(n - 1 if self.optimize_order else 0):
            order = list(schedule.order)
            order[i], order[i + 1] = order[i + 1], order[i]
            cands.append(JoinSchedule(tuple(order), schedule.checkpoint))
        return cands


def simulate_join(
    instance: JoinInstance,
    schedule: JoinSchedule,
    *,
    runs: int = 1000,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """Monte-Carlo makespans of a join schedule (validates the closed form).

    Returns one makespan per run.  The generative process mirrors the model
    exactly: exponential crash arrivals over volatile segments, geometric
    retries, recovery cost once a checkpoint exists.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rate = instance.rate

    # Pre-compute the volatile segment lengths exactly as evaluate_join does.
    segments: list[tuple[float, bool]] = []  # (volatile work, checkpointed?)
    volatile = 0.0
    for pos, src in enumerate(schedule.order):
        w = instance.source_weights[src]
        if schedule.checkpoint[pos]:
            segments.append((volatile + w, True))
        else:
            volatile += w
    segments.append((volatile + instance.sink_weight, False))

    makespans = np.empty(runs)
    for run in range(runs):
        t = 0.0
        have_checkpoint = False
        for V, ckpt in segments:
            while True:
                arrival = rng.exponential(1.0 / rate) if rate > 0 else math.inf
                if arrival >= V:
                    t += V
                    break
                t += arrival
                if have_checkpoint:
                    t += instance.R
            if ckpt:
                t += instance.C
                have_checkpoint = True
        makespans[run] = t
    return makespans


def join_sources(dag: WorkflowDAG) -> list:
    """Source tasks of a join-shaped DAG in canonical node order.

    This is *the* index convention for :func:`join_from_dag`: source ``i``
    of the returned :class:`JoinInstance` is ``join_sources(dag)[i]``.
    The order is the numeric-aware canonical one
    (:func:`~repro.dag.workflow.canonical_node_key`), so generator names
    line up with their numeric indices — a plain ``repr`` sort put
    ``"t10"`` before ``"t2"`` and silently permuted source weights on
    >9-source joins.
    """
    if not dag.is_join():
        raise InvalidParameterError(
            f"{dag!r} is not a join graph (n-1 sources + one sink)"
        )
    sink = dag.sinks()[0]
    return sorted((v for v in dag.graph if v != sink), key=canonical_node_key)


def join_from_dag(
    dag: WorkflowDAG, *, rate: float, C: float, R: float
) -> JoinInstance:
    """Build a :class:`JoinInstance` from a join-shaped :class:`WorkflowDAG`.

    ``source_weights[i]`` is the weight of ``join_sources(dag)[i]``.
    """
    sources = join_sources(dag)
    sink = dag.sinks()[0]
    return JoinInstance(
        source_weights=tuple(dag.weight(v) for v in sources),
        sink_weight=dag.weight(sink),
        rate=rate,
        C=C,
        R=R,
    )
