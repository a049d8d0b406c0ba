"""One local-search kernel for the chain, join and p=2 order searches.

The three searches differ only in what a state is and how it is priced,
so one hill climber, one annealer, one multistart driver and one pool
worker live here and work on a small problem protocol,
:class:`Objective`, that :class:`~repro.dag.search.ChainObjective`,
:class:`~repro.dag.join.JoinObjective` and
:class:`~repro.dag.parallel.ParallelObjective` implement as methods.

Every search follows the same two rules.  A hill-climbing round ranks
the neighbourhood by screening value (ties keep neighbourhood order),
confirms candidates in that order while the screen promises an
improvement, and accepts the first confirmed one; when the screen is
exact this is the first minimum of the neighbourhood.  Annealing accepts
a move when ``delta <= 0`` or with Metropolis probability
``exp(-delta / T)``, from ``T`` = 2% of the start value cooled by 0.99
per step.  Improvements are relative (:data:`RELATIVE_TOLERANCE`), so
float noise never counts as progress.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from typing import Any, NamedTuple, Protocol

import numpy as np

from ..obs import MetricsRegistry, MetricsSnapshot
from ..obs import events as _ambient_events
from ..obs import fan_out
from ..obs import metrics as _ambient_metrics
from ..obs import span as _span

__all__ = [
    "Climb",
    "Multistart",
    "Objective",
    "RELATIVE_TOLERANCE",
    "SEARCH_METHODS",
    "hill_climb",
    "multistart",
    "neighbor_cap",
    "simulated_annealing",
]

SEARCH_METHODS = ("hill_climb", "anneal", "hybrid")

#: Relative improvement below which two values are considered equal
#: (guards against accepting float noise as progress).
RELATIVE_TOLERANCE = 1e-12
#: Annealing's start temperature, as a share of the start value: enough
#: to hop over order-of-``V*`` barriers without random-walking.
INITIAL_TEMPERATURE = 0.02
#: Annealing's per-step temperature factor.
COOLING = 0.99


def improves(candidate: float, incumbent: float) -> bool:
    """Is ``candidate`` better than ``incumbent`` beyond float noise?"""
    return candidate < incumbent * (1.0 - RELATIVE_TOLERANCE)


def neighbor_cap(n: int) -> int:
    """Sampled moves per family in a hill-climbing neighbourhood of an
    ``n``-task state: linear-sized on big DAGs."""
    return max(16, 2 * n)


class Objective(Protocol):
    """What the kernel asks of a search problem."""

    #: receives the ``search.moves.*`` counters
    metrics: MetricsRegistry

    def score(self, state: Any) -> tuple[float, Any]:
        """The exact value of ``state`` and the detail screening its
        neighbours needs (the chain objective's optimal solution, ``None``
        for join and p=2)."""

    def neighbors(self, state: Any, rng: np.random.Generator) -> list:
        """The (sampled) neighbourhood one hill-climbing round screens."""

    def random_neighbor(self, state: Any, rng: np.random.Generator) -> Any:
        """One random move for annealing (``None`` when there is none)."""

    def screen(self, states: Sequence, incumbent: Any) -> list[float]:
        """Screening values of ``states`` given the current state's detail:
        frozen-schedule upper bounds for chains, exact for join and p=2."""

    def confirm(self, state: Any, screened: float) -> tuple[float, Any]:
        """The exact value and detail of a screened state: a DP solve for
        chains; join and p=2 return ``screened`` without pricing again."""


class Climb(NamedTuple):
    """Where one climb or walk ended: its state, exact value and detail,
    and the moves it accepted."""

    state: Any
    value: float
    detail: Any
    rounds: int


def hill_climb(
    objective: Objective,
    start: Any,
    rng: np.random.Generator | None,
    *,
    max_rounds: int = 200,
    polish_budget: int | None = None,
) -> Climb:
    """Steepest-feasible descent from ``start``.

    Each round screens the whole neighbourhood in one ``screen`` batch,
    confirms candidates in screening order while the screen promises an
    improvement, and accepts the first confirmed improvement.  When none
    is found the round *polishes*: it confirms the ``polish_budget`` best
    screened neighbours anyway (``None`` = all of them), because a bound
    can hide an improvement.  The climb stops at a state no confirmed
    neighbour beats, or after ``max_rounds`` moves.
    """
    state = start
    value, detail = objective.score(state)
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    rounds = 0
    for _ in range(max_rounds):
        cands = objective.neighbors(state, rng)
        screened = objective.screen(cands, detail)
        ranked = sorted(range(len(cands)), key=screened.__getitem__)
        c_proposed.inc(len(cands))
        move = None
        for k in ranked:
            if not improves(screened[k], value):
                break
            confirmed = objective.confirm(cands[k], screened[k])
            if improves(confirmed[0], value):
                move = k, confirmed
                break
        if move is None:
            budget = len(ranked) if polish_budget is None else polish_budget
            for k in ranked[:budget]:
                confirmed = objective.confirm(cands[k], screened[k])
                if improves(confirmed[0], value):
                    move = k, confirmed
                    break
        if move is None:
            break
        k, (value, detail) = move
        state = cands[k]
        c_accepted.inc()
        rounds += 1
        if bus.enabled:
            bus.emit("search.round", round=rounds, value=value, proposed=len(cands))
    return Climb(state, value, detail, rounds)


def simulated_annealing(
    objective: Objective,
    start: Any,
    rng: np.random.Generator,
    *,
    iterations: int = 400,
) -> Climb:
    """Metropolis walk from ``start``; returns the best state visited.

    Each move is screened against the current state and confirmed only
    when accepted, so the walk anneals on exact values while paying the
    exact price only for accepted states.  ``rounds`` counts the
    accepted moves.
    """
    state = start
    value, detail = objective.score(state)
    best = Climb(state, value, detail, 0)
    temperature = INITIAL_TEMPERATURE * value
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    accepted = 0
    for it in range(iterations):
        cand = objective.random_neighbor(state, rng)
        if cand is None:  # a rigid state: nothing to explore
            break
        c_proposed.inc()
        screened = objective.screen([cand], detail)[0]
        delta = screened - value
        if delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-300)
        ):
            value, detail = objective.confirm(cand, screened)
            state = cand
            accepted += 1
            c_accepted.inc()
            if improves(value, best.value):
                best = Climb(state, value, detail, 0)
                if bus.enabled:
                    bus.emit(
                        "search.best", iteration=it, value=value, accepted=accepted
                    )
        temperature *= COOLING
    return best._replace(rounds=accepted)


def _climb(
    objective: Objective,
    method: str,
    start: Any,
    seed: np.random.SeedSequence,
    *,
    iterations: int,
    max_rounds: int,
    polish_budget: int | None,
) -> Climb:
    """One start's climb: a walk for ``anneal``, else hill climbing."""
    rng = np.random.default_rng(seed)
    if method == "anneal":
        return simulated_annealing(objective, start, rng, iterations=iterations)
    return hill_climb(
        objective, start, rng, max_rounds=max_rounds, polish_budget=polish_budget
    )


def _climb_worker(
    factory: Callable[[], Objective], method: str, start: Any, seed, options: dict
) -> tuple[Climb, MetricsSnapshot]:
    """Pool entry point: one start climbed on a fresh objective (memos
    are value-transparent, so only the work accounting differs), whose
    counters ride home in its snapshot."""
    objective = factory()
    climb = _climb(objective, method, start, seed, **options)
    return climb, objective.metrics.snapshot()


class Multistart:
    """A multistart search in progress: every climb's value, the best.

    :func:`multistart` climbs the starts; callers may then climb more
    states (:meth:`climb`) and anneal from the winner (:meth:`anneal`)
    before :meth:`publish` folds the work accounting.
    """

    def __init__(self, objective: Objective, method: str, options: dict) -> None:
        self.objective = objective
        self.method = method
        self.options = options  #: ``iterations``, ``max_rounds``, ``polish_budget``
        self.climbs: list[Climb] = []  #: the start climbs, in start order
        self.best: Climb | None = None
        self.start_values: dict[str, float] = {}
        self.rounds = 0
        self.shards: list[MetricsSnapshot] = []

    def offer(self, label: str, climb: Climb) -> None:
        """Record a finished climb; it wins if it beats the best so far."""
        self.start_values[label] = climb.value
        self.rounds += climb.rounds
        if self.best is None or improves(climb.value, self.best.value):
            self.best = climb

    def climb(self, label: str, start: Any, seed: np.random.SeedSequence) -> Climb:
        """Climb ``start`` in-process (as the method's start climbs do)."""
        result = _climb(self.objective, self.method, start, seed, **self.options)
        self.offer(label, result)
        return result

    def anneal(self, seed: np.random.SeedSequence) -> None:
        """The ``hybrid`` method's last step: one walk from the winner."""
        assert self.best is not None
        with _span("search.anneal") as sp:
            result = simulated_annealing(
                self.objective,
                self.best.state,
                np.random.default_rng(seed),
                iterations=self.options["iterations"],
            )
            sp.set(value=result.value)
        self.offer("anneal", result)

    def publish(self) -> MetricsSnapshot:
        """The objective's counters merged with every worker shard's,
        also merged into the ambient registry."""
        merged = MetricsSnapshot.merge_all(
            [self.objective.metrics.snapshot(), *self.shards]
        )
        _ambient_metrics().merge_snapshot(merged)
        return merged


def multistart(
    objective: Objective,
    starts: Sequence[tuple[str, Hashable]],
    seeds: Sequence[np.random.SeedSequence],
    *,
    method: str,
    iterations: int,
    max_rounds: int,
    polish_budget: int | None = None,
    n_jobs: int | None = None,
    factory: Callable[[], Objective] | None = None,
) -> Multistart:
    """Climb every ``(label, state)`` start with its own seed.

    ``anneal`` walks from each start; ``hill_climb`` and ``hybrid``
    hill-climb them (the ``hybrid`` walk is :meth:`Multistart.anneal`).
    With ``n_jobs > 1`` and a picklable ``factory`` building a fresh
    copy of ``objective``, the climbs run in worker processes through
    :func:`repro.obs.fan_out`; the result is the same, only the memo
    accounting differs.  Each climb emits one ``search.climb`` event, in
    start order.
    """
    search = Multistart(
        objective,
        method,
        dict(iterations=iterations, max_rounds=max_rounds, polish_budget=polish_budget),
    )
    objective.metrics.counter("search.starts").inc(len(starts))
    if factory is not None and n_jobs is not None and n_jobs > 1 and len(starts) > 1:
        with _span(
            "search.pool", n_jobs=min(n_jobs, len(starts)), starts=len(starts)
        ):
            shipped = fan_out(
                _climb_worker,
                [
                    (factory, method, start, seed, search.options)
                    for (_, start), seed in zip(starts, seeds)
                ],
                n_jobs=n_jobs,
            )
        for climb, shard in shipped:
            search.climbs.append(climb)
            search.shards.append(shard)
    else:
        for (label, start), seed in zip(starts, seeds):
            with _span("search.start", label=label) as sp:
                climb = _climb(objective, method, start, seed, **search.options)
                sp.set(rounds=climb.rounds, value=climb.value)
            search.climbs.append(climb)
    bus = _ambient_events()
    for (label, _), climb in zip(starts, search.climbs):
        search.offer(label, climb)
        if bus.enabled:
            bus.emit(
                "search.climb", label=label, value=climb.value, rounds=climb.rounds
            )
    return search
