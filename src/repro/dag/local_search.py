"""One local-search kernel for the chain, join and p=2 order searches.

The three searches differ only in what a state is and how it is priced,
so one hill climber, one annealer and one multistart driver live here
and work on a small problem protocol,
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

The protocol takes batches, and one server runs every search *in
lockstep*: each hill climb and each annealing walk is a generator that
takes exactly the steps it would take alone, with its own rng, and the
server collects the next request of each and serves all requests of one
kind together.  The start scores are one ``score`` call; the screens of
every climb that moved and every walk that stepped are one ``screen``
call; and once nothing waits on a screen, each *wave* of confirms (the
next candidate of every climb still looking for a move, the accepted
move of every walk) is one ``confirm`` call.  Screens go first so that
a climb which accepted early joins the next wave instead of idling
until the slowest climb decides.  So the chain objective solves a
wave's orders in one batched DP call and the p=2 objective prices a
round's neighbourhoods together.  No request is speculative, and the
memos are value-transparent, so values, states, rounds and every
counter equal those of running the starts one after another; only the
``search.round`` and ``search.best`` events of different starts
interleave.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator, Hashable, Sequence
from functools import partial
from typing import Any, NamedTuple, Protocol

import numpy as np

from ..exceptions import InvalidParameterError
from ..obs import MetricsRegistry, MetricsSnapshot
from ..obs import events as _ambient_events
from ..obs import metrics as _ambient_metrics
from ..obs import span as _span

__all__ = [
    "Climb",
    "Multistart",
    "Objective",
    "RELATIVE_TOLERANCE",
    "SEARCH_METHODS",
    "hill_climb",
    "hill_climb_all",
    "multistart",
    "neighbor_cap",
    "simulated_annealing",
]

SEARCH_METHODS = ("hill_climb", "anneal")

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
    """What the kernel asks of a search problem.

    ``score``, ``screen`` and ``confirm`` take batches, one entry per
    climb or walk of a lockstep call; only the kernel's server calls
    them.
    """

    #: receives the ``search.moves.*`` counters
    metrics: MetricsRegistry

    def score(self, states: Sequence) -> list[tuple[float, Any]]:
        """The exact value of each state and the detail screening its
        neighbours needs (the chain objective's optimal solution, ``None``
        for join and p=2)."""

    def neighbors(self, state: Any, rng: np.random.Generator) -> list:
        """The (sampled) neighbourhood one hill-climbing round screens."""

    def random_neighbor(self, state: Any, rng: np.random.Generator) -> Any:
        """One random move for annealing (``None`` when there is none)."""

    def screen(self, rounds: Sequence[tuple[Sequence, Any]]) -> list[list[float]]:
        """Screening values of each ``(candidates, detail)`` round, the
        detail being the current state's: frozen-schedule upper bounds
        for chains, exact for join and p=2."""

    def confirm(
        self, states: Sequence, screened: Sequence[float]
    ) -> list[tuple[float, Any]]:
        """The exact value and detail of each screened state: a DP solve
        for chains; join and p=2 return the screened value without
        pricing again."""


class Climb(NamedTuple):
    """Where one climb or walk ended: its state, exact value and detail,
    and the moves it accepted."""

    state: Any
    value: float
    detail: Any
    rounds: int


#: The kinds of request a climb or walk makes, in the order the kernel
#: serves them: the start scores, then the screens, then each confirm wave.
_SCORE, _SCREEN, _CONFIRM = range(3)


def _climb_steps(
    objective: Objective,
    start: Any,
    rng: np.random.Generator | None,
    max_rounds: int,
    polish_budget: int | None,
) -> Generator[tuple[int, Any], Any, Climb]:
    """One climb as a generator: it yields each ``(kind, request)`` it
    needs priced, is sent the answer, and returns its :class:`Climb`."""
    state = start
    value, detail = yield _SCORE, start
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    rounds = 0
    for _ in range(max_rounds):
        cands = objective.neighbors(state, rng)
        screened = yield _SCREEN, (cands, detail)
        ranked = sorted(range(len(cands)), key=screened.__getitem__)
        c_proposed.inc(len(cands))
        move = None
        for k in ranked:
            if not improves(screened[k], value):
                break
            confirmed = yield _CONFIRM, (cands[k], screened[k])
            if improves(confirmed[0], value):
                move = k, confirmed
                break
        if move is None:
            budget = len(ranked) if polish_budget is None else polish_budget
            for k in ranked[:budget]:
                confirmed = yield _CONFIRM, (cands[k], screened[k])
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


def _walk_steps(
    objective: Objective,
    start: Any,
    rng: np.random.Generator,
    iterations: int,
) -> Generator[tuple[int, Any], Any, Climb]:
    """One annealing walk as a generator, like :func:`_climb_steps`: each
    step screens one random move against the current state and confirms
    it only when the Metropolis rule accepts it."""
    state = start
    value, detail = yield _SCORE, start
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
        (screened,) = yield _SCREEN, ([cand], detail)
        delta = screened - value
        if delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-300)
        ):
            value, detail = yield _CONFIRM, (cand, screened)
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


def _lockstep(objective: Objective, steps: Sequence[Generator]) -> list[Climb]:
    """Run climbs and walks together and return where each ended.

    Every round serves all waiting requests of the lowest kind in one
    call: the start scores, then every waiting screen, and once no step
    waits on a screen, each confirm wave (see the module docstring).
    """
    pending = {i: next(step) for i, step in enumerate(steps)}
    ends: list[Climb] = [None] * len(steps)  # type: ignore[list-item]
    while pending:
        kind = min(kind for kind, _ in pending.values())
        wave = [i for i, (k, _) in pending.items() if k == kind]
        requests = [pending[i][1] for i in wave]
        if kind == _SCORE:
            answers = objective.score(requests)
        elif kind == _SCREEN:
            answers = objective.screen(requests)
        else:  # (state, screened value) pairs
            answers = objective.confirm(*zip(*requests))
        for i, answer in zip(wave, answers):
            try:
                pending[i] = steps[i].send(answer)
            except StopIteration as done:
                del pending[i]
                ends[i] = done.value
    return ends


def hill_climb_all(
    objective: Objective,
    starts: Sequence,
    rngs: Sequence[np.random.Generator | None],
    *,
    max_rounds: int = 200,
    polish_budget: int | None = None,
) -> list[Climb]:
    """Steepest-feasible descent from every start, in lockstep.

    Each round of a climb screens its whole neighbourhood, confirms
    candidates in screening order while the screen promises an
    improvement, and accepts the first confirmed improvement.  When none
    is found the round *polishes*: it confirms the ``polish_budget`` best
    screened neighbours anyway (``None`` = all of them), because a bound
    can hide an improvement.  A climb stops at a state no confirmed
    neighbour beats, or after ``max_rounds`` moves.

    Climb ``i`` draws its moves from ``rngs[i]`` and takes the steps it
    would take alone; the kernel only batches the requests of all climbs.
    """
    return _lockstep(
        objective,
        [
            _climb_steps(objective, start, rng, max_rounds, polish_budget)
            for start, rng in zip(starts, rngs)
        ],
    )


def hill_climb(
    objective: Objective,
    start: Any,
    rng: np.random.Generator | None,
    *,
    max_rounds: int = 200,
    polish_budget: int | None = None,
) -> Climb:
    """:func:`hill_climb_all` from one start."""
    (climb,) = hill_climb_all(
        objective, [start], [rng], max_rounds=max_rounds, polish_budget=polish_budget
    )
    return climb


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
    (walk,) = _lockstep(objective, [_walk_steps(objective, start, rng, iterations)])
    return walk


class Multistart:
    """A multistart search in progress: every climb's value, the best.

    :func:`multistart` climbs the starts; callers may then climb more
    states (:meth:`climb_all`) before :meth:`publish` folds the work
    accounting.
    """

    def __init__(
        self,
        objective: Objective,
        steps: Callable[[Any, np.random.Generator], Generator],
    ) -> None:
        self.objective = objective
        self.steps = steps  #: one start's climb or walk, as a generator
        self.climbs: list[Climb] = []  #: the start climbs, in start order
        self.best: Climb | None = None
        self.start_values: dict[str, float] = {}
        self.rounds = 0

    def offer(self, label: str, climb: Climb) -> None:
        """Record a finished climb; it wins if it beats the best so far."""
        self.start_values[label] = climb.value
        self.rounds += climb.rounds
        if self.best is None or improves(climb.value, self.best.value):
            self.best = climb

    def climb_all(
        self,
        starts: Sequence[tuple[str, Any]],
        seeds: Sequence[np.random.SeedSequence],
    ) -> list[Climb]:
        """Climb ``(label, state)`` starts in lockstep under one
        ``search.climbs`` span, and offer them in order."""
        with _span("search.climbs", starts=len(starts)) as sp:
            climbs = _lockstep(
                self.objective,
                [
                    self.steps(state, np.random.default_rng(seed))
                    for (_, state), seed in zip(starts, seeds)
                ],
            )
            sp.set(rounds=sum(climb.rounds for climb in climbs))
        for (label, _), climb in zip(starts, climbs):
            self.offer(label, climb)
        return climbs

    def publish(self) -> MetricsSnapshot:
        """The objective's counters, also merged into the ambient
        registry."""
        snapshot = self.objective.metrics.snapshot()
        _ambient_metrics().merge_snapshot(snapshot)
        return snapshot


def multistart(
    objective: Objective,
    starts: Sequence[tuple[str, Hashable]],
    seeds: Sequence[np.random.SeedSequence],
    *,
    method: str,
    iterations: int,
    max_rounds: int,
    polish_budget: int | None = None,
) -> Multistart:
    """Climb every ``(label, state)`` start with its own seed.

    ``hill_climb`` climbs each start and ``anneal`` walks from each, all
    in one lockstep call.  Each climb emits one ``search.climb`` event,
    in start order.
    """
    if method == "hill_climb":
        steps = partial(
            _climb_steps, objective, max_rounds=max_rounds, polish_budget=polish_budget
        )
    elif method == "anneal":
        steps = partial(_walk_steps, objective, iterations=iterations)
    else:
        raise InvalidParameterError(
            f"unknown search method {method!r}; expected one of {SEARCH_METHODS}"
        )
    search = Multistart(objective, steps)
    objective.metrics.counter("search.starts").inc(len(starts))
    search.climbs = search.climb_all(starts, seeds)
    bus = _ambient_events()
    if bus.enabled:
        for (label, _), climb in zip(starts, search.climbs):
            bus.emit(
                "search.climb", label=label, value=climb.value, rounds=climb.rounds
            )
    return search
