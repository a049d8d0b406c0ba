"""The shared local-search kernel against the per-variant loops it replaced.

The chain, join and p=2 order searches used to run six private
climb/anneal loops (and :func:`repro.dag.join.local_search_join` a
seventh).  Their last versions are kept here as the oracle, with the
options no caller set folded into constants and the chain loops
returning values instead of solutions: the hill climbers move to the
first minimum of the neighbourhood (the chain's to the first
bound-ranked candidate an exact solve confirms), the annealers accept
on ``delta <= 0`` or with Metropolis probability from 2% of the start
value cooled by 0.99, and ``rounds`` counts accepted moves.  The
hypothesis gates run kernel and
oracle on fresh objectives and require ``==`` on the value bits, the
final state, ``rounds``, every objective counter and the multiset of
progress events, for small random DAGs x {chain, join, p=2} x every
search method.

The lockstep server is checked against the one-climb-at-a-time loop it
replaced, kept here as :func:`reference_hill_climb`, and against the
annealing oracles above: an in-process multistart of either method must
equal its starts climbed, or walked, one after another on one fresh
objective.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.generate import generate
from repro.dag.join import (
    JoinInstance,
    JoinObjective,
    JoinSchedule,
    evaluate_join,
    join_from_dag,
    join_neighborhood,
    local_search_join,
    random_join_neighbor,
    threshold_join,
)
from repro.dag.local_search import (
    SEARCH_METHODS,
    hill_climb,
    multistart,
    simulated_annealing,
)
from repro.dag.parallel import (
    ParallelObjective,
    ParallelSchedule,
    greedy_assignment,
    list_schedule,
    parallel_neighborhood,
    random_parallel_neighbor,
)
from repro.dag.search import (
    ChainObjective,
    neighborhood,
    random_neighbor,
    random_order,
    search_order,
    start_orders,
)
from repro.experiments.dag_search import stress_platform
from repro.obs import EventBus, MetricsRegistry, events, instrument

RELATIVE_TOLERANCE = 1e-12
PLATFORM = stress_platform()


def _improves(candidate: float, incumbent: float) -> bool:
    return candidate < incumbent * (1.0 - RELATIVE_TOLERANCE)


# ----------------------------------------------------------------------
# the oracle: the per-variant loops
# ----------------------------------------------------------------------
def reference_chain_climb(dag, objective, start, rng, *, max_rounds, polish_budget):
    order = list(start)
    solution = objective.exact(order)
    max_reinsertions = max(16, 2 * dag.n)
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
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
            return order, solution.expected_time, rounds
        c_accepted.inc()
        rounds += 1
        if bus.enabled:
            bus.emit(
                "search.round",
                round=rounds,
                value=solution.expected_time,
                proposed=len(scored),
            )
    return order, solution.expected_time, rounds


def reference_chain_anneal(dag, objective, start, rng, *, iterations):
    order = list(start)
    solution = objective.exact(order)
    best_order, best_solution = order, solution
    temperature = 0.02 * solution.expected_time
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
    accepted = 0
    for it in range(iterations):
        neighbor = random_neighbor(dag, order, rng)
        if neighbor is None:
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
        temperature *= 0.99
    return best_order, best_solution.expected_time, accepted


def reference_join_climb(objective, schedule, *, max_rounds):
    value = objective.value(schedule)
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
    rounds = 0
    for _ in range(max_rounds):
        cands = list(join_neighborhood(schedule))
        c_proposed.inc(len(cands))
        values = [objective.value(cand) for cand in cands]
        k = min(range(len(values)), key=values.__getitem__)
        if not _improves(values[k], value):
            break
        value, schedule = values[k], cands[k]
        c_accepted.inc()
        rounds += 1
        if bus.enabled:
            bus.emit("search.round", round=rounds, value=value, proposed=len(cands))
    return schedule, value, rounds


def reference_join_anneal(objective, schedule, rng, *, iterations):
    value = objective.value(schedule)
    best_schedule, best_value = schedule, value
    temperature = 0.02 * value
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
    accepted = 0
    for it in range(iterations):
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
                if bus.enabled:
                    bus.emit(
                        "search.best",
                        iteration=it,
                        value=best_value,
                        accepted=accepted,
                    )
        temperature *= 0.99
    return best_schedule, best_value, accepted


def reference_parallel_climb(objective, state, rng, *, max_rounds):
    best, best_value = state, objective.value(state)
    cap = max(16, 2 * len(state.order))
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
    rounds = 0
    while rounds < max_rounds:
        neighbors = [
            candidate
            for candidate, _ in parallel_neighborhood(
                best, rng=rng, max_reinsertions=cap, max_reassignments=cap
            )
        ]
        c_proposed.inc(len(neighbors))
        values = objective.values(neighbors)
        if not values:
            break
        k = min(range(len(values)), key=values.__getitem__)
        if not _improves(values[k], best_value):
            break
        best, best_value = neighbors[k], values[k]
        rounds += 1
        c_accepted.inc()
        if bus.enabled:
            bus.emit(
                "search.round",
                round=rounds,
                value=best_value,
                proposed=len(neighbors),
            )
    return best, best_value, rounds


def reference_parallel_anneal(objective, state, rng, *, iterations):
    current, current_value = state, objective.value(state)
    best, best_value = current, current_value
    temperature = 0.02 * current_value
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
    accepted = 0
    for it in range(max(0, iterations)):
        picked = random_parallel_neighbor(current, rng)
        if picked is None:
            break
        candidate, _ = picked
        c_proposed.inc()
        value = objective.value(candidate)
        delta = value - current_value
        if delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-300)
        ):
            current, current_value = candidate, value
            accepted += 1
            c_accepted.inc()
            if _improves(current_value, best_value):
                best, best_value = current, current_value
                if bus.enabled:
                    bus.emit(
                        "search.best",
                        iteration=it,
                        value=best_value,
                        accepted=accepted,
                    )
        temperature *= 0.99
    return best, best_value, accepted


def reference_local_search_join(instance, *, optimize_order=True, max_rounds=200):
    n = instance.n_sources
    start_order = tuple(sorted(range(n), key=lambda i: -instance.source_weights[i]))
    _, thr = threshold_join(instance)
    decisions = tuple(thr.checkpoint[thr.order.index(src)] for src in start_order)
    schedule = JoinSchedule(start_order, decisions)
    value = evaluate_join(instance, schedule)
    for _ in range(max_rounds):
        best_value, best_schedule = value, schedule
        for i in range(n):
            flipped = list(schedule.checkpoint)
            flipped[i] = not flipped[i]
            cand = JoinSchedule(schedule.order, tuple(flipped))
            cand_value = evaluate_join(instance, cand)
            if cand_value < best_value:
                best_value, best_schedule = cand_value, cand
        if optimize_order:
            for i in range(n - 1):
                order = list(schedule.order)
                order[i], order[i + 1] = order[i + 1], order[i]
                cand = JoinSchedule(tuple(order), schedule.checkpoint)
                cand_value = evaluate_join(instance, cand)
                if cand_value < best_value:
                    best_value, best_schedule = cand_value, cand
        if best_value >= value * (1.0 - RELATIVE_TOLERANCE):
            break
        value, schedule = best_value, best_schedule
    return value, schedule


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def _problem(variant, n, seed, hetero, algorithm):
    """(objective factory, start state, oracle climb, oracle anneal)."""
    if variant == "join":
        dag = generate("join", sources=max(2, n - 1), seed=seed, weights="lognormal")
        instance = join_from_dag(dag, rate=PLATFORM.lf, C=PLATFORM.CD, R=PLATFORM.RD)
        rng = np.random.default_rng(seed)
        start = JoinSchedule(
            tuple(int(x) for x in rng.permutation(instance.n_sources)),
            tuple(bool(b) for b in rng.random(instance.n_sources) < 0.5),
        )
        return (
            lambda: JoinObjective(instance),
            start,
            lambda obj, s, rng, r: reference_join_climb(obj, s, max_rounds=r),
            reference_join_anneal,
        )
    dag = generate(
        "layered",
        tasks=n,
        layers=min(3, n),
        density=0.5,
        seed=seed,
        weights="lognormal",
        cost_spread=1.0 if hetero else 0.0,
    )
    if variant == "chain":
        return (
            lambda: ChainObjective(dag, PLATFORM, algorithm=algorithm),
            random_order(dag, np.random.default_rng(seed)),
            lambda obj, s, rng, r: reference_chain_climb(
                dag, obj, s, rng, max_rounds=r, polish_budget=2
            ),
            lambda obj, s, rng, iterations: reference_chain_anneal(
                dag, obj, s, rng, iterations=iterations
            ),
        )
    return (
        lambda: ParallelObjective(dag, PLATFORM, 2, algorithm=algorithm),
        list_schedule(dag, 2),
        lambda obj, s, rng, r: reference_parallel_climb(obj, s, rng, max_rounds=r),
        reference_parallel_anneal,
    )


def _state_key(state):
    return state.key() if hasattr(state, "key") else state


def _observed(run):
    bus = EventBus()
    with instrument(MetricsRegistry(), events=bus):
        out = run()
    return out, sorted(
        (e.kind, json.dumps(e.data, sort_keys=True)) for e in bus.snapshot().events
    )


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(["chain", "join", "parallel"]),
    method=st.sampled_from(SEARCH_METHODS),
    n=st.integers(2, 7),
    seed=st.integers(0, 2**16),
    hetero=st.booleans(),
    algorithm=st.sampled_from(["admv_star", "adv_star"]),
    max_rounds=st.integers(0, 4),
    iterations=st.integers(0, 40),
)
def test_kernel_equals_the_loops(
    variant, method, n, seed, hetero, algorithm, max_rounds, iterations
):
    factory, start, ref_climb, ref_anneal = _problem(
        variant, n, seed, hetero, algorithm
    )
    (climb_seed,) = np.random.SeedSequence(seed).spawn(1)

    def kernel():
        objective = factory()
        rng = np.random.default_rng(climb_seed)
        if method == "hill_climb":
            c = hill_climb(
                objective, start, rng, max_rounds=max_rounds, polish_budget=2
            )
        else:
            c = simulated_annealing(objective, start, rng, iterations=iterations)
        run = (_state_key(c.state), c.value.hex(), c.rounds)
        return run, objective.metrics.snapshot().counters

    def oracle():
        objective = factory()
        rng = np.random.default_rng(climb_seed)
        if method == "hill_climb":
            state, value, rounds = ref_climb(objective, start, rng, max_rounds)
        else:
            state, value, rounds = ref_anneal(
                objective, start, rng, iterations=iterations
            )
        run = (_state_key(state), value.hex(), rounds)
        return run, objective.metrics.snapshot().counters

    assert _observed(kernel) == _observed(oracle)


@st.composite
def join_instances(draw):
    n = draw(st.integers(1, 12))
    weights = draw(
        st.lists(st.floats(1.0, 5000.0), min_size=n, max_size=n)
    )
    return JoinInstance(
        tuple(weights),
        draw(st.floats(1.0, 2000.0)),
        rate=draw(st.floats(0.0, 2e-3)),
        C=draw(st.floats(0.0, 800.0)),
        R=draw(st.floats(0.0, 800.0)),
    )


@settings(max_examples=150, deadline=None)
@given(
    instance=join_instances(),
    optimize_order=st.booleans(),
    max_rounds=st.integers(0, 200),
)
def test_local_search_join_equals_the_loop(instance, optimize_order, max_rounds):
    value, schedule = local_search_join(
        instance, optimize_order=optimize_order, max_rounds=max_rounds
    )
    want_value, want_schedule = reference_local_search_join(
        instance, optimize_order=optimize_order, max_rounds=max_rounds
    )
    assert value.hex() == want_value.hex()
    assert schedule == want_schedule


# ----------------------------------------------------------------------
# lockstep climbs against the one-at-a-time loop
# ----------------------------------------------------------------------
def reference_hill_climb(objective, start, rng, *, max_rounds, polish_budget):
    """The kernel's hill climber before lockstep: one climb, its requests
    priced one at a time."""
    state = start
    ((value, detail),) = objective.score([state])
    c_proposed = objective.metrics.counter("search.moves.proposed")
    c_accepted = objective.metrics.counter("search.moves.accepted")
    bus = events()
    rounds = 0
    for _ in range(max_rounds):
        cands = objective.neighbors(state, rng)
        (screened,) = objective.screen([(cands, detail)])
        ranked = sorted(range(len(cands)), key=screened.__getitem__)
        c_proposed.inc(len(cands))
        move = None
        for k in ranked:
            if not _improves(screened[k], value):
                break
            (confirmed,) = objective.confirm([cands[k]], [screened[k]])
            if _improves(confirmed[0], value):
                move = k, confirmed
                break
        if move is None:
            budget = len(ranked) if polish_budget is None else polish_budget
            for k in ranked[:budget]:
                (confirmed,) = objective.confirm([cands[k]], [screened[k]])
                if _improves(confirmed[0], value):
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
    return state, value, rounds


def _lockstep_problem(variant, n, seed, algorithm, processors):
    """(objective factory, labelled starts, oracle walk) of a small
    search problem."""
    if variant == "join":
        dag = generate("join", sources=max(2, n - 1), seed=seed, weights="lognormal")
        instance = join_from_dag(dag, rate=PLATFORM.lf, C=PLATFORM.CD, R=PLATFORM.RD)
        rng = np.random.default_rng(seed)
        starts = [
            (
                f"random-{r}",
                JoinSchedule(
                    tuple(int(x) for x in rng.permutation(instance.n_sources)),
                    tuple(bool(b) for b in rng.random(instance.n_sources) < 0.5),
                ),
            )
            for r in range(4)
        ]
        return lambda: JoinObjective(instance), starts, reference_join_anneal
    dag = generate(
        "layered",
        tasks=n,
        layers=min(3, n),
        density=0.5,
        seed=seed,
        weights="lognormal",
        cost_spread=1.0 if seed % 2 else 0.0,
    )
    starts = start_orders(dag, 2, np.random.default_rng(seed))
    if variant == "chain":
        return (
            lambda: ChainObjective(dag, PLATFORM, algorithm=algorithm),
            starts,
            lambda obj, s, rng, iterations: reference_chain_anneal(
                dag, obj, s, rng, iterations=iterations
            ),
        )
    return (
        lambda: ParallelObjective(dag, PLATFORM, processors, algorithm=algorithm),
        [
            (
                label,
                ParallelSchedule(
                    dag, processors, order, greedy_assignment(dag, order, processors)
                ),
            )
            for label, order in starts
        ],
        reference_parallel_anneal,
    )


@settings(max_examples=120, deadline=None)
@given(
    variant=st.sampled_from(["chain", "join", "parallel"]),
    method=st.sampled_from(SEARCH_METHODS),
    n=st.integers(3, 8),
    seed=st.integers(0, 2**16),
    algorithm=st.sampled_from(["admv_star", "admv"]),
    processors=st.sampled_from([2, 3]),
    polish_budget=st.sampled_from([0, 2, None]),
    max_rounds=st.sampled_from([1, 3]),
    iterations=st.sampled_from([0, 5, 30]),
)
def test_multistart_equals_one_climb_after_another(
    variant,
    method,
    n,
    seed,
    algorithm,
    processors,
    polish_budget,
    max_rounds,
    iterations,
):
    factory, starts, ref_anneal = _lockstep_problem(
        variant, n, seed, algorithm, processors
    )
    seeds = np.random.SeedSequence(seed).spawn(len(starts))

    def lockstep():
        objective = factory()
        search = multistart(
            objective,
            starts,
            seeds,
            method=method,
            iterations=iterations,
            max_rounds=max_rounds,
            polish_budget=polish_budget,
        )
        climbs = [
            (_state_key(c.state), c.value.hex(), c.rounds) for c in search.climbs
        ]
        return climbs, objective.metrics.snapshot().counters

    def one_after_another():
        objective = factory()
        objective.metrics.counter("search.starts").inc(len(starts))
        climbs = []
        for (label, start), seed_seq in zip(starts, seeds):
            rng = np.random.default_rng(seed_seq)
            if method == "hill_climb":
                state, value, rounds = reference_hill_climb(
                    objective,
                    start,
                    rng,
                    max_rounds=max_rounds,
                    polish_budget=polish_budget,
                )
            else:
                state, value, rounds = ref_anneal(
                    objective, start, rng, iterations=iterations
                )
            climbs.append((_state_key(state), value.hex(), rounds))
        bus = events()
        for (label, _), (_, value, rounds) in zip(starts, climbs):
            bus.emit(
                "search.climb", label=label, value=float.fromhex(value), rounds=rounds
            )
        return climbs, objective.metrics.snapshot().counters

    assert _observed(lockstep) == _observed(one_after_another)


def test_lockstep_chain_search_batches_its_dp_solves():
    """Non-vacuous: the start scores and confirm waves of a search with
    several starts, climbs or walks, reach the DP as batches, so it
    solves more rows than it makes DP calls."""
    dag = generate(
        "layered", tasks=8, layers=3, density=0.5, seed=1, weights="lognormal"
    )
    for method in SEARCH_METHODS:
        registry = MetricsRegistry()
        with instrument(registry):
            result = search_order(
                dag, PLATFORM, algorithm="admv_star", method=method, seed=1
            )
        snapshot = registry.snapshot()
        assert result.starts >= 3
        rows = snapshot.counter("dp.solves.admv_star")
        assert rows == result.exact_evaluations, method
        assert snapshot.timers["dp.solve"].count < rows, method


def test_a_large_mixed_length_interval_batch_equals_each_interval_alone():
    """More than one chunk of intervals of every length, some opening at
    a commit boundary: each gets the bits it gets solved by itself."""
    from repro.dag import parallel

    dag = generate(
        "layered",
        tasks=14,
        layers=4,
        density=0.5,
        seed=3,
        weights="lognormal",
        cost_spread=1.0,
    )
    batched = ParallelObjective(dag, PLATFORM, 2, algorithm="admv_star")
    rng = np.random.default_rng(0)
    intervals = {}
    while len(intervals) <= parallel.INTERVAL_CHUNK + 10:
        length = int(rng.integers(1, dag.n + 1))
        seq = tuple(int(i) for i in rng.choice(dag.n, size=length, replace=False))
        recovery = (
            (0.0, 0.0)
            if rng.random() < 0.5
            else batched._recovery[int(rng.integers(dag.n))]
        )
        ikey = (
            b"".join(batched._weight_bytes[i] for i in seq),
            b"".join(batched._mult_bytes[i] for i in seq),
            *recovery,
        )
        intervals[ikey] = (seq, *recovery)
    assert len({len(seq) for seq, _, _ in intervals.values()}) > 5
    batched._price({}, {}, intervals)
    assert batched.interval_solves == len(intervals)
    for ikey, interval in intervals.items():
        alone = ParallelObjective(dag, PLATFORM, 2, algorithm="admv_star")
        alone._price({}, {}, {ikey: interval})
        value, levels = alone._intervals[ikey]
        assert batched._intervals[ikey] == (value, levels)
        assert batched._intervals[ikey][0].hex() == value.hex()
