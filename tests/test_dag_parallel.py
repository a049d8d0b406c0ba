"""Tests for p-processor scheduling (repro.dag.parallel) and the
multi-worker simulation layer (repro.simulation.parallel).

The suite covers the scheduler's structural invariants (hypothesis
property tests over random workflows), the degenerate ends of the
worker-count range (p=1 must reproduce the serialized chain optimum,
p >= width must hit the critical-path bound on an error-free platform),
the statistical contract between the analytic surrogate and the batched
engine, and the shared-error-source regression guard.  The *bitwise*
multi-worker-vs-scalar-oracle cross-validation lives with the other
engine certifications in ``test_batch_engine.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains import TaskChain
from repro.core import optimize
from repro.core.schedule import Action
from repro.dag import (
    ParallelObjective,
    ParallelSchedule,
    campaign,
    generate,
    greedy_assignment,
    list_schedule,
    optimize_dag,
    optimize_parallel,
    search_parallel,
)
from repro.dag.search import random_order
from repro.exceptions import (
    InvalidParameterError,
    InvalidScheduleError,
    SimulationError,
)
from repro.platforms import Platform
from repro.simulation import (
    ParallelPlan,
    PoissonErrorSource,
    ScriptedErrorSource,
    WorkerPlan,
    simulate_parallel,
    simulate_parallel_run,
)

FAST_ALGO = "adv_star"  # cheapest exact DP: keeps the suite quick


@pytest.fixture
def platform() -> Platform:
    return Platform.from_costs("dag", lf=2e-4, ls=6e-4, CD=40.0, CM=8.0, r=0.8)


def error_free_platform() -> Platform:
    """Zero failure rates *and* zero resilience costs: the parallel
    schedule's expected makespan degenerates to the list-schedule span."""
    return Platform.from_costs("free", lf=0.0, ls=0.0, CD=0.0, CM=0.0, r=1.0)


# ----------------------------------------------------------------------
# structural properties (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def dag_and_schedule(draw):
    kind = draw(st.sampled_from(["layered", "fork_join", "in_tree", "diamond"]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    if kind == "layered":
        dag = generate(kind, seed=seed, tasks=draw(st.integers(4, 12)), layers=3)
    elif kind == "fork_join":
        dag = generate(kind, seed=seed, branches=draw(st.integers(1, 3)),
                       branch_length=draw(st.integers(1, 3)))
    elif kind == "in_tree":
        dag = generate(kind, seed=seed, tasks=draw(st.integers(2, 12)), arity=2)
    else:
        dag = generate(kind, seed=seed, rows=draw(st.integers(1, 3)),
                       cols=draw(st.integers(2, 3)))
    processors = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    order = random_order(dag, rng)
    state = ParallelSchedule(
        dag, processors, order, greedy_assignment(dag, order, processors)
    )
    return dag, state


def _error_free_timeline(dag, state):
    """Independent forward pass: per-task (start, finish) wall-clock
    intervals of the error-free execution of ``state``."""
    avail = [0.0] * state.processors
    start: dict = {}
    finish: dict = {}
    for v in state.order:
        w = state.assignment[v]
        t = max(
            [avail[w]] + [finish[u] for u in dag.graph.predecessors(v)]
        )
        start[v] = t
        finish[v] = t + dag.weight(v)
        avail[w] = finish[v]
    return start, finish


class TestScheduleProperties:
    @given(data=dag_and_schedule())
    @settings(max_examples=40, deadline=None)
    def test_respects_precedence(self, data):
        dag, state = data
        start, finish = _error_free_timeline(dag, state)
        for u, v in dag.graph.edges:
            assert finish[u] <= start[v] + 1e-12, (u, v)

    @given(data=dag_and_schedule())
    @settings(max_examples=40, deadline=None)
    def test_exactly_one_worker_per_task(self, data):
        dag, state = data
        assert set(state.assignment) == set(dag.graph.nodes)
        for v, w in state.assignment.items():
            assert 0 <= w < state.processors, (v, w)
        # the per-worker orders partition the global order
        layout = state.layout()
        scattered = [v for worker in layout.worker_orders for v in worker]
        assert sorted(map(repr, scattered)) == sorted(
            map(repr, state.order)
        )

    @given(data=dag_and_schedule())
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_p_concurrent_tasks(self, data):
        dag, state = data
        start, finish = _error_free_timeline(dag, state)
        for v in state.order:  # sweep at each task start instant
            running = sum(
                1
                for u in state.order
                if start[u] <= start[v] + 1e-12 and finish[u] > start[v] + 1e-12
            )
            assert running <= state.processors, (v, running)

    @given(data=dag_and_schedule())
    @settings(max_examples=20, deadline=None)
    def test_plan_construction_is_consistent(self, data):
        """Every greedy state yields a valid, deadlock-free ParallelPlan."""
        dag, state = data
        platform = Platform.from_costs(
            "dag", lf=2e-4, ls=6e-4, CD=40.0, CM=8.0, r=0.8
        )
        objective = ParallelObjective(
            dag, platform, state.processors, algorithm=FAST_ALGO
        )
        pricing = objective.price(state)
        layout = state.layout()
        for w, schedule in enumerate(pricing.worker_schedules):
            if schedule is None:
                assert not layout.worker_orders[w]
                continue
            for b in layout.boundaries[w]:
                assert schedule.action(b) == Action.DISK

    def test_list_schedule_strategies(self, platform):
        dag = generate("layered", seed=7, tasks=12, layers=4, density=0.5)
        for strategy in ("bottom_level", "critical_path", "heavy_first"):
            state = list_schedule(dag, 3, strategy=strategy)
            assert state.processors == 3
            dag.serialise(list(state.order))  # validates topological order

    def test_processor_validation(self, platform):
        dag = generate("diamond", seed=1, rows=2, cols=2)
        with pytest.raises(InvalidParameterError, match="processors"):
            list_schedule(dag, 0)
        with pytest.raises(InvalidParameterError, match="processors"):
            order = random_order(dag, np.random.default_rng(0))
            greedy_assignment(dag, order, -1)


class TestSearchInvariance:
    def test_invariant_in_n_jobs_and_repeatable(self, platform):
        dag = generate("layered", seed=11, tasks=10, layers=3, density=0.5)
        serial = search_parallel(
            dag, platform, 2, algorithm=FAST_ALGO, seed=3, restarts=1
        )
        again = search_parallel(
            dag, platform, 2, algorithm=FAST_ALGO, seed=3, restarts=1
        )
        assert serial.solution.order == again.solution.order
        assert serial.solution.assignment == again.solution.assignment
        assert serial.expected_time == again.expected_time

    def test_seeds_differ(self, platform):
        dag = generate("layered", seed=11, tasks=10, layers=3, density=0.5)
        a = search_parallel(
            dag, platform, 2, algorithm=FAST_ALGO, seed=3, restarts=1
        )
        b = search_parallel(
            dag, platform, 2, algorithm=FAST_ALGO, seed=4, restarts=1
        )
        # different seeds explore different random starts; the *values*
        # may tie but the accounting must show independent work
        assert a.starts == b.starts
        assert a.seed != b.seed


# ----------------------------------------------------------------------
# degenerate worker counts (satellite: p=1 and p >= width)
# ----------------------------------------------------------------------
class TestDegenerateProcessorCounts:
    def test_p1_prices_the_serialized_optimum_bitwise(self, platform):
        """At p=1 the parallel objective *is* the chain DP: pricing the
        serialized optimum's own order must reproduce its value bitwise."""
        for dag in campaign("small", seed=0):
            serialized = optimize_dag(
                dag, platform, algorithm=FAST_ALGO, strategy="all"
            )
            objective = ParallelObjective(dag, platform, 1, algorithm=FAST_ALGO)
            state = ParallelSchedule(
                dag,
                1,
                tuple(serialized.order),
                {v: 0 for v in serialized.order},
            )
            assert objective.value(state) == serialized.expected_time, dag.name

    def test_p1_search_ties_the_serialized_optimum(self, platform):
        for dag in campaign("small", seed=0):
            serialized = optimize_dag(
                dag, platform, algorithm=FAST_ALGO, strategy="all"
            )
            found = search_parallel(
                dag, platform, 1, algorithm=FAST_ALGO, seed=0
            )
            rel = abs(found.expected_time - serialized.expected_time) / (
                serialized.expected_time
            )
            assert rel <= 1e-9, (dag.name, rel)

    def test_p_width_hits_critical_path_on_error_free_platform(self):
        """With a worker per task and no failures or resilience costs,
        the makespan *is* the critical-path length — exactly."""
        free = error_free_platform()
        for dag in campaign("small", seed=0):
            cp_length = dag.critical_path()[1]
            found = search_parallel(dag, free, dag.n, seed=0, restarts=0)
            assert found.expected_time == cp_length, dag.name
            batch = simulate_parallel(
                found.solution.plan(), free, 16, seed=0
            )
            assert (batch.makespans == cp_length).all(), dag.name


# ----------------------------------------------------------------------
# surrogate vs Monte-Carlo (satellite: seeded agreement)
# ----------------------------------------------------------------------
class TestSurrogateAgreement:
    def test_worker_busy_expectations_within_4_sigma(self, platform):
        """Each worker's *busy* makespan is an ordinary chain-schedule
        makespan, so its MC mean must agree with the analytic per-worker
        expectation (the summed epoch durations) to sampling noise."""
        dag = generate(
            "layered", seed=5, tasks=10, layers=3, density=0.5,
            weights="lognormal",
        )
        solution = optimize_parallel(
            dag, platform, 2, algorithm=FAST_ALGO, seed=0
        )
        batch = simulate_parallel(solution.plan(), platform, 3000, seed=42)
        checked = 0
        for w, analytic in enumerate(solution.worker_busy):
            result = batch.worker_results[w]
            if result is None:
                continue
            samples = np.asarray(result.makespans)
            sem = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - analytic) < 4.0 * sem + 1e-9, w
            checked += 1
        assert checked >= 1

    def test_surrogate_lower_bounds_the_simulated_mean(self, platform):
        """The epoch fold swaps E and max: the surrogate must sit at or
        below the MC mean by more than sampling noise allows above."""
        dag = generate(
            "layered", seed=5, tasks=10, layers=3, density=0.5,
            weights="lognormal",
        )
        solution = optimize_parallel(
            dag, platform, 2, algorithm=FAST_ALGO, seed=0
        )
        batch = simulate_parallel(solution.plan(), platform, 3000, seed=42)
        samples = np.asarray(batch.makespans)
        sem = samples.std(ddof=1) / math.sqrt(samples.size)
        assert solution.expected_time <= samples.mean() + 4.0 * sem


# ----------------------------------------------------------------------
# shared-error-source regression (satellite)
# ----------------------------------------------------------------------
def _two_worker_plan(platform) -> ParallelPlan:
    """A minimal plan with two independent busy workers."""
    workers = []
    for weights in ([30.0, 40.0], [50.0]):
        chain = TaskChain(weights)
        schedule = optimize(chain, platform, algorithm="admv").schedule
        workers.append(WorkerPlan(chain=chain, schedule=schedule))
    deps = (((),), ((),))
    return ParallelPlan(workers=tuple(workers), deps=deps)


class TestSharedErrorSourceGuard:
    def test_shared_scripted_source_raises(self, platform):
        plan = _two_worker_plan(platform)
        shared = ScriptedErrorSource(fail_stops=[0.5, None, None])
        with pytest.raises(SimulationError, match="share the same"):
            simulate_parallel_run(plan, platform, [shared, shared])

    def test_shared_poisson_source_raises(self, platform):
        plan = _two_worker_plan(platform)
        shared = PoissonErrorSource(platform, 0)
        with pytest.raises(SimulationError, match="interleave"):
            simulate_parallel_run(plan, platform, [shared, shared])

    def test_distinct_sources_work(self, platform):
        plan = _two_worker_plan(platform)
        result = simulate_parallel_run(
            plan,
            platform,
            [PoissonErrorSource(platform, 0), PoissonErrorSource(platform, 1)],
        )
        assert result.makespan >= max(result.worker_finish) - 1e-12
        assert all(f > 0.0 for f in result.worker_finish)

    def test_missing_source_for_busy_worker(self, platform):
        plan = _two_worker_plan(platform)
        with pytest.raises(InvalidParameterError, match="busy"):
            simulate_parallel_run(
                plan, platform, [PoissonErrorSource(platform, 0), None]
            )
        with pytest.raises(InvalidParameterError, match="error sources"):
            simulate_parallel_run(
                plan, platform, [PoissonErrorSource(platform, 0)]
            )


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------
class TestPlanValidation:
    def test_boundary_must_store_disk(self, platform):
        chain = TaskChain([30.0, 40.0])
        schedule = optimize(chain, platform, algorithm="admv").schedule
        if schedule.action(1) == Action.DISK:
            pytest.skip("optimal schedule already checkpoints T1")
        wp = WorkerPlan(chain=chain, schedule=schedule, boundaries=(1,))
        with pytest.raises(InvalidScheduleError, match="disk checkpoint"):
            wp.validate()

    def test_cyclic_epoch_graph_deadlocks(self, platform):
        workers = []
        for _ in range(2):
            chain = TaskChain([30.0])
            schedule = optimize(chain, platform, algorithm="admv").schedule
            workers.append(WorkerPlan(chain=chain, schedule=schedule))
        deps = ((((1, 0),),), (((0, 0),),))  # mutual wait
        with pytest.raises(InvalidScheduleError, match="cycle"):
            ParallelPlan(workers=tuple(workers), deps=deps)

    def test_all_idle_rejected(self):
        with pytest.raises(InvalidScheduleError, match="busy"):
            ParallelPlan(workers=(None, None), deps=((), ()))
