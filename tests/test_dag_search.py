"""Tests for the metaheuristic order search (repro.dag.search)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import (
    ChainObjective,
    WorkflowDAG,
    generate,
    optimize_dag,
    search_order,
)
from repro.dag.search import (
    adjacent_swaps,
    apply_reinsertion,
    apply_swap,
    hill_climb,
    neighborhood,
    random_neighbor,
    random_order,
    reinsertion_window,
    simulated_annealing,
)
from repro.exceptions import InvalidParameterError
from repro.platforms import Platform
from repro.simulation.certify import certify_dag_solution

FAST_ALGO = "adv_star"  # cheapest exact DP: keeps the suite quick


@pytest.fixture
def platform() -> Platform:
    return Platform.from_costs("dag", lf=2e-4, ls=6e-4, CD=40.0, CM=8.0, r=0.8)


@pytest.fixture
def pipeline() -> WorkflowDAG:
    return generate(
        "layered", seed=5, tasks=10, layers=3, density=0.5, weights="lognormal"
    )


# ----------------------------------------------------------------------
# moves
# ----------------------------------------------------------------------
@st.composite
def dag_and_order(draw):
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
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return dag, random_order(dag, rng), rng


class TestMoves:
    @given(data=dag_and_order())
    @settings(max_examples=40, deadline=None)
    def test_random_order_is_topological(self, data):
        dag, order, _ = data
        dag.serialise(order)  # raises InvalidChainError if not topological

    @given(data=dag_and_order())
    @settings(max_examples=40, deadline=None)
    def test_every_neighbor_is_topological(self, data):
        dag, order, rng = data
        count = 0
        for cand, move in neighborhood(dag, order):
            dag.serialise(cand)  # validates precedence
            assert sorted(map(repr, cand)) == sorted(map(repr, order))
            assert cand != order
            count += 1
        # the neighborhood is empty only for a rigid DAG (a chain)
        if count == 0:
            assert len(list(dag.topological_orders())) == 1

    @given(data=dag_and_order())
    @settings(max_examples=30, deadline=None)
    def test_random_neighbor_is_topological(self, data):
        dag, order, rng = data
        neighbor = random_neighbor(dag, order, rng)
        if neighbor is None:
            assert len(list(dag.topological_orders())) == 1
        else:
            cand, move = neighbor
            dag.serialise(cand)
            assert cand != order

    def test_swap_feasibility(self):
        dag = WorkflowDAG(
            {"a": 1.0, "b": 2.0, "c": 3.0}, [("a", "b"), ("a", "c")]
        )
        order = ["a", "b", "c"]
        assert adjacent_swaps(dag, order) == [1]  # a must stay first
        assert apply_swap(order, 1) == ["a", "c", "b"]

    def test_reinsertion_window_respects_precedence(self):
        dag = WorkflowDAG(
            {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0},
            [("a", "d")],
        )
        order = ["a", "b", "c", "d"]
        lo, hi = reinsertion_window(dag, order, 0)  # "a" before "d"
        assert (lo, hi) == (0, 2)
        lo, hi = reinsertion_window(dag, order, 1)  # "b" is free
        assert (lo, hi) == (0, 3)
        assert apply_reinsertion(order, 1, 3) == ["a", "c", "d", "b"]

    @given(data=dag_and_order(), cap=st.sampled_from([None, 3, 16]))
    @settings(max_examples=40, deadline=None)
    def test_moves_equal_the_per_task_window(self, data, cap):
        """The neighbourhood and a random move build one position map;
        their moves equal those of a window rebuilt for every task."""
        dag, order, rng = data
        state = rng.bit_generator.state

        def window(i):  # the per-task window they replaced
            position = {v: p for p, v in enumerate(order)}
            task = order[i]
            lo = max(
                (position[u] for u in dag.graph.predecessors(task)), default=-1
            ) + 1
            hi = min(
                (position[w] for w in dag.graph.successors(task)),
                default=len(order),
            ) - 1
            return lo, hi

        moves = [
            (i, j)
            for i, (lo, hi) in enumerate(map(window, range(len(order))))
            for j in range(lo, hi + 1)
            if j != i and abs(j - i) != 1
        ]
        if cap is not None and len(moves) > cap:
            picked = rng.choice(len(moves), size=cap, replace=False)
            moves = [moves[int(k)] for k in sorted(picked)]
        want = [("swap", i) for i in adjacent_swaps(dag, order)]
        want += [("reinsert", i, j) for i, j in moves]
        rng.bit_generator.state = state
        got = neighborhood(dag, order, rng=rng, max_reinsertions=cap)
        assert [move for _, move in got] == want

        rng.bit_generator.state = state
        picked = random_neighbor(dag, order, rng)
        rng.bit_generator.state = state
        if rng.random() >= 0.5 and adjacent_swaps(dag, order):
            return  # a swap: no window involved
        for i in map(int, rng.permutation(len(order))):
            lo, hi = window(i)
            slots = [j for j in range(lo, hi + 1) if j != i]
            if slots:
                j = slots[int(rng.integers(len(slots)))]
                assert picked[1] == ("reinsert", i, j)
                return
        assert picked is None

    def test_neighborhood_subsampling_needs_rng(self):
        dag = generate("layered", seed=0, tasks=8, layers=2)
        order = random_order(dag, np.random.default_rng(0))
        with pytest.raises(InvalidParameterError, match="rng"):
            list(neighborhood(dag, order, max_reinsertions=1))


# ----------------------------------------------------------------------
# the objective
# ----------------------------------------------------------------------
class TestChainObjective:
    def test_exact_is_memoized_on_weight_tuple(self, pipeline, platform):
        objective = ChainObjective(pipeline, platform, algorithm=FAST_ALGO)
        order = random_order(pipeline, np.random.default_rng(0))
        a = objective.exact(order)
        b = objective.exact(list(order))
        assert a is b
        assert objective.exact_evaluations == 1
        assert objective.exact_cache_hits == 1

    def test_bound_is_exact_on_reference_order(self, pipeline, platform):
        objective = ChainObjective(pipeline, platform, algorithm=FAST_ALGO)
        order = random_order(pipeline, np.random.default_rng(1))
        solution = objective.exact(order)
        assert objective.bound(order, solution) == pytest.approx(
            solution.expected_time, rel=1e-9
        )

    def test_bound_upper_bounds_every_neighbor(self, pipeline, platform):
        objective = ChainObjective(pipeline, platform, algorithm=FAST_ALGO)
        order = random_order(pipeline, np.random.default_rng(2))
        solution = objective.exact(order)
        for cand, _ in neighborhood(pipeline, order):
            bound = objective.bound(cand, solution)
            exact = objective.exact(cand).expected_time
            assert bound >= exact * (1 - 1e-9)

    def test_bound_hits_cache_for_intra_segment_moves(self):
        # on a reliable platform the optimal schedule leaves runs of
        # unverified tasks; permuting inside a run keeps every
        # verification-segment weight, so the bound is a pure cache hit
        benign = Platform.from_costs(
            "benign", lf=1e-6, ls=1e-6, CD=15.0, CM=3.0, r=0.8
        )
        dag = generate("layered", seed=3, tasks=6, layers=1)
        objective = ChainObjective(dag, benign, algorithm=FAST_ALGO)
        order = random_order(dag, np.random.default_rng(0))
        solution = objective.exact(order)
        assert len(solution.schedule.verified_positions) < dag.n
        for cand, _ in neighborhood(dag, order):
            objective.bound(cand, solution)
        assert objective.bound_cache_hits > 0

    @pytest.mark.parametrize("cost_spread", [0.0, 1.0])
    def test_bounds_batch_equals_one_bound_per_order(self, platform, cost_spread):
        # values, memo and counters as if bound() ran on each order in
        # turn: a key repeated inside the batch is a cache hit
        dag = generate(
            "layered", seed=4, tasks=9, layers=3, cost_spread=cost_spread
        )
        order = random_order(dag, np.random.default_rng(4))
        cands = [cand for cand, _ in neighborhood(dag, order)]
        cands += cands[:3] + [order]
        one = ChainObjective(dag, platform, algorithm=FAST_ALGO)
        batch = ChainObjective(dag, platform, algorithm=FAST_ALGO)
        solution = one.exact(order)
        singles = [one.bound(cand, solution) for cand in cands]
        assert batch.bounds(cands, solution) == singles
        assert batch.bound_evaluations == one.bound_evaluations
        assert batch.bound_cache_hits == one.bound_cache_hits >= 3
        assert batch.bounds([], solution) == []
        assert batch.bounds(cands[:5], solution) == singles[:5]
        assert batch.bound_cache_hits == one.bound_cache_hits + 5

    @pytest.mark.parametrize("algorithm", ["admv_star", FAST_ALGO])
    @pytest.mark.parametrize("cost_spread", [0.0, 1.0])
    def test_exact_all_equals_one_exact_per_order(
        self, platform, algorithm, cost_spread
    ):
        # solutions (chain name and diagnostics too), memo and counters as
        # if exact() ran on each order in turn, on a cold and a warm memo
        dag = generate(
            "layered", seed=6, tasks=8, layers=3, cost_spread=cost_spread
        )
        order = random_order(dag, np.random.default_rng(6))
        cands = [cand for cand, _ in neighborhood(dag, order)][:6]
        cands += cands[:2] + [order]
        one = ChainObjective(dag, platform, algorithm=algorithm)
        batch = ChainObjective(dag, platform, algorithm=algorithm)
        for orders in (cands[:4], cands):
            want = [one.exact(cand) for cand in orders]
            got = batch.exact_all(orders)
            assert got == want
            for a, b in zip(got, want):
                assert a.chain.name == b.chain.name == f"{dag.name}-serialised"
                assert a.expected_time.hex() == b.expected_time.hex()
                assert a.diagnostics.keys() == b.diagnostics.keys()
                for key in a.diagnostics:
                    np.testing.assert_array_equal(
                        a.diagnostics[key], b.diagnostics[key]
                    )
            assert batch.metrics.snapshot() == one.metrics.snapshot()
        assert batch.exact_all([]) == []

    def test_bound_caches_are_content_keyed(self, pipeline, platform):
        # references the objective never saw (built by optimize() directly,
        # then dropped) must share cache entries with equal schedules and
        # can never alias different ones through id() reuse
        from repro.core.solver import optimize as solve

        objective = ChainObjective(pipeline, platform, algorithm=FAST_ALGO)
        order = random_order(pipeline, np.random.default_rng(3))
        _, chain = pipeline.serialise(order)
        first = objective.bound(order, solve(chain, platform, FAST_ALGO))
        evaluations = objective.bound_evaluations
        # a *distinct* Solution object with an identical schedule: pure hit
        second = objective.bound(order, solve(chain, platform, FAST_ALGO))
        assert second == first
        assert objective.bound_evaluations == evaluations
        assert objective.bound_cache_hits == 1

    def test_orders_scored_accounting(self, pipeline, platform):
        objective = ChainObjective(pipeline, platform, algorithm=FAST_ALGO)
        order = random_order(pipeline, np.random.default_rng(0))
        solution = objective.exact(order)
        objective.bound(order, solution)
        objective.exact(order)
        assert objective.orders_scored == (
            objective.exact_evaluations
            + objective.exact_cache_hits
            + objective.bound_evaluations
            + objective.bound_cache_hits
        )
        assert objective.orders_scored == 3


# ----------------------------------------------------------------------
# search drivers
# ----------------------------------------------------------------------
class TestSearch:
    def test_chain_dag_has_nothing_to_search(self, platform):
        weights = {f"t{i}": float(10 + i) for i in range(6)}
        edges = [(f"t{i}", f"t{i + 1}") for i in range(5)]
        chain_dag = WorkflowDAG(weights, edges, name="chain")
        result = search_order(chain_dag, platform, algorithm=FAST_ALGO, seed=0)
        # one unique order -> one exact solve, everything else cache hits
        assert result.exact_evaluations == 1
        reference = optimize_dag(chain_dag, platform, algorithm=FAST_ALGO)
        assert result.expected_time == pytest.approx(reference.expected_time)

    def test_equal_weights_evaluate_once(self, platform):
        # all orders serialise to the same weight tuple: the memo collapses
        # the whole search to a single DP solve
        dag = WorkflowDAG({c: 100.0 for c in "abcde"})
        result = search_order(dag, platform, algorithm=FAST_ALGO, seed=0)
        assert result.exact_evaluations == 1

    @pytest.mark.parametrize("method", ["hill_climb", "anneal"])
    def test_methods_match_exhaustive_on_small_dag(self, platform, method):
        dag = generate(
            "layered", seed=2, tasks=6, layers=3, density=0.5,
            weights="lognormal",
        )
        exhaustive = optimize_dag(
            dag, platform, algorithm=FAST_ALGO, strategy="all"
        )
        result = search_order(
            dag, platform, algorithm=FAST_ALGO, method=method, seed=0,
            iterations=150,
        )
        assert result.expected_time <= exhaustive.expected_time * (1 + 1e-9)
        assert result.method == method

    def test_search_never_worse_than_heuristics(self, pipeline, platform):
        heuristics = optimize_dag(
            pipeline, platform, algorithm=FAST_ALGO, strategy="auto"
        )
        result = search_order(pipeline, platform, algorithm=FAST_ALGO, seed=0)
        assert result.expected_time <= heuristics.expected_time * (1 + 1e-12)

    def test_search_is_deterministic_per_seed(self, pipeline, platform):
        a = search_order(pipeline, platform, algorithm=FAST_ALGO, seed=3)
        b = search_order(pipeline, platform, algorithm=FAST_ALGO, seed=3)
        assert a.solution.order == b.solution.order
        assert a.expected_time == b.expected_time
        assert a.orders_scored == b.orders_scored

    def test_result_accounting_and_summary(self, pipeline, platform):
        result = search_order(pipeline, platform, algorithm=FAST_ALGO, seed=0)
        assert result.starts >= 2
        assert result.exact_evaluations >= result.starts - 1
        assert result.orders_scored >= result.exact_evaluations
        text = result.summary()
        assert "orders scored" in text
        assert result.solution.diagnostics["search_seed"] == 0

    def test_unknown_method_rejected(self, pipeline, platform):
        with pytest.raises(InvalidParameterError, match="unknown search"):
            search_order(pipeline, platform, method="tabu")

    def test_hill_climb_and_anneal_return_valid_orders(
        self, pipeline, platform
    ):
        objective = ChainObjective(pipeline, platform, algorithm=FAST_ALGO)
        rng = np.random.default_rng(0)
        start = random_order(pipeline, rng)
        for driver, kwargs in (
            (hill_climb, {"max_rounds": 5}),
            (simulated_annealing, {"iterations": 50}),
        ):
            order, value, solution, _ = driver(objective, start, rng, **kwargs)
            pipeline.serialise(order)
            assert value == solution.expected_time
            assert solution.expected_time <= objective.exact(
                start
            ).expected_time * (1 + 1e-12)

    def test_optimize_dag_search_strategy(self, pipeline, platform):
        solution = optimize_dag(
            pipeline,
            platform,
            algorithm=FAST_ALGO,
            strategy="search",
            seed=1,
            search_options={"restarts": 1},
        )
        pipeline.serialise(solution.order)
        auto = optimize_dag(
            pipeline, platform, algorithm=FAST_ALGO, strategy="auto"
        )
        assert solution.expected_time <= auto.expected_time * (1 + 1e-12)
        assert solution.diagnostics["search_method"] == "hill_climb"


class TestCertification:
    def test_certified_search_attaches_stamp(self, platform):
        # backend=None -> the REPRO_BACKEND / NumPy default, so CI's
        # backend-matrix lane proves the dag -> batched-engine path under
        # array-api-strict too
        dag = generate("fork_join", seed=1, branches=2, branch_length=2)
        result = search_order(dag, platform, algorithm=FAST_ALGO, seed=0)
        stamp = certify_dag_solution(
            dag,
            platform,
            result.solution,
            label=f"{dag.name} search order",
            seed=0,
            target_ci=0.05,
            max_runs=20_000,
        )
        assert stamp.agrees, stamp.line()
        assert stamp.label.endswith("search order")
        assert "search order" in stamp.line()

    @pytest.mark.parametrize(
        "path",
        ["chain-search", "join-search", "fixed", "parallel-estimate", "sweep"],
    )
    def test_every_stamp_draws_the_fifth_seed_child(self, path, monkeypatch):
        """Every DAG stamp (and the p=2 estimate) is one adaptive campaign
        seeded from child 4 of the search seed, whose first chunk replays
        none of the children 0-3 (the searches draw from 0-2)."""
        import copy

        import repro.simulation.adaptive as adaptive
        from repro.api.requests import parse_request
        from repro.experiments import dag_search
        from repro.service.engine import run

        campaigns = []
        real = adaptive._seed_sequence

        def spy(seed):
            campaign = real(seed)
            campaigns.append(copy.deepcopy(campaign))
            return campaign

        monkeypatch.setattr(adaptive, "_seed_sequence", spy)
        seed = 3
        fork_join = {"kind": "fork_join", "branches": 2, "branch_length": 2}
        requests = {
            "chain-search": {"generator": fork_join, "strategy": "search"},
            "join-search": {
                "generator": {"kind": "join", "sources": 4},
                "strategy": "search",
            },
            "fixed": {"generator": fork_join, "strategy": "heavy_first"},
            "parallel-estimate": {"generator": fork_join, "processors": 2},
        }
        if path == "sweep":
            stamps = dag_search.run(seed=seed).stamps
            assert len(stamps) == len(campaigns) == 2
        else:
            serial = path != "parallel-estimate"
            doc = run(
                parse_request(
                    "dag/optimize",
                    {
                        **requests[path],
                        "seed": seed,
                        "algorithm": FAST_ALGO,
                        "target_ci": 0.05,
                        **({"certify": True} if serial else {}),
                    },
                )
            ).document()
            assert ("certificate" if serial else "estimate") in doc
            assert len(campaigns) == 1
        root = np.random.SeedSequence(seed)
        search_children = root.spawn(4)
        for campaign in campaigns:
            assert campaign.entropy == root.entropy
            assert campaign.spawn_key == (4,)
            first_chunk = np.random.default_rng(campaign.spawn(1)[0]).random(8)
            for child in search_children:
                for stream in (child, child.spawn(1)[0]):
                    assert not np.array_equal(
                        first_chunk, np.random.default_rng(stream).random(8)
                    )


# ----------------------------------------------------------------------
# heterogeneous per-task costs
# ----------------------------------------------------------------------
class TestHeterogeneousObjective:
    def hetero_dag(self) -> WorkflowDAG:
        return generate(
            "layered", seed=4, tasks=8, layers=2, density=0.5,
            weights="lognormal", cost_spread=1.0,
        )

    def test_exact_prices_the_permuted_cost_profile(self, platform):
        from repro.core.solver import optimize as solve

        dag = self.hetero_dag()
        objective = ChainObjective(dag, platform, algorithm=FAST_ALGO)
        order = random_order(dag, np.random.default_rng(0))
        solution = objective.exact(order)
        _, chain = dag.serialise(order)
        reference = solve(
            chain, platform, FAST_ALGO,
            costs=dag.cost_profile(order, platform),
        )
        assert solution.expected_time == pytest.approx(
            reference.expected_time, rel=1e-12
        )

    def test_equal_weights_different_costs_not_collapsed(self, platform):
        # two independent equal-weight tasks with different multipliers:
        # the weight tuple is identical for both orders, the memo must
        # still tell them apart
        dag = WorkflowDAG(
            {"a": 400.0, "b": 400.0},
            cost_multipliers={"a": 0.1, "b": 8.0},
        )
        objective = ChainObjective(dag, platform, algorithm=FAST_ALGO)
        va = objective.exact(["a", "b"]).expected_time
        vb = objective.exact(["b", "a"]).expected_time
        assert objective.exact_evaluations == 2
        assert va != pytest.approx(vb, rel=1e-9)

    def test_bound_stays_sound_with_hetero_costs(self, platform):
        dag = self.hetero_dag()
        objective = ChainObjective(dag, platform, algorithm=FAST_ALGO)
        order = random_order(dag, np.random.default_rng(2))
        solution = objective.exact(order)
        assert objective.bound(order, solution) == pytest.approx(
            solution.expected_time, rel=1e-9
        )
        for cand, _ in neighborhood(dag, order):
            bound = objective.bound(cand, solution)
            exact = objective.exact(cand).expected_time
            assert bound >= exact * (1 - 1e-9)

    def test_search_beats_heuristics_on_hetero_instance(self):
        # the tentpole claim in miniature: with heterogeneous costs the
        # order search finds strictly better serialisations than every
        # weight-only fixed heuristic
        stress = Platform.from_costs(
            "stress", lf=3e-4, ls=8e-4, CD=60.0, CM=10.0, r=0.8
        )
        dag = generate(
            "layered", seed=3, tasks=12, layers=3, weights="lognormal",
            cost_spread=1.0,
        )
        heuristics = optimize_dag(
            dag, stress, algorithm=FAST_ALGO, strategy="auto"
        )
        found = search_order(
            dag, stress, algorithm=FAST_ALGO, seed=0, restarts=1,
            polish_budget=8,
        )
        assert found.expected_time < heuristics.expected_time * (1 - 1e-9)


# ----------------------------------------------------------------------
# crossover + multi-start
# ----------------------------------------------------------------------
class TestCrossoverAndMultiStart:
    @given(data=dag_and_order(), cut_seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_crossover_children_are_topological(self, data, cut_seed):
        from repro.dag import crossover_orders

        dag, order_a, rng = data
        order_b = random_order(dag, rng)
        cut = int(np.random.default_rng(cut_seed).integers(0, dag.n + 1))
        child = crossover_orders(order_a, order_b, cut)
        dag.serialise(child)  # validates precedence + completeness
        assert sorted(map(repr, child)) == sorted(map(repr, order_a))

    def test_crossover_rejects_bad_cut(self):
        from repro.dag import crossover_orders

        with pytest.raises(InvalidParameterError, match="cut"):
            crossover_orders(["a", "b"], ["b", "a"], 5)

    def test_search_result_reports_recombination(self, pipeline, platform):
        result = search_order(
            pipeline, platform, algorithm=FAST_ALGO, seed=0, recombine=3
        )
        assert result.recombined == 3
        assert any(k.startswith("crossover-") for k in result.start_values)
        off = search_order(
            pipeline, platform, algorithm=FAST_ALGO, seed=0, recombine=0
        )
        assert off.recombined == 0

    def test_priority_rule_orders_seed_the_climbs(self, platform):
        # the start set includes every deduplicated fixed heuristic —
        # bottom-level / critical-path included (>= 2 distinct orders on
        # this DAG) — plus the requested random restarts
        from repro.dag.linearize import candidate_orders

        dag = generate("layered", seed=11, tasks=10, layers=3)
        heuristics = len(candidate_orders(dag, "auto"))
        result = search_order(
            dag, platform, algorithm=FAST_ALGO, seed=0, restarts=2
        )
        assert result.starts == heuristics + 2


# ----------------------------------------------------------------------
# join-shaped dispatch
# ----------------------------------------------------------------------
class TestJoinSearch:
    @pytest.fixture
    def join_dag(self) -> WorkflowDAG:
        return generate("join", seed=2, sources=5, weights="lognormal")

    def test_dispatches_to_join_objective(self, join_dag, platform):
        from repro.dag import JoinDagSolution

        result = search_order(join_dag, platform, seed=0)
        assert result.algorithm == "join"
        assert isinstance(result.solution, JoinDagSolution)
        assert result.solution.diagnostics["join_rate"] == platform.lf

    def test_matches_joint_exhaustive_optimum(self, join_dag, platform):
        from repro.dag import exhaustive_join, join_from_dag

        instance = join_from_dag(
            join_dag, rate=platform.lf, C=platform.CD, R=platform.RD
        )
        exh_value, _ = exhaustive_join(instance, optimize_order=True)
        for method in ("hill_climb", "anneal"):
            result = search_order(join_dag, platform, seed=0, method=method)
            assert result.expected_time <= exh_value * (1 + 1e-9), method

    def test_value_is_the_join_evaluation_of_the_state(self, join_dag, platform):
        from repro.dag import evaluate_join

        result = search_order(join_dag, platform, seed=1)
        solution = result.solution
        assert evaluate_join(
            solution.instance, solution.join_schedule
        ) == pytest.approx(result.expected_time, rel=1e-12)
        # the chain-notation schedule mirrors the decisions
        disk = set(solution.schedule.disk_positions)
        expected = {
            pos + 1
            for pos, d in enumerate(solution.join_schedule.checkpoint)
            if d
        }
        assert disk == expected
        # order: sources in searched order, sink last
        assert solution.order[-1] == join_dag.sinks()[0]

    def test_join_search_is_deterministic_per_seed(self, join_dag, platform):
        a = search_order(join_dag, platform, seed=7)
        b = search_order(join_dag, platform, seed=7)
        assert a.solution.join_schedule == b.solution.join_schedule
        assert a.expected_time == b.expected_time

    @staticmethod
    def certify(dag, platform, result, **kwargs):
        return certify_dag_solution(
            dag,
            platform,
            result.solution,
            label=f"{dag.name} search order",
            seed=result.seed,
            **kwargs,
        )

    def test_certified_join_search_attaches_stamp(self, join_dag, platform):
        result = search_order(join_dag, platform, seed=0)
        stamp = self.certify(
            join_dag, platform, result, target_ci=0.05, max_runs=20_000
        )
        assert stamp.agrees, stamp.line()
        assert "search order" in stamp.label

    def test_certified_join_search_emits_round_events(self, join_dag, platform):
        # the join stamp runs the shared adaptive round loop: the same
        # round growth and mc.* events as the chain certification, from
        # the join model's own floor
        from repro.obs import EventBus, MetricsRegistry, instrument
        from repro.simulation.certify import _JOIN_MIN_RUNS

        bus = EventBus()
        with instrument(MetricsRegistry(), events=bus):
            stamp = self.certify(
                join_dag,
                platform,
                search_order(join_dag, platform, seed=0),
                target_ci=0.05,
                max_runs=20_000,
            )
        events = [
            e for e in bus.snapshot().events if e.kind.startswith("mc.")
        ]
        rounds = [e for e in events if e.kind == "mc.round"]
        assert rounds and rounds[0].data["total_reps"] == _JOIN_MIN_RUNS
        terminal = events[-1]
        assert terminal.kind in ("mc.converged", "mc.capped")
        assert terminal.data["total_reps"] == stamp.reps
        assert terminal.data["rounds"] == len(rounds)

    @pytest.mark.parametrize("name", ["hera", "atlas"])
    def test_certified_join_agrees_on_table_i_platform(self, name):
        # 6-source join on a Table I platform: the expected number of
        # fail-stop errors per run is far below one, so a short campaign
        # can see none and certify a zero-width interval that excludes the
        # analytic value (on Atlas, 400 runs of this instance do); the
        # join floor keeps enough runs to see them
        from repro.platforms import get_platform
        from repro.simulation.certify import _JOIN_MIN_RUNS

        dag = generate("join", seed=8, sources=6, weights="lognormal")
        platform = get_platform(name)
        stamp = self.certify(dag, platform, search_order(dag, platform, seed=0))
        assert stamp.reps >= _JOIN_MIN_RUNS
        assert stamp.relative_half_width > 0.0
        assert stamp.agrees, stamp.line()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_runs=0),
            dict(max_runs=-5),
            dict(target_ci=0.0),
        ],
    )
    def test_join_certification_rejects_bad_parameters(
        self, join_dag, platform, kwargs
    ):
        result = search_order(join_dag, platform, seed=0)
        with pytest.raises(InvalidParameterError):
            self.certify(join_dag, platform, result, **kwargs)

    def test_degenerate_join_shapes_stay_on_chain_semantics(self, platform):
        # a single task and a 2-node chain are join-*shaped* but the join
        # model (fail-stop only) would return values incomparable with
        # every other strategy — they must keep the chain objective
        single = WorkflowDAG({"a": 300.0})
        result = search_order(single, platform, seed=0)
        assert result.algorithm != "join"
        two_chain = WorkflowDAG({"a": 300.0, "b": 200.0}, [("a", "b")])
        result = search_order(two_chain, platform, seed=0)
        assert result.algorithm != "join"
        reference = optimize_dag(two_chain, platform)
        assert result.expected_time == pytest.approx(
            reference.expected_time, rel=1e-9
        )

    def test_heterogeneous_join_falls_back_to_chain_objective(self, platform):
        # the join model has one scalar C: per-task multipliers cannot be
        # priced there, so heterogeneous joins use the chain objective
        # (which does price them) instead of silently dropping the costs
        dag = generate(
            "join", seed=2, sources=5, weights="lognormal", cost_spread=1.0
        )
        assert dag.is_join() and dag.has_heterogeneous_costs()
        result = search_order(dag, platform, algorithm=FAST_ALGO, seed=0)
        assert result.algorithm == FAST_ALGO
        order = result.solution.order
        from repro.core.solver import optimize as solve

        _, chain = dag.serialise(order)
        reference = solve(
            chain, platform, FAST_ALGO, costs=dag.cost_profile(order, platform)
        )
        assert result.expected_time == pytest.approx(
            reference.expected_time, rel=1e-12
        )
