"""Unit tests for the workflow DAG model and linearization heuristics."""

from __future__ import annotations

import math

import pytest

from repro.core import optimize
from repro.dag import (
    ORDER_STRATEGIES,
    WorkflowDAG,
    campaign,
    candidate_orders,
    canonical_node_key,
    generate,
    optimize_dag,
)
from repro.dag import search
from repro.dag.search import ChainObjective, dp_rows
from repro.exceptions import InvalidChainError, InvalidParameterError
from repro.platforms import Platform


@pytest.fixture
def diamond() -> WorkflowDAG:
    #    a
    #   / \
    #  b   c
    #   \ /
    #    d
    return WorkflowDAG(
        {"a": 10.0, "b": 5.0, "c": 20.0, "d": 8.0},
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        name="diamond",
    )


@pytest.fixture
def platform() -> Platform:
    return Platform.from_costs("dag", lf=2e-3, ls=5e-3, CD=15.0, CM=3.0)


class TestWorkflowDAG:
    def test_basic_properties(self, diamond):
        assert diamond.n == 4
        assert diamond.total_weight == pytest.approx(43.0)
        assert diamond.sources() == ["a"]
        assert diamond.sinks() == ["d"]

    def test_weight_lookup(self, diamond):
        assert diamond.weight("c") == 20.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidChainError):
            WorkflowDAG({})

    def test_rejects_bad_weight(self):
        with pytest.raises(InvalidChainError):
            WorkflowDAG({"a": 0.0})
        with pytest.raises(InvalidChainError):
            WorkflowDAG({"a": float("nan")})

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(InvalidChainError, match="unknown task"):
            WorkflowDAG({"a": 1.0}, [("a", "b")])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidChainError, match="self-loop"):
            WorkflowDAG({"a": 1.0}, [("a", "a")])

    def test_rejects_cycle(self):
        with pytest.raises(InvalidChainError, match="cycle"):
            WorkflowDAG({"a": 1.0, "b": 1.0}, [("a", "b"), ("b", "a")])

    def test_critical_path(self, diamond):
        path, length = diamond.critical_path()
        assert path == ["a", "c", "d"]
        assert length == pytest.approx(38.0)

    def test_critical_path_ties_go_to_the_first_predecessor(self):
        dag = WorkflowDAG(
            {"a": 5.0, "b": 5.0, "c": 1.0}, [("b", "c"), ("a", "c")]
        )
        assert dag.critical_path() == (["b", "c"], 6.0)
        dist, pred = dag.heaviest_paths()
        assert dist == {"a": 5.0, "b": 5.0, "c": 6.0}
        assert pred == {"a": None, "b": None, "c": "b"}

    @pytest.mark.parametrize("kind", ["layered", "in_tree", "diamond"])
    def test_heaviest_paths_give_the_top_levels(self, kind):
        # the top-level recursion, written out: max over predecessors
        dag = generate(kind, seed=3, weights="lognormal")
        dist, pred = dag.heaviest_paths()
        top: dict = {}
        for v in dag.graph.topological_sort():
            top[v] = max(
                (top[u] + dag.weight(u) for u in dag.graph.predecessors(v)),
                default=0.0,
            )
            want = top[v] + dag.weight(v)
            assert dist[v].hex() == want.hex()
            assert top[v] == (0.0 if pred[v] is None else dist[pred[v]])

    def test_is_chain(self):
        chain = WorkflowDAG({"a": 1.0, "b": 1.0}, [("a", "b")])
        assert chain.is_chain()
        fork = WorkflowDAG({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b"), ("a", "c")])
        assert not fork.is_chain()

    def test_is_join(self, diamond):
        join = WorkflowDAG(
            {"s1": 1.0, "s2": 2.0, "t": 1.0}, [("s1", "t"), ("s2", "t")]
        )
        assert join.is_join()
        assert not diamond.is_join()

    def test_repr(self, diamond):
        assert "diamond" in repr(diamond)


class TestCanonicalNodeKey:
    def test_digit_runs_compare_numerically(self):
        names = [f"t{i}" for i in (10, 2, 1, 20, 3, 11)]
        assert sorted(names, key=canonical_node_key) == [
            "t1", "t2", "t3", "t10", "t11", "t20",
        ]

    def test_mixed_chunks(self):
        names = ["a2b10", "a2b2", "a10b1", "a1b99"]
        assert sorted(names, key=canonical_node_key) == [
            "a1b99", "a2b2", "a2b10", "a10b1",
        ]

    def test_total_order_on_str_collisions(self):
        # str(1) == str("1"): the repr component keeps the key total
        assert canonical_node_key(1) != canonical_node_key("1")
        sorted([1, "1"], key=canonical_node_key)  # must not raise

    def test_default_serialisation_follows_numeric_order(self):
        # >9 independent tasks: a repr/lexicographic sort would start
        # t0, t1, t10, t11, t2, ... — the regression this key fixes
        wide = WorkflowDAG({f"t{i}": float(i + 1) for i in range(12)})
        order, _ = wide.serialise()
        assert order == [f"t{i}" for i in range(12)]


class TestHeterogeneousCosts:
    def hetero(self) -> WorkflowDAG:
        return WorkflowDAG(
            {"a": 10.0, "b": 5.0, "c": 20.0},
            [("a", "b"), ("a", "c")],
            cost_multipliers={"b": 0.25, "c": 4.0},
        )

    def test_multiplier_defaults_to_one(self):
        dag = self.hetero()
        assert dag.cost_multiplier("a") == 1.0
        assert dag.cost_multiplier("b") == 0.25
        assert dag.has_heterogeneous_costs()

    def test_homogeneous_detection(self, diamond):
        assert not diamond.has_heterogeneous_costs()
        all_ones = WorkflowDAG({"a": 1.0}, cost_multipliers={"a": 1.0})
        assert not all_ones.has_heterogeneous_costs()

    def test_rejects_bad_multipliers(self):
        with pytest.raises(InvalidChainError, match="unknown task"):
            WorkflowDAG({"a": 1.0}, cost_multipliers={"zz": 2.0})
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidChainError, match="multiplier"):
                WorkflowDAG({"a": 1.0}, cost_multipliers={"a": bad})

    def test_cost_profile_permutes_with_order(self):
        platform = Platform.from_costs("p", lf=1e-4, ls=1e-4, CD=30.0, CM=6.0)
        dag = self.hetero()
        profile = dag.cost_profile(["a", "b", "c"], platform)
        # index 0 is the virtual T0; positions follow the order
        assert profile.CD[1] == pytest.approx(30.0)
        assert profile.CD[2] == pytest.approx(30.0 * 0.25)
        assert profile.CD[3] == pytest.approx(30.0 * 4.0)
        swapped = dag.cost_profile(["a", "c", "b"], platform)
        assert swapped.CD[2] == pytest.approx(30.0 * 4.0)
        assert swapped.Vg[3] == pytest.approx(6.0 * 0.25)

    def test_cost_profile_none_when_homogeneous(self, diamond):
        platform = Platform.from_costs("p", lf=1e-4, ls=1e-4, CD=30.0, CM=6.0)
        assert diamond.cost_profile(["a", "b", "c", "d"], platform) is None

    def test_dict_round_trip(self):
        dag = self.hetero()
        doc = dag.as_dict()
        assert doc["cost_multipliers"]["c"] == 4.0
        clone = WorkflowDAG.from_dict(doc)
        assert clone.has_heterogeneous_costs()
        for v in ("a", "b", "c"):
            assert clone.cost_multiplier(v) == dag.cost_multiplier(v)

    def test_homogeneous_doc_omits_multipliers(self, diamond):
        assert "cost_multipliers" not in diamond.as_dict()

    def test_optimize_dag_prices_costs(self):
        # cheap-checkpoint task placed where the schedule checkpoints:
        # the heterogeneous optimum must differ from the uniform one
        platform = Platform.from_costs(
            "p", lf=3e-4, ls=8e-4, CD=60.0, CM=10.0, r=0.8
        )
        weights = {f"t{i}": 500.0 for i in range(4)}
        uniform = WorkflowDAG(weights)
        hetero = WorkflowDAG(
            weights, cost_multipliers={"t1": 0.1, "t3": 10.0}
        )
        u = optimize_dag(uniform, platform, algorithm="admv_star", strategy="all")
        h = optimize_dag(hetero, platform, algorithm="admv_star", strategy="all")
        assert h.expected_time != pytest.approx(u.expected_time, rel=1e-6)


class TestSerialise:
    def test_default_order_is_topological(self, diamond):
        order, chain = diamond.serialise()
        assert order[0] == "a" and order[-1] == "d"
        assert chain.n == 4
        assert chain.total_weight == pytest.approx(43.0)

    def test_explicit_order_respected(self, diamond):
        order, chain = diamond.serialise(["a", "c", "b", "d"])
        assert list(chain.weights) == [10.0, 20.0, 5.0, 8.0]

    def test_rejects_precedence_violation(self, diamond):
        with pytest.raises(InvalidChainError, match="precedence"):
            diamond.serialise(["b", "a", "c", "d"])

    def test_rejects_wrong_task_set(self, diamond):
        with pytest.raises(InvalidChainError, match="every task"):
            diamond.serialise(["a", "b", "c"])


class TestCandidateOrders:
    def test_auto_orders_are_topological(self, diamond):
        for order in candidate_orders(diamond, "auto"):
            diamond.serialise(order)  # validates

    def test_named_strategies(self, diamond):
        for name in ORDER_STRATEGIES:
            orders = candidate_orders(diamond, name)
            assert len(orders) == 1

    def test_heavy_first_prefers_heavy_ready_task(self, diamond):
        (order,) = candidate_orders(diamond, "heavy_first")
        # after 'a', both b (5) and c (20) are ready: c first
        assert order.index("c") < order.index("b")

    def test_light_first_prefers_light_ready_task(self, diamond):
        (order,) = candidate_orders(diamond, "light_first")
        assert order.index("b") < order.index("c")

    def test_bottom_level_drains_long_chains_first(self):
        # two branches from a source: a short heavy task (b: 50) vs a long
        # chain (c -> d, 30 + 40 = 70 bottom level): b-level picks c first,
        # heavy_first would pick b
        dag = WorkflowDAG(
            {"a": 1.0, "b": 50.0, "c": 30.0, "d": 40.0},
            [("a", "b"), ("a", "c"), ("c", "d")],
        )
        (order,) = candidate_orders(dag, "bottom_level")
        assert order.index("c") < order.index("b")
        (heavy,) = candidate_orders(dag, "heavy_first")
        assert heavy.index("b") < heavy.index("c")

    def test_critical_path_prioritises_longest_path(self):
        dag = WorkflowDAG(
            {"a": 1.0, "b": 50.0, "c": 30.0, "d": 40.0},
            [("a", "b"), ("a", "c"), ("c", "d")],
        )
        (order,) = candidate_orders(dag, "critical_path")
        # path a-c-d (71) dominates a-b (51): c runs before b
        assert order.index("c") < order.index("b")
        dag.serialise(order)

    def test_priority_orders_are_topological_on_generated_dags(self):
        from repro.dag import generate

        for kind, kwargs in (
            ("layered", {"tasks": 14, "layers": 4}),
            ("diamond", {"rows": 3, "cols": 4}),
        ):
            dag = generate(kind, seed=7, **kwargs)
            for strategy in ("bottom_level", "critical_path"):
                (order,) = candidate_orders(dag, strategy)
                dag.serialise(order)  # validates precedence

    def test_lexicographic_is_numeric_aware(self):
        # >9 tasks in one layer: t2 must precede t10
        wide = WorkflowDAG({f"t{i}": 1.0 for i in range(11)})
        (order,) = candidate_orders(wide, "lexicographic")
        assert order == [f"t{i}" for i in range(11)]

    def test_all_enumeration(self, diamond):
        orders = candidate_orders(diamond, "all")
        assert len(orders) == 2  # a-(b,c permute)-d

    def test_all_guard_on_wide_dag(self):
        # 10 independent tasks -> 10! orders: refuse, pointing at search
        big = WorkflowDAG({f"t{i}": 1.0 for i in range(10)})
        with pytest.raises(InvalidParameterError, match='strategy="search"'):
            candidate_orders(big, "all")

    def test_all_guard_is_count_based_not_n_based(self):
        # a deep 12-task chain has exactly one order: "all" must accept it
        weights = {f"t{i:02d}": 1.0 for i in range(12)}
        edges = [(f"t{i:02d}", f"t{i + 1:02d}") for i in range(11)]
        deep = WorkflowDAG(weights, edges)
        assert len(candidate_orders(deep, "all")) == 1

    def test_all_guard_respects_max_orders(self):
        wide = WorkflowDAG({f"t{i}": 1.0 for i in range(5)})
        assert len(candidate_orders(wide, "all", max_orders=120)) == 120
        with pytest.raises(InvalidParameterError, match="more than 10"):
            candidate_orders(wide, "all", max_orders=10)

    def test_unknown_strategy(self, diamond):
        with pytest.raises(InvalidParameterError, match="unknown order"):
            candidate_orders(diamond, "random")

    def test_search_strategy_points_at_the_search_api(self, diamond):
        # "search" is not an enumeration: the error must say where to go,
        # not list it among the expected enumeration strategies
        with pytest.raises(InvalidParameterError, match="search_order"):
            candidate_orders(diamond, "search")


class TestOptimizeDag:
    def test_returns_dag_solution(self, diamond, platform):
        sol = optimize_dag(diamond, platform, algorithm="admv_star")
        assert sol.algorithm == "dag+admv_star"
        assert len(sol.order) == 4
        assert sol.schedule.is_strict
        assert sol.expected_time > diamond.total_weight

    def test_auto_no_worse_than_lexicographic(self, diamond, platform):
        auto = optimize_dag(diamond, platform, strategy="auto")
        lex = optimize_dag(diamond, platform, strategy="lexicographic")
        assert auto.expected_time <= lex.expected_time + 1e-12

    def test_all_orders_is_exact_over_serialisations(self, diamond, platform):
        best = optimize_dag(diamond, platform, strategy="all")
        auto = optimize_dag(diamond, platform, strategy="auto")
        assert best.expected_time <= auto.expected_time + 1e-12

    def test_chain_dag_matches_chain_optimum(self, platform):
        from repro.chains import TaskChain
        from repro.core import optimize

        dag = WorkflowDAG(
            {"a": 30.0, "b": 40.0, "c": 20.0}, [("a", "b"), ("b", "c")]
        )
        dag_sol = optimize_dag(dag, platform, algorithm="admv")
        chain_sol = optimize(TaskChain([30.0, 40.0, 20.0]), platform, "admv")
        assert dag_sol.expected_time == pytest.approx(
            chain_sol.expected_time, rel=1e-12
        )
        assert dag_sol.order == ["a", "b", "c"]


def reference_optimize_dag(dag, platform, algorithm, strategy):
    """Reference: one ``optimize`` call per candidate, first strict minimum."""
    best = None
    for order in candidate_orders(dag, strategy):
        _, chain = dag.serialise(order)
        costs = dag.cost_profile(order, platform)
        sol = optimize(chain, platform, algorithm=algorithm, costs=costs)
        if best is None or sol.expected_time < best[1].expected_time:
            best = (order, sol)
    return best


ORACLE_DAGS = campaign("small") + [
    generate("layered", seed=5, tasks=8, cost_spread=1.0),
    generate("diamond", seed=0, rows=3, cols=3),
]


class TestOptimizeDagOracle:
    @pytest.mark.parametrize("dag", ORACLE_DAGS, ids=lambda d: d.name)
    @pytest.mark.parametrize("algorithm", ["admv_star", "adv_star"])
    def test_equals_one_optimize_per_candidate(self, dag, algorithm, platform):
        # every fixed strategy prices through the batched, memoized DP and
        # still returns the old loop's winner bit for bit
        for strategy in ("auto", "all") + ORDER_STRATEGIES:
            order, want = reference_optimize_dag(dag, platform, algorithm, strategy)
            got = optimize_dag(dag, platform, algorithm=algorithm, strategy=strategy)
            assert got.order == order, strategy
            assert got.expected_time.hex() == want.expected_time.hex(), strategy
            assert got.schedule == want.schedule, strategy
            assert got.chain.name == want.chain.name, strategy
            assert got.algorithm == f"dag+{want.algorithm}"

    @staticmethod
    def paired_diamond() -> WorkflowDAG:
        # tasks share weights in pairs on a 3x3 diamond: its 744 orders
        # serialise to 145 weight vectors
        shape = generate("diamond", seed=0, rows=3, cols=3)
        return WorkflowDAG(
            {v: 100.0 * (1 + i // 2) for i, v in enumerate(shape.graph)},
            shape.graph.edges,
        )

    @staticmethod
    def dp_counts(run) -> tuple[int, int]:
        """``(dp.solve calls, dp.solves.admv_star rows)`` of ``run()``."""
        from repro.obs import MetricsRegistry, instrument

        registry = MetricsRegistry()
        with instrument(registry):
            run()
        snapshot = registry.snapshot()
        return (
            snapshot.timers["dp.solve"].count,
            snapshot.counter("dp.solves.admv_star"),
        )

    def test_all_solves_each_distinct_key_once(self, platform):
        dag = self.paired_diamond()
        orders = candidate_orders(dag, "all")
        distinct = len({tuple(dag.weight(v) for v in o) for o in orders})
        assert distinct == 145 and len(orders) == 744 <= dp_rows(dag.n)
        calls, rows = self.dp_counts(
            lambda: optimize_dag(dag, platform, algorithm="admv_star", strategy="all")
        )
        assert (calls, rows) == (1, distinct)

    def test_exact_all_chunks_its_misses_by_dp_rows(self, platform, monkeypatch):
        # a 50-row budget at n = 9: the 145 distinct keys take 3 calls
        monkeypatch.setattr(search, "DP_CELLS", 50 * 10**3)
        dag = self.paired_diamond()
        orders = candidate_orders(dag, "all")
        objective = ChainObjective(dag, platform, algorithm="admv_star")
        calls, rows = self.dp_counts(lambda: objective.exact_all(orders))
        assert dp_rows(dag.n) == 50
        assert (calls, rows) == (math.ceil(145 / 50), 145)

    def test_optimize_dag_keeps_one_slice_of_solutions(self, platform, monkeypatch):
        # each slice of 50 orders gets a fresh memo: one call per slice,
        # a key repeated across slices is solved again, and the winner is
        # still the first strict minimum of the one-by-one loop
        monkeypatch.setattr(search, "DP_CELLS", 50 * 10**3)
        dag = self.paired_diamond()
        orders = candidate_orders(dag, "all")
        slices = [orders[lo : lo + 50] for lo in range(0, len(orders), 50)]
        per_slice = sum(
            len({tuple(dag.weight(v) for v in o) for o in piece}) for piece in slices
        )
        got = []
        calls, rows = self.dp_counts(
            lambda: got.append(
                optimize_dag(dag, platform, algorithm="admv_star", strategy="all")
            )
        )
        assert (calls, rows) == (len(slices), per_slice)
        order, want = reference_optimize_dag(dag, platform, "admv_star", "all")
        assert got[0].order == order
        assert got[0].expected_time.hex() == want.expected_time.hex()

    @pytest.mark.parametrize("strategy", ["auto", "all", "lexicographic", "search"])
    def test_overflow_error_names_the_serialised_chain(self, strategy):
        from repro.experiments.dag_search import stress_platform

        dag = WorkflowDAG({"a": 13000.0, "b": 832000.0}, name="huge")
        platform = stress_platform()
        with pytest.raises(InvalidParameterError, match="of huge-serialised on"):
            optimize_dag(dag, platform, algorithm="admv_star", strategy=strategy)
