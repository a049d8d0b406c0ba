"""Property tests for the random-workflow generators (repro.dag.generate)."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import CAMPAIGNS, GENERATORS, WorkflowDAG, campaign, generate
from repro.dag.generate import WEIGHT_DISTRIBUTIONS, draw_weights
from repro.exceptions import InvalidParameterError

seed_strategy = st.integers(min_value=0, max_value=2**32 - 1)
dist_strategy = st.sampled_from(WEIGHT_DISTRIBUTIONS)


@st.composite
def generator_call(draw):
    """A (kind, kwargs) pair with family-appropriate shape parameters."""
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    kwargs = {
        "seed": draw(seed_strategy),
        "weights": draw(dist_strategy),
        "spread": draw(st.floats(min_value=0.1, max_value=0.9)),
    }
    if kind == "layered":
        kwargs["layers"] = draw(st.integers(min_value=1, max_value=5))
        kwargs["tasks"] = draw(
            st.integers(min_value=kwargs["layers"], max_value=25)
        )
        kwargs["density"] = draw(st.floats(min_value=0.0, max_value=1.0))
    elif kind == "fork_join":
        kwargs["branches"] = draw(st.integers(min_value=1, max_value=5))
        kwargs["branch_length"] = draw(st.integers(min_value=1, max_value=4))
    elif kind in ("in_tree", "out_tree"):
        kwargs["tasks"] = draw(st.integers(min_value=1, max_value=25))
        kwargs["arity"] = draw(st.integers(min_value=1, max_value=4))
    elif kind == "join":
        kwargs["sources"] = draw(st.integers(min_value=1, max_value=25))
    else:  # diamond
        kwargs["rows"] = draw(st.integers(min_value=1, max_value=5))
        kwargs["cols"] = draw(st.integers(min_value=1, max_value=5))
    # every family takes the heterogeneity knobs (0 = uniform model)
    kwargs["cost_spread"] = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return kind, kwargs


def expected_n(kind: str, kwargs: dict) -> int:
    if kind == "layered":
        return kwargs["tasks"]
    if kind == "fork_join":
        return 2 + kwargs["branches"] * kwargs["branch_length"]
    if kind in ("in_tree", "out_tree"):
        return kwargs["tasks"]
    if kind == "join":
        return kwargs["sources"] + 1
    return kwargs["rows"] * kwargs["cols"]


class TestGeneratorProperties:
    @given(call=generator_call())
    @settings(max_examples=60, deadline=None)
    def test_valid_sized_deterministic(self, call):
        kind, kwargs = call
        dag = generate(kind, **kwargs)
        # structurally valid: a DAG with positive finite weights
        assert nx.is_directed_acyclic_graph(nx.DiGraph(dag.graph.edges))
        for v in dag.graph:
            w = dag.weight(v)
            assert math.isfinite(w) and w > 0.0
        # the node count matches the shape specification
        assert dag.n == expected_n(kind, kwargs)
        # seeded determinism: identical document on replay
        assert generate(kind, **kwargs).as_dict() == dag.as_dict()

    @given(call=generator_call(), other_seed=seed_strategy)
    @settings(max_examples=25, deadline=None)
    def test_seed_changes_weights(self, call, other_seed):
        kind, kwargs = call
        if kwargs["seed"] == other_seed:
            return
        a = generate(kind, **kwargs)
        b = generate(kind, **{**kwargs, "seed": other_seed})
        weights_a = sorted(a.as_dict()["tasks"].values())
        weights_b = sorted(b.as_dict()["tasks"].values())
        assert weights_a != weights_b

    def test_tree_edge_counts(self):
        for kind in ("in_tree", "out_tree"):
            dag = generate(kind, seed=3, tasks=12, arity=3)
            assert len(dag.graph.edges) == 11  # a tree on 12 nodes
        assert len(generate("in_tree", seed=3, tasks=12, arity=3).sinks()) == 1
        assert (
            len(generate("out_tree", seed=3, tasks=12, arity=3).sources()) == 1
        )

    def test_fork_join_shape(self):
        dag = generate("fork_join", seed=0, branches=3, branch_length=2)
        assert len(dag.sources()) == 1
        assert len(dag.sinks()) == 1
        assert len(dag.graph.edges) == 3 * (2 + 1)

    def test_layered_density_extremes(self):
        sparse = generate("layered", seed=1, tasks=12, layers=3, density=0.0)
        dense = generate("layered", seed=1, tasks=12, layers=3, density=1.0)
        # density 0 keeps the one guaranteed predecessor per task
        assert len(sparse.graph.edges) < len(dense.graph.edges)
        # density 1 wires complete consecutive-layer bicliques
        graph = nx.DiGraph(dense.graph.edges)
        sizes = [len(level) for level in nx.topological_generations(graph)]
        assert len(dense.graph.edges) == sum(
            a * b for a, b in zip(sizes, sizes[1:])
        )


class TestWeightDistributions:
    @given(
        seed=seed_strategy,
        dist=dist_strategy,
        mean=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_positive_finite(self, seed, dist, mean):
        rng = np.random.default_rng(seed)
        w = draw_weights(rng, 50, dist, mean=mean, spread=0.5)
        assert w.shape == (50,)
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)

    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        w = draw_weights(rng, 1000, "uniform", mean=100.0, spread=0.2)
        assert w.min() >= 80.0 and w.max() <= 120.0

    def test_bimodal_has_two_modes(self):
        rng = np.random.default_rng(0)
        w = draw_weights(rng, 1000, "bimodal", mean=100.0, spread=0.3)
        light = np.sum(w < 60.0)
        heavy = np.sum(w > 200.0)
        assert light + heavy == 1000  # nothing in the dead zone between modes
        assert 300 < light < 700  # roughly even mixture

    def test_unknown_distribution(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError, match="unknown weight"):
            draw_weights(rng, 5, "zipf")

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            draw_weights(rng, 0, "uniform")
        with pytest.raises(InvalidParameterError):
            draw_weights(rng, 5, "uniform", mean=-1.0)
        with pytest.raises(InvalidParameterError):
            draw_weights(rng, 5, "uniform", spread=1.5)


class TestCampaigns:
    def test_unknown_kind_and_campaign(self):
        with pytest.raises(InvalidParameterError, match="unknown workflow"):
            generate("hypercube")
        with pytest.raises(InvalidParameterError, match="unknown campaign"):
            campaign("huge")

    def test_campaigns_instantiate_and_are_seeded(self):
        for name, spec in CAMPAIGNS.items():
            dags = campaign(name, seed=7)
            assert [d.name for d in dags] == list(spec)
            replay = campaign(name, seed=7)
            assert [d.as_dict() for d in replay] == [d.as_dict() for d in dags]

    def test_small_campaign_is_exhaustible(self):
        assert all(d.n <= 8 for d in campaign("small"))

    def test_mid_campaign_is_exhaustible_beyond_small(self):
        from repro.dag import candidate_orders

        for dag in campaign("mid"):
            assert 9 <= dag.n <= 12
            candidate_orders(dag, "all")  # raises past MAX_EXHAUSTIVE_ORDERS
        assert any(d.has_heterogeneous_costs() for d in campaign("mid"))

    def test_default_campaign_is_search_scale(self):
        assert all(d.n >= 20 for d in campaign("default"))

    def test_generator_rejects_bad_shapes(self):
        with pytest.raises(InvalidParameterError):
            generate("layered", tasks=3, layers=5)
        with pytest.raises(InvalidParameterError):
            generate("layered", density=1.5)
        with pytest.raises(InvalidParameterError):
            generate("diamond", rows=0)
        with pytest.raises(InvalidParameterError):
            generate("fork_join", branches=0)


class TestRoundTrip:
    def test_as_dict_from_dict(self):
        dag = generate("layered", seed=11, weights="lognormal")
        doc = dag.as_dict()
        back = WorkflowDAG.from_dict(doc)
        assert back.as_dict() == doc

    def test_from_dict_rejects_malformed(self):
        from repro.exceptions import InvalidChainError

        with pytest.raises(InvalidChainError):
            WorkflowDAG.from_dict({"tasks": {"a": 1.0}})
