"""The unified serialization facade: documents + content hashing.

Covers the two ``repro.api`` contracts the service layer keys on:

- :func:`repro.api.canonical_hash` is stable across dict ordering,
  display names, and ``as_dict``/``from_dict`` round-trips, and exact
  down to the IEEE-754 bit (hypothesis-tested);
- :func:`repro.api.as_document` / :func:`repro.api.from_document` invert
  each other for every supported result kind, every document carries the
  ``schema_version``/``kind`` envelope, and malformed documents are
  rejected with typed errors.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    SCHEMA_VERSION,
    as_document,
    canonical_hash,
    document_kind,
    from_document,
)
from repro.chains import TaskChain, make_chain
from repro.core import Schedule, optimize
from repro.dag.generate import generate
from repro.dag.search import search_order
from repro.exceptions import InvalidParameterError
from repro.simulation.certify import AgreementStamp
from repro.obs import MetricsSnapshot
from repro.platforms import ATLAS, HERA, Platform
from repro.simulation import run_monte_carlo

finite = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# canonical_hash
# ----------------------------------------------------------------------
class TestCanonicalHash:
    def test_dict_order_blind(self):
        assert canonical_hash({"a": 1, "b": 2.5, "c": "x"}) == canonical_hash(
            {"c": "x", "b": 2.5, "a": 1}
        )

    def test_platform_content_addressed(self):
        assert canonical_hash(HERA) == canonical_hash(HERA.with_overrides())
        assert canonical_hash(HERA) != canonical_hash(ATLAS)

    def test_platform_name_blind(self):
        renamed = HERA.with_overrides(name="Somewhere Else")
        assert canonical_hash(renamed) == canonical_hash(HERA)

    def test_chain_name_blind_weight_exact(self):
        a = TaskChain([1.0, 2.0, 3.0], name="a")
        b = TaskChain([1.0, 2.0, 3.0], name="b")
        c = TaskChain([1.0, 2.0, 3.0 + 1e-12], name="a")
        assert canonical_hash(a) == canonical_hash(b)
        assert canonical_hash(a) != canonical_hash(c)

    def test_int_float_distinct(self):
        assert canonical_hash(1) != canonical_hash(1.0)

    def test_composites(self):
        chain = make_chain("uniform", 5)
        doc = {"chain": chain, "platform": HERA, "algorithm": "admv"}
        flipped = {"algorithm": "admv", "platform": HERA, "chain": chain}
        assert canonical_hash(doc) == canonical_hash(flipped)

    def test_unhashable_content_rejected(self):
        with pytest.raises(TypeError, match="no canonical form"):
            canonical_hash(object())

    @given(
        lf=finite,
        ls=finite,
        CD=finite,
        CM=finite,
        r=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_platform_round_trip_hash_stable(self, lf, ls, CD, CM, r):
        platform = HERA.with_overrides(lf=lf, ls=ls, CD=CD, CM=CM, r=r)
        clone = Platform.from_dict(platform.as_dict())
        assert canonical_hash(clone) == canonical_hash(platform)

    @given(
        weights=st.lists(finite, min_size=1, max_size=12),
        name=st.text(max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_chain_round_trip_hash_stable(self, weights, name):
        chain = TaskChain(weights, name=name)
        clone = from_document(json.loads(json.dumps(as_document(chain))))
        assert canonical_hash(clone) == canonical_hash(chain)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_dag_round_trip_hash_stable(self, seed):
        dag = generate(
            "layered", seed=seed, tasks=8, cost_spread=0.5 * (seed % 2)
        )
        clone = from_document(json.loads(json.dumps(as_document(dag))))
        assert canonical_hash(clone) == canonical_hash(dag)

    def test_hash_is_process_stable(self):
        # pinned digests: a change here means CANONICAL_HASH_VERSION
        # must be bumped (stale caches would silently mean new things)
        assert canonical_hash({"n": 3}) == canonical_hash({"n": 3})
        assert (
            canonical_hash(HERA)
            == "3a5b036ce9dde8f6618c881a696567cc0ec676520e7c99735c5897150e58a227"
        )


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------
def _round_trip(obj):
    doc = as_document(obj)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert isinstance(doc["kind"], str)
    wire = json.loads(json.dumps(doc))  # force RFC-8259 fidelity
    return doc, from_document(wire)


class TestDocuments:
    def test_solution_round_trip(self):
        chain = make_chain("decrease", 10)
        solution = optimize(chain, HERA, algorithm="admv_star")
        doc, clone = _round_trip(solution)
        assert doc["kind"] == "solution"
        assert clone.expected_time == solution.expected_time
        assert clone.schedule.to_string() == solution.schedule.to_string()
        assert clone.platform == HERA
        assert np.array_equal(clone.chain.weights, chain.weights)

    def test_monte_carlo_round_trip_fixed_n(self):
        chain = make_chain("uniform", 6)
        solution = optimize(chain, HERA, algorithm="admv")
        mc = run_monte_carlo(
            chain,
            HERA,
            solution.schedule,
            runs=200,
            seed=3,
            analytic=solution.expected_time,
        )
        doc, clone = _round_trip(mc)
        assert doc["kind"] == "monte_carlo_result"
        assert doc["reps"] == 200
        assert doc["ci_low"] <= doc["mean"] <= doc["ci_high"]
        assert not {"runs", "ci", "analytic"} & doc.keys()  # v1 aliases
        assert "convergence" not in doc
        assert clone.mean == mc.mean
        assert clone.runs == mc.runs
        assert clone.agrees_with_analytic == mc.agrees_with_analytic
        assert clone.breakdown == mc.breakdown

    def test_monte_carlo_round_trip_adaptive(self):
        chain = make_chain("uniform", 6)
        solution = optimize(chain, HERA, algorithm="admv")
        mc = run_monte_carlo(
            chain,
            HERA,
            solution.schedule,
            seed=3,
            target_ci=0.05,
            analytic=solution.expected_time,
        )
        doc, clone = _round_trip(mc)
        conv = doc["convergence"]
        assert conv["target_ci"] == 0.05
        assert conv["reps"] == mc.convergence.reps_used
        assert not {"target_relative_ci", "reps_used"} & conv.keys()
        assert isinstance(conv["rounds"], int)  # historical scalar shape
        assert len(conv["round_log"]) == conv["rounds"]
        assert clone.convergence.reps_used == mc.convergence.reps_used
        assert clone.convergence.mean == mc.convergence.mean
        assert clone.convergence.converged == mc.convergence.converged
        assert (
            clone.convergence.breakdown_means()
            == mc.convergence.breakdown_means()
        )

    def test_search_result_round_trip(self):
        dag = generate("layered", seed=5, tasks=8)
        result = search_order(
            dag, HERA, algorithm="admv_star", seed=1, restarts=1, iterations=30
        )
        doc, clone = _round_trip(result)
        assert doc["kind"] == "search_result"
        assert doc["objective"] == result.algorithm
        assert clone.solution.expected_time == result.solution.expected_time
        assert list(clone.solution.order) == [
            str(v) for v in result.solution.order
        ]
        assert clone.orders_scored == result.orders_scored
        assert clone.exact_cache_hits == result.exact_cache_hits
        assert clone.metrics is not None
        assert clone.metrics.counters == result.metrics.counters

    def test_search_document_certificate_is_ignored(self):
        # dag/optimize adds the stamp next to the search document's keys;
        # a SearchResult carries none, so the reader skips it
        from repro.api.requests import parse_request
        from repro.service.engine import run

        request = parse_request(
            "dag/optimize",
            {
                "generator": {"kind": "layered", "tasks": 6, "seed": 2},
                "algorithm": "adv*",
                "strategy": "search",
                "restarts": 1,
                "certify": True,
                "target_ci": 0.05,
            },
        )
        outcome = run(request)
        doc = outcome.document()
        assert doc["certificate"]["label"].endswith("search order")
        clone = from_document(doc)
        assert clone == from_document(as_document(outcome.result))

    def test_agreement_stamp_round_trip(self):
        stamp = AgreementStamp(
            platform="Hera",
            label="x",
            analytic=100.0,
            simulated=101.0,
            relative_gap=0.01,
            reps=1000,
            relative_half_width=0.005,
            target_ci=0.01,
            agrees=True,
            converged=True,
        )
        doc, clone = _round_trip(stamp)
        assert doc["expected_time"] == 100.0
        assert doc["mean"] == 101.0
        assert not {"analytic", "simulated"} & doc.keys()
        assert clone == stamp

    def test_metrics_snapshot_round_trip(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(2.5)
        registry.timer("t").observe(0.25)
        registry.histogram("h").observe(0.003)
        snap = registry.snapshot()
        doc, clone = _round_trip(snap)
        assert isinstance(clone, MetricsSnapshot)
        assert clone.counters == snap.counters
        assert clone.gauges == snap.gauges
        assert clone.timers == snap.timers
        assert clone.histograms == snap.histograms

    def test_model_documents_round_trip(self):
        chain = make_chain("increase", 7)
        solution = optimize(chain, ATLAS, algorithm="admv")
        for obj in (ATLAS, chain, solution.schedule):
            _, clone = _round_trip(obj)
            if isinstance(obj, Schedule):
                assert clone.to_string() == obj.to_string()
            elif isinstance(obj, TaskChain):
                assert canonical_hash(clone) == canonical_hash(obj)
            else:
                assert clone == obj

    def test_non_finite_floats_serialize_as_null(self):
        stamp = AgreementStamp(
            platform="Hera",
            label="degenerate",
            analytic=1.0,
            simulated=1.0,
            relative_gap=math.nan,
            reps=1,
            relative_half_width=math.inf,
            target_ci=0.01,
            agrees=False,
            converged=False,
        )
        doc = as_document(stamp)
        json.dumps(doc, allow_nan=False)  # must be RFC-8259 clean
        assert doc["relative_gap"] is None
        assert doc["relative_half_width"] is None
        clone = from_document(doc)
        assert math.isnan(clone.relative_gap)
        assert math.isinf(clone.relative_half_width)


class TestEnvelope:
    def test_every_kind_is_stamped(self):
        chain = make_chain("uniform", 5)
        solution = optimize(chain, HERA, algorithm="admv")
        for obj in (solution, HERA, chain, solution.schedule):
            doc = as_document(obj)
            assert doc["schema_version"] == SCHEMA_VERSION
            assert document_kind(doc) == doc["kind"]

    def test_missing_envelope_rejected(self):
        with pytest.raises(InvalidParameterError, match="envelope"):
            from_document({"mean": 1.0})

    def test_newer_schema_rejected(self):
        with pytest.raises(InvalidParameterError, match="schema_version"):
            from_document(
                {"schema_version": SCHEMA_VERSION + 1, "kind": "solution"}
            )

    def test_version_1_documents_still_load(self):
        # schema_version 2 dropped the search documents' n_jobs and the
        # Monte-Carlo aliases; documents written before still load

        def as_v1(doc):
            if isinstance(doc, dict):
                return {
                    k: 1 if k == "schema_version" else as_v1(v)
                    for k, v in doc.items()
                }
            return doc

        dag = generate("layered", seed=5, tasks=8)
        result = search_order(
            dag, HERA, algorithm="admv_star", seed=1, restarts=1, iterations=30
        )
        search_doc = {**as_v1(as_document(result)), "n_jobs": None}
        clone = from_document(json.loads(json.dumps(search_doc)))
        assert clone.solution.expected_time == result.solution.expected_time
        assert clone.orders_scored == result.orders_scored

        chain = make_chain("uniform", 6)
        solution = optimize(chain, HERA, algorithm="admv")
        mc = run_monte_carlo(
            chain,
            HERA,
            solution.schedule,
            seed=3,
            target_ci=0.05,
            analytic=solution.expected_time,
        )
        mc_doc = as_v1(as_document(mc))
        mc_doc.update(
            runs=mc_doc["reps"],
            ci=[mc_doc["ci_low"], mc_doc["ci_high"]],
            analytic=mc_doc["expected_time"],
        )
        mc_doc["convergence"].update(
            target_relative_ci=mc_doc["convergence"]["target_ci"],
            reps_used=mc_doc["convergence"]["reps"],
        )
        clone = from_document(json.loads(json.dumps(mc_doc)))
        assert clone.runs == mc.runs
        assert clone.mean == mc.mean
        assert clone.convergence.reps_used == mc.convergence.reps_used
        assert clone.convergence.target_relative_ci == 0.05

    def test_unknown_object_rejected(self):
        with pytest.raises(InvalidParameterError, match="no unified"):
            as_document(object())

    def test_emit_only_kind_rejected(self):
        dag = generate("diamond", seed=0, rows=2)
        from repro.dag import search_parallel

        result = search_parallel(
            dag, HERA, 2, seed=0, restarts=0, iterations=10
        )
        doc = as_document(result)
        assert doc["kind"] == "parallel_search_result"
        assert doc["solution"]["kind"] == "parallel_solution"
        with pytest.raises(InvalidParameterError, match="emit-only"):
            from_document(doc)

    def test_malformed_document_diagnosed(self):
        doc = as_document(make_chain("uniform", 4))
        del doc["weights"]
        with pytest.raises(InvalidParameterError, match="malformed"):
            from_document(doc)
