"""Tests for the adaptive-precision orchestrator and streaming moments.

Three pillars:

1. **Streaming correctness** — chunk/shard moment merges must reproduce a
   one-shot ``summarize`` over the concatenated sample to near machine
   precision, including uneven chunk sizes;
2. **Precision targeting** — campaigns certify the requested relative CI
   half-width using measurably fewer replications than the fixed-N
   default (1000) on realistic platform/chain pairs, honour the min/max
   caps, and report convergence honestly;
3. **Accounting** — the streamed per-category breakdown agrees with the
   analytic Markov components (statistically) and with the exhaustive
   batched breakdown (exactly).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from repro.chains import TaskChain, uniform_chain
from repro.core import evaluate_schedule, optimize
from repro.exceptions import InvalidParameterError
from repro.platforms import ATLAS, COASTAL, HERA, Platform
from repro.simulation import (
    ParallelPlan,
    StreamingMoments,
    WorkerPlan,
    run_adaptive,
    run_adaptive_parallel,
    run_monte_carlo,
    simulate_batch,
    summarize,
    to_analytic_categories,
)


# ----------------------------------------------------------------------
# 1. streaming moments
# ----------------------------------------------------------------------
class TestStreamingMoments:
    @pytest.mark.parametrize(
        "splits",
        [
            [500, 1000],  # even-ish chunks
            [1, 2, 3, 1499],  # wildly uneven
            [1499, 1500],  # a 1-sample chunk in the middle
            [],  # single block
        ],
    )
    def test_merge_matches_one_shot_summarize(self, splits):
        rng = np.random.default_rng(42)
        samples = rng.lognormal(5.0, 0.8, 1500)
        merged = StreamingMoments()
        for chunk in np.array_split(samples, splits):
            merged = merged.merge(StreamingMoments.from_samples(chunk))
        oneshot = summarize(samples, 0.99)
        assert merged.count == oneshot.count
        assert merged.mean == pytest.approx(oneshot.mean, rel=1e-13)
        assert merged.std == pytest.approx(oneshot.std, rel=1e-12)
        assert merged.minimum == oneshot.minimum
        assert merged.maximum == oneshot.maximum
        lo, hi = merged.ci(0.99)
        assert lo == pytest.approx(oneshot.ci_low, rel=1e-12)
        assert hi == pytest.approx(oneshot.ci_high, rel=1e-12)

    def test_merge_is_associative_enough(self):
        rng = np.random.default_rng(7)
        a, b, c = (
            StreamingMoments.from_samples(rng.normal(10.0, 2.0, n))
            for n in (11, 230, 59)
        )
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count == 300
        assert left.mean == pytest.approx(right.mean, rel=1e-14)
        assert left.m2 == pytest.approx(right.m2, rel=1e-12)

    def test_empty_merge_identity(self):
        m = StreamingMoments.from_samples(np.array([1.0, 2.0]))
        assert StreamingMoments().merge(m) == m
        assert m.merge(StreamingMoments()) == m

    def test_degenerate_counts_mirror_stats(self):
        # 0 or 1 samples certify nothing; zero variance collapses exactly.
        assert math.isinf(StreamingMoments().half_width(0.99))
        one = StreamingMoments.from_samples(np.array([5.0]))
        assert math.isinf(one.half_width(0.99))
        assert one.ci(0.99) == (-math.inf, math.inf)
        const = StreamingMoments.from_samples(np.full(8, 5.0))
        assert const.half_width(0.99) == 0.0
        assert const.relative_half_width(0.99) == 0.0

    def test_to_summary_streams_everything_but_quantiles(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(50.0, 4.0, 400)
        s = StreamingMoments.from_samples(samples).to_summary(0.95)
        ref = summarize(samples, 0.95)
        assert s.count == ref.count
        assert s.mean == pytest.approx(ref.mean, rel=1e-13)
        assert s.ci_low == pytest.approx(ref.ci_low, rel=1e-12)
        assert s.ci_high == pytest.approx(ref.ci_high, rel=1e-12)
        assert math.isnan(s.median) and math.isnan(s.q05) and math.isnan(s.q95)


# ----------------------------------------------------------------------
# 2. the adaptive orchestrator
# ----------------------------------------------------------------------
def chain_campaign(platform, weights):
    """``run_adaptive`` over the ADMV schedule of a chain of ``weights``."""
    chain = TaskChain(weights)
    sol = optimize(chain, platform, algorithm="admv")
    return partial(run_adaptive, chain, platform, sol.schedule)


def parallel_campaign(platform, weights):
    """``run_adaptive_parallel`` over two independent workers sharing
    ``weights`` (ADMV schedule each)."""
    half = (len(weights) + 1) // 2
    workers = []
    for part in (weights[:half], weights[half:]):
        chain = TaskChain(part)
        sol = optimize(chain, platform, algorithm="admv")
        workers.append(WorkerPlan(chain=chain, schedule=sol.schedule))
    plan = ParallelPlan(workers=tuple(workers), deps=(((),), ((),)))
    return partial(run_adaptive_parallel, plan, platform)


class TestAdaptiveConvergence:
    @pytest.mark.parametrize(
        "platform,n",
        [(HERA, 20), (ATLAS, 50), (COASTAL, 35)],
        ids=lambda p: getattr(p, "name", p),
    )
    def test_certifies_target_with_fewer_reps_than_fixed_default(
        self, platform, n
    ):
        """Acceptance: ±1% certified below the fixed-N default of 1000."""
        chain = uniform_chain(n)
        sol = optimize(chain, platform, algorithm="admv")
        adaptive = run_adaptive(
            chain,
            platform,
            sol.schedule,
            target_relative_ci=0.01,
            seed=7,
            analytic=sol.expected_time,
        )
        assert adaptive.converged
        assert adaptive.relative_half_width <= 0.01
        assert adaptive.reps_used < 1000, (
            f"{platform.name}: spent {adaptive.reps_used} reps, no saving "
            f"over the fixed-N default"
        )
        assert adaptive.agrees_with_analytic, adaptive.convergence_report()
        # the fixed default spends its full 1000 for the same certification
        fixed = run_monte_carlo(
            chain,
            platform,
            sol.schedule,
            runs=1000,
            seed=7,
            analytic=sol.expected_time,
        )
        assert fixed.runs == 1000
        assert fixed.summary.relative_ci_half_width <= 0.01

    def test_rounds_grow_geometrically(self):
        hot = Platform.from_costs(
            "hot", lf=2e-3, ls=8e-3, CD=30.0, CM=6.0, r=0.8,
            partial_cost_ratio=20.0,
        )
        chain = TaskChain([60.0] * 6)
        sol = optimize(chain, hot, algorithm="admv")
        adaptive = run_adaptive(
            chain, hot, sol.schedule, target_relative_ci=0.005, seed=2,
            min_runs=100,
        )
        assert adaptive.converged
        assert len(adaptive.rounds) > 2  # noisy instance: several rounds
        totals = [r.total_reps for r in adaptive.rounds]
        assert totals == sorted(totals)
        for prev, nxt in zip(totals, totals[1:]):
            assert nxt == 2 * prev  # growth=2.0 doubles the total
        widths = [r.relative_half_width for r in adaptive.rounds]
        assert widths[-1] == min(widths)
        assert adaptive.reps_used == totals[-1]

    @staticmethod
    def check_max_runs_cap(run):
        adaptive = run(
            target_relative_ci=1e-6, min_runs=50, max_runs=400, seed=0,
        )
        assert not adaptive.converged
        assert adaptive.reps_used == 400
        assert adaptive.relative_half_width > 1e-6
        assert "NOT CONVERGED" in adaptive.convergence_report()

    def test_max_runs_cap_reports_non_convergence(self, hot_platform):
        self.check_max_runs_cap(chain_campaign(hot_platform, [60.0] * 4))

    def test_max_runs_cap_reports_non_convergence_parallel(self, hot_platform):
        self.check_max_runs_cap(parallel_campaign(hot_platform, [60.0] * 4))

    def test_error_free_converges_at_the_floor(self, error_free_platform):
        # Zero variance: certified exactly, but never before min_runs.
        chain = TaskChain([10.0, 20.0])
        from repro.core.schedule import Schedule

        adaptive = run_adaptive(
            chain, error_free_platform, Schedule.final_only(2),
            target_relative_ci=0.01, min_runs=64, seed=0,
        )
        assert adaptive.converged
        assert adaptive.reps_used == 64
        assert adaptive.relative_half_width == 0.0
        assert adaptive.moments.std == 0.0

    @staticmethod
    def check_reproducible_and_n_jobs_invariant(run):
        kwargs = dict(
            target_relative_ci=0.02, seed=5, min_runs=200, chunk_size=64
        )
        a = run(**kwargs)
        b = run(**kwargs)
        sharded = run(n_jobs=2, **kwargs)
        assert a.moments == b.moments == sharded.moments
        assert a.reps_used == sharded.reps_used
        np.testing.assert_array_equal(
            a.category_totals, sharded.category_totals
        )

    def test_reproducible_and_n_jobs_invariant(self, hot_platform):
        self.check_reproducible_and_n_jobs_invariant(
            chain_campaign(hot_platform, [60.0] * 5)
        )

    def test_reproducible_and_n_jobs_invariant_parallel(self, hot_platform):
        self.check_reproducible_and_n_jobs_invariant(
            parallel_campaign(hot_platform, [60.0] * 5)
        )

    @staticmethod
    def check_rejects_bad_parameters(run):
        for kwargs in (
            dict(target_relative_ci=0.0),
            dict(min_runs=0),
            dict(min_runs=100, max_runs=50),
            dict(growth=1.0),
            dict(chunk_size=0),
            dict(confidence=1.0),
        ):
            with pytest.raises(InvalidParameterError):
                run(**kwargs)

    def test_rejects_bad_parameters(self, hot_platform):
        self.check_rejects_bad_parameters(
            chain_campaign(hot_platform, [10.0, 20.0])
        )

    def test_rejects_bad_parameters_parallel(self, hot_platform):
        self.check_rejects_bad_parameters(
            parallel_campaign(hot_platform, [10.0, 20.0])
        )


    @pytest.mark.parametrize("campaign", [chain_campaign, parallel_campaign])
    def test_bad_chunk_size_fails_before_any_work(
        self, hot_platform, campaign, monkeypatch
    ):
        import repro.simulation.adaptive as adaptive_mod
        import repro.simulation.parallel as parallel_mod

        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        run = campaign(hot_platform, [10.0, 20.0])
        monkeypatch.setattr(adaptive_mod, "compile_schedule", no_work)
        monkeypatch.setattr(parallel_mod, "simulate_parallel", no_work)
        with pytest.raises(InvalidParameterError):
            run(chunk_size=0, n_jobs=2)

class TestRunMonteCarloAdaptiveMode:
    @pytest.fixture
    def instance(self, hot_platform):
        chain = TaskChain([60.0] * 6)
        sol = optimize(chain, hot_platform, algorithm="admv")
        return chain, hot_platform, sol

    def test_target_ci_attaches_convergence(self, instance):
        chain, platform, sol = instance
        mc = run_monte_carlo(
            chain, platform, sol.schedule,
            runs=100_000, seed=3, target_ci=0.02, analytic=sol.expected_time,
        )
        assert mc.convergence is not None
        assert mc.convergence.converged
        assert mc.convergence.relative_half_width <= 0.02
        assert mc.samples.size == 0  # streaming: no sample retention
        assert mc.runs == mc.convergence.reps_used
        assert mc.agrees_with_analytic, mc.report()
        assert "adaptive campaign" in mc.report()
        assert "round 0" in mc.report()

    def test_runs_acts_as_hard_cap(self, instance):
        chain, platform, sol = instance
        mc = run_monte_carlo(
            chain, platform, sol.schedule, runs=150, seed=3, target_ci=1e-9
        )
        assert mc.runs == 150
        assert not mc.convergence.converged

    def test_scalar_engine_rejected(self, instance):
        chain, platform, sol = instance
        with pytest.raises(InvalidParameterError):
            run_monte_carlo(
                chain, platform, sol.schedule,
                runs=100, engine="scalar", target_ci=0.01,
            )

    def test_fixed_n_campaigns_unchanged(self, instance):
        chain, platform, sol = instance
        mc = run_monte_carlo(chain, platform, sol.schedule, runs=80, seed=1)
        assert mc.convergence is None
        assert mc.samples.size == 80


# ----------------------------------------------------------------------
# 3. breakdown accounting through the adaptive path
# ----------------------------------------------------------------------
class TestAdaptiveBreakdown:
    def test_streamed_totals_equal_batched_totals(self, hot_platform):
        """One fixed-size round streams the same accounting the exhaustive
        batch accumulates (identical seeding discipline, zero rounds of
        growth)."""
        chain = TaskChain([60.0] * 5)
        sol = optimize(chain, hot_platform, algorithm="admv")
        n = 500
        adaptive = run_adaptive(
            chain, hot_platform, sol.schedule,
            target_relative_ci=1.0,  # any round certifies: exactly min_runs
            min_runs=n, seed=9, chunk_size=128,
        )
        batch = simulate_batch(
            chain, hot_platform, sol.schedule, n, seed=9, chunk_size=128
        )
        assert adaptive.reps_used == n
        np.testing.assert_array_equal(
            adaptive.category_totals, batch.time_categories.sum(axis=1)
        )
        assert adaptive.moments.mean == pytest.approx(
            float(batch.makespans.mean()), rel=1e-13
        )

    def test_breakdown_means_match_analytic_components(self, hot_platform):
        """Simulated per-category means vs the Markov evaluator's expected
        time components (statistical, seed-fixed)."""
        chain = TaskChain([60.0] * 6)
        sol = optimize(chain, hot_platform, algorithm="admv")
        ev = evaluate_schedule(chain, hot_platform, sol.schedule)
        mc = run_monte_carlo(
            chain, hot_platform, sol.schedule,
            runs=40_000, seed=17, target_ci=0.005,
            analytic=sol.expected_time,
        )
        simulated = to_analytic_categories(mc.breakdown)
        assert set(simulated) == set(ev.components)
        total = sum(ev.components.values())
        for category, expected in ev.components.items():
            measured = simulated[category]
            # each category within 10% of its analytic expectation, or
            # negligible against the total makespan
            assert measured == pytest.approx(expected, rel=0.10) or (
                abs(measured - expected) < 0.002 * total
            ), f"{category}: measured {measured}, analytic {expected}"
        assert sum(simulated.values()) == pytest.approx(mc.mean, rel=1e-12)

    def test_report_renders_breakdown_by_default(self, hot_platform):
        chain = TaskChain([60.0] * 4)
        sol = optimize(chain, hot_platform, algorithm="admv")
        mc = run_monte_carlo(chain, hot_platform, sol.schedule, runs=50, seed=0)
        text = mc.report()
        assert "useful_work" in text
        assert "re_executed_work" in text
        assert "memory_checkpoint" in text
        assert "useful_work" not in mc.report(show_breakdown=False)
