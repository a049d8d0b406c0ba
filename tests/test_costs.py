"""Heterogeneous (per-task) cost model: unit tests + optimality oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains import TaskChain
from repro.core import evaluate_schedule, exhaustive_search, optimize
from repro.core.costs import COST_NAMES, CostProfile, cost_table, scaled_costs
from repro.core.evaluator import error_free_time
from repro.core.schedule import Action, Schedule
from repro.exceptions import InvalidParameterError
from repro.platforms import Platform
from repro.simulation import ScriptedErrorSource, run_monte_carlo, simulate_run

from repro.testing import random_chain, random_platform


def random_profile(rng: np.random.Generator, n: int) -> CostProfile:
    return CostProfile.from_arrays(
        n,
        CD=rng.uniform(5.0, 40.0, n),
        CM=rng.uniform(1.0, 8.0, n),
        RD=rng.uniform(5.0, 40.0, n),
        RM=rng.uniform(1.0, 8.0, n),
        Vg=rng.uniform(0.5, 6.0, n),
        Vp=rng.uniform(0.05, 0.4, n),
    )


class TestCostProfileConstruction:
    def test_uniform_matches_platform(self, hot_platform):
        profile = CostProfile.uniform(5, hot_platform)
        assert profile.n == 5
        assert profile.is_uniform()
        assert profile.CD[3] == hot_platform.CD
        assert profile.RD[0] == 0.0 and profile.RM[0] == 0.0

    def test_from_arrays_defaults(self):
        profile = CostProfile.from_arrays(3, CD=[10, 20, 30], CM=[1, 2, 3])
        assert list(profile.RD[1:]) == [10, 20, 30]
        assert list(profile.RM[1:]) == [1, 2, 3]
        assert list(profile.Vg[1:]) == [1, 2, 3]
        assert profile.Vp[2] == pytest.approx(0.02)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParameterError, match="one entry per task"):
            CostProfile.from_arrays(3, CD=[1, 2], CM=[1, 2, 3])

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            CostProfile.from_arrays(2, CD=[1, -1], CM=[1, 1])

    def test_scaled_takes_multipliers_as_given(self, hot_platform):
        profile = CostProfile.scaled(hot_platform, [1.0, 0.5, 4.0])
        assert profile.n == 3
        # NO mean normalisation: multiplier 1.0 pays the platform scalars
        assert profile.CD[1] == pytest.approx(hot_platform.CD)
        assert profile.CD[2] == pytest.approx(hot_platform.CD * 0.5)
        assert profile.Vg[3] == pytest.approx(hot_platform.Vg * 4.0)
        assert profile.RM[2] == pytest.approx(hot_platform.RM * 0.5)
        assert profile.RD[0] == 0.0  # the virtual T0 still restarts free

    def test_scaled_rejects_bad_multipliers(self, hot_platform):
        with pytest.raises(InvalidParameterError, match="> 0"):
            CostProfile.scaled(hot_platform, [1.0, 0.0])
        with pytest.raises(InvalidParameterError, match="> 0"):
            CostProfile.scaled(hot_platform, [1.0, float("nan")])
        with pytest.raises(InvalidParameterError, match="1-D"):
            CostProfile.scaled(hot_platform, [[1.0, 2.0]])

    def test_proportional_to_output(self, hot_platform):
        chain = TaskChain([10.0, 10.0, 10.0])
        profile = CostProfile.proportional_to_output(
            chain, hot_platform, [1.0, 2.0, 3.0]
        )
        # mean-normalised: middle task pays exactly the platform cost
        assert profile.CD[2] == pytest.approx(hot_platform.CD)
        assert profile.CD[3] == pytest.approx(hot_platform.CD * 1.5)
        assert not profile.is_uniform()

    def test_proportional_rejects_bad_sizes(self, hot_platform):
        chain = TaskChain([1.0, 1.0])
        with pytest.raises(InvalidParameterError):
            CostProfile.proportional_to_output(chain, hot_platform, [1.0])
        with pytest.raises(InvalidParameterError):
            CostProfile.proportional_to_output(chain, hot_platform, [1.0, 0.0])

    def test_describe(self, hot_platform):
        assert "uniform" in CostProfile.uniform(4, hot_platform).describe()
        hetero = CostProfile.from_arrays(2, CD=[1.0, 2.0], CM=[1.0, 1.0])
        assert "per-task" in hetero.describe()


_cost = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_multiplier = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def ragged_multipliers(draw):
    """A platform and 1-5 multiplier rows of 1-9 tasks each."""
    platform = Platform.from_costs(
        "drawn",
        lf=1e-3,
        ls=1e-3,
        CD=draw(_cost),
        CM=draw(_cost),
        RD=draw(_cost),
        RM=draw(_cost),
        Vg=draw(_cost),
        Vp=draw(_cost),
    )
    rows = draw(
        st.lists(st.lists(_multiplier, min_size=1, max_size=9), min_size=1, max_size=5)
    )
    return platform, rows, draw(_cost), draw(_cost)


class TestScaledCosts:
    """`scaled_costs` is the one builder of multiplier-scaled cost rows."""

    @settings(max_examples=150, deadline=None)
    @given(ragged_multipliers())
    def test_rows_are_the_scaled_profiles_bit_for_bit(self, case):
        platform, rows, rd0, rm0 = case
        table = scaled_costs(platform, rows)
        n_max = max(map(len, rows))
        assert table.shape == (len(rows), 6, n_max + 1)
        for row, mult in zip(table, rows):
            m = len(mult)
            profile = CostProfile.scaled(platform, mult)
            boundary = profile.with_boundary_recovery(rd0, rm0)
            opened = row[:, : m + 1].copy()
            opened[2:4, 0] = rd0, rm0  # the interval's T0 assignment
            for j, name in enumerate(COST_NAMES):
                assert row[j, : m + 1].tobytes() == getattr(profile, name).tobytes()
                assert opened[j].tobytes() == getattr(boundary, name).tobytes()
            assert not row[:, m + 1 :].any()
        if len(set(map(len, rows))) == 1:
            # a (K, n) array is the stack of its rows
            stacked = scaled_costs(platform, np.array(rows))
            assert stacked.tobytes() == table.tobytes()
        # cost_table's uniform rows are the rows of multiplier 1.0
        lengths = [len(mult) for mult in rows]
        uniform = cost_table(None, len(rows), lengths, platform)
        for row, m in zip(uniform, lengths):
            profile = CostProfile.uniform(m, platform)
            for j, name in enumerate(COST_NAMES):
                assert row[j, : m + 1].tobytes() == getattr(profile, name).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_multipliers(self, hot_platform, bad):
        for multipliers in ([[1.0], [2.0, bad]], np.array([[1.0, bad]])):
            with pytest.raises(InvalidParameterError, match="> 0 and finite"):
                scaled_costs(hot_platform, multipliers)
        with pytest.raises(InvalidParameterError, match="> 0 and finite"):
            CostProfile.scaled(hot_platform, [1.0, bad])
        with pytest.raises(InvalidParameterError, match="1-D"):
            CostProfile.scaled(hot_platform, [[1.0, 2.0]])
        with pytest.raises(InvalidParameterError, match="1-D"):
            CostProfile.scaled(hot_platform, [])

    def test_cost_table_names_the_bad_array(self, hot_platform):
        table = scaled_costs(hot_platform, [[1.0, 2.0]])
        for j, name in enumerate(COST_NAMES):
            bad = table.copy()
            bad[0, j, 1] = -1.0 if j % 2 else np.inf
            with pytest.raises(InvalidParameterError, match=f"^{name} costs"):
                cost_table(bad, 1, 2, hot_platform)


class TestUniformEquivalence:
    """costs=None and costs=CostProfile.uniform(...) must agree exactly."""

    @pytest.mark.parametrize("alg", ["adv_star", "admv_star", "admv"])
    def test_optimizers(self, hot_platform, alg):
        chain = TaskChain([40.0] * 7)
        profile = CostProfile.uniform(7, hot_platform)
        a = optimize(chain, hot_platform, algorithm=alg)
        b = optimize(chain, hot_platform, algorithm=alg, costs=profile)
        assert a.expected_time == b.expected_time
        assert a.schedule == b.schedule

    def test_evaluator(self, hot_platform):
        chain = TaskChain([30.0] * 5)
        sched = Schedule.from_positions(5, disk=[5], memory=[2], partial=[3])
        profile = CostProfile.uniform(5, hot_platform)
        a = evaluate_schedule(chain, hot_platform, sched).expected_time
        b = evaluate_schedule(
            chain, hot_platform, sched, costs=profile
        ).expected_time
        assert a == b

    def test_simulator(self, hot_platform):
        chain = TaskChain([30.0] * 4)
        sched = Schedule.from_positions(4, disk=[4], memory=[2])
        profile = CostProfile.uniform(4, hot_platform)
        src = ScriptedErrorSource(fail_stops=[None, 0.5], silents=[True])
        a = simulate_run(chain, hot_platform, sched, src)
        src2 = ScriptedErrorSource(fail_stops=[None, 0.5], silents=[True])
        b = simulate_run(chain, hot_platform, sched, src2, costs=profile)
        assert a.makespan == b.makespan


class TestHeterogeneousCorrectness:
    """DP == Markov == exhaustive with random per-task costs."""

    @pytest.mark.parametrize("alg", ["adv_star", "admv_star", "admv"])
    @pytest.mark.parametrize("seed", range(5))
    def test_dp_matches_markov(self, alg, seed):
        rng = np.random.default_rng(1000 + seed)
        chain = random_chain(rng, int(rng.integers(2, 9)))
        platform = random_platform(rng)
        profile = random_profile(rng, chain.n)
        sol = optimize(chain, platform, algorithm=alg, costs=profile)
        markov = evaluate_schedule(
            chain, platform, sol.schedule, costs=profile
        ).expected_time
        assert sol.expected_time == pytest.approx(markov, rel=1e-10)

    @pytest.mark.parametrize("alg", ["adv_star", "admv_star", "admv"])
    @pytest.mark.parametrize("seed", range(4))
    def test_dp_matches_exhaustive(self, alg, seed):
        rng = np.random.default_rng(2000 + seed)
        chain = random_chain(rng, int(rng.integers(2, 6)))
        platform = random_platform(rng)
        profile = random_profile(rng, chain.n)
        best, _ = exhaustive_search(
            chain, platform, algorithm=alg, costs=profile
        )
        sol = optimize(chain, platform, algorithm=alg, costs=profile)
        assert sol.expected_time == pytest.approx(best, rel=1e-10)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(77)
        chain = random_chain(rng, 6)
        platform = random_platform(rng)
        profile = random_profile(rng, chain.n)
        sol = optimize(chain, platform, algorithm="admv", costs=profile)
        mc = run_monte_carlo(
            chain,
            platform,
            sol.schedule,
            runs=2500,
            seed=5,
            confidence=0.999,
            analytic=sol.expected_time,
            costs=profile,
        )
        assert mc.agrees_with_analytic, mc.report()


class TestHeterogeneousBehaviour:
    def test_expensive_position_avoided(self):
        """A task whose checkpoint is outrageously expensive should not be
        memory-checkpointed when a uniform-cost optimum would pick it."""
        platform = Platform.from_costs(
            "hetero", lf=1e-3, ls=6e-3, CD=20.0, CM=2.0
        )
        chain = TaskChain([50.0] * 6)
        uniform_sol = optimize(chain, platform, algorithm="admv_star")
        mem_positions = [
            p for p in uniform_sol.schedule.memory_positions if p != 6
        ]
        assert mem_positions  # the uniform optimum uses intermediate ckpts
        target = mem_positions[0]
        CM = np.full(6, platform.CM)
        CM[target - 1] = 500.0  # make that position's checkpoint absurd
        profile = CostProfile.from_arrays(
            6, CD=np.full(6, platform.CD), CM=CM
        )
        hetero_sol = optimize(
            chain, platform, algorithm="admv_star", costs=profile
        )
        assert target not in [
            p for p in hetero_sol.schedule.memory_positions if p != 6
        ]

    def test_error_free_time_uses_profile(self, hot_platform):
        chain = TaskChain([10.0, 10.0])
        sched = Schedule([Action.MEMORY, Action.DISK])
        profile = CostProfile.from_arrays(
            2, CD=[0.0, 7.0], CM=[2.0, 3.0], Vg=[1.0, 1.5], Vp=[0.1, 0.1]
        )
        got = error_free_time(chain, hot_platform, sched, profile)
        assert got == pytest.approx(20.0 + (1.0 + 2.0) + (1.5 + 3.0 + 7.0))

    def test_cheap_everything_encourages_more_actions(self):
        platform = Platform.from_costs(
            "base", lf=1e-3, ls=5e-3, CD=30.0, CM=6.0
        )
        chain = TaskChain([50.0] * 8)
        expensive = optimize(chain, platform, algorithm="admv_star")
        cheap_profile = CostProfile.from_arrays(
            8,
            CD=np.full(8, 1.0),
            CM=np.full(8, 0.2),
            Vg=np.full(8, 0.2),
        )
        cheap = optimize(
            chain, platform, algorithm="admv_star", costs=cheap_profile
        )
        assert cheap.counts().memory >= expensive.counts().memory


class TestBoundaryRecovery:
    """`with_boundary_recovery` prices a disk interval as a standalone
    subchain; the full-chain optimum must equal the sum of its optimal
    disk intervals priced that way — exactly, for every DP (the sums
    associate differently, so the match is pinned at float-rounding
    precision, not bit equality)."""

    def test_ordinary_construction_still_fails_fast(self):
        with pytest.raises(InvalidParameterError, match="virtual T0"):
            CostProfile.from_arrays(
                2, CD=[1.0, 1.0], CM=[1.0, 1.0]
            ).__class__(
                CD=np.zeros(3),
                CM=np.zeros(3),
                RD=np.array([5.0, 0.0, 0.0]),  # nonzero T0 recovery
                RM=np.zeros(3),
                Vg=np.zeros(3),
                Vp=np.zeros(3),
            )

    def test_factory_validates_and_sets_boundary(self):
        platform = Platform.from_costs("b", lf=1e-3, ls=2e-3, CD=10.0, CM=2.0)
        base = CostProfile.uniform(4, platform)
        priced = base.with_boundary_recovery(platform.RD, platform.RM)
        assert priced.RD[0] == platform.RD and priced.RM[0] == platform.RM
        assert np.array_equal(priced.RD[1:], base.RD[1:])
        # restating the boundary on a priced profile works too
        again = priced.with_boundary_recovery(0.0)
        assert again.RD[0] == 0.0
        with pytest.raises(InvalidParameterError, match="boundary recovery"):
            base.with_boundary_recovery(-1.0)
        with pytest.raises(InvalidParameterError, match="boundary recovery"):
            base.with_boundary_recovery(float("inf"))

    @pytest.mark.parametrize("algorithm", ["adv_star", "admv_star", "admv"])
    def test_disk_interval_decomposition_is_exact(self, algorithm):
        platform = Platform.from_costs(
            "intense", lf=8e-4, ls=2e-3, CD=25.0, CM=5.0, r=0.8
        )
        rng = np.random.default_rng(7)
        weights = rng.uniform(20.0, 120.0, size=18)
        chain = TaskChain(list(weights))
        full = optimize(chain, platform, algorithm=algorithm)
        disks = full.schedule.disk_positions
        assert disks[-1] == chain.n
        assert len(disks) >= 2  # the decomposition must be non-trivial
        total = 0.0
        previous = 0
        for d in disks:
            sub = TaskChain(list(weights[previous:d]))
            costs = CostProfile.uniform(sub.n, platform)
            if previous > 0:  # interval opens at a real disk checkpoint
                costs = costs.with_boundary_recovery(platform.RD, platform.RM)
            total += optimize(
                sub, platform, algorithm=algorithm, costs=costs
            ).expected_time
            previous = d
        assert total == pytest.approx(full.expected_time, rel=1e-12, abs=0.0)
