"""Regression tests: no RuntimeWarnings from extreme-rate numerics.

The hypothesis suite found subnormal error rates (λ ~ 1e-313) whose
``1/λ`` overflowed inside :func:`repro.core.closed_form.t_lost` and the
:class:`repro.core.factors.PairFactors` constructor, leaking
``RuntimeWarning: overflow encountered in divide`` even though the series
fallbacks produce the right values.  Large ``λW`` similarly overflowed
``e^{λW}`` on the way to the correct ``T_lost -> 1/λ`` limit.  These tests
replay the falsifying inputs (and the large-λW regime) with warnings
promoted to errors and pin the limiting values.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.chains import TaskChain
from repro.core import evaluate_schedule, optimize, optimize_batch
from repro.core.closed_form import phi, t_lost
from repro.core.factors import PairFactors
from repro.core.schedule import Schedule
from repro.exceptions import InvalidParameterError
from repro.experiments.dag_search import stress_platform
from repro.platforms import Platform

#: The smallest falsifying rates hypothesis produced (subnormal doubles).
SUBNORMAL_RATES = [2.2250738585e-313, 5e-324, 2.225073858507203e-309]


def _subnormal_platform(lf: float) -> Platform:
    return Platform.from_costs("subnormal", lf=lf, ls=0.0, CD=1.0, CM=1.0, r=0.0)


@pytest.fixture(autouse=True)
def _promote_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestSubnormalRates:
    """The suite's falsifying inputs: λ_f subnormal, W = 1."""

    @pytest.mark.parametrize("lf", SUBNORMAL_RATES)
    def test_t_lost_is_half_segment(self, lf):
        assert t_lost(lf, 1.0) == pytest.approx(0.5)
        out = t_lost(lf, np.array([0.0, 1.0, 250.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 125.0])

    @pytest.mark.parametrize("lf", SUBNORMAL_RATES)
    def test_phi_is_segment_weight(self, lf):
        assert phi(lf, 1.0) == pytest.approx(1.0)
        np.testing.assert_allclose(
            phi(lf, np.array([0.0, 1.0, 250.0])), [0.0, 1.0, 250.0]
        )

    @pytest.mark.parametrize("lf", SUBNORMAL_RATES)
    def test_pair_factors_construct_cleanly(self, lf):
        factors = PairFactors(TaskChain([1.0]), _subnormal_platform(lf))
        assert factors.tlost[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("lf", SUBNORMAL_RATES)
    def test_evaluate_and_optimize_run_cleanly(self, lf):
        chain = TaskChain([1.0])
        platform = _subnormal_platform(lf)
        ev = evaluate_schedule(chain, platform, Schedule.from_string("D"))
        assert np.isfinite(ev.expected_time)
        sol = optimize(chain, platform, algorithm="admv")
        assert np.isfinite(sol.expected_time)


class TestLargeLambdaW:
    """λW beyond the e^{λW} overflow threshold (~709)."""

    def test_t_lost_saturates_to_inverse_rate(self):
        lam = 10.0
        out = t_lost(lam, np.array([1.0, 100.0, 1e6]))
        # e^{λW} - 1 overflows to inf; the limit is exactly 1/λ.
        assert out[-1] == pytest.approx(1.0 / lam)
        assert np.all(np.isfinite(out))

    def test_phi_saturates_to_inf(self):
        assert phi(10.0, 1e6) == np.inf

    def test_pair_factors_large_rates(self):
        platform = Platform.from_costs(
            "hot-extreme", lf=5.0, ls=5.0, CD=1.0, CM=1.0
        )
        factors = PairFactors(TaskChain([500.0, 500.0]), platform)
        # Saturated exponentials are inf, the lost-time limit is 1/λ_f.
        assert np.isinf(factors.es[0, 2])
        assert factors.tlost[0, 2] == pytest.approx(1.0 / 5.0)


class TestOverflowingChains:
    """Segments whose λW overflows float64 make the DP optimum inf or
    NaN; the optimizers refuse it with a typed error instead of
    returning it."""

    CHAIN = [13000.0, 832000.0]

    @pytest.mark.parametrize("algorithm", ["adv_star", "admv_star", "admv"])
    def test_optimize_raises(self, algorithm):
        with pytest.raises(InvalidParameterError, match="overflow"):
            optimize(TaskChain(self.CHAIN), stress_platform(), algorithm=algorithm)

    @pytest.mark.parametrize("algorithm", ["adv_star", "admv_star", "admv"])
    def test_optimize_batch_raises(self, algorithm):
        weights = np.array([[1.0, 2.0], self.CHAIN])
        with pytest.raises(InvalidParameterError, match="overflow"):
            optimize_batch(weights, stress_platform(), algorithm)
