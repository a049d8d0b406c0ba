"""Regression tests for degenerate confidence-interval cases.

A single replication has no variance estimate (0 degrees of freedom), so
its Student-t interval must be ``(-inf, inf)`` — never a zero-width
interval claiming perfect precision (that would make the adaptive
orchestrator stop after one sample).  Zero-variance samples with n >= 2
legitimately collapse to an exact interval.  All values must stay finite
numbers or infinities — never NaN.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.simulation import confidence_interval, summarize, t_critical


class TestSingleSample:
    def test_ci_is_unbounded(self):
        lo, hi = confidence_interval(np.array([42.0]), 0.99)
        assert lo == -math.inf and hi == math.inf

    def test_summary_fields_are_well_defined(self):
        s = summarize(np.array([42.0]))
        assert s.count == 1
        assert s.mean == 42.0
        assert s.std == 0.0
        assert s.minimum == s.maximum == s.median == 42.0
        assert not any(
            math.isnan(v)
            for v in (s.mean, s.std, s.minimum, s.maximum, s.median)
        )

    def test_half_width_infinite_never_nan(self):
        s = summarize(np.array([42.0]))
        assert math.isinf(s.ci_half_width)
        assert math.isinf(s.relative_ci_half_width)

    def test_contains_everything(self):
        # An unbounded interval certifies nothing but excludes nothing.
        s = summarize(np.array([42.0]))
        assert s.contains(0.0) and s.contains(1e12)

    def test_zero_mean_single_sample(self):
        s = summarize(np.array([0.0]))
        assert s.mean == 0.0
        assert math.isinf(s.ci_half_width)


class TestZeroVariance:
    def test_ci_collapses_exactly(self):
        lo, hi = confidence_interval(np.full(10, 3.0), 0.99)
        assert lo == hi == 3.0

    def test_summary_zero_width(self):
        s = summarize(np.full(5, 7.5))
        assert s.ci_half_width == 0.0
        assert s.relative_ci_half_width == 0.0
        assert s.contains(7.5) and not s.contains(7.5001)

    def test_all_zero_samples(self):
        s = summarize(np.zeros(4))
        assert s.mean == 0.0
        assert s.ci_half_width == 0.0
        assert s.relative_ci_half_width == 0.0


class TestTCritical:
    def test_undefined_below_two_samples(self):
        assert math.isinf(t_critical(1, 0.99))
        assert math.isinf(t_critical(0, 0.99))

    def test_decreases_with_count(self):
        assert t_critical(2, 0.99) > t_critical(10, 0.99) > t_critical(1000, 0.99)

    def test_increases_with_confidence(self):
        assert t_critical(10, 0.999) > t_critical(10, 0.95)

    def test_rejects_bad_confidence(self):
        for _ in range(2):  # the memo must not swallow the check
            with pytest.raises(InvalidParameterError):
                t_critical(10, 1.0)
            with pytest.raises(InvalidParameterError):
                t_critical(10, 0.0)

    def test_memo_matches_scipy_bit_for_bit(self):
        from scipy import stats as scipy_stats

        for count in (2, 3, 17, 1000, 2**20):
            for confidence in (0.5, 0.95, 0.99, 0.999):
                expected = float(
                    scipy_stats.t.ppf(0.5 + confidence / 2.0, df=count - 1)
                )
                for _ in range(2):  # the cold call, then the memo
                    assert t_critical(count, confidence) == expected
                assert t_critical(np.int64(count), confidence) == expected


class TestRegularSamples:
    def test_relative_half_width_matches_absolute(self):
        rng = np.random.default_rng(3)
        s = summarize(rng.normal(200.0, 10.0, 500), 0.95)
        assert s.relative_ci_half_width == pytest.approx(
            s.ci_half_width / s.mean
        )
