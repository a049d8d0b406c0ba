"""Statistics helpers for Monte-Carlo makespan samples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "SampleSummary",
    "summarize",
    "confidence_interval",
    "t_critical",
    "certified_agreement",
]


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of a sample of makespans.

    ``ci_low``/``ci_high`` bound the *mean* at the requested confidence
    level (Student-t interval).
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    q05: float
    q95: float
    confidence: float
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        """Half width of the confidence interval on the mean.

        ``inf`` for a single-sample summary (no variance estimate exists,
        so nothing is certified); 0 for a zero-variance sample.
        """
        if math.isinf(self.ci_high):
            return math.inf
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_ci_half_width(self) -> float:
        """CI half width over ``|mean|`` (``inf`` when undefined)."""
        if self.mean == 0.0:
            return 0.0 if self.ci_half_width == 0.0 else math.inf
        return self.ci_half_width / abs(self.mean)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} ± {self.ci_half_width:.2f} "
            f"({self.confidence:.0%} CI) std={self.std:.2f} "
            f"[{self.minimum:.2f}, {self.maximum:.2f}]"
        )


def t_critical(count: int, confidence: float) -> float:
    """Two-sided Student-t critical value for a mean over ``count`` samples.

    ``inf`` for ``count < 2`` — the variance is not estimable, so any
    finite interval would be falsely certain.
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    if count < 2:
        return math.inf
    return _t_ppf(int(count), float(confidence))


@lru_cache(maxsize=1024)
def _t_ppf(count: int, confidence: float) -> float:
    # an adaptive campaign asks for a handful of (count, confidence)
    # pairs thousands of times; scipy's ppf costs ~70 us a call on a
    # 2-vCPU Xeon guest.  SciPy loads on first use: its import takes ~1 s.
    from scipy import stats

    return float(stats.t.ppf(0.5 + confidence / 2.0, df=count - 1))


def confidence_interval(
    samples: np.ndarray, confidence: float = 0.99
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of ``samples``.

    Degenerate cases are well-defined rather than NaN or falsely tight:

    * a single sample has no variance estimate (0 degrees of freedom), so
      the interval is ``(-inf, inf)`` — one replication certifies nothing;
    * a zero-variance sample (n >= 2) yields the exact ``(x, x)``: the
      Student-t interval with ``s = 0`` genuinely collapses.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise InvalidParameterError("cannot build a confidence interval from 0 samples")
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    mean = float(samples.mean())
    if samples.size == 1:
        return -math.inf, math.inf
    sem = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    if sem == 0.0:
        return mean, mean
    t = t_critical(int(samples.size), confidence)
    return mean - t * sem, mean + t * sem


def certified_agreement(summary: SampleSummary, analytic: float) -> bool:
    """The single definition of analytic-vs-sample agreement.

    True when ``analytic`` lies inside a *bounded* CI on the mean.  An
    unbounded interval (single replication) contains everything, so it
    never counts as agreement — containment must certify, not be vacuous.
    Used by both fixed-N and adaptive campaign results so the two can
    never diverge on what "agrees" means.
    """
    return bool(
        not math.isnan(analytic)
        and math.isfinite(summary.ci_half_width)
        and summary.contains(analytic)
    )


def summarize(samples: np.ndarray, confidence: float = 0.99) -> SampleSummary:
    """Build a :class:`SampleSummary` from raw makespan samples."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise InvalidParameterError("cannot summarize 0 samples")
    lo, hi = confidence_interval(samples, confidence)
    return SampleSummary(
        count=int(samples.size),
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
        minimum=float(samples.min()),
        maximum=float(samples.max()),
        median=float(np.median(samples)),
        q05=float(np.quantile(samples, 0.05)),
        q95=float(np.quantile(samples, 0.95)),
        confidence=confidence,
        ci_low=lo,
        ci_high=hi,
    )
