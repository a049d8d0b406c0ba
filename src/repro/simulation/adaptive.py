"""Adaptive-precision Monte-Carlo orchestration (sequential sampling).

Fixed-replication campaigns are either wastefully large (realistic Table I
platforms reach sub-percent precision within a few hundred replications)
or statistically too small (hot synthetic platforms need tens of
thousands).  :func:`run_adaptive` turns the batched engine into a
*precision-targeted validation service*: it runs the compiled schedule in
**rounds** of geometrically growing total size and stops as soon as the
relative Student-t confidence-interval half-width on the mean makespan
reaches a target (subject to hard ``min_runs`` / ``max_runs`` caps).

One round driver runs every adaptive campaign.  It owns the campaign
``SeedSequence``, the round schedule, the running state, the stopping
rule, the ``mc.*`` spans, metrics and events, and the
:class:`AdaptiveResult`.  What differs per model is a **round sampler**
that draws ``n`` replications from the campaign sequence and returns them
reduced to O(1) records:

* the chain sampler (:func:`run_adaptive`) runs the lockstep kernel one
  chunk per record, sharded over a lazily started process pool;
* the p-worker sampler (:func:`run_adaptive_parallel`) runs one
  :func:`~repro.simulation.parallel.simulate_parallel` campaign a round;
* the join sampler of :mod:`repro.simulation.certify` samples
  :func:`repro.dag.join.simulate_join` makespans.

No full sample is ever retained.  A record carries

* :class:`StreamingMoments` — count/mean/M2/min/max, merged with the
  parallel (Chan et al.) variance-merge formula across chunks, rounds and
  ``n_jobs`` worker shards;
* per-category time totals (:data:`~repro.simulation.breakdown.
  TIME_CATEGORIES`) and event-counter sums,

so the orchestrator's memory footprint is O(chunk), independent of how
many replications the target ends up requiring.

Reproducibility follows the batch engine's discipline: chunk ``c`` of the
campaign draws from the ``c``-th child of the campaign ``SeedSequence``
(chunks are numbered across rounds), so results are bit-identical for a
given ``(seed, chunk_size, round schedule)`` whatever ``n_jobs`` is.

The returned :class:`AdaptiveResult` carries a convergence report —
rounds run, replications spent, final certified half-width — which the
CLI and the figure drivers surface as the "Monte-Carlo agreement stamp".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidParameterError
from ..obs import (
    estimate_eta,
    events as _events,
    get_logger,
    metrics as _metrics,
    process_pool,
    span as _span,
)
from ..platforms import Platform
from ..core.costs import CostProfile
from ..core.schedule import Schedule
from .backend import get_backend
from .batch import (
    DEFAULT_CHUNK_SIZE,
    _run_chunks,
    _seed_sequence,
    run_compiled,
)
from .breakdown import TIME_CATEGORIES
from .compile import CompiledSchedule, compile_schedule
from .engine import DEFAULT_MAX_ATTEMPTS
from .stats import SampleSummary, certified_agreement, t_critical

__all__ = [
    "StreamingMoments",
    "AdaptiveRound",
    "AdaptiveResult",
    "run_adaptive",
    "run_adaptive_parallel",
    "DEFAULT_TARGET_RELATIVE_CI",
    "DEFAULT_MIN_RUNS",
    "DEFAULT_MAX_RUNS",
]

logger = get_logger(__name__)

#: Default target: certify the mean makespan to a 1% relative CI half-width.
DEFAULT_TARGET_RELATIVE_CI = 0.01
#: Floor on replications before a stop is allowed.  Makespans on realistic
#: (Table I) platforms are heavily right-skewed — most runs are error-free
#: and deterministic, rare error hits add large costs — so a small first
#: round that happens to miss the tail underestimates both mean and
#: variance and would certify a biased value.  At 400 replications every
#: Table I platform has sampled its error tail (tens of silent-error hits
#: in expectation), which restores the t-interval's coverage.
DEFAULT_MIN_RUNS = 400
#: Hard cap on total replications (the campaign reports non-convergence
#: rather than running forever on an unreachable target).
DEFAULT_MAX_RUNS = 1_000_000


@dataclass(frozen=True)
class StreamingMoments:
    """Streaming sample moments: count, mean, M2 (plus min/max).

    Supports Welford-style accumulation from sample blocks and the
    parallel-variance merge, so chunk summaries combine into the exact
    moments of the concatenated sample (to floating-point associativity).
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "StreamingMoments":
        """Reduce a block of samples to its moments."""
        a = np.asarray(samples, dtype=np.float64)
        if a.size == 0:
            return cls()
        mean = float(a.mean())
        m2 = float(np.square(a - mean).sum())
        return cls(
            count=int(a.size),
            mean=mean,
            m2=m2,
            minimum=float(a.min()),
            maximum=float(a.max()),
        )

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two disjoint summaries (Chan et al. parallel merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return StreamingMoments(
            count=n,
            mean=mean,
            m2=m2,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 when fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean (0 when fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self.std / math.sqrt(self.count)

    def half_width(self, confidence: float) -> float:
        """Student-t CI half-width on the mean.

        Mirrors :func:`repro.simulation.stats.confidence_interval`'s
        degenerate cases: ``inf`` below two samples, 0 at zero variance.
        """
        if self.count < 2:
            return math.inf
        sem = self.sem
        if sem == 0.0:
            return 0.0
        return t_critical(self.count, confidence) * sem

    def relative_half_width(self, confidence: float) -> float:
        """Half-width over ``|mean|`` — the adaptive stopping criterion."""
        hw = self.half_width(confidence)
        if hw == 0.0:
            return 0.0
        if self.mean == 0.0:
            return math.inf
        return hw / abs(self.mean)

    def ci(self, confidence: float) -> tuple[float, float]:
        hw = self.half_width(confidence)
        if math.isinf(hw):
            return -math.inf, math.inf
        return self.mean - hw, self.mean + hw

    def to_summary(self, confidence: float) -> SampleSummary:
        """A :class:`SampleSummary` view (quantiles are NaN: not streamed)."""
        lo, hi = self.ci(confidence)
        return SampleSummary(
            count=self.count,
            mean=self.mean,
            std=self.std,
            minimum=self.minimum,
            maximum=self.maximum,
            median=float("nan"),
            q05=float("nan"),
            q95=float("nan"),
            confidence=confidence,
            ci_low=lo,
            ci_high=hi,
        )


def _validate_adaptive_params(
    target_relative_ci: float,
    min_runs: int,
    max_runs: int,
    growth: float,
    confidence: float,
    chunk_size: int = 1,
) -> None:
    """Reject a round rule the driver cannot run (checked before any work);
    ``chunk_size`` is the chunked samplers' grain."""
    if not 0.0 < target_relative_ci:
        raise InvalidParameterError(
            f"target_relative_ci must be > 0, got {target_relative_ci!r}"
        )
    if min_runs < 1:
        raise InvalidParameterError(f"min_runs must be >= 1, got {min_runs}")
    if max_runs < min_runs:
        raise InvalidParameterError(
            f"max_runs ({max_runs}) must be >= min_runs ({min_runs})"
        )
    if growth <= 1.0:
        raise InvalidParameterError(f"growth must be > 1, got {growth!r}")
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    t_critical(2, confidence)  # validates the confidence level


#: Event counters summed over a campaign's replications.
_COUNTERS = (
    "fail_stop_errors",
    "silent_errors",
    "silent_detected",
    "silent_missed",
    "attempts",
)


@dataclass(frozen=True)
class _ChunkStats:
    """A block of replications reduced to O(1) state: what a round
    sampler returns and what worker processes ship back."""

    moments: StreamingMoments = StreamingMoments()
    category_totals: np.ndarray = field(
        default_factory=lambda: np.zeros(len(TIME_CATEGORIES))
    )
    fail_stop_errors: int = 0
    silent_errors: int = 0
    silent_detected: int = 0
    silent_missed: int = 0
    attempts: int = 0
    steps: int = 0

    @classmethod
    def of(cls, batch, **fields) -> "_ChunkStats":
        """Reduce a chain or p-worker batch result (``fields`` override,
        e.g. ``category_totals``, which are zero otherwise)."""
        return cls(
            moments=StreamingMoments.from_samples(batch.makespans),
            steps=batch.steps,
            **{key: int(getattr(batch, key).sum()) for key in _COUNTERS},
            **fields,
        )


def _chunk_stats(
    compiled: CompiledSchedule,
    child: np.random.SeedSequence,
    n: int,
    max_attempts: int,
    backend: str,
) -> _ChunkStats:
    """Worker entry point (module-level so it pickles for ``n_jobs``)."""
    batch = run_compiled(
        compiled, n, np.random.default_rng(child), max_attempts, backend
    )
    return _ChunkStats.of(batch, category_totals=batch.time_categories.sum(axis=1))


def _finite(x, default):
    """``x``, or ``default`` in place of a non-finite float."""
    return x if math.isfinite(x) else default


def _record_round(
    sp, reg, bus, r: "AdaptiveRound", *, target: float, elapsed_s: float
) -> None:
    """Stamp one round's stats onto its span, the metrics registry, and
    the ambient event bus (``mc.round``, carrying the ETA estimate).

    Non-finite CI widths (first round with < 2 samples) are stringified
    for the trace and nulled for the event payload so both stay strictly
    JSON-serializable.
    """
    stats = asdict(r)
    sp.set(**{k: _finite(v, "inf") for k, v in stats.items()})
    reg.counter("mc.rounds").inc()
    reg.counter("mc.replications").inc(r.reps)
    if bus.enabled:
        bus.emit(
            "mc.round",
            **{k: _finite(v, None) for k, v in stats.items()},
            target=target,
            **estimate_eta(
                r.total_reps, r.relative_half_width, target, elapsed_s
            ),
        )


@dataclass(frozen=True)
class AdaptiveRound:
    """Convergence-report entry for one sampling round."""

    index: int
    reps: int  #: replications added this round
    total_reps: int  #: cumulative replications after the round
    mean: float  #: running mean makespan (s)
    half_width: float  #: CI half-width on the mean (s)
    relative_half_width: float  #: half-width / mean — the stop criterion


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of an adaptive-precision campaign.

    ``converged`` is True when the target relative half-width was reached
    within the caps; otherwise the campaign stopped at ``max_runs`` and
    the achieved precision is whatever ``relative_half_width`` reports.
    """

    target_relative_ci: float
    confidence: float
    converged: bool
    moments: StreamingMoments
    rounds: tuple[AdaptiveRound, ...]
    category_totals: np.ndarray
    fail_stop_errors: int
    silent_errors: int
    silent_detected: int
    silent_missed: int
    attempts: int
    steps: int
    analytic: float = float("nan")
    min_runs: int = DEFAULT_MIN_RUNS
    max_runs: int = DEFAULT_MAX_RUNS

    @property
    def reps_used(self) -> int:
        return self.moments.count

    @property
    def mean(self) -> float:
        return self.moments.mean

    @property
    def half_width(self) -> float:
        return self.moments.half_width(self.confidence)

    @property
    def relative_half_width(self) -> float:
        return self.moments.relative_half_width(self.confidence)

    @property
    def summary(self) -> SampleSummary:
        return self.moments.to_summary(self.confidence)

    def breakdown_means(self) -> dict[str, float]:
        """Mean seconds per replication for each accounting category."""
        n = max(self.reps_used, 1)
        return {
            c: float(self.category_totals[k]) / n
            for k, c in enumerate(TIME_CATEGORIES)
        }

    @property
    def agrees_with_analytic(self) -> bool:
        """True when the analytic value lies inside a *bounded* certified CI
        (see :func:`~repro.simulation.stats.certified_agreement` — the
        same rule fixed-N campaigns use)."""
        return certified_agreement(self.summary, self.analytic)

    @property
    def relative_gap(self) -> float:
        if math.isnan(self.analytic) or self.analytic == 0.0:
            return float("nan")
        return (self.mean - self.analytic) / self.analytic

    def convergence_report(self) -> str:
        """Multi-line rounds/reps/precision report."""
        status = (
            f"certified ±{self.relative_half_width:.3%}"
            if self.converged
            else f"NOT CONVERGED (reached ±{self.relative_half_width:.3%} "
            f"at the {self.max_runs}-replication cap)"
        )
        lines = [
            f"adaptive campaign: {status} at {self.confidence:.0%} confidence "
            f"(target ±{self.target_relative_ci:.3%}) — "
            f"{len(self.rounds)} round(s), {self.reps_used} replications"
        ]
        for r in self.rounds:
            hw = (
                "inf"
                if math.isinf(r.relative_half_width)
                else f"{r.relative_half_width:.3%}"
            )
            lines.append(
                f"  round {r.index}: +{r.reps} reps (total {r.total_reps}) "
                f"mean={r.mean:.2f}s ±{hw}"
            )
        return "\n".join(lines)


def _run_rounds(
    sample,
    name: str,
    *,
    target_relative_ci: float,
    confidence: float,
    min_runs: int,
    max_runs: int,
    growth: float,
    seed: int | np.random.SeedSequence | None,
    analytic: float,
    **span_args,
) -> AdaptiveResult:
    """The round loop every adaptive campaign runs.

    ``sample(seed_seq, n)`` draws ``n`` replications from the campaign
    ``SeedSequence`` and returns their :class:`_ChunkStats` in the order
    they are folded into the running state (moment merges are not
    associative, so the order is part of the result).  The rounds grow
    the total to ``min_runs``, then to ``growth`` times the total, capped
    at ``max_runs``; the campaign stops once ``min_runs`` are in and the
    relative CI half-width is at most ``target_relative_ci``.  The rule's
    parameters are validated by the caller, before any work.
    """
    seed_seq = _seed_sequence(seed)
    moments = StreamingMoments()
    category_totals = np.zeros(len(TIME_CATEGORIES), dtype=np.float64)
    counters = dict.fromkeys(_COUNTERS, 0)
    steps = 0
    rounds: list[AdaptiveRound] = []
    reg = _metrics()
    bus = _events()
    t0 = perf_counter()
    with _span(
        "mc.adaptive",
        target_relative_ci=target_relative_ci,
        confidence=confidence,
        **span_args,
    ):
        total = 0
        next_total = min(min_runs, max_runs)
        while True:
            round_n = next_total - total
            with _span("mc.round") as sp:
                for s in sample(seed_seq, round_n):
                    moments = moments.merge(s.moments)
                    category_totals += s.category_totals
                    for key in _COUNTERS:
                        counters[key] += getattr(s, key)
                    steps = max(steps, s.steps)
                total += round_n
                rel = moments.relative_half_width(confidence)
                rounds.append(
                    AdaptiveRound(
                        index=len(rounds),
                        reps=round_n,
                        total_reps=total,
                        mean=moments.mean,
                        half_width=moments.half_width(confidence),
                        relative_half_width=rel,
                    )
                )
                _record_round(
                    sp,
                    reg,
                    bus,
                    rounds[-1],
                    target=target_relative_ci,
                    elapsed_s=perf_counter() - t0,
                )
            converged = total >= min_runs and rel <= target_relative_ci
            if converged or total >= max_runs:
                break
            next_total = min(max_runs, max(total + 1, math.ceil(total * growth)))
    if converged:
        reg.counter("mc.converged").inc()
    if bus.enabled:
        bus.emit(
            "mc.converged" if converged else "mc.capped",
            total_reps=total,
            rounds=len(rounds),
            mean=moments.mean,
            relative_half_width=_finite(rel, None),
            target=target_relative_ci,
            wall_s=perf_counter() - t0,
        )
    logger.debug(
        "%s: converged=%s rounds=%d reps=%d rel_hw=%.4g",
        name,
        converged,
        len(rounds),
        total,
        rel,
    )
    return AdaptiveResult(
        target_relative_ci=target_relative_ci,
        confidence=confidence,
        converged=converged,
        moments=moments,
        rounds=tuple(rounds),
        category_totals=category_totals,
        analytic=analytic,
        min_runs=min_runs,
        max_runs=max_runs,
        steps=steps,
        **counters,
    )


def run_adaptive(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    *,
    target_relative_ci: float = DEFAULT_TARGET_RELATIVE_CI,
    confidence: float = 0.99,
    min_runs: int = DEFAULT_MIN_RUNS,
    max_runs: int = DEFAULT_MAX_RUNS,
    growth: float = 2.0,
    seed: int | np.random.SeedSequence | None = 0,
    costs: CostProfile | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_jobs: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    analytic: float = float("nan"),
    backend: str | None = None,
) -> AdaptiveResult:
    """Simulate ``schedule`` until the mean makespan is certified.

    Rounds of replications are drawn with geometrically growing cumulative
    size (``min_runs``, then ``growth`` times the running total) until the
    relative CI half-width on the mean reaches ``target_relative_ci`` —
    never before ``min_runs`` replications, never beyond ``max_runs``.

    Parameters mirror :func:`~repro.simulation.batch.simulate_batch` where
    shared (including the array-API ``backend`` the lockstep kernel runs
    on); ``analytic`` optionally attaches the reference expectation the
    certified interval is checked against.
    """
    _validate_adaptive_params(
        target_relative_ci, min_runs, max_runs, growth, confidence, chunk_size
    )
    name = get_backend(backend).name  # resolve (and fail) before any work
    compiled = compile_schedule(chain, platform, schedule, costs)
    shard = n_jobs is not None and n_jobs > 1
    # The worker pool is created lazily on the first multi-chunk round:
    # campaigns converging within one chunk (the common case on Table I
    # platforms) never pay the process spawns.
    pool = None

    def sample(seed_seq: np.random.SeedSequence, n: int) -> list[_ChunkStats]:
        # one record per chunk; chunks are numbered across rounds
        nonlocal pool
        if shard and pool is None and n > chunk_size:
            pool = process_pool(n_jobs)
        return _run_chunks(
            _chunk_stats,
            compiled,
            seed_seq,
            n,
            chunk_size,
            max_attempts,
            name,
            n_jobs,
            pool,
        )

    try:
        return _run_rounds(
            sample,
            "run_adaptive",
            target_relative_ci=target_relative_ci,
            confidence=confidence,
            min_runs=min_runs,
            max_runs=max_runs,
            growth=growth,
            seed=seed,
            analytic=analytic,
        )
    finally:
        if pool is not None:
            pool.shutdown()


def run_adaptive_parallel(
    plan,
    platform: Platform,
    *,
    target_relative_ci: float = DEFAULT_TARGET_RELATIVE_CI,
    confidence: float = 0.99,
    min_runs: int = DEFAULT_MIN_RUNS,
    max_runs: int = DEFAULT_MAX_RUNS,
    growth: float = 2.0,
    seed: int | np.random.SeedSequence | None = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_jobs: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    analytic: float = float("nan"),
    backend: str | None = None,
) -> AdaptiveResult:
    """Adaptive-precision campaign over a p-worker :class:`~repro.
    simulation.parallel.ParallelPlan`.

    The parallel analogue of :func:`run_adaptive`: rounds of
    :func:`~repro.simulation.parallel.simulate_parallel` campaigns grow
    geometrically until the relative Student-t CI half-width on the mean
    *wall-clock* makespan reaches ``target_relative_ci``.  All rounds
    draw from one campaign ``SeedSequence`` (each round's chunks consume
    the next children), so a campaign is reproducible for a given
    ``(seed, chunk_size, round schedule)`` whatever ``n_jobs`` is —
    though, unlike fixed-``n_runs`` campaigns, the sample depends on the
    round schedule itself.

    ``category_totals`` / error counters aggregate over every busy
    worker's busy trajectory; ``attempts`` counts segment attempts
    summed over workers and replications.
    """
    from .parallel import simulate_parallel  # local: avoids import cycle

    _validate_adaptive_params(
        target_relative_ci, min_runs, max_runs, growth, confidence, chunk_size
    )
    get_backend(backend)  # resolve (and fail) before any work

    def sample(seed_seq: np.random.SeedSequence, n: int) -> list[_ChunkStats]:
        # One simulate_parallel campaign a round.  Its makespans reduce in
        # one block, and each busy worker's category totals come back as
        # a record of their own, in worker order: summing the workers
        # first would change the bits of the running total.
        batch = simulate_parallel(
            plan,
            platform,
            n,
            seed=seed_seq,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
            max_attempts=max_attempts,
            backend=backend,
        )
        return [_ChunkStats.of(batch)] + [
            _ChunkStats(category_totals=res.time_categories.sum(axis=1))
            for res in batch.worker_results
            if res is not None
        ]

    return _run_rounds(
        sample,
        "run_adaptive_parallel",
        target_relative_ci=target_relative_ci,
        confidence=confidence,
        min_runs=min_runs,
        max_runs=max_runs,
        growth=growth,
        seed=seed,
        analytic=analytic,
        parallel=True,
    )
