"""Monte-Carlo estimation of a schedule's expected makespan.

Three campaign modes share one entry point, :func:`run_monte_carlo`:

* ``engine="batch"`` (default) — the vectorized lockstep engine of
  :mod:`repro.simulation.batch`, which advances every replication at once
  with NumPy and shards chunks across processes via ``n_jobs``; this is
  the production path, orders of magnitude faster than the scalar loop;
* ``engine="scalar"`` — one :func:`repro.simulation.engine.simulate_run`
  per replication with an independent child stream per run; kept as the
  trusted oracle the batched engine is cross-validated against;
* ``target_ci=<fraction>`` — the adaptive-precision orchestrator
  (:mod:`repro.simulation.adaptive`): instead of a fixed replication
  count, the campaign runs batched rounds until the relative CI
  half-width on the mean reaches the target (``runs`` then acts as the
  hard replication cap), and the result carries the convergence report.

Every mode reports the per-category time breakdown
(:data:`~repro.simulation.breakdown.TIME_CATEGORIES`): the batched paths
accumulate it vectorized in the lockstep kernel, the scalar path
aggregates it from run traces — the two are cross-validated bitwise in
the test suite.  When an analytic reference is supplied the result also
carries the agreement check used by the validation suite (the analytic
value must fall inside the sample CI).  The engines use different (both
reproducible) stream disciplines, so their samples differ for the same
seed; only their distributions agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidParameterError
from ..obs import get_logger, span as _span
from ..platforms import Platform
from ..core.schedule import Schedule
from .adaptive import DEFAULT_MIN_RUNS, AdaptiveResult, run_adaptive
from .backend import canonical_name, get_backend
from .batch import DEFAULT_CHUNK_SIZE, _seed_sequence, simulate_batch
from .breakdown import aggregate_trace, render_breakdown
from .engine import RunResult, simulate_run
from .errors import PoissonErrorSource
from .stats import SampleSummary, certified_agreement, summarize

__all__ = ["MonteCarloResult", "run_monte_carlo"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate of a Monte-Carlo campaign.

    Attributes
    ----------
    samples:
        Raw makespans, one per run (seconds).  Empty for adaptive
        campaigns: the orchestrator streams moments and never retains the
        full sample (``summary`` still carries everything but quantiles).
    summary:
        :class:`~repro.simulation.stats.SampleSummary` of the samples.
    mean_fail_stops / mean_silent_errors:
        Average error counts per run, useful sanity indicators.
    analytic:
        The analytic expected makespan this campaign was compared against
        (``nan`` when not supplied).
    breakdown:
        Mean seconds per run for each accounting category
        (:data:`~repro.simulation.breakdown.TIME_CATEGORIES`).
    convergence:
        The :class:`~repro.simulation.adaptive.AdaptiveResult` of an
        adaptive-precision campaign (None for fixed-N campaigns).
    backend:
        Name of the array-API backend the batched kernel ran on
        (``"numpy"`` for the scalar oracle engine).
    """

    samples: np.ndarray
    summary: SampleSummary
    mean_fail_stops: float
    mean_silent_errors: float
    analytic: float = float("nan")
    breakdown: dict[str, float] | None = None
    convergence: AdaptiveResult | None = None
    useful_work: float = float("nan")  #: chain one-pass weight (s), for the
    #: useful/re-executed split in the breakdown rendering
    backend: str = "numpy"

    @property
    def mean(self) -> float:
        """Sample mean makespan (s)."""
        return self.summary.mean

    @property
    def runs(self) -> int:
        """Replications the campaign actually spent."""
        return self.summary.count

    @property
    def agrees_with_analytic(self) -> bool:
        """True if the analytic value lies inside a *bounded* CI on the mean
        (see :func:`~repro.simulation.stats.certified_agreement`)."""
        return certified_agreement(self.summary, self.analytic)

    @property
    def relative_gap(self) -> float:
        """``(sample mean - analytic) / analytic`` (``nan`` if no reference)."""
        if np.isnan(self.analytic) or self.analytic == 0.0:
            return float("nan")
        return (self.mean - self.analytic) / self.analytic

    def report(self, show_breakdown: bool = True) -> str:
        """Textual report: summary, agreement, convergence, breakdown."""
        lines = [f"Monte-Carlo: {self.summary}"]
        lines.append(
            f"  mean fail-stop errors/run: {self.mean_fail_stops:.3f}, "
            f"mean silent corruptions/run: {self.mean_silent_errors:.3f}"
        )
        if not np.isnan(self.analytic):
            if np.isinf(self.summary.ci_half_width):
                verdict = "CI unbounded: nothing certified"
            else:
                verdict = (
                    f"{'inside' if self.agrees_with_analytic else 'OUTSIDE'} "
                    f"the {self.summary.confidence:.0%} CI"
                )
            lines.append(
                f"  analytic E[makespan] = {self.analytic:.2f}s "
                f"(gap {self.relative_gap:+.3%}, {verdict})"
            )
        if self.convergence is not None:
            lines.append(self.convergence.convergence_report())
        if show_breakdown and self.breakdown is not None:
            useful = None if np.isnan(self.useful_work) else self.useful_work
            lines.append(render_breakdown(self.breakdown, useful_work=useful))
        return "\n".join(lines)


def run_monte_carlo(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    *,
    runs: int = 1000,
    seed: int | np.random.SeedSequence | None = 0,
    confidence: float = 0.99,
    analytic: float = float("nan"),
    max_attempts: int | None = None,
    costs=None,
    engine: str = "batch",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_jobs: int | None = None,
    target_ci: float | None = None,
    backend: str | None = None,
) -> MonteCarloResult:
    """Estimate the expected makespan of ``schedule`` by simulation.

    Parameters
    ----------
    runs:
        Number of independent simulated executions — the exact count for
        fixed-N campaigns, the hard cap when ``target_ci`` is set.
    seed:
        Seed (or ``SeedSequence``) for reproducible streams; each run gets
        an independent child stream.
    analytic:
        Optional analytic expected makespan to compare against.
    max_attempts:
        Per-run segment-attempt cap forwarded to the engine.
    engine:
        ``"batch"`` (vectorized, default) or ``"scalar"`` (the trusted
        per-run oracle loop).
    chunk_size / n_jobs:
        Batched-engine knobs: replications per vectorized chunk, and the
        number of worker processes chunks are sharded over (``None`` or
        1 = in-process).  Ignored by the scalar engine.
    target_ci:
        Relative CI half-width to certify (e.g. ``0.01`` for ±1%).  When
        set, the adaptive orchestrator replaces the fixed count: rounds of
        replications run until the precision target is met (or the
        ``runs`` cap is hit), and the result carries the convergence
        report.  Batch engine only.
    backend:
        Name of the array-API backend for the batched kernel, or
        ``None`` for the ``REPRO_BACKEND`` / NumPy default.  The scalar oracle is
        a host NumPy loop: it ignores the environment default and rejects
        an explicit non-NumPy selection.
    """
    if runs < 1:
        raise InvalidParameterError(f"runs must be >= 1, got {runs}")
    if engine not in ("batch", "scalar"):
        raise InvalidParameterError(
            f"engine must be 'batch' or 'scalar', got {engine!r}"
        )
    if engine == "scalar":
        if backend is not None and canonical_name(backend) != "numpy":
            raise InvalidParameterError(
                "the scalar oracle engine runs on NumPy only; "
                f"backend {backend!r} requires engine='batch'"
            )
        backend_name = "numpy"
    else:
        backend_name = get_backend(backend).name

    if target_ci is not None:
        if engine != "batch":
            raise InvalidParameterError(
                "target_ci requires the batched engine (adaptive campaigns "
                "stream moments through the lockstep kernel)"
            )
        adaptive = run_adaptive(
            chain,
            platform,
            schedule,
            target_relative_ci=target_ci,
            confidence=confidence,
            min_runs=min(DEFAULT_MIN_RUNS, runs),
            max_runs=runs,
            seed=seed,
            costs=costs,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
            analytic=analytic,
            backend=backend_name,
            **({} if max_attempts is None else {"max_attempts": max_attempts}),
        )
        n = adaptive.reps_used
        return MonteCarloResult(
            samples=np.empty(0, dtype=np.float64),
            summary=adaptive.summary,
            mean_fail_stops=adaptive.fail_stop_errors / n,
            mean_silent_errors=adaptive.silent_errors / n,
            analytic=analytic,
            breakdown=adaptive.breakdown_means(),
            convergence=adaptive,
            useful_work=float(chain.total_weight),
            backend=backend_name,
        )

    if engine == "batch":
        batch_kwargs = {} if max_attempts is None else {"max_attempts": max_attempts}
        batch = simulate_batch(
            chain,
            platform,
            schedule,
            runs,
            seed=seed,
            costs=costs,
            chunk_size=chunk_size,
            n_jobs=n_jobs,
            backend=backend_name,
            **batch_kwargs,
        )
        samples = batch.makespans
        fail_stops = int(batch.fail_stop_errors.sum())
        silents = int(batch.silent_errors.sum())
        breakdown = batch.breakdown.means()
    else:
        children = _seed_sequence(seed).spawn(runs)
        samples = np.empty(runs, dtype=np.float64)
        fail_stops = 0
        silents = 0
        totals = None
        kwargs = {} if max_attempts is None else {"max_attempts": max_attempts}
        if costs is not None:
            kwargs["costs"] = costs
        with _span("sim.scalar", runs=runs):
            for i in range(runs):
                source = PoissonErrorSource(
                    platform, np.random.default_rng(children[i])
                )
                # Traces are recorded solely to aggregate the per-category
                # breakdown — a deliberate cost on the oracle path (it is
                # the cross-validation reference, never the production
                # engine; the ~20% slowdown keeps its accounting on the
                # exact code path the bitwise replay tests certify).
                result: RunResult = simulate_run(
                    chain, platform, schedule, source, record_trace=True, **kwargs
                )
                samples[i] = result.makespan
                fail_stops += result.fail_stop_errors
                silents += result.silent_errors
                per_run = aggregate_trace(result.trace)
                if totals is None:
                    totals = per_run
                else:
                    for category, seconds in per_run.items():
                        totals[category] += seconds
        breakdown = {c: v / runs for c, v in totals.items()}

    logger.debug(
        "run_monte_carlo: engine=%s runs=%d backend=%s",
        engine,
        runs,
        backend_name,
    )
    return MonteCarloResult(
        samples=samples,
        summary=summarize(samples, confidence),
        mean_fail_stops=fail_stops / runs,
        mean_silent_errors=silents / runs,
        analytic=analytic,
        breakdown=breakdown,
        useful_work=float(chain.total_weight),
        backend=backend_name,
    )
