"""Fault-injection simulation: engines, error sources, Monte-Carlo harness.

Two engines replay the same model semantics:

* :func:`simulate_run` — the scalar reference engine, one replication at a
  time with full tracing support; the trusted oracle;
* :func:`simulate_batch` — the vectorized production engine, advancing all
  replications of a compiled schedule (:func:`compile_schedule`) at once.

Both produce per-category time accounting (:mod:`~repro.simulation.
breakdown`), cross-validated bitwise between the two.  On top of the
batched engine, :func:`run_adaptive` (:mod:`~repro.simulation.adaptive`)
runs sequential-sampling campaigns that stop at a target relative CI
half-width, streaming moments instead of retaining samples.

The batched kernel is written against the Python array-API standard and
runs on two backends (:mod:`repro.simulation.backend`): NumPy by default,
and ``array-api-strict`` for conformance CI — selected by name per call
(``backend=...``), via the CLI (``--backend``) or the ``REPRO_BACKEND``
environment variable.
"""

from .adaptive import (
    DEFAULT_MAX_RUNS,
    DEFAULT_MIN_RUNS,
    DEFAULT_TARGET_RELATIVE_CI,
    AdaptiveResult,
    AdaptiveRound,
    StreamingMoments,
    run_adaptive,
    run_adaptive_parallel,
)
from .backend import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    Backend,
    array_namespace,
    get_backend,
    installed_backends,
)
from .batch import (
    DEFAULT_CHUNK_SIZE,
    BatchResult,
    InverseTransformErrorSource,
    replication_uniform_rows,
    run_compiled,
    simulate_batch,
)
from .breakdown import (
    TIME_CATEGORIES,
    BatchBreakdown,
    aggregate_trace,
    render_breakdown,
    to_analytic_categories,
)
from .compile import CompiledSchedule, compile_schedule
from .engine import DEFAULT_MAX_ATTEMPTS, RunResult, simulate_run
from .errors import ErrorSource, PoissonErrorSource, ScriptedErrorSource
from .parallel import (
    ParallelBatchResult,
    ParallelPlan,
    ParallelRunResult,
    WorkerPlan,
    simulate_parallel,
    simulate_parallel_run,
    worker_uniform_rows,
)
from .monte_carlo import MonteCarloResult, run_monte_carlo
from .stats import SampleSummary, confidence_interval, summarize, t_critical
from .trace import EventKind, Trace, TraceEvent

__all__ = [
    "Backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "array_namespace",
    "get_backend",
    "installed_backends",
    "simulate_run",
    "RunResult",
    "DEFAULT_MAX_ATTEMPTS",
    "simulate_batch",
    "run_compiled",
    "BatchResult",
    "DEFAULT_CHUNK_SIZE",
    "compile_schedule",
    "CompiledSchedule",
    "InverseTransformErrorSource",
    "replication_uniform_rows",
    "WorkerPlan",
    "ParallelPlan",
    "ParallelRunResult",
    "ParallelBatchResult",
    "simulate_parallel",
    "simulate_parallel_run",
    "worker_uniform_rows",
    "run_adaptive",
    "run_adaptive_parallel",
    "AdaptiveResult",
    "AdaptiveRound",
    "StreamingMoments",
    "DEFAULT_TARGET_RELATIVE_CI",
    "DEFAULT_MIN_RUNS",
    "DEFAULT_MAX_RUNS",
    "TIME_CATEGORIES",
    "BatchBreakdown",
    "aggregate_trace",
    "to_analytic_categories",
    "render_breakdown",
    "ErrorSource",
    "PoissonErrorSource",
    "ScriptedErrorSource",
    "run_monte_carlo",
    "MonteCarloResult",
    "SampleSummary",
    "confidence_interval",
    "summarize",
    "t_critical",
    "EventKind",
    "Trace",
    "TraceEvent",
]
