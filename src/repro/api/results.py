"""Unified result/serialization facade.

Before this module every subsystem grew its own ad-hoc ``*Result``
dataclass with its own JSON spelling (``runs`` vs ``reps`` vs
``reps_used``; ``target_ci`` vs ``target_relative_ci``; platform as a
name here and an object there).  :func:`as_document` renders any of them
into one envelope with **consistent key names**, and :func:`from_document`
inverts the supported kinds:

.. code-block:: json

    {
        "schema_version": 2,
        "kind": "solution",
        "platform": "Hera",
        ...
    }

Canonical key vocabulary (used by every document, the CLI ``--json``
output and every ``repro serve`` endpoint):

==================  ====================================================
``platform``        platform *name* string (full parameters only under
                    ``platform_params``)
``reps``            replication count of any Monte-Carlo campaign
``mean``            sample mean (seconds)
``ci_low/ci_high``  confidence-interval bounds on the mean (``null``
                    encodes an unbounded side, RFC-8259 has no ``inf``)
``expected_time``   analytic expected makespan (seconds)
``target_ci``       requested relative CI half-width
``seed``            the campaign/search seed actually consumed
``backend``         array-API backend name the kernel ran on
``order``           serialisation order, task names as strings
``schedule``        :meth:`repro.core.Schedule.as_dict` position lists
==================  ====================================================

Schema version 2 dropped the deprecated aliases of version 1 (``runs``,
``reps_used``, ``ci``, ``target_relative_ci``, ``analytic``,
``simulated``) and the search documents' ``n_jobs``; version 1 documents
still load, their extra keys ignored (see ``docs/API.md``).
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from ..chains import TaskChain
from ..core.result import Solution
from ..core.schedule import Schedule
from ..dag.linearize import DagSolution
from ..dag.parallel import ParallelSearchResult, ParallelSolution
from ..dag.search import JoinDagSolution, SearchResult
from ..dag.workflow import WorkflowDAG, canonical_node_key
from ..exceptions import InvalidParameterError
from ..obs import MetricsSnapshot
from ..platforms import Platform
from ..simulation.adaptive import AdaptiveResult, AdaptiveRound, StreamingMoments
from ..simulation.certify import AgreementStamp
from ..simulation.monte_carlo import MonteCarloResult
from ..simulation.stats import SampleSummary

__all__ = [
    "SCHEMA_VERSION",
    "as_document",
    "from_document",
    "document_kind",
    "finite_or_none",
]

#: Version stamped into every document; bump on any breaking key change.
SCHEMA_VERSION = 2


def finite_or_none(value: float) -> float | None:
    """JSON-safe float: RFC 8259 has no ``Infinity``/``NaN`` tokens, so
    non-finite values (degenerate CI bounds, missing analytics)
    serialize as ``null``."""
    return float(value) if math.isfinite(value) else None


def _none_as(value: float | None, default: float) -> float:
    return default if value is None else float(value)


def _envelope(kind: str) -> dict[str, Any]:
    return {"schema_version": SCHEMA_VERSION, "kind": kind}


def document_kind(doc: Any) -> str:
    """Validate the envelope of ``doc`` and return its ``kind``.

    Raises :class:`~repro.exceptions.InvalidParameterError` on a missing
    envelope or an unsupported ``schema_version`` (newer writers may add
    keys; they may not be read by an older schema reader).
    """
    if not isinstance(doc, dict):
        raise InvalidParameterError(
            f"result document must be a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("schema_version")
    if version is None or "kind" not in doc:
        raise InvalidParameterError(
            "result document is missing its envelope "
            "('schema_version' and 'kind' fields)"
        )
    if int(version) > SCHEMA_VERSION:
        raise InvalidParameterError(
            f"result document has schema_version {version}; this release "
            f"reads up to {SCHEMA_VERSION}"
        )
    return str(doc["kind"])


# ----------------------------------------------------------------------
# per-type converters (as_document side)
# ----------------------------------------------------------------------
def _platform_doc(platform: Platform) -> dict[str, Any]:
    return {**_envelope("platform"), **platform.as_dict()}


def _chain_doc(chain: TaskChain) -> dict[str, Any]:
    return {
        **_envelope("chain"),
        "name": chain.name,
        "weights": chain.as_list(),
    }


def _schedule_doc(schedule: Schedule) -> dict[str, Any]:
    return {
        **_envelope("schedule"),
        **schedule.as_dict(),
        "placement": schedule.to_string(),
    }


def _dag_doc(dag: WorkflowDAG) -> dict[str, Any]:
    return {**_envelope("workflow_dag"), **dag.as_dict()}


def _summary_doc(summary: SampleSummary) -> dict[str, Any]:
    return {
        **_envelope("sample_summary"),
        "reps": summary.count,
        "mean": summary.mean,
        "std": summary.std,
        "minimum": summary.minimum,
        "maximum": summary.maximum,
        "median": summary.median,
        "q05": summary.q05,
        "q95": summary.q95,
        "confidence": summary.confidence,
        "ci_low": finite_or_none(summary.ci_low),
        "ci_high": finite_or_none(summary.ci_high),
    }


def _solution_doc(solution: Solution) -> dict[str, Any]:
    doc = {
        **_envelope("solution"),
        "algorithm": solution.algorithm,
        "platform": solution.platform.name,
        "platform_params": solution.platform.as_dict(),
        "chain": solution.chain.name,
        "weights": solution.chain.as_list(),
        "expected_time": solution.expected_time,
        "normalized_makespan": solution.normalized_makespan,
        "counts": dict(solution.counts()),
        "schedule": solution.schedule.as_dict(),
    }
    order = getattr(solution, "order", None)
    if order is not None:
        doc["order"] = [str(v) for v in order]
    if isinstance(solution, JoinDagSolution):
        doc["join"] = {
            "checkpointed_sources": sorted(
                (str(v) for v, d in solution.decisions.items() if d),
                key=canonical_node_key,
            ),
            "rate": solution.instance.rate,
            "C": solution.instance.C,
            "R": solution.instance.R,
        }
    return doc


def _stamp_doc(stamp: AgreementStamp) -> dict[str, Any]:
    return {
        **_envelope("agreement_stamp"),
        "platform": stamp.platform,
        "label": stamp.label,
        "expected_time": stamp.analytic,
        "mean": stamp.simulated,
        "relative_gap": finite_or_none(stamp.relative_gap),
        "reps": stamp.reps,
        "relative_half_width": finite_or_none(stamp.relative_half_width),
        "target_ci": stamp.target_ci,
        "agrees": stamp.agrees,
        "converged": stamp.converged,
    }


def _adaptive_doc(result: AdaptiveResult) -> dict[str, Any]:
    return {
        **_envelope("adaptive_result"),
        "target_ci": result.target_relative_ci,
        "confidence": result.confidence,
        "converged": result.converged,
        "reps": result.reps_used,
        "mean": result.mean,
        "relative_half_width": finite_or_none(result.relative_half_width),
        # "rounds" stays the scalar round count (the shape the CLI has
        # always emitted and SearchResult shares); the per-round log is
        # the new canonical "round_log"
        "rounds": len(result.rounds),
        "round_log": [
            {
                "index": r.index,
                "reps": r.reps,
                "total_reps": r.total_reps,
                "mean": r.mean,
                "half_width": finite_or_none(r.half_width),
                "relative_half_width": finite_or_none(r.relative_half_width),
            }
            for r in result.rounds
        ],
        "moments": {
            "count": result.moments.count,
            "mean": result.moments.mean,
            "m2": result.moments.m2,
            "minimum": finite_or_none(result.moments.minimum),
            "maximum": finite_or_none(result.moments.maximum),
        },
        "breakdown": result.breakdown_means(),
        "fail_stop_errors": result.fail_stop_errors,
        "silent_errors": result.silent_errors,
        "silent_detected": result.silent_detected,
        "silent_missed": result.silent_missed,
        "attempts": result.attempts,
        "steps": result.steps,
        "expected_time": finite_or_none(result.analytic),
        "min_runs": result.min_runs,
        "max_runs": result.max_runs,
    }


def _mc_doc(result: MonteCarloResult) -> dict[str, Any]:
    doc = {
        **_envelope("monte_carlo_result"),
        "reps": result.runs,
        "mean": result.mean,
        "ci_low": finite_or_none(result.summary.ci_low),
        "ci_high": finite_or_none(result.summary.ci_high),
        "summary": _summary_doc(result.summary),
        "mean_fail_stops": result.mean_fail_stops,
        "mean_silent_errors": result.mean_silent_errors,
        "expected_time": finite_or_none(result.analytic),
        "agrees": result.agrees_with_analytic,
        "relative_gap": finite_or_none(result.relative_gap),
        "breakdown": result.breakdown,
        "useful_work": finite_or_none(result.useful_work),
        "backend": result.backend,
    }
    # optional sub-documents are omitted, not null — the historical CLI
    # contract is "key absent" for fixed-N campaigns
    if result.convergence is not None:
        doc["convergence"] = _adaptive_doc(result.convergence)
    return doc


def _search_doc(result: SearchResult) -> dict[str, Any]:
    doc = {
        **_envelope("search_result"),
        "method": result.method,
        "seed": result.seed,
        "objective": result.algorithm,
        "starts": result.starts,
        "rounds": result.rounds,
        "orders_scored": result.orders_scored,
        "exact_evaluations": result.exact_evaluations,
        "exact_cache_hits": result.exact_cache_hits,
        "bound_evaluations": result.bound_evaluations,
        "bound_cache_hits": result.bound_cache_hits,
        "start_values": dict(result.start_values),
        "recombined": result.recombined,
        "solution": _solution_doc(result.solution),
    }
    if result.metrics is not None:
        doc["metrics"] = result.metrics.as_dict()
    return doc


def _parallel_solution_doc(solution: ParallelSolution) -> dict[str, Any]:
    return {
        **_envelope("parallel_solution"),
        "dag": solution.dag.name,
        "workflow": solution.dag.as_dict(),
        "platform": solution.platform.name,
        "platform_params": solution.platform.as_dict(),
        "processors": solution.processors,
        "algorithm": solution.algorithm,
        "order": [str(v) for v in solution.order],
        "assignment": {
            str(v): solution.assignment[v]
            for v in sorted(solution.assignment, key=canonical_node_key)
        },
        "expected_time": solution.expected_time,
        "worker_busy": list(solution.worker_busy),
        "worker_orders": [
            [str(v) for v in nodes] for nodes in solution.worker_orders
        ],
        "worker_schedules": [
            None if s is None else s.as_dict()
            for s in solution.worker_schedules
        ],
    }


def _parallel_search_doc(result: ParallelSearchResult) -> dict[str, Any]:
    doc = {
        **_envelope("parallel_search_result"),
        "method": result.method,
        "seed": result.seed,
        "objective": result.algorithm,
        "processors": result.processors,
        "starts": result.starts,
        "rounds": result.rounds,
        "states_priced": result.states_priced,
        "state_cache_hits": result.state_cache_hits,
        "interval_solves": result.interval_solves,
        "interval_cache_hits": result.interval_cache_hits,
        "start_values": dict(result.start_values),
        "solution": _parallel_solution_doc(result.solution),
    }
    if result.metrics is not None:
        doc["metrics"] = result.metrics.as_dict()
    return doc


def _metrics_doc(snapshot: MetricsSnapshot) -> dict[str, Any]:
    return {**_envelope("metrics_snapshot"), **snapshot.as_dict()}


_AS_DOCUMENT: list[tuple[type[Any], Callable[[Any], dict[str, Any]]]] = [
    # subclass-sensitive: most-derived types must precede their bases
    (SearchResult, _search_doc),
    (ParallelSearchResult, _parallel_search_doc),
    (ParallelSolution, _parallel_solution_doc),
    (Solution, _solution_doc),
    (MonteCarloResult, _mc_doc),
    (AdaptiveResult, _adaptive_doc),
    (AgreementStamp, _stamp_doc),
    (SampleSummary, _summary_doc),
    (MetricsSnapshot, _metrics_doc),
    (Platform, _platform_doc),
    (TaskChain, _chain_doc),
    (Schedule, _schedule_doc),
    (WorkflowDAG, _dag_doc),
]


def as_document(obj: Any) -> dict[str, Any]:
    """Render any supported result/model object as a unified document."""
    for cls, converter in _AS_DOCUMENT:
        if isinstance(obj, cls):
            return converter(obj)
    raise InvalidParameterError(
        f"no unified document form for {type(obj).__name__!r}"
    )


# ----------------------------------------------------------------------
# from_document side
# ----------------------------------------------------------------------
def _platform_from(doc: dict[str, Any]) -> Platform:
    return Platform.from_dict(doc)


def _chain_from(doc: dict[str, Any]) -> TaskChain:
    return TaskChain(doc["weights"], name=str(doc.get("name", "")))


def _schedule_from(doc: dict[str, Any]) -> Schedule:
    return Schedule.from_dict(doc)


def _dag_from(doc: dict[str, Any]) -> WorkflowDAG:
    return WorkflowDAG.from_dict(doc)


def _summary_from(doc: dict[str, Any]) -> SampleSummary:
    return SampleSummary(
        count=int(doc["reps"]),
        mean=float(doc["mean"]),
        std=float(doc["std"]),
        minimum=float(doc["minimum"]),
        maximum=float(doc["maximum"]),
        median=float(doc["median"]),
        q05=float(doc["q05"]),
        q95=float(doc["q95"]),
        confidence=float(doc["confidence"]),
        ci_low=_none_as(doc["ci_low"], -math.inf),
        ci_high=_none_as(doc["ci_high"], math.inf),
    )


def _solution_from(doc: dict[str, Any]) -> Solution:
    chain = TaskChain(doc["weights"], name=str(doc.get("chain", "")))
    base = Solution(
        algorithm=str(doc["algorithm"]),
        chain=chain,
        platform=Platform.from_dict(doc["platform_params"]),
        expected_time=float(doc["expected_time"]),
        schedule=Schedule.from_dict(doc["schedule"]),
    )
    order = doc.get("order")
    if order is None:
        return base
    # join extras (doc["join"]) are data-only: the native JoinInstance is
    # not reconstructed, only the chain rendering of the solution is
    dag_solution = DagSolution(list(order), base)
    object.__setattr__(dag_solution, "algorithm", base.algorithm)
    return dag_solution


def _stamp_from(doc: dict[str, Any]) -> AgreementStamp:
    return AgreementStamp(
        platform=str(doc["platform"]),
        label=str(doc["label"]),
        analytic=float(doc["expected_time"]),
        simulated=float(doc["mean"]),
        relative_gap=_none_as(doc["relative_gap"], math.nan),
        reps=int(doc["reps"]),
        relative_half_width=_none_as(doc["relative_half_width"], math.inf),
        target_ci=float(doc["target_ci"]),
        agrees=bool(doc["agrees"]),
        converged=bool(doc["converged"]),
    )


def _adaptive_from(doc: dict[str, Any]) -> AdaptiveResult:
    from ..simulation.breakdown import TIME_CATEGORIES

    moments = StreamingMoments(
        count=int(doc["moments"]["count"]),
        mean=float(doc["moments"]["mean"]),
        m2=float(doc["moments"]["m2"]),
        minimum=_none_as(doc["moments"]["minimum"], math.inf),
        maximum=_none_as(doc["moments"]["maximum"], -math.inf),
    )
    reps = max(moments.count, 1)
    totals = np.asarray(
        [doc["breakdown"][c] * reps for c in TIME_CATEGORIES],
        dtype=np.float64,
    )
    return AdaptiveResult(
        target_relative_ci=float(doc["target_ci"]),
        confidence=float(doc["confidence"]),
        converged=bool(doc["converged"]),
        moments=moments,
        rounds=tuple(
            AdaptiveRound(
                index=int(r["index"]),
                reps=int(r["reps"]),
                total_reps=int(r["total_reps"]),
                mean=float(r["mean"]),
                half_width=_none_as(r["half_width"], math.inf),
                relative_half_width=_none_as(
                    r["relative_half_width"], math.inf
                ),
            )
            for r in doc["round_log"]
        ),
        category_totals=totals,
        fail_stop_errors=int(doc["fail_stop_errors"]),
        silent_errors=int(doc["silent_errors"]),
        silent_detected=int(doc["silent_detected"]),
        silent_missed=int(doc["silent_missed"]),
        attempts=int(doc["attempts"]),
        steps=int(doc["steps"]),
        analytic=_none_as(doc["expected_time"], math.nan),
        min_runs=int(doc["min_runs"]),
        max_runs=int(doc["max_runs"]),
    )


def _mc_from(doc: dict[str, Any]) -> MonteCarloResult:
    # samples are never serialized (adaptive campaigns stream moments and
    # retain none; fixed-N documents would be megabytes) — the summary
    # carries every statistic downstream code reads
    return MonteCarloResult(
        samples=np.empty(0, dtype=np.float64),
        summary=_summary_from(doc["summary"]),
        mean_fail_stops=float(doc["mean_fail_stops"]),
        mean_silent_errors=float(doc["mean_silent_errors"]),
        analytic=_none_as(doc["expected_time"], math.nan),
        breakdown=doc["breakdown"],
        convergence=(
            None
            if doc.get("convergence") is None
            else _adaptive_from(doc["convergence"])
        ),
        useful_work=_none_as(doc["useful_work"], math.nan),
        backend=str(doc["backend"]),
    )


def _search_from(doc: dict[str, Any]) -> SearchResult:
    return SearchResult(
        solution=_solution_from(doc["solution"]),
        method=str(doc["method"]),
        seed=int(doc["seed"]),
        algorithm=str(doc["objective"]),
        starts=int(doc["starts"]),
        rounds=int(doc["rounds"]),
        orders_scored=int(doc["orders_scored"]),
        exact_evaluations=int(doc["exact_evaluations"]),
        exact_cache_hits=int(doc["exact_cache_hits"]),
        bound_evaluations=int(doc["bound_evaluations"]),
        bound_cache_hits=int(doc["bound_cache_hits"]),
        start_values=dict(doc["start_values"]),
        recombined=int(doc["recombined"]),
        metrics=(
            None
            if doc.get("metrics") is None
            else MetricsSnapshot.from_dict(doc["metrics"])
        ),
    )


def _metrics_from(doc: dict[str, Any]) -> MetricsSnapshot:
    return MetricsSnapshot.from_dict(doc)


_FROM_DOCUMENT: dict[str, Callable[[dict[str, Any]], Any]] = {
    "platform": _platform_from,
    "chain": _chain_from,
    "schedule": _schedule_from,
    "workflow_dag": _dag_from,
    "sample_summary": _summary_from,
    "solution": _solution_from,
    "agreement_stamp": _stamp_from,
    "adaptive_result": _adaptive_from,
    "monte_carlo_result": _mc_from,
    "search_result": _search_from,
    "metrics_snapshot": _metrics_from,
}


def from_document(doc: dict[str, Any]) -> Any:
    """Reconstruct the object a unified document describes.

    Supported kinds: every model document plus the campaign results
    (``sample_summary``, ``solution``, ``agreement_stamp``,
    ``adaptive_result``, ``monte_carlo_result``, ``search_result``,
    ``metrics_snapshot``).  Parallel documents
    (``parallel_solution`` / ``parallel_search_result``) are emit-only:
    their native objects embed live DAG/platform state that documents
    deliberately flatten — read their keys directly.
    """
    kind = document_kind(doc)
    builder = _FROM_DOCUMENT.get(kind)
    if builder is None:
        raise InvalidParameterError(
            f"document kind {kind!r} is emit-only (no reconstruction); "
            f"supported kinds: {', '.join(sorted(_FROM_DOCUMENT))}"
        )
    try:
        return builder(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed {kind!r} document: {exc!r}"
        ) from exc
