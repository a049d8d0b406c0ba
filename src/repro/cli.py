"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro platforms                              # Table I summary
    repro solve -p hera -n 20 -a admv            # optimal schedule + value
    repro evaluate -p hera --schedule ..MvpD     # exact value of a schedule
    repro simulate -p hera -n 10 --runs 500      # Monte-Carlo vs analytic
    repro simulate -p hera --target-ci 0.01      # adaptive: certify ±1%
    repro simulate --backend array-api-strict    # pick the array backend
    repro sweep -p atlas --pattern decrease      # makespan vs n table
    repro sweep -p atlas --target-ci 0.01        # + certified validation
    repro dag generate --kind layered --seed 3   # random workflow DAG
    repro dag generate --kind join --sources 12  # APDCM'15 join graph
    repro dag optimize --kind layered --strategy search   # order search
    repro dag optimize --kind layered --cost-spread 1.0 \
        --strategy search                        # heterogeneous costs
    repro dag sweep --seed 3                     # heuristics vs search
    repro serve --port 8080                      # persistent HTTP service
    repro figure 5 --fast                        # regenerate a paper figure
    repro table 1                                # regenerate Table I
    repro report --fast                          # paper-vs-measured claims

Every subcommand accepts ``--json`` to dump machine-readable output instead
of the text rendering.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
from dataclasses import fields

from . import __version__
from .analysis import format_table, line_chart, placement_diagram
from .analysis.sweep import sweep_task_counts
from .api import SCHEMA_VERSION
from .api.requests import (
    REQUESTS,
    DagOptimizeRequest,
    Request,
    backend_name,
    parse_request,
    parse_seed,
)
from .chains import load_chain
from .core import Schedule, evaluate_schedule
from .exceptions import InvalidParameterError, ReproError
from .experiments import ALGORITHM_LABELS, fig5, fig6, fig78, table1
from .obs import configure_logging, get_logger
from .platforms import TABLE1_ROWS
from .service.engine import run

__all__ = ["main", "build_parser"]

logger = get_logger(__name__)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability flags, shared by every leaf subcommand."""
    g = p.add_argument_group("observability")
    g.add_argument(
        "--profile",
        action="store_true",
        help="print the instrumented run report (metrics + span times)",
    )
    g.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="write the profile document (JSON) here",
    )
    g.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON timeline here",
    )
    g.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable repro.* logging at this level (debug, info, ...)",
    )
    g.add_argument(
        "--progress",
        action="store_true",
        help="live progress lines on stderr (rounds, reps/s, ETA)",
    )
    g.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="append every progress event as one JSON line here",
    )


def _add_request_args(p: argparse.ArgumentParser, endpoint: str, *names) -> None:
    """One flag per named field of the endpoint's request model, whose
    type, choices, default and help it takes; every default is None, so
    that a flag left out is a field left out."""
    for f in fields(REQUESTS[endpoint]):
        if f.name not in names:
            continue
        meta, kwargs = f.metadata, {"dest": f.name, "default": None}
        flags = (meta["flag"] or "--" + f.name.replace("_", "-")).split("/")
        if isinstance(f.default, bool):  # a switch away from the default
            kwargs["action"] = "store_false" if f.default else "store_true"
            kwargs["help"] = meta["help"]
        else:
            kwargs["type"] = meta["coerce"] if meta["coerce"] in (int, float) else str
            kwargs["choices"] = meta["choices"]
            default = meta["spelled_default"]
            kwargs["help"] = meta["help"] + (
                "" if default is None else f" (default: {default})"
            )
        p.add_argument(*flags, **kwargs)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    _add_request_args(p, "solve", "platform", "pattern", "tasks", "total_weight")
    p.add_argument(
        "--chain-file",
        default=None,
        help="load the task chain from a JSON file instead of a pattern",
    )


def _request(args: argparse.Namespace, endpoint: str) -> Request:
    """The request the flags spell, parsed as ``repro serve`` parses it:
    a flag left out is a field left out."""
    cls = REQUESTS[endpoint]
    doc = {
        name: getattr(args, name)
        for name in cls.field_names()
        if getattr(args, name, None) is not None
    }
    if getattr(args, "chain_file", None):
        chain = load_chain(args.chain_file)
        doc.update(weights=chain.as_list(), chain=chain.name)
    if cls is DagOptimizeRequest:
        if args.dag_file:
            doc["dag"] = _read_workflow(args.dag_file)
        else:
            doc["generator"] = {
                knob: getattr(args, knob)
                for knob in ("kind", "seed", *_dag_shape_knobs())
                if getattr(args, knob) is not None
            }
    return parse_request(endpoint, doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Two-level checkpointing and verifications for linear task "
            "graphs (Benoit et al., PDSEC 2016)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("platforms", help="list the Table I platforms")
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("solve", help="compute an optimal schedule")
    _add_instance_args(p)
    _add_request_args(p, "solve", "algorithm", "seed")
    p.add_argument(
        "--breakdown",
        action="store_true",
        help="also print the expected-time waste breakdown",
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("evaluate", help="evaluate a fixed schedule exactly")
    _add_instance_args(p)
    p.add_argument(
        "--schedule",
        required=True,
        help="schedule string, one symbol per task: . p v M D",
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("simulate", help="Monte-Carlo a schedule vs analytic")
    _add_instance_args(p)
    _add_request_args(
        p, "simulate", "algorithm", "schedule", "runs", "seed", "target_ci",
        "engine", "backend",
    )
    p.add_argument(
        "--no-breakdown",
        action="store_true",
        help="omit the per-category time breakdown table",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the batched engine (default: in-process)",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="replications per vectorized chunk (batched engine)",
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("sweep", help="normalized makespan versus task count")
    _add_instance_args(p)
    p.add_argument(
        "--algorithms",
        default="adv_star,admv_star,admv",
        help="comma-separated algorithm list",
    )
    p.add_argument("--max-n", type=int, default=50)
    p.add_argument("--step", type=int, default=5)
    p.add_argument(
        "--validate-runs",
        type=int,
        default=0,
        help="batched Monte-Carlo replications per cell (0 = no validation)",
    )
    p.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "validate each cell adaptively to this relative CI half-width "
            "(--validate-runs then caps the per-cell spend)"
        ),
    )
    p.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "array-API backend for the validation campaigns (default: "
            "$REPRO_BACKEND, else numpy)"
        ),
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help=(
            "seed of the random pattern's chains and of the validation "
            "campaigns (echoed in --json output)"
        ),
    )
    p.add_argument("--chart", action="store_true", help="also render an ASCII chart")
    p.add_argument(
        "--cprofile", action="store_true", help="print cProfile hotspots"
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser(
        "dag", help="general workflows: generate / optimize / sweep"
    )
    dag_sub = p.add_subparsers(dest="dag_command", required=True)

    def _add_dag_instance_args(q: argparse.ArgumentParser) -> None:
        from .dag.generate import GENERATORS, WEIGHT_DISTRIBUTIONS

        q.add_argument(
            "--kind",
            choices=sorted(GENERATORS),
            help="workflow family to generate (default: layered)",
        )
        q.add_argument(
            "--seed", type=int, help="seed of the generator and of the search"
        )
        # the families' shape knobs, typed by their defaults (only the
        # ones given are passed on)
        for knob, default in _dag_shape_knobs().items():
            q.add_argument(
                "--" + knob.replace("_", "-"),
                type=type(default),
                choices=WEIGHT_DISTRIBUTIONS if knob.endswith("weights") else None,
                help=_KNOB_HELP.get(knob),
            )
        q.add_argument(
            "--dag-file",
            default=None,
            help="load the workflow from a JSON file instead of generating",
        )

    q = dag_sub.add_parser("generate", help="generate a random workflow DAG")
    _add_dag_instance_args(q)
    q.add_argument("-o", "--output", default=None, help="write the JSON document here")
    q.add_argument("--json", action="store_true")
    _add_obs_args(q)

    q = dag_sub.add_parser(
        "optimize", help="best serialisation + chain schedule for a DAG"
    )
    _add_dag_instance_args(q)
    _add_request_args(
        q, "dag/optimize", "platform", "algorithm", "strategy", "processors",
        "method", "restarts", "iterations", "recombine", "certify",
        "target_ci", "backend", "estimate",
    )
    q.add_argument("--json", action="store_true")
    _add_obs_args(q)

    q = dag_sub.add_parser(
        "sweep", help="heuristics vs search vs exhaustive over campaigns"
    )
    q.add_argument("--seed", type=int, default=0, help="campaign master seed")
    q.add_argument(
        "--full",
        action="store_true",
        help="all campaign instances with the full exact-polish budget",
    )
    q.add_argument(
        "--no-certify", action="store_true", help="skip the Monte-Carlo stamp"
    )
    q.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="array-API backend for the certification campaign",
    )
    q.add_argument("--json", action="store_true")
    _add_obs_args(q)

    p = sub.add_parser(
        "serve",
        help="run the persistent HTTP service (solve/simulate/dag + jobs)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="job-queue worker threads draining POST /jobs campaigns",
    )
    p.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help=(
            "content-addressed cache budget, in response bodies "
            "(0 disables caching)"
        ),
    )
    p.add_argument(
        "--log-level",
        default="info",
        metavar="LEVEL",
        help="repro.* logging level for request/job lines (default: info)",
    )

    p = sub.add_parser("figure", help="regenerate a paper figure (5, 6, 7, 8)")
    p.add_argument("number", type=int, choices=(5, 6, 7, 8))
    p.add_argument("--fast", action="store_true", help="coarser task grid")
    _add_obs_args(p)

    p = sub.add_parser("table", help="regenerate a paper table (1)")
    p.add_argument("number", type=int, choices=(1,))
    _add_obs_args(p)

    p = sub.add_parser(
        "report", help="paper-vs-measured claim report over all experiments"
    )
    p.add_argument("--fast", action="store_true", help="coarser task grid")
    p.add_argument("-o", "--output", default=None, help="also write to a file")
    _add_obs_args(p)

    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_platforms(args) -> str:
    if args.json:
        return json.dumps([p.as_dict() for p in TABLE1_ROWS], indent=2)
    return "\n\n".join(p.describe() for p in TABLE1_ROWS)


def _cmd_solve(args) -> str:
    request = _request(args, "solve")
    outcome = run(request)
    if args.json:
        return json.dumps(outcome.document(), indent=2)
    solution = outcome.result
    out = solution.summary() + "\n" + placement_diagram(solution.schedule)
    if args.breakdown:
        evaluation = evaluate_schedule(
            request.task_chain, request.platform, solution.schedule
        )
        out += "\n" + evaluation.render_breakdown(request.task_chain)
    return out


def _cmd_evaluate(args) -> str:
    request = _request(args, "solve")
    chain, platform = request.task_chain, request.platform
    schedule = Schedule.from_string(args.schedule)
    evaluation = evaluate_schedule(chain, platform, schedule)
    if args.json:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "evaluation",
                "platform": platform.name,
                "chain": chain.name,
                "weights": chain.as_list(),
                "schedule": schedule.to_string(),
                "expected_time": evaluation.expected_time,
                "normalized_makespan": evaluation.expected_time
                / chain.total_weight,
            },
            indent=2,
        )
    return (
        f"schedule {schedule.to_string()} on {platform.name}: "
        f"E[makespan] = {evaluation.expected_time:.2f}s "
        f"(normalized {evaluation.expected_time / chain.total_weight:.4f})"
    )


def _cmd_simulate(args) -> str:
    request = _request(args, "simulate")
    outcome = run(request, n_jobs=args.jobs, chunk_size=args.chunk_size)
    if args.json:
        return json.dumps(outcome.document(), indent=2)
    mc = outcome.result
    if request.schedule:
        label = f"schedule {outcome.schedule.to_string()}"
    else:
        label = f"optimal {request.algorithm} schedule"
    mode = (
        f"{request.engine} engine"
        if request.target_ci is None
        else f"adaptive, target ±{request.target_ci:.2%}"
    )
    if mc.backend != "numpy":
        mode += f", {mc.backend} backend"
    return (
        f"simulating {label} on {request.platform.name} ({mode})\n"
        + mc.report(show_breakdown=not args.no_breakdown)
    )


def _cmd_sweep(args) -> str:
    instance = _request(args, "solve")
    platform, pattern = instance.platform, instance.pattern
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    grid = sorted(set([1] + list(range(args.step, args.max_n + 1, args.step))))
    validated = bool(args.validate_runs) or args.target_ci is not None
    if args.backend is not None:
        backend_name(args.backend)  # diagnose typos/missing installs up front
        if not validated:
            raise InvalidParameterError(
                "--backend selects where the Monte-Carlo validation "
                "campaigns run; enable them with --validate-runs or "
                "--target-ci"
            )

    profiler = cProfile.Profile() if args.cprofile else None
    if profiler:
        profiler.enable()
    sweep = sweep_task_counts(
        platform,
        pattern=pattern,
        task_counts=grid,
        algorithms=algorithms,
        total_weight=instance.total_weight,
        validate_runs=args.validate_runs,
        validate_target_ci=args.target_ci,
        validate_seed=args.seed,
        validate_backend=args.backend,
    )
    if profiler:
        profiler.disable()

    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "platform": platform.name,
            "pattern": pattern,
            "seed": args.seed,
            # None when no validation campaign ran (nothing consumed a
            # backend); the resolved name otherwise — same echo contract
            # as `repro simulate`
            "backend": None,
            "rows": sweep.rows(),
            "header": sweep.header(),
        }
        if validated:
            doc["backend"] = backend_name(args.backend)
            doc["validated_cells"] = sweep.validated_cells
            doc["all_cells_agree"] = sweep.all_cells_agree
        return json.dumps(doc, indent=2)
    out = [
        format_table(
            ["n"] + [ALGORITHM_LABELS.get(a, a) for a in sweep.algorithms],
            sweep.rows(),
            title=f"normalized makespan — {platform.name}, {pattern}",
        )
    ]
    if validated:
        out.append(sweep.validation_report())
    if args.chart:
        series = {
            ALGORITHM_LABELS.get(a, a): sweep.makespan_series(a)
            for a in sweep.algorithms
        }
        out.append(line_chart(series, x_label="number of tasks"))
    if profiler:
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(12)
        out.append(buf.getvalue())
    return "\n\n".join(out)


_KNOB_HELP = {
    "weights": "task-weight distribution",
    "mean": "mean task weight (s)",
    "spread": "weight dispersion",
    "cost_spread": (
        "per-task resilience-cost heterogeneity (0 = the paper's uniform "
        "costs; ~1 spans a decade of checkpoint costs)"
    ),
    "cost_weights": "cost-multiplier distribution",
}


def _dag_shape_knobs() -> dict:
    """Every workflow family's shape knob, with its first default."""
    import inspect

    from .dag.generate import GENERATORS

    knobs: dict = {}
    for generator in GENERATORS.values():
        for name, param in inspect.signature(generator).parameters.items():
            if name not in ("seed", "name"):
                knobs.setdefault(name, param.default)
    return knobs


def _read_workflow(path: str) -> dict:
    from pathlib import Path

    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot read workflow file {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(
            f"workflow file {path!r} is not valid JSON: {exc}"
        ) from exc


def _cmd_dag_generate(args) -> str:
    request = _request(args, "dag/optimize")
    dag = request.workflow
    doc = dag.as_dict()
    # provenance: meaningless for file-loaded DAGs (the flags didn't
    # produce the workflow), so both fields are nulled together.  NB:
    # "kind" here is the legacy generator-family key, not the unified
    # document kind — this doc is a model file consumed by --dag-file
    # and WorkflowDAG.from_dict, so the historical shape wins.
    doc.update(
        schema_version=SCHEMA_VERSION,
        kind=None if args.dag_file else request.generator["kind"],
        seed=None if args.dag_file else request.generator["seed"],
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    if args.json:
        return json.dumps(doc, indent=2)
    path, length = dag.critical_path()
    lines = [
        f"{dag!r} (kind={doc['kind']}, seed={doc['seed']})",
        f"  total work {dag.total_weight:.1f}s over {dag.n} tasks, "
        f"{len(dag.graph.edges)} edges",
        f"  sources {len(dag.sources())}, sinks {len(dag.sinks())}, "
        f"critical path {length:.1f}s ({len(path)} tasks)",
    ]
    if dag.has_heterogeneous_costs():
        mult = [dag.cost_multiplier(v) for v in dag.graph]
        lines.append(
            f"  heterogeneous costs: multipliers in "
            f"[{min(mult):.2f}, {max(mult):.2f}]"
        )
    if args.output:
        lines.append(f"  written to {args.output}")
    return "\n".join(lines)


def _cmd_dag_optimize(args) -> str:
    request = _request(args, "dag/optimize")
    outcome = run(request)
    if args.json:
        return json.dumps(outcome.document(), indent=2)
    dag, result = request.workflow, outcome.result
    if request.processors is not None:
        out = [
            f"workflow {dag.name} on {request.platform.name} "
            f"(processors {request.processors}, seed {request.seed})",
            result.solution.describe(),
            result.summary(),
        ]
        estimate = outcome.estimate
        if estimate is not None:
            status = "converged" if estimate.converged else "cap reached"
            out.append(
                f"  estimated E[makespan] = {estimate.mean:.2f}s "
                f"(±{estimate.relative_half_width:.2%}, "
                f"{estimate.reps_used} reps, {status}; "
                f"surrogate gap {estimate.relative_gap:+.2%})"
            )
        return "\n".join(out)
    search = request.strategy == "search"
    solution = result.solution if search else result
    out = [
        f"workflow {dag.name} on {request.platform.name} (strategy "
        f"{request.strategy}, seed {request.seed})",
        solution.summary(),
        "  order: " + " -> ".join(str(v) for v in solution.order),
    ]
    if search:
        out.append(result.summary())
    if outcome.certificate is not None:
        out.append(outcome.certificate.line())
    return "\n".join(out)


def _cmd_dag_sweep(args) -> str:
    from .experiments import dag_search

    if args.no_certify and args.backend is not None:
        raise InvalidParameterError(
            "--backend selects where the certification campaign runs; "
            "drop --no-certify to use it"
        )
    seed = parse_seed(args.seed)
    result = dag_search.run(
        fast=not args.full,
        seed=seed,
        backend=args.backend,
        certify=not args.no_certify,
    )
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "dag_sweep",
            "seed": args.seed,
            "backend": None if args.no_certify else backend_name(args.backend),
        }
        doc.update(result.as_dict())
        return json.dumps(doc, indent=2)
    return result.render()


def _cmd_dag(args) -> str:
    handlers = {
        "generate": _cmd_dag_generate,
        "optimize": _cmd_dag_optimize,
        "sweep": _cmd_dag_sweep,
    }
    return handlers[args.dag_command](args)


def _cmd_serve(args) -> str:
    from .service import serve

    serve(
        args.host,
        args.port,
        workers=args.workers,
        cache_entries=args.cache_entries,
    )
    return "repro serve: stopped"


def _cmd_figure(args) -> str:
    if args.number == 5:
        return fig5.run(fast=args.fast).render()
    if args.number == 6:
        return fig6.run().render()
    if args.number == 7:
        return fig78.run_fig7(fast=args.fast).render()
    return fig78.run_fig8(fast=args.fast).render()


def _cmd_table(args) -> str:
    return table1.run().render()


def _cmd_report(args) -> str:
    from .experiments.report import generate_report

    text = generate_report(fast=args.fast)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
    return text


def _progress_line(event) -> str:
    """One human line per progress event, ETA-aware for ``mc.round``."""
    data = dict(event.data)
    if event.kind == "mc.round":
        bits = [
            f"mc.round {data.get('index', '?')}",
            f"reps={data.get('total_reps')}",
        ]
        rel = data.get("relative_half_width")
        if rel is not None:
            bits.append(f"rel_hw={rel:.4g}")
        if data.get("target") is not None:
            bits.append(f"target={data['target']:.4g}")
        rate = data.get("reps_per_s")
        if rate:
            bits.append(f"reps/s={rate:,.0f}")
        eta = data.get("eta_s")
        if eta is not None:
            bits.append(f"eta={eta:.1f}s")
        return " ".join(bits)
    pairs = " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in data.items()
    )
    return f"{event.kind} {pairs}".strip()


def _run_instrumented(handler, args, command: str) -> str:
    """Run one subcommand under a live registry + tracer + event bus and
    render the requested exports (``--profile`` report, ``--profile-out``
    JSON, ``--trace-out`` Chrome trace, ``--progress`` stderr lines,
    ``--events-out`` JSONL)."""
    from time import perf_counter

    from .obs import (
        EventBus,
        MetricsRegistry,
        ProgressRenderer,
        Tracer,
        build_profile,
        instrument,
        render_profile,
        span,
        write_profile,
    )

    registry = MetricsRegistry()
    tracer = Tracer()

    renderer = (
        ProgressRenderer() if getattr(args, "progress", False) else None
    )
    events_path = getattr(args, "events_out", None)
    events_file = open(events_path, "a") if events_path else None

    def on_event(event) -> None:
        if events_file is not None:
            events_file.write(
                json.dumps(event.as_dict(), separators=(",", ":"))
                + "\n"
            )
            events_file.flush()
        if renderer is not None:
            renderer.update(_progress_line(event))

    bus = (
        EventBus(on_emit=on_event)
        if (renderer is not None or events_file is not None)
        else None
    )
    t0 = perf_counter()
    try:
        with instrument(registry, tracer, events=bus), span(
            f"repro.{command}"
        ):
            out = handler(args)
    finally:
        if renderer is not None:
            renderer.finish()
        if events_file is not None:
            events_file.close()
    wall = perf_counter() - t0
    profile = build_profile(
        registry.snapshot(), tracer, command=command, wall_s=wall
    )
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
        logger.info("wrote Chrome trace to %s", args.trace_out)
    if args.profile_out:
        write_profile(profile, args.profile_out)
        logger.info("wrote profile JSON to %s", args.profile_out)
    if args.profile:
        out += "\n\n" + render_profile(profile, tracer)
        if not args.profile_out:
            out += "\n--- profile json ---\n" + json.dumps(profile, indent=2)
    return out


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "platforms": _cmd_platforms,
        "solve": _cmd_solve,
        "evaluate": _cmd_evaluate,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "dag": _cmd_dag,
        "serve": _cmd_serve,
        "figure": _cmd_figure,
        "table": _cmd_table,
        "report": _cmd_report,
    }
    command = args.command
    if command == "dag":
        command = f"dag.{args.dag_command}"
    observing = bool(
        getattr(args, "profile", False)
        or getattr(args, "profile_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "progress", False)
        or getattr(args, "events_out", None)
    )
    try:
        if observing:
            out = _run_instrumented(handlers[args.command], args, command)
        else:
            out = handlers[args.command](args)
    except (ReproError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # `| head` closed the pipe: the exit-time flush must not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
