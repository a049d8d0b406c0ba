"""The repository's benchmark: one workload per run, metrics on the last line.

    python3 perfbench/run.py --workload dag_search --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``dag_search``  -- in-process order and p=2 searches on seeded DAGs;
* ``mc_certify``  -- in-process Monte-Carlo certifications of solved schedules;
* ``service_mix`` -- two closed-loop clients against a ``repro serve`` process.

``--seconds`` sizes a run: the in-process workloads run the number of
whole rotations, and service_mix the number of requests, that take about
that long at a nominal rate, so every run of a seed does the same work.
``--trace 0`` measures the end-to-end metrics with tracing off.  In-process
op and set-up times are CPU times (``common.op_clock``); service_mix
latencies are the clients' wall times.  Every time is scaled to a
nominal machine speed with a calibration loop timed between ops
(``common.nominal_scales``).
``--trace 1`` runs a fixed op list untraced and traced (op by op
in-process, in alternating blocks against an untraced and a traced
server for service_mix) and reports the per-layer metrics.  The units of
the summary figures, the exact-repeat counts and how the layer metrics
should move the end-to-end ones are in ``perfbench/spec.json``.

The last line of standard output is one JSON object; the lines before
it print every metric by name and unit.  The exit code is non-zero when
any op failed its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import (
    ROOT,
    median,
    nominal_scales,
    op_clock,
    peak_rss_mb,
    setup_scale,
    tail,
    use_source_tree,
)

WORKLOADS = ("dag_search", "mc_certify", "service_mix")
#: set-up runs per measured run: this process plus fresh child processes
SETUP_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process timing one more set-up
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_units() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Units of the end-to-end, per-layer and summary figures."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = json.loads((ROOT / "perfbench" / "spec.json").read_text())["summary"]
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        {name: m["unit"] for name, m in summary.items()},
    )


def child_setup_s(args: argparse.Namespace) -> float:
    out = subprocess.run(
        [
            sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only",
        ],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def latency_metrics(times: list[float], wall: float) -> tuple[dict, dict]:
    """ops_per_s, op_p50_ms and op_tail_ms, plus the tail's percentile."""
    tail_s, percentile = tail(times)
    return (
        {
            "ops_per_s": len(times) / wall,
            "op_p50_ms": 1e3 * median(times),
            "op_tail_ms": 1e3 * tail_s,
        },
        {"ops": len(times), "op_tail_percentile": percentile},
    )


def in_process(args: argparse.Namespace):
    """dag_search / mc_certify: returns (attempted, failed, metrics, info)."""
    import importlib

    workload = importlib.import_module(args.workload)
    state = workload.setup(args.seed)
    # from the process's start, imports included
    own_setup_s = op_clock() * setup_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        raise SystemExit(0)

    if args.trace:
        from tracing import SpanRecorder, installed, layer_metrics

        from repro.obs import MetricsRegistry, instrument

        # each op untraced and traced back to back, so that drift in the
        # machine's speed cancels out of trace.overhead, and every other
        # op traced first, so that neither copy always finds warm caches
        untraced, traced = workload.Phase(), workload.Phase()
        recorder, registry = SpanRecorder(op_clock), MetricsRegistry()

        def run_untraced(op) -> None:
            untraced.run(op, score=True)

        def run_traced(op) -> None:
            with installed(recorder), instrument(registry):
                traced.run(op, recorder)

        ops = workload.fixed_ops(state, args.seconds)
        workload.Phase().run(ops[0])  # lazy first-call costs land in neither copy
        for i, op in enumerate(ops):
            pair = (run_untraced, run_traced)
            for run_copy in pair if i % 2 == 0 else pair[::-1]:
                run_copy(op)
        op_wall = sum(traced.times)
        metrics = layer_metrics(
            recorder.snapshot(),
            registry.snapshot().counters,
            op_wall,
            **traced.layer_inputs(),
        )
        # the same op list both times: 1 - traced ops/s over untraced ops/s
        metrics["trace.overhead"] = 1.0 - sum(untraced.times) / op_wall
        metrics.update(untraced.extra(untraced.times))
        phases = (untraced, traced)
        return (
            sum(p.attempted for p in phases),
            sum(p.failed for p in phases),
            metrics,
            {"ops_per_phase": traced.attempted},
        )

    # PASSES runs of one op list; an op's time is its least over them,
    # each scaled to the nominal machine speed
    passes = [
        workload.run(state, args.seconds / workload.PASSES)
        for _ in range(workload.PASSES)
    ]
    scaled = [
        [scale * t for scale, t in zip(nominal_scales(p.calibrations), p.times)]
        for p in passes
    ]
    times = [min(op_times) for op_times in zip(*scaled)]
    speed = median([s for p in passes for s in nominal_scales(p.calibrations)])
    setups = [own_setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    metrics, info = latency_metrics(times, sum(times))
    metrics.update(setup_s=median(setups), peak_rss_mb=peak_rss_mb())
    info.update(passes[0].extra(times), machine_speed=speed)
    return (
        sum(p.attempted for p in passes),
        sum(p.failed for p in passes),
        metrics,
        info,
    )


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    use_source_tree()
    e2e_units, layer_units, summary_units = metric_units()
    if args.workload == "service_mix":
        import service_mix

        attempted, failed, metrics, info = service_mix.measure(args)
    else:
        attempted, failed, metrics, info = in_process(args)

    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: workload did not measure {', '.join(missing)}")
    info["error_rate"] = failed / attempted if attempted else 0.0
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} attempted={attempted} failed={failed}"
    )
    for name, value in info.items():
        print(f"  {name} = {value:.6g} {summary_units[name]}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
