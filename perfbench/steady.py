"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workloads dag_search ...] [--first-seed 1]

Runs ``run.py --trace 0`` on ten seeds from ``--first-seed`` on each
workload and prints, per end-to-end metric, the median and the spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  It
fails when a spread other than ``setup_s`` exceeds the metric's bound in
``BENCHMARK.json``, and flags spreads above a third of it.  It also runs
``--trace 1`` twice on the first seed and fails unless every per-layer
count that ``perfbench/spec.json`` marks as an exact repeat for the
workload is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact_repeat = json.loads((HERE / "spec.json").read_text())["exact_repeat"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            metrics = run(workload, seed, seconds, 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        for name, bound in bounds.items():
            s = spread(values[name])
            flag = "" if s < bound / 3 else " above a third of the bound"
            if name != "setup_s" and s > bound:
                flag, ok = " OVER THE BOUND", False
            print(
                f"{workload:12s} {name:12s} median {statistics.median(values[name]):12.6g}"
                f"  spread {s:7.4f}  bound {bound}{flag}"
            )
            print(f"{'':12s} {'':12s} values {[round(v, 4) for v in values[name]]}")
        first, second = (
            run(workload, args.first_seed, seconds, 1)["metrics"] for _ in range(2)
        )
        for name in exact_repeat.get(workload, []):
            a, b = first[name]["value"], second[name]["value"]
            ok = ok and a == b
            verdict = "same" if a == b else "DIFFERENT"
            print(f"{workload:12s} {name:34s} {a!r:>14} {b!r:>14} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
