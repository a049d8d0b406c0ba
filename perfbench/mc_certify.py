"""mc_certify: in-process Monte-Carlo certification of solved schedules.

Set-up solves one schedule per (platform, n, pattern): the four Table-I
platforms with every chain pattern and the failure-intense ``stress``
platform with a few, n in {20, 50} (``admv_star`` at 20 tasks,
``adv_star`` at 50), the ``random`` weights drawn from the workload
seed.  Each rotation certifies eight Table-I schedules to a 0.2%
relative CI and two ``stress`` schedules to 1%, rotating through the
patterns, every op with its own Monte-Carlo seed.

On ``stress`` only fixed patterns that certify in a few hundred
milliseconds rotate: ``geometric`` at 20 tasks needs some 50 000
replications, and seeded ``random`` weights anywhere from 6 400 to
25 600, which would let the seed pick the slowest ops.  A 1% target on
the Table-I platforms is left out: the run stops after 400-800
replications there, before the rare-error tail is sampled, and lands
more than four standard errors from the Markov value in about one seed
of thirty.

Each run starts with one fixed-``runs`` campaign on ``stress`` with the
``highlow`` chain, whose slowest replication sets the number of lockstep
steps.  Its Monte-Carlo seed is fixed rather than drawn from the
workload seed: the step count swings by half between seeds, which would
swamp the spread of a thirty-second run.

A run makes two passes over its op list and times each op by the faster
of its two passes.  The slowest ops take some 100 ms, and on a shared
machine spells of a few seconds at two-thirds speed come and go; in one
pass the tail percentile picks out the ops such a spell happened to hit
(its spread over ten seeds was 0.26-0.42 on a shared 2-vCPU guest), in
two it reads the ops' cost.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

from common import Tally, child_seed, op_clock, ratio

from repro.chains import TaskChain, make_chain
from repro.core import optimize
from repro.core.schedule import Schedule
from repro.experiments.dag_search import stress_platform
from repro.platforms import TABLE1_ROWS, Platform
from repro.simulation import run_monte_carlo
from repro.simulation.stats import t_critical

STRESS = stress_platform()
PATTERNS = ("uniform", "decrease", "increase", "geometric", "random", "highlow")
SIZES = (20, 50)
ALGORITHMS = {20: "admv_star", 50: "adv_star"}
TABLE1_TARGET = 0.002
STRESS_TARGET = 0.01
#: adaptive patterns on ``stress``; highlow there is the heavy campaign
STRESS_PATTERNS = {20: ("uniform",), 50: ("uniform", "decrease", "increase")}
HEAVY_RUNS = 250
HEAVY_SEED = 1
#: certified means farther than this many standard errors from the
#: Markov value fail.  Four would flag one correct certification in
#: 16 000 by chance, a one-in-four risk per 4 400-op sweep.
MAX_Z = 5.0
CONFIDENCE = 0.99
#: passes over one op list per run; see the module docstring
PASSES = 2
#: rotations after which every pattern has come round
CYCLE = 6
#: nominal wall of one rotation, which sizes a run: a run certifies whole
#: cycles, so every run and seed times the same mix of instances
ROTATION_S = 0.55


@dataclass(frozen=True)
class Instance:
    chain: TaskChain
    platform: Platform
    schedule: Schedule
    expected_time: float


@dataclass(frozen=True)
class Op:
    instance: Instance
    target: float | None  # None: the fixed-runs campaign
    seed: int


def setup(seed: int) -> dict:
    cells = [
        (platform, n, pattern)
        for platform in TABLE1_ROWS
        for n in SIZES
        for pattern in PATTERNS
    ]
    cells += [(STRESS, n, pattern) for n in SIZES for pattern in STRESS_PATTERNS[n]]
    cells.append((STRESS, 20, "highlow"))
    grid = {}
    for k, (platform, n, pattern) in enumerate(cells):
        kwargs = {"rng": child_seed(seed, k)} if pattern == "random" else {}
        chain = make_chain(pattern, n, **kwargs)
        solution = optimize(chain, platform, algorithm=ALGORITHMS[n])
        grid[platform.name, n, pattern] = Instance(
            chain, platform, solution.schedule, solution.expected_time
        )
    heavy = Op(grid[STRESS.name, 20, "highlow"], None, HEAVY_SEED)
    return {"seed": seed, "grid": grid, "heavy": heavy}


def rotation_ops(state: dict, r: int) -> list[Op]:
    grid, seed = state["grid"], state["seed"]
    picks = [
        (platform.name, n, PATTERNS[(p + i + r) % len(PATTERNS)], TABLE1_TARGET)
        for p, platform in enumerate(TABLE1_ROWS)
        for i, n in enumerate(SIZES)
    ]
    picks += [
        (STRESS.name, n, STRESS_PATTERNS[n][r % len(STRESS_PATTERNS[n])], STRESS_TARGET)
        for n in SIZES
    ]
    return [
        Op(grid[name, n, pattern], target, child_seed(seed, r, k))
        for k, (name, n, pattern, target) in enumerate(picks)
    ]


def _execute(op: Op, recorder):
    inst = op.instance
    span = recorder.span if recorder is not None else lambda name: nullcontext()
    t0 = op_clock()
    with span("sim.fixed" if op.target is None else "sim.adaptive"):
        result = run_monte_carlo(
            inst.chain,
            inst.platform,
            inst.schedule,
            runs=HEAVY_RUNS if op.target is None else 1_000_000,
            seed=op.seed,
            confidence=CONFIDENCE,
            analytic=inst.expected_time,
            target_ci=op.target,
        )
    return op_clock() - t0, result


def _check(op: Op, result) -> bool:
    sem = result.summary.std / math.sqrt(result.runs)
    return abs(result.mean - op.instance.expected_time) <= MAX_Z * sem


class Phase(Tally):
    """An mc_certify tally that also counts replications."""

    def __init__(self) -> None:
        super().__init__()
        self.reps = 0
        self.adaptive_reps = 0
        self.needed_reps = 0.0

    def run(self, op: Op, recorder=None, *, score: bool = False) -> None:
        """Run, time and check one op, counting its replications."""
        result = self.attempt(
            f"{op.instance.platform.name} {op.instance.chain.name} "
            f"target={op.target}",
            lambda: _execute(op, recorder),
            lambda res: _check(op, res),
        )
        if result is None:
            return
        self.reps += result.runs
        if op.target is not None:
            # replications the final variance needed to meet the target
            t = t_critical(result.runs, CONFIDENCE)
            self.adaptive_reps += result.runs
            self.needed_reps += (
                t * result.summary.std / (op.target * result.mean)
            ) ** 2

    def extra(self, times: list[float]) -> dict[str, float]:
        return {"mc_reps_per_s": ratio(self.reps, sum(times))}

    def layer_inputs(self) -> dict[str, float]:
        return {"overshoot": ratio(self.adaptive_reps, self.needed_reps)}


def _ops(state: dict, seconds: float) -> list[Op]:
    """The heavy campaign, then whole cycles for about ``seconds``."""
    cycles = max(1, round(seconds / (CYCLE * ROTATION_S)))
    return [state["heavy"]] + [
        op for r in range(cycles * CYCLE) for op in rotation_ops(state, r)
    ]


def run(state: dict, seconds: float) -> Phase:
    phase = Phase()
    for op in _ops(state, seconds):
        phase.run(op)
    return phase


def fixed_ops(state: dict, seconds: float) -> list[Op]:
    """The ops the traced run repeats, each twice: half a run."""
    return _ops(state, seconds / 2)
