"""Seeded random-workflow generators and sweep campaigns.

The paper's conclusion (§V) poses the general-workflow problem over
arbitrary task DAGs; exercising the order-search machinery
(:mod:`repro.dag.search`) needs a *diverse* supply of instances, not the
handful of hand-written examples.  This module provides parameterized,
seeded generators for the classic synthetic-workflow families:

* ``layered`` — layered Erdős–Rényi: tasks are spread over layers and each
  consecutive-layer pair is wired with edge probability ``density`` (every
  task keeps at least one predecessor so layers stay meaningful);
* ``fork_join`` — a source fans out to parallel branch chains that join
  into a sink (the shape of ensemble/reduction pipelines);
* ``in_tree`` / ``out_tree`` — random trees built by preferential-free
  attachment with a bounded arity (reduction trees / divide-and-conquer);
* ``diamond`` — a rows × cols stencil mesh with down and down-right
  dependencies (wavefront computations);
* ``join`` — the APDCM'15 NP-hard shape: independent sources feeding one
  sink (checkpoint decisions + order are searched jointly).

Every generator draws task weights from a pluggable distribution
(``uniform``, ``lognormal``, ``bimodal``), is fully determined by its
``seed``, and returns a validated :class:`~repro.dag.workflow.WorkflowDAG`.

Heterogeneous resilience costs: every family takes ``cost_spread`` /
``cost_weights`` knobs drawing per-task cost *multipliers* around 1.0
(:func:`draw_cost_multipliers`); ``cost_spread=0`` (the default) keeps
the paper's uniform model and reproduces PR-4-era instances bit-for-bit
— multipliers are drawn strictly after the weights, so the weight stream
is untouched.

:data:`CAMPAIGNS` names small instance suites (generator + kwargs per
instance) used by the CLI (``repro dag sweep``), the experiment driver and
the benchmarks; :func:`campaign` instantiates one with per-instance seeds
derived deterministically from a single master seed.  ``small`` /
``default`` are the PR-4 uniform-cost suites, ``mid`` the largest DAGs
``strategy="all"`` still enumerates; ``hetero`` carries strong
per-task cost heterogeneity (where serialisation order genuinely moves
the makespan) and ``join`` the forever-vulnerable join instances.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from .workflow import WorkflowDAG

__all__ = [
    "CAMPAIGNS",
    "GENERATORS",
    "WEIGHT_DISTRIBUTIONS",
    "campaign",
    "campaign_names",
    "draw_cost_multipliers",
    "draw_weights",
    "generate",
]

#: Default mean task weight (seconds) — matches the paper's 10 000 s total
#: over ~20 tasks, so generated instances live on the platforms' scale.
DEFAULT_MEAN_WEIGHT = 500.0

WEIGHT_DISTRIBUTIONS = ("uniform", "lognormal", "bimodal")


def draw_weights(
    rng: np.random.Generator,
    n: int,
    distribution: str = "uniform",
    *,
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
) -> np.ndarray:
    """Draw ``n`` positive task weights with the requested shape.

    Parameters
    ----------
    distribution:
        ``"uniform"`` on ``mean * [1-spread, 1+spread]``; ``"lognormal"``
        with median ``mean`` and log-space sigma ``spread`` (heavy right
        tail); ``"bimodal"`` — an even mixture of light
        (``mean * min(spread, 1/2)``) and heavy (``mean / max(spread,
        1/4)``) tasks, each jittered ±20%.
    mean:
        Scale of the distribution in seconds.
    spread:
        Dimensionless dispersion knob in ``(0, 1)`` (uniform/bimodal) or
        the log-space sigma (lognormal).
    """
    if n < 1:
        raise InvalidParameterError(f"need at least one task, got n={n}")
    if not mean > 0.0:
        raise InvalidParameterError(f"mean weight must be > 0, got {mean}")
    if not 0.0 < spread < 1.0:
        if distribution != "lognormal" or not spread > 0.0:
            raise InvalidParameterError(
                f"spread must be in (0, 1) (or > 0 for lognormal), got {spread}"
            )
    if distribution == "uniform":
        w = rng.uniform(mean * (1.0 - spread), mean * (1.0 + spread), size=n)
    elif distribution == "lognormal":
        w = mean * np.exp(rng.normal(0.0, spread, size=n))
    elif distribution == "bimodal":
        light = mean * min(spread, 0.5)
        heavy = mean / max(spread, 0.25)
        mode = rng.random(n) < 0.5
        w = np.where(mode, light, heavy) * rng.uniform(0.8, 1.2, size=n)
    else:
        raise InvalidParameterError(
            f"unknown weight distribution {distribution!r}; expected one of "
            f"{WEIGHT_DISTRIBUTIONS}"
        )
    return np.maximum(w, 1e-9)


def draw_cost_multipliers(
    rng: np.random.Generator,
    n: int,
    distribution: str = "lognormal",
    *,
    spread: float,
) -> np.ndarray | None:
    """Per-task resilience-cost multipliers centred on 1.0.

    A multiplier of 1.0 means the platform's scalar costs; the draw
    reuses :func:`draw_weights` with ``mean=1.0`` so the same
    distribution names apply (``lognormal`` with ``spread=1.0`` spans
    roughly one decade in each direction — checkpointing some outputs is
    then an order of magnitude cheaper than others, the regime where the
    serialisation order genuinely matters).  ``spread=0`` returns
    ``None``: the homogeneous paper model, with no rng consumption.
    """
    if spread == 0.0:
        return None
    return draw_weights(rng, n, distribution, mean=1.0, spread=spread)


def _task_names(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"t{i:0{width}d}" for i in range(n)]


def _weights_map(names: list[str], w: np.ndarray) -> dict[str, float]:
    return {name: float(x) for name, x in zip(names, w)}


def _costs_map(
    names: list[str],
    rng: np.random.Generator,
    cost_weights: str,
    cost_spread: float,
) -> dict[str, float] | None:
    mult = draw_cost_multipliers(
        rng, len(names), cost_weights, spread=cost_spread
    )
    if mult is None:
        return None
    return {name: float(m) for name, m in zip(names, mult)}


def layered(
    *,
    tasks: int = 20,
    layers: int = 4,
    density: float = 0.5,
    seed: int = 0,
    weights: str = "uniform",
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
    cost_spread: float = 0.0,
    cost_weights: str = "lognormal",
    name: str = "",
) -> WorkflowDAG:
    """Layered Erdős–Rényi DAG: ``tasks`` spread over ``layers`` layers.

    Each task in layer ``k > 0`` is wired to every task of layer ``k - 1``
    independently with probability ``density`` (the density knob), plus one
    guaranteed predecessor so no task floats free of its layer.
    """
    if layers < 1 or tasks < layers:
        raise InvalidParameterError(
            f"need 1 <= layers <= tasks, got layers={layers}, tasks={tasks}"
        )
    if not 0.0 <= density <= 1.0:
        raise InvalidParameterError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    names = _task_names(tasks)
    # one task per layer guaranteed, the rest assigned uniformly
    assignment = list(range(layers)) + list(
        rng.integers(0, layers, size=tasks - layers)
    )
    by_layer: list[list[str]] = [[] for _ in range(layers)]
    for task_name, layer in zip(names, sorted(assignment)):
        by_layer[layer].append(task_name)
    edges: list[tuple[str, str]] = []
    for prev, cur in zip(by_layer, by_layer[1:]):
        for v in cur:
            wired = [u for u in prev if rng.random() < density]
            if not wired:  # keep the layering meaningful
                wired = [prev[int(rng.integers(len(prev)))]]
            edges.extend((u, v) for u in wired)
    w = draw_weights(rng, tasks, weights, mean=mean, spread=spread)
    return WorkflowDAG(
        _weights_map(names, w),
        edges,
        name=name or f"layered-{tasks}x{layers}",
        cost_multipliers=_costs_map(names, rng, cost_weights, cost_spread),
    )


def fork_join(
    *,
    branches: int = 4,
    branch_length: int = 3,
    seed: int = 0,
    weights: str = "uniform",
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
    cost_spread: float = 0.0,
    cost_weights: str = "lognormal",
    name: str = "",
) -> WorkflowDAG:
    """Fork-join: source -> ``branches`` parallel chains -> sink."""
    if branches < 1 or branch_length < 1:
        raise InvalidParameterError(
            f"need branches >= 1 and branch_length >= 1, got "
            f"{branches} and {branch_length}"
        )
    rng = np.random.default_rng(seed)
    n = 2 + branches * branch_length
    names = _task_names(n)
    source, sink = names[0], names[-1]
    edges: list[tuple[str, str]] = []
    body = names[1:-1]
    for b in range(branches):
        chain = body[b * branch_length : (b + 1) * branch_length]
        edges.append((source, chain[0]))
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], sink))
    w = draw_weights(rng, n, weights, mean=mean, spread=spread)
    return WorkflowDAG(
        _weights_map(names, w),
        edges,
        name=name or f"forkjoin-{branches}x{branch_length}",
        cost_multipliers=_costs_map(names, rng, cost_weights, cost_spread),
    )


def _random_tree_parents(
    rng: np.random.Generator, tasks: int, arity: int
) -> list[int]:
    """Parent index (< i) for each node i >= 1, each parent used <= arity."""
    parents: list[int] = []
    fanout = [0] * tasks
    for i in range(1, tasks):
        open_slots = [j for j in range(i) if fanout[j] < arity]
        parent = open_slots[int(rng.integers(len(open_slots)))]
        fanout[parent] += 1
        parents.append(parent)
    return parents


def out_tree(
    *,
    tasks: int = 15,
    arity: int = 3,
    seed: int = 0,
    weights: str = "uniform",
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
    cost_spread: float = 0.0,
    cost_weights: str = "lognormal",
    name: str = "",
) -> WorkflowDAG:
    """Random out-tree (divide shape): one source, children fan out."""
    if tasks < 1 or arity < 1:
        raise InvalidParameterError(
            f"need tasks >= 1 and arity >= 1, got {tasks} and {arity}"
        )
    rng = np.random.default_rng(seed)
    names = _task_names(tasks)
    parents = _random_tree_parents(rng, tasks, arity)
    edges = [(names[p], names[i]) for i, p in enumerate(parents, start=1)]
    w = draw_weights(rng, tasks, weights, mean=mean, spread=spread)
    return WorkflowDAG(
        _weights_map(names, w),
        edges,
        name=name or f"outtree-{tasks}",
        cost_multipliers=_costs_map(names, rng, cost_weights, cost_spread),
    )


def in_tree(
    *,
    tasks: int = 15,
    arity: int = 3,
    seed: int = 0,
    weights: str = "uniform",
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
    cost_spread: float = 0.0,
    cost_weights: str = "lognormal",
    name: str = "",
) -> WorkflowDAG:
    """Random in-tree (reduction shape): leaves reduce into one sink."""
    if tasks < 1 or arity < 1:
        raise InvalidParameterError(
            f"need tasks >= 1 and arity >= 1, got {tasks} and {arity}"
        )
    rng = np.random.default_rng(seed)
    names = _task_names(tasks)
    # mirror of the out-tree: node i feeds its parent, sink is names[-1]
    parents = _random_tree_parents(rng, tasks, arity)
    mirrored = [names[tasks - 1 - i] for i in range(tasks)]
    edges = [(mirrored[i], mirrored[p]) for i, p in enumerate(parents, start=1)]
    w = draw_weights(rng, tasks, weights, mean=mean, spread=spread)
    return WorkflowDAG(
        _weights_map(names, w),
        edges,
        name=name or f"intree-{tasks}",
        cost_multipliers=_costs_map(names, rng, cost_weights, cost_spread),
    )


def diamond(
    *,
    rows: int = 4,
    cols: int = 4,
    seed: int = 0,
    weights: str = "uniform",
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
    cost_spread: float = 0.0,
    cost_weights: str = "lognormal",
    name: str = "",
) -> WorkflowDAG:
    """Stencil mesh: cell (r, c) feeds (r+1, c) and (r+1, c+1)."""
    if rows < 1 or cols < 1:
        raise InvalidParameterError(
            f"need rows >= 1 and cols >= 1, got {rows} and {cols}"
        )
    rng = np.random.default_rng(seed)
    n = rows * cols
    names = _task_names(n)

    def at(r: int, c: int) -> str:
        return names[r * cols + c]

    edges: list[tuple[str, str]] = []
    for r in range(rows - 1):
        for c in range(cols):
            edges.append((at(r, c), at(r + 1, c)))
            if c + 1 < cols:
                edges.append((at(r, c), at(r + 1, c + 1)))
    w = draw_weights(rng, n, weights, mean=mean, spread=spread)
    return WorkflowDAG(
        _weights_map(names, w),
        edges,
        name=name or f"diamond-{rows}x{cols}",
        cost_multipliers=_costs_map(names, rng, cost_weights, cost_spread),
    )


def join_graph(
    *,
    sources: int = 8,
    seed: int = 0,
    weights: str = "uniform",
    mean: float = DEFAULT_MEAN_WEIGHT,
    spread: float = 0.5,
    cost_spread: float = 0.0,
    cost_weights: str = "lognormal",
    name: str = "",
) -> WorkflowDAG:
    """APDCM'15 join: ``sources`` independent tasks feeding one sink.

    The canonical NP-hard shape for joint order + checkpoint-decision
    search (:meth:`WorkflowDAG.is_join` is True, so
    ``optimize_dag(strategy="search")`` prices it under the
    forever-vulnerable join objective).
    """
    if sources < 1:
        raise InvalidParameterError(f"need sources >= 1, got {sources}")
    rng = np.random.default_rng(seed)
    n = sources + 1
    names = _task_names(n)
    sink = names[-1]
    edges = [(src, sink) for src in names[:-1]]
    w = draw_weights(rng, n, weights, mean=mean, spread=spread)
    return WorkflowDAG(
        _weights_map(names, w),
        edges,
        name=name or f"join-{sources}",
        cost_multipliers=_costs_map(names, rng, cost_weights, cost_spread),
    )


#: Generator registry: kind name -> callable returning a WorkflowDAG.
GENERATORS = {
    "layered": layered,
    "fork_join": fork_join,
    "in_tree": in_tree,
    "out_tree": out_tree,
    "diamond": diamond,
    "join": join_graph,
}


def generate(kind: str, *, seed: int = 0, **kwargs) -> WorkflowDAG:
    """Instantiate one random workflow of the named family.

    >>> generate("fork_join", seed=7, branches=2, branch_length=2).n
    6
    """
    try:
        gen = GENERATORS[kind]
    except KeyError:
        raise InvalidParameterError(
            f"unknown workflow kind {kind!r}; expected one of "
            f"{tuple(sorted(GENERATORS))}"
        ) from None
    return gen(seed=seed, **kwargs)


#: Named instance suites: campaign -> (instance name -> (kind, kwargs)).
#: ``small`` (n <= 8) and ``mid`` (n = 9-12) stay within
#: exhaustive-enumeration reach so search can be checked against the true
#: optimum; ``default`` is the 20+-task regime where only heuristics and
#: search are feasible.
CAMPAIGNS: dict[str, dict[str, tuple[str, dict]]] = {
    "small": {
        "layered-6": ("layered", {"tasks": 6, "layers": 3, "density": 0.4}),
        "forkjoin-6": ("fork_join", {"branches": 2, "branch_length": 2}),
        "intree-7": ("in_tree", {"tasks": 7, "arity": 2}),
        "diamond-2x3": ("diamond", {"rows": 2, "cols": 3}),
        "layered-8": (
            "layered",
            {"tasks": 8, "layers": 4, "density": 0.5, "weights": "lognormal"},
        ),
    },
    # n = 9-12, each under MAX_EXHAUSTIVE_ORDERS topological orders (70
    # to 9,450 at seed 0), so strategy="all" is the oracle of the search;
    # the hetero- twins repeat two specs with cost_spread=1
    "mid": {
        "layered-10": ("layered", {"tasks": 10, "layers": 4, "density": 0.5}),
        "layered-12": (
            "layered",
            {"tasks": 12, "layers": 5, "density": 0.5, "weights": "lognormal"},
        ),
        "forkjoin-10": ("fork_join", {"branches": 2, "branch_length": 4}),
        "forkjoin-11": (
            "fork_join",
            {"branches": 3, "branch_length": 3, "weights": "bimodal"},
        ),
        "intree-10": ("in_tree", {"tasks": 10, "arity": 2}),
        "outtree-11": ("out_tree", {"tasks": 11, "arity": 2, "weights": "lognormal"}),
        "diamond-3x3": ("diamond", {"rows": 3, "cols": 3}),
        "hetero-layered-10": (
            "layered",
            {"tasks": 10, "layers": 4, "density": 0.5, "cost_spread": 1.0},
        ),
        "hetero-outtree-11": (
            "out_tree",
            {"tasks": 11, "arity": 2, "weights": "lognormal", "cost_spread": 1.0},
        ),
    },
    "default": {
        "layered-20": (
            "layered",
            {"tasks": 20, "layers": 5, "density": 0.4, "weights": "lognormal"},
        ),
        "layered-24-dense": (
            "layered",
            {"tasks": 24, "layers": 6, "density": 0.8, "weights": "bimodal"},
        ),
        "forkjoin-20": (
            "fork_join",
            {"branches": 6, "branch_length": 3, "weights": "lognormal"},
        ),
        "intree-21": ("in_tree", {"tasks": 21, "arity": 3, "weights": "bimodal"}),
        "outtree-21": (
            "out_tree",
            {"tasks": 21, "arity": 2, "weights": "lognormal"},
        ),
        "diamond-4x5": ("diamond", {"rows": 4, "cols": 5, "weights": "bimodal"}),
    },
    # the ``default`` shapes with strong per-task cost heterogeneity:
    # lognormal multipliers with sigma ~1 span roughly [0.1, 10]x the
    # platform costs, so *where* a checkpoint lands dominates the optimum
    # and the serialisation order genuinely moves the makespan
    "hetero": {
        "hetero-layered-20": (
            "layered",
            {
                "tasks": 20, "layers": 5, "density": 0.4,
                "weights": "lognormal", "cost_spread": 1.0,
            },
        ),
        "hetero-layered-24": (
            "layered",
            {
                "tasks": 24, "layers": 6, "density": 0.8,
                "weights": "bimodal", "cost_spread": 0.9,
            },
        ),
        "hetero-forkjoin-20": (
            "fork_join",
            {
                "branches": 6, "branch_length": 3,
                "weights": "lognormal", "cost_spread": 1.0,
            },
        ),
        "hetero-intree-21": (
            "in_tree",
            {"tasks": 21, "arity": 3, "weights": "bimodal", "cost_spread": 0.9},
        ),
        "hetero-outtree-21": (
            "out_tree",
            {
                "tasks": 21, "arity": 2,
                "weights": "lognormal", "cost_spread": 1.0,
            },
        ),
        "hetero-diamond-4x5": (
            "diamond",
            {"rows": 4, "cols": 5, "weights": "bimodal", "cost_spread": 0.9},
        ),
    },
    # forever-vulnerable join instances (fail-stop only); join-5/6 stay
    # within exhaustive_join(optimize_order=True) reach so search can be
    # checked against the true joint optimum
    "join": {
        "join-5": ("join", {"sources": 5}),
        "join-6": ("join", {"sources": 6, "weights": "lognormal"}),
        "join-12": ("join", {"sources": 12, "weights": "lognormal"}),
        "join-24": ("join", {"sources": 24, "weights": "bimodal"}),
    },
}


def campaign_names() -> tuple[str, ...]:
    return tuple(sorted(CAMPAIGNS))


def campaign(name: str, *, seed: int = 0) -> list[WorkflowDAG]:
    """Instantiate every DAG of a named campaign.

    Per-instance seeds are spawned deterministically from ``seed`` so one
    master seed pins the whole suite while instances stay independent.
    """
    try:
        spec = CAMPAIGNS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown campaign {name!r}; expected one of {campaign_names()}"
        ) from None
    seeds = np.random.SeedSequence(seed).generate_state(len(spec))
    dags = []
    for (instance, (kind, kwargs)), s in zip(spec.items(), seeds):
        dags.append(generate(kind, seed=int(s), name=instance, **kwargs))
    return dags
