"""The ``--profile`` run report: JSON document + text rendering.

:func:`build_profile` distils a :class:`~.registry.MetricsSnapshot`
(plus, when available, the trace timeline) into the profile document the
CLI emits: DP solve counts per algorithm, memo hit rates per cache
layer, search move acceptance, batched-kernel throughput, the adaptive
Monte-Carlo round trajectory, and per-span-name wall-time aggregates.
:func:`render_profile` turns that document into the text report printed
after a ``--profile`` run; the raw JSON goes to ``--profile-out``.

The derived sections are views: every number is computed from counters
that also appear verbatim under ``"metrics"``, so downstream tooling can
ignore the convenience sections and re-derive its own.
"""

from __future__ import annotations

import json

from .registry import MetricsSnapshot
from .tracing import Tracer

__all__ = ["build_profile", "render_profile", "write_profile", "CACHE_LAYERS"]

#: Memo cache layers: name -> (miss/solve counter, hit counter).  A miss
#: is an actual evaluation; hit rate = hits / (hits + misses).
CACHE_LAYERS: dict[str, tuple[str, str]] = {
    "search.exact": ("search.exact.evaluations", "search.exact.hits"),
    "search.bound": ("search.bound.evaluations", "search.bound.hits"),
    "search.join": ("search.join.evaluations", "search.join.hits"),
    "parallel.interval": ("parallel.interval.solves", "parallel.interval.hits"),
    "parallel.worker": ("parallel.worker.priced", "parallel.worker.hits"),
    "parallel.state": ("parallel.state.priced", "parallel.state.hits"),
    "pricing.layout": ("pricing.layout.priced", "pricing.layout.hits"),
    "pricing.placement": ("pricing.placement.priced", "pricing.placement.hits"),
}


def build_profile(
    snapshot: MetricsSnapshot,
    tracer: Tracer | None = None,
    *,
    command: str | None = None,
    wall_s: float | None = None,
) -> dict:
    """The profile JSON document for one instrumented run."""
    counters = snapshot.counters
    doc: dict = {}
    if command is not None:
        doc["command"] = command
    if wall_s is not None:
        doc["wall_s"] = wall_s

    dp_solves = {
        name.removeprefix("dp.solves."): value
        for name, value in sorted(counters.items())
        if name.startswith("dp.solves.")
    }
    dp: dict = {"solves": dp_solves, "total": sum(dp_solves.values())}
    dp_timer = snapshot.timers.get("dp.solve")
    if dp_timer is not None:
        dp["seconds"] = dp_timer.total
    doc["dp"] = dp

    caches: dict = {}
    for layer, (miss_name, hit_name) in CACHE_LAYERS.items():
        misses = counters.get(miss_name, 0)
        hits = counters.get(hit_name, 0)
        if misses == 0 and hits == 0:
            continue
        caches[layer] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses),
        }
    doc["caches"] = caches

    proposed = counters.get("search.moves.proposed", 0)
    accepted = counters.get("search.moves.accepted", 0)
    search: dict = {}
    if proposed:
        orders_scored = sum(
            counters.get(name, 0)
            for layer in ("search.exact", "search.bound", "search.join")
            for name in CACHE_LAYERS[layer]
        )
        search = {
            "moves_proposed": proposed,
            "moves_accepted": accepted,
            "acceptance_rate": accepted / proposed,
            "starts": counters.get("search.starts", 0),
            "restarts": counters.get("search.restarts", 0),
            "orders_scored": orders_scored,
        }
    doc["search"] = search

    sim: dict = {}
    replications = counters.get("sim.batch.replications", 0)
    if replications:
        sim = {
            "replications": replications,
            "chunks": counters.get("sim.batch.chunks", 0),
            "steps": counters.get("sim.batch.steps", 0),
            "compactions": counters.get("sim.batch.compactions", 0),
        }
        kernel = snapshot.timers.get("sim.batch.kernel")
        if kernel is not None and kernel.total > 0.0:
            sim["kernel_s"] = kernel.total
            sim["runs_per_s"] = replications / kernel.total
    doc["simulation"] = sim

    rounds = []
    if tracer is not None:
        for event in tracer.named("mc.round"):
            rounds.append(dict(event.args))
    doc["adaptive_rounds"] = rounds

    spans: dict = {}
    if tracer is not None:
        for event in tracer.events:
            if event.dur is None:
                continue
            agg = spans.setdefault(event.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += event.dur
    doc["spans"] = spans

    doc["metrics"] = snapshot.as_dict()
    return doc


def render_profile(
    profile: dict, tracer: Tracer | None = None, *, tree: bool = True
) -> str:
    """Text run report for the terminal (the ``--profile`` output)."""
    lines = ["=== run report ==="]
    if "command" in profile:
        lines.append(f"command: {profile['command']}")
    if "wall_s" in profile:
        lines.append(f"wall time: {profile['wall_s']:.3f} s")

    dp = profile.get("dp", {})
    if dp.get("total"):
        per_algo = ", ".join(
            f"{algo}={n}" for algo, n in dp["solves"].items()
        )
        line = f"dp solves: {dp['total']} ({per_algo})"
        if "seconds" in dp:
            line += f" in {dp['seconds']:.3f} s"
        lines.append(line)

    caches = profile.get("caches", {})
    if caches:
        lines.append("memo caches:")
        for layer, stats in caches.items():
            lines.append(
                f"  {layer:18s} {stats['hit_rate']:6.1%} hit rate "
                f"({stats['hits']} hits / {stats['misses']} misses)"
            )

    search = profile.get("search", {})
    if search:
        lines.append(
            f"search: {search['moves_proposed']} moves proposed, "
            f"{search['moves_accepted']} accepted "
            f"({search['acceptance_rate']:.1%}); "
            f"{search['starts']} starts"
        )

    sim = profile.get("simulation", {})
    if sim:
        line = (
            f"batched kernel: {sim['replications']} replications in "
            f"{sim['chunks']} chunks, {sim['steps']} steps, "
            f"{sim['compactions']} compactions"
        )
        if "runs_per_s" in sim:
            line += f" ({sim['runs_per_s']:,.0f} runs/s)"
        lines.append(line)

    rounds = profile.get("adaptive_rounds", [])
    if rounds:
        lines.append("adaptive MC rounds:")
        for args in rounds:
            lines.append(
                f"  round {args.get('index', '?'):>2}: "
                f"reps={args.get('reps', '?')} "
                f"total={args.get('total_reps', '?')} "
                f"mean={_num(args.get('mean'))} "
                f"±{_num(args.get('half_width'))} "
                f"({_pct(args.get('relative_half_width'))})"
            )

    spans = profile.get("spans", {})
    if spans:
        lines.append("spans (by name):")
        width = max(len(name) for name in spans)
        for name, agg in sorted(
            spans.items(), key=lambda kv: -kv[1]["total_s"]
        ):
            lines.append(
                f"  {name:{width}s}  x{agg['count']:<5d} "
                f"{agg['total_s'] * 1e3:10.2f} ms"
            )

    if tree and tracer is not None and tracer.events:
        lines.append("trace tree:")
        lines.append(tracer.render_tree())
    return "\n".join(lines)


def write_profile(profile: dict, path) -> None:
    """Dump the profile document as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile, fh, indent=2)
        fh.write("\n")


def _num(value) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.4g}"
    return "?"


def _pct(value) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.2%}"
    return "?"
