"""Heuristics vs metaheuristic search vs exhaustive on generated workflows.

This driver quantifies what the order-search subsystem buys over the fixed
linearization heuristics (paper §V poses the problem; the repo's answer is
:mod:`repro.dag.search`):

* on the ``small`` campaign (n <= 8) every topological order can be
  enumerated, so the table reports whether search recovers the *exact*
  optimum over orders;
* on the ``default`` campaign (n >= 20) enumeration is hopeless — search
  is compared against the best fixed heuristic, reporting the makespan
  gain and the evaluation-work accounting;
* on the ``hetero`` campaign the same shapes carry strong per-task cost
  multipliers: the fixed heuristics are weight-only, so this is where
  order search earns its keep (gains of ~1% and above, an order of
  magnitude over the uniform-cost ceiling of 0.14%);
* on the ``join`` campaign the forever-vulnerable APDCM'15 objective is
  searched jointly over orders and checkpoint decisions; small instances
  are checked against ``exhaustive_join(optimize_order=True)``.

The default platform is deliberately failure-intense: on the Table I
platforms the optimal schedules verify almost every task, which makes the
expected makespan nearly order-insensitive (gains < 0.01%); with
per-task failure odds of ~10% the serialisation order genuinely matters.
The winning search orders of the first campaign and hetero instances are
certified with an adaptive Monte-Carlo agreement stamp (the array-API
``backend=`` is threaded through to the batched engine; heterogeneous
cost profiles are priced in the simulation too).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import format_table
from ..dag.generate import campaign
from ..dag.join import exhaustive_join, join_from_dag, local_search_join, threshold_join
from ..dag.linearize import optimize_dag
from ..dag.search import SearchResult, search_order
from ..platforms import Platform
from ..simulation.certify import AgreementStamp, certify_dag_solution
from .common import render_stamps

__all__ = ["DagSearchResult", "run", "stress_platform"]

#: Algorithm used throughout the comparison: the two-level DP is a good
#: speed/quality compromise for the many exact solves a search performs.
COMPARISON_ALGORITHM = "admv_star"


def stress_platform() -> Platform:
    """A failure-intense platform where serialisation order matters."""
    return Platform.from_costs(
        "stress", lf=3e-4, ls=8e-4, CD=60.0, CM=10.0, r=0.8
    )


@dataclass(frozen=True)
class DagSearchResult:
    """Comparison tables plus the certification stamp."""

    platform: str
    seed: int
    algorithm: str
    #: instance -> (n, exhaustive, best-heuristic, search, recovered?)
    small_rows: list[tuple[str, int, float, float, float, bool]]
    #: instance -> (n, best-heuristic, search, relative gain, won?, scored)
    campaign_rows: list[tuple[str, int, float, float, float, bool, int]]
    #: instance -> (n, best-heuristic, search, relative gain, won?, scored)
    hetero_rows: list[tuple[str, int, float, float, float, bool, int]] = field(
        default_factory=list
    )
    #: instance -> (sources, baseline, search, relative gain, optimal?)
    join_rows: list[tuple[str, int, float, float, float, bool | None]] = field(
        default_factory=list
    )
    stamps: list[AgreementStamp] = field(default_factory=list)

    @property
    def all_recovered(self) -> bool:
        return all(row[5] for row in self.small_rows)

    @property
    def campaign_wins(self) -> int:
        return sum(1 for row in self.campaign_rows if row[5])

    @property
    def hetero_wins(self) -> int:
        return sum(1 for row in self.hetero_rows if row[5])

    @property
    def mean_hetero_gain(self) -> float:
        if not self.hetero_rows:
            return 0.0
        return sum(row[4] for row in self.hetero_rows) / len(self.hetero_rows)

    def render(self) -> str:
        small = format_table(
            ["instance", "n", "exhaustive", "best heur", "search", "exact?"],
            [
                [name, n, f"{exh:.2f}", f"{heur:.2f}", f"{search:.2f}",
                 "yes" if ok else "NO"]
                for name, n, exh, heur, search, ok in self.small_rows
            ],
            title=(
                f"small campaign — search vs exhaustive optimum "
                f"({self.platform}, {self.algorithm}, seed {self.seed})"
            ),
        )
        big = format_table(
            ["instance", "n", "best heur", "search", "gain", "win?", "scored"],
            [
                [name, n, f"{heur:.2f}", f"{search:.2f}", f"{gain:+.3%}",
                 "yes" if won else "no", scored]
                for name, n, heur, search, gain, won, scored in self.campaign_rows
            ],
            title=(
                f"default campaign — search vs fixed heuristics "
                f"(search wins {self.campaign_wins}/{len(self.campaign_rows)})"
            ),
        )
        parts = [small, big]
        if self.hetero_rows:
            parts.append(
                format_table(
                    ["instance", "n", "best heur", "search", "gain",
                     ">=1%?", "scored"],
                    [
                        [name, n, f"{heur:.2f}", f"{search:.2f}",
                         f"{gain:+.3%}", "yes" if won else "no", scored]
                        for name, n, heur, search, gain, won, scored
                        in self.hetero_rows
                    ],
                    title=(
                        f"hetero campaign — per-task cost multipliers "
                        f"(search gains >= 1% on "
                        f"{self.hetero_wins}/{len(self.hetero_rows)}, "
                        f"mean {self.mean_hetero_gain:+.3%})"
                    ),
                )
            )
        if self.join_rows:
            parts.append(
                format_table(
                    ["instance", "sources", "baseline", "search", "gain",
                     "optimal?"],
                    [
                        [name, n, f"{base:.2f}", f"{search:.2f}",
                         f"{gain:+.3%}",
                         "yes" if opt else ("NO" if opt is not None else "n/a")]
                        for name, n, base, search, gain, opt in self.join_rows
                    ],
                    title=(
                        "join campaign — forever-vulnerable objective "
                        "(baseline = best of threshold / local search)"
                    ),
                )
            )
        parts.append(render_stamps(self.stamps))
        return "\n\n".join(parts)

    def as_dict(self) -> dict:
        # imported here: the benchmark imports this module for its
        # platform and needs none of the document layer
        from ..api import as_document

        return {
            "platform": self.platform,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "small": [
                {
                    "instance": name,
                    "n": n,
                    "exhaustive": exh,
                    "best_heuristic": heur,
                    "search": search,
                    "recovered_optimum": ok,
                }
                for name, n, exh, heur, search, ok in self.small_rows
            ],
            "campaign": [
                {
                    "instance": name,
                    "n": n,
                    "best_heuristic": heur,
                    "search": search,
                    "relative_gain": gain,
                    "win": won,
                    "orders_scored": scored,
                }
                for name, n, heur, search, gain, won, scored in self.campaign_rows
            ],
            "hetero": [
                {
                    "instance": name,
                    "n": n,
                    "best_heuristic": heur,
                    "search": search,
                    "relative_gain": gain,
                    "gain_at_least_1pct": won,
                    "orders_scored": scored,
                }
                for name, n, heur, search, gain, won, scored in self.hetero_rows
            ],
            "join": [
                {
                    "instance": name,
                    "sources": n,
                    "baseline": base,
                    "search": search,
                    "relative_gain": gain,
                    "matches_exhaustive": opt,
                }
                for name, n, base, search, gain, opt in self.join_rows
            ],
            "campaign_wins": self.campaign_wins,
            "hetero_wins_1pct": self.hetero_wins,
            "mean_hetero_gain": self.mean_hetero_gain,
            "all_small_recovered": self.all_recovered,
            "stamps": [as_document(stamp) for stamp in self.stamps],
        }


def _search(dag, platform, seed, **kwargs) -> SearchResult:
    return search_order(
        dag, platform, algorithm=COMPARISON_ALGORITHM, seed=seed, **kwargs
    )


def _certify(dag, platform, found: SearchResult, seed, backend) -> AgreementStamp:
    return certify_dag_solution(
        dag,
        platform,
        found.solution,
        label=f"{dag.name} search",
        seed=seed,
        backend=backend,
    )


def run(
    *,
    fast: bool = True,
    seed: int = 0,
    platform: Platform | None = None,
    backend: str | None = None,
    certify: bool = True,
) -> DagSearchResult:
    """Run the full comparison; ``fast`` trims the large campaign and caps
    the exact-polish budget so the driver stays CLI-interactive."""
    platform = platform or stress_platform()

    small_rows = []
    for dag in campaign("small", seed=seed):
        exhaustive = optimize_dag(
            dag, platform, algorithm=COMPARISON_ALGORITHM, strategy="all"
        )
        heuristics = optimize_dag(
            dag, platform, algorithm=COMPARISON_ALGORITHM, strategy="auto"
        )
        found = _search(dag, platform, seed)
        recovered = (
            found.expected_time
            <= exhaustive.expected_time * (1.0 + 1e-9)
        )
        small_rows.append(
            (
                dag.name,
                dag.n,
                exhaustive.expected_time,
                heuristics.expected_time,
                found.expected_time,
                recovered,
            )
        )

    campaign_rows = []
    stamps: list[AgreementStamp] = []
    dags = campaign("default", seed=seed)
    if fast:
        dags = dags[:3]
    search_kwargs = {"restarts": 1, "polish_budget": 8} if fast else {}
    for index, dag in enumerate(dags):
        heuristics = optimize_dag(
            dag, platform, algorithm=COMPARISON_ALGORITHM, strategy="auto"
        )
        found = _search(dag, platform, seed, **search_kwargs)
        gain = (
            heuristics.expected_time - found.expected_time
        ) / heuristics.expected_time
        won = found.expected_time < heuristics.expected_time * (1.0 - 1e-9)
        if not won and abs(gain) < 1e-9:
            gain = 0.0  # ULP-level noise between equivalent orders
        campaign_rows.append(
            (
                dag.name,
                dag.n,
                heuristics.expected_time,
                found.expected_time,
                gain,
                won,
                found.orders_scored,
            )
        )
        if certify and index == 0:
            stamps.append(_certify(dag, platform, found, seed, backend))

    # ------------------------------------------------------------------
    # heterogeneous-cost campaign: where order search pays off
    # ------------------------------------------------------------------
    hetero_rows = []
    hetero_dags = campaign("hetero", seed=seed)
    if fast:
        hetero_dags = hetero_dags[:3]
    for index, dag in enumerate(hetero_dags):
        heuristics = optimize_dag(
            dag, platform, algorithm=COMPARISON_ALGORITHM, strategy="auto"
        )
        found = _search(dag, platform, seed, **search_kwargs)
        gain = (
            heuristics.expected_time - found.expected_time
        ) / heuristics.expected_time
        hetero_rows.append(
            (
                dag.name,
                dag.n,
                heuristics.expected_time,
                found.expected_time,
                gain,
                gain >= 0.01,
                found.orders_scored,
            )
        )
        if certify and index == 0:
            stamps.append(_certify(dag, platform, found, seed, backend))

    # ------------------------------------------------------------------
    # join campaign: forever-vulnerable objective, decisions + order
    # ------------------------------------------------------------------
    join_rows = []
    join_dags = campaign("join", seed=seed)
    if fast:
        join_dags = join_dags[:2]
    for dag in join_dags:
        instance = join_from_dag(
            dag, rate=platform.lf, C=platform.CD, R=platform.RD
        )
        baseline = min(
            threshold_join(instance)[0], local_search_join(instance)[0]
        )
        found = search_order(dag, platform, seed=seed)
        gain = (baseline - found.expected_time) / baseline
        optimal: bool | None = None
        if instance.n_sources <= 7:
            exh_value, _ = exhaustive_join(instance, optimize_order=True)
            optimal = found.expected_time <= exh_value * (1.0 + 1e-9)
        join_rows.append(
            (dag.name, instance.n_sources, baseline, found.expected_time,
             gain, optimal)
        )

    return DagSearchResult(
        platform=platform.name,
        seed=seed,
        algorithm=COMPARISON_ALGORITHM,
        small_rows=small_rows,
        campaign_rows=campaign_rows,
        hetero_rows=hetero_rows,
        join_rows=join_rows,
        stamps=stamps,
    )
