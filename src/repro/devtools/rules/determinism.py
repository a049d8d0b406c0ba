"""RPR001/RPR006: the reproducibility claims live or die on these.

Every headline number this repository reproduces is certified by replay:
the scalar oracle re-runs the batched kernel's campaigns bitwise,
search results are reproducible from their seed, and warm cache
payloads are byte-identical to cold ones.  One wall-clock
read or one unseeded generator inside a seeded layer silently breaks all
of it — long before any Monte-Carlo gate would notice a statistical
drift.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import BaseRule, FileContext
from ..model import Finding

__all__ = ["DeterminismRule", "SpawnDisciplineRule"]

#: Layers whose outputs are certified by seeded replay.  Wall-clock reads
#: are banned here; ``repro/obs`` and ``repro/service`` are deliberately
#: *not* listed — event timestamps and request accounting are
#: observability metadata, sanctioned wall-clock consumers that never
#: feed a seeded computation.
SEEDED_LAYERS = ("repro/simulation/", "repro/dag/", "repro/core/")

#: Resolved call targets that read the wall clock.  ``time.perf_counter``
#: is allowed everywhere: it only ever feeds *relative* duration metrics,
#: never simulated time.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Legacy global-state NumPy RNG surface: seeded or not, it is shared
#: process state and breaks ``n_jobs`` invariance.
LEGACY_NP_RANDOM = frozenset(
    {
        "numpy.random.seed",
        "numpy.random.random",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.exponential",
    }
)


def in_seeded_layer(rel: str) -> bool:
    return any(rel.startswith(prefix) for prefix in SEEDED_LAYERS)


class DeterminismRule(BaseRule):
    code = "RPR001"
    name = "determinism"
    rationale = (
        "Seeded layers (simulation/, dag/, core/) must be pure functions "
        "of their seeds: no wall-clock reads, no unseeded "
        "default_rng(), no stdlib-random global state, no legacy "
        "numpy.random.* module calls.  obs/ and service/ are the "
        "sanctioned wall-clock consumers (event timestamps, request "
        "accounting) and are exempt from the wall-clock check only."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        seeded = in_seeded_layer(ctx.rel)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, seeded)
            elif seeded and isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, seeded: bool
    ) -> Iterable[Finding]:
        target = ctx.resolve(node.func)
        if target is None:
            return
        if seeded and target in WALL_CLOCK_CALLS:
            yield ctx.finding(
                self.code,
                node,
                f"wall-clock call {target}() in seeded layer; seeded "
                "layers must be pure functions of their seeds "
                "(use time.perf_counter for duration metrics)",
            )
        if target == "numpy.random.default_rng" and not (
            node.args or node.keywords
        ):
            yield ctx.finding(
                self.code,
                node,
                "unseeded numpy.random.default_rng(); library code must "
                "thread an explicit seed or SeedSequence",
            )
        if target in LEGACY_NP_RANDOM:
            yield ctx.finding(
                self.code,
                node,
                f"legacy global-state RNG call {target}(); use a "
                "Generator from a threaded SeedSequence instead",
            )

    def _check_import(
        self, ctx: FileContext, node: ast.Import | ast.ImportFrom
    ) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module] if node.module and node.level == 0 else []
        for module in modules:
            if module == "random" or module.startswith("random."):
                yield ctx.finding(
                    self.code,
                    node,
                    "stdlib 'random' (module-level global state) in a "
                    "seeded layer; use numpy Generators spawned from the "
                    "campaign SeedSequence",
                )


class SpawnDisciplineRule(BaseRule):
    code = "RPR006"
    name = "spawned-seed-discipline"
    rationale = (
        "Child streams must be derived via SeedSequence.spawn, never by "
        "arithmetic on the parent seed: seed+i schemes collide across "
        "campaigns (seed 7 worker 3 == seed 9 worker 1) and destroy the "
        "seed reproducibility the search and batch layers are tested for."
    )

    #: Call targets that consume entropy directly.
    _RNG_CALLS = frozenset(
        {"numpy.random.SeedSequence", "numpy.random.default_rng"}
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func) or ""
            checked: list[ast.expr] = []
            if target in self._RNG_CALLS:
                checked.extend(node.args)
            checked.extend(
                kw.value for kw in node.keywords if kw.arg == "seed"
            )
            for arg in checked:
                if _is_seed_arithmetic(arg):
                    yield ctx.finding(
                        self.code,
                        node,
                        "child seed derived by arithmetic on a parent "
                        "seed; derive worker streams with "
                        "SeedSequence.spawn instead",
                    )
                    break


def _is_seed_arithmetic(node: ast.expr) -> bool:
    """True when ``node`` is an arithmetic expression over a seed name."""
    if not isinstance(node, ast.BinOp):
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
    return False
