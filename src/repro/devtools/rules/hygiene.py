"""RPR004/RPR007/RPR009: library hygiene — no stray stdout, no bare
excepts, no private process pools, no upward imports.

The CLI owns stdout (its JSON output must stay machine-parseable), the
logging layer owns stderr; a ``print`` anywhere else corrupts piped
output.  A bare ``except:`` swallows ``KeyboardInterrupt`` and
``SystemExit`` and turns worker-thread bugs into silent hangs.  This
rule migrates the ``ast``-walk audit that used to live inline in
``tests/test_obs.py`` so the logic exists once, with suppression
support.

Worker processes start with instrumentation off, so a pool opened
anywhere but :func:`repro.obs.fan_out` silently drops the metrics and
events of everything it runs (RPR007).

The library layers sit below the front ends (the experiment drivers,
the analysis helpers, the CLI) and never import them (RPR009).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import BaseRule, FileContext
from ..model import Finding

__all__ = ["LayeringRule", "LibraryHygieneRule", "ProcessPoolRule"]

#: The library layers and the front-end modules they never import.
_LIBRARY_LAYERS = tuple(
    f"repro/{layer}/" for layer in ("core", "simulation", "dag", "api", "service")
)
_FRONT_ENDS = {"repro.experiments", "repro.analysis", "repro.cli"}


class LibraryHygieneRule(BaseRule):
    code = "RPR004"
    name = "library-hygiene"
    rationale = (
        "Library code never prints (the CLI modules, basename cli.py, "
        "are the sanctioned stdout writers) and never uses a bare "
        "'except:' (it would swallow KeyboardInterrupt/SystemExit; "
        "catch Exception or something narrower, and say why)."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        sanctioned_stdout = ctx.path.name == "cli.py"
        for node in ast.walk(ctx.tree):
            if (
                not sanctioned_stdout
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    "print() in library code; route output through the "
                    "CLI layer or the repro.obs.log logging hierarchy",
                )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self.code,
                    node,
                    "bare 'except:' swallows KeyboardInterrupt and "
                    "SystemExit; catch Exception or something narrower",
                )


class ProcessPoolRule(BaseRule):
    code = "RPR007"
    name = "process-fan-out"
    rationale = (
        "Library code outside repro/obs/ never names ProcessPoolExecutor: "
        "worker processes start with instrumentation off, and "
        "repro.obs.fan_out (with repro.obs.process_pool for a pool kept "
        "across calls) is the one place that runs each payload under a "
        "private registry and event bus and merges/replays them in "
        "payload order."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.rel.startswith("repro/obs/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                named = any(
                    alias.name == "ProcessPoolExecutor" for alias in node.names
                )
            else:
                named = (
                    isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor"
                ) or (
                    isinstance(node, ast.Attribute)
                    and node.attr == "ProcessPoolExecutor"
                )
            if named:
                yield ctx.finding(
                    self.code,
                    node,
                    "ProcessPoolExecutor outside repro/obs/; run worker "
                    "processes through repro.obs.fan_out so their metrics "
                    "and events reach the caller",
                )


class LayeringRule(BaseRule):
    code = "RPR009"
    name = "layering"
    rationale = (
        "repro/core, simulation, dag, api and service never import "
        "repro.experiments, repro.analysis or repro.cli, at module level "
        "or inside a function: code a front end shares with the library "
        "lives in the lowest layer that needs it."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.rel.startswith(_LIBRARY_LAYERS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ctx.resolve_from(node)
                targets = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            upward = {".".join(t.split(".")[:2]) for t in targets} & _FRONT_ENDS
            if upward:
                yield ctx.finding(
                    self.code,
                    node,
                    f"library module imports {', '.join(sorted(upward))}; "
                    "move what it needs down into the library layers",
                )
