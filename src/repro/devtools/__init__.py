"""Repo-specific static analysis: the invariant inventory, executable.

Every headline claim of this reproduction — bitwise scalar-oracle
replay, seed-reproducible search, byte-identical warm cache payloads,
array-API portability of the lockstep kernel — rests on coding
invariants.  This package enforces them at lint time with an AST rule
engine (:mod:`.engine`), a repo-specific ruleset (:mod:`.rules`,
``RPR001``–``RPR007``), inline reasoned suppressions (:mod:`.suppress`)
and JSON/human reporters (:mod:`.report`).  Run it as
``python -m repro.devtools`` or via the ``repro-lint`` console script;
``docs/DEVTOOLS.md`` is the rule catalog.
"""

from __future__ import annotations

from .engine import (
    BaseRule,
    FileContext,
    ProjectContext,
    Rule,
    default_root,
    run_checks,
)
from .model import Finding, Report, Suppression
from .report import render_human, render_json
from .rules import DEFAULT_RULES
from .suppress import parse_suppressions

__all__ = [
    "BaseRule",
    "DEFAULT_RULES",
    "FileContext",
    "Finding",
    "ProjectContext",
    "Report",
    "Rule",
    "Suppression",
    "default_root",
    "parse_suppressions",
    "render_human",
    "render_json",
    "run_checks",
]
