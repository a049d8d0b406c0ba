"""The repo-specific ruleset.  One module per concern; see each rule's
``rationale`` (surfaced by ``repro-lint --list-rules``) and the catalog
in ``docs/DEVTOOLS.md``."""

from __future__ import annotations

from ..engine import Rule
from .concurrency import LockDisciplineRule
from .determinism import DeterminismRule, SpawnDisciplineRule
from .hygiene import LayeringRule, LibraryHygieneRule, ProcessPoolRule
from .portability import ArrayApiPortabilityRule
from .schema import SchemaCoverageRule

__all__ = [
    "DEFAULT_RULES",
    "DeterminismRule",
    "ArrayApiPortabilityRule",
    "LayeringRule",
    "LockDisciplineRule",
    "LibraryHygieneRule",
    "ProcessPoolRule",
    "SchemaCoverageRule",
    "SpawnDisciplineRule",
]

#: Every shipped rule, in code order.
DEFAULT_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    ArrayApiPortabilityRule(),
    LockDisciplineRule(),
    LibraryHygieneRule(),
    SchemaCoverageRule(),
    SpawnDisciplineRule(),
    ProcessPoolRule(),
    LayeringRule(),
)
