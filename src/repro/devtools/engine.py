"""The analysis engine: file contexts, import resolution, rule driving.

One :class:`FileContext` per scanned file carries the parsed ``ast``
tree, the raw source, and an *import map* — every rule resolves names
through :meth:`FileContext.resolve` instead of pattern-matching spelling
variants, so ``time.time()``, ``from time import time; time()`` and
``import time as t; t.time()`` all resolve to ``"time.time"``.

Rules implement the :class:`Rule` protocol: per-file checks in
``check_file``; whole-project checks (e.g. the schema-coverage rule,
which relates class definitions across modules) in ``finalize``.  The
engine parses every file exactly once, runs all rules, then applies the
inline suppressions of :mod:`.suppress` — suppressed findings stay in
the report as the auditable allowance inventory.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

from .model import Finding, Report
from .suppress import parse_suppressions, suppression_findings

__all__ = ["FileContext", "ProjectContext", "Rule", "BaseRule", "run_checks"]


class FileContext:
    """One parsed source file plus its resolved import environment."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        #: POSIX path relative to the source root, e.g. ``repro/cli.py``.
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: Dotted module name (``repro.simulation.batch``).
        self.module = _module_name(rel)
        # alias -> imported dotted target:
        #   import numpy as np            -> {"np": "numpy"}
        #   from time import perf_counter -> {"perf_counter": "time.perf_counter"}
        #   from ..chains import TaskChain-> {"TaskChain": "repro.chains.TaskChain"}
        self.imports: dict[str, str] = {}
        self._collect_imports()

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[name] = target
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.imports[name] = f"{base}.{alias.name}"

    def resolve_from(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # relative import: resolve against this file's package
        package_parts = self.module.split(".")[:-1]
        if self.path.name == "__init__.py":
            package_parts = self.module.split(".")
        up = node.level - 1
        if up > len(package_parts):
            return node.module
        base_parts = package_parts[: len(package_parts) - up]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else node.module

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted, import-resolved name of an expression, if it has one.

        ``Name`` nodes map through the import table (falling back to the
        bare identifier); ``Attribute`` chains append.  Returns ``None``
        for expressions that are not dotted-name shaped.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def finding(
        self, code: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code=code,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectContext:
    """Every scanned :class:`FileContext`, addressable by relative path."""

    def __init__(self, root: Path, contexts: list[FileContext]) -> None:
        self.root = root
        self.contexts = contexts
        self.by_rel = {ctx.rel: ctx for ctx in contexts}
        self.by_module = {ctx.module: ctx for ctx in contexts}

    def get_module(self, module: str) -> FileContext | None:
        """A module's context, accepting package names for __init__ files."""
        return self.by_module.get(module)


@runtime_checkable
class Rule(Protocol):
    """What the engine requires of a checker.

    ``code`` is the stable ``RPR###`` identifier suppressions reference;
    ``name`` a short slug; ``rationale`` the one-paragraph *why* shown
    by ``--list-rules`` and in ``docs/DEVTOOLS.md``.
    """

    code: str
    name: str
    rationale: str

    def check_file(self, ctx: FileContext) -> Iterable[Finding]: ...

    def finalize(self, project: ProjectContext) -> Iterable[Finding]: ...


class BaseRule:
    """Convenience base: rules override whichever hook they need."""

    code = "RPR???"
    name = "unnamed"
    rationale = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        return ()


def _module_name(rel: str) -> str:
    parts = rel.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def default_root() -> Path:
    """The source root containing the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    seen: set[Path] = set()
    unique = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(resolved)
    return unique


def run_checks(
    paths: Iterable[Path | str] | None = None,
    *,
    rules: Iterable[Rule] | None = None,
    select: Iterable[str] | None = None,
    root: Path | str | None = None,
) -> Report:
    """Run the rule set over a source tree and return the full report.

    ``root`` is the directory containing the ``repro`` package (defaults
    to the installed package's parent, i.e. ``src/`` in a checkout);
    ``paths`` defaults to the whole package under ``root``.  ``select``
    restricts to specific ``RPR###`` codes (``RPR000`` suppression
    hygiene always runs).
    """
    if rules is None:
        from .rules import DEFAULT_RULES

        rules = DEFAULT_RULES
    rule_list = list(rules)
    if select is not None:
        wanted = {code.upper() for code in select}
        rule_list = [rule for rule in rule_list if rule.code in wanted]

    root_path = Path(root) if root is not None else default_root()
    root_path = root_path.resolve()
    if paths is None:
        target_paths = [root_path / "repro"]
    else:
        target_paths = [Path(p) for p in paths]

    contexts: list[FileContext] = []
    findings: list[Finding] = []
    for file_path in iter_python_files(target_paths):
        try:
            rel = file_path.relative_to(root_path).as_posix()
        except ValueError:
            rel = file_path.name
        source = file_path.read_text(encoding="utf-8")
        contexts.append(FileContext(file_path, rel, source))

    project = ProjectContext(root_path, contexts)
    for ctx in contexts:
        for rule in rule_list:
            findings.extend(rule.check_file(ctx))
    for rule in rule_list:
        findings.extend(rule.finalize(project))

    # apply suppressions and collect suppression-hygiene findings
    final: list[Finding] = []
    for ctx in contexts:
        parsed = parse_suppressions(ctx.source)
        final.extend(suppression_findings(ctx.rel, parsed))
        for finding in [f for f in findings if f.path == ctx.rel]:
            covering = next(
                (s for s in parsed if s.covers(finding.code, finding.line)),
                None,
            )
            if covering is None:
                final.append(finding)
            else:
                final.append(
                    Finding(
                        code=finding.code,
                        path=finding.path,
                        line=finding.line,
                        col=finding.col,
                        message=finding.message,
                        suppressed=True,
                        reason=covering.reason,
                    )
                )
    known_rels = {ctx.rel for ctx in contexts}
    final.extend(f for f in findings if f.path not in known_rels)

    return Report(
        root=str(root_path),
        files=len(contexts),
        rule_codes=tuple(rule.code for rule in rule_list),
        findings=sorted(final, key=Finding.sort_key),
    )
