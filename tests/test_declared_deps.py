"""Every third-party package ``repro`` imports at module level is declared.

A package that is only present because some other tool installed it
(``networkx`` arrived with ``cfn-lint`` on a development machine) passes
every test there and fails ``import repro`` on a clean install.  This
test reads the imports with :mod:`ast`, so it needs no clean
environment to catch that.  The subprocess tests below pin the import
path: the CLI loads neither SciPy (imported on first use) nor networkx
(a test-only oracle).
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def module_level_imports() -> dict[str, list[str]]:
    """Top-level third-party names imported at module level, with the
    files importing them."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, []).append(
                        str(path.relative_to(ROOT))
                    )
    return found


def install_requires() -> set[str]:
    """Distribution names in ``setup.py``'s ``install_requires``."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            specs = ast.literal_eval(node.value)
            return {
                re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in specs
            }
    raise AssertionError("setup.py declares no install_requires")


def test_module_level_imports_are_declared():
    declared = {name.replace("-", "_") for name in install_requires()}
    imported = module_level_imports()
    assert {"numpy"} <= imported.keys()  # the scan sees imports
    missing = {
        name: files
        for name, files in imported.items()
        if name.lower() not in declared
    }
    assert not missing, f"imported but not in install_requires: {missing}"


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with ``src/`` on its path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_cli_import_loads_neither_scipy_nor_networkx():
    proc = run_python(
        "import sys, repro.cli; "
        "print(sorted({'scipy', 'networkx'} & sys.modules.keys()))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dag_search_runs_without_networkx():
    proc = run_python(
        "import sys; sys.modules['networkx'] = None; "
        "from repro.cli import main; sys.exit(main(['dag', 'optimize', "
        "'--kind', 'layered', '--tasks', '8', '--strategy', 'search', '--json']))"
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["solution"]["order"]) == 8
