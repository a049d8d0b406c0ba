"""The repository benchmark's tracer sites still exist in the program.

``perfbench/tracing.py`` wraps program functions by module, class and
attribute name.  A rename there would otherwise surface only when the
benchmark runs; here it fails the test suite.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        for name in ("tracing", "common"):
            sys.modules.pop(name, None)


def test_every_tracer_site_resolves_to_a_callable(tracing):
    sites = {tuple(site[:3]) for site in tracing.IN_PROCESS_SITES}
    sites |= {tuple(site[:3]) for site in tracing.SERVER_SITES}
    assert ("repro.service.http", "_Handler", "do_POST") in sites
    for module_name, owner_name, attr in sorted(sites, key=str):
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, attr, None)), (module_name, owner_name, attr)


#: function sites a module keeps only importable, under ``# noqa: F401``:
#: the wrapper replaces the name, but nothing in the module calls it
IMPORT_ONLY_SITES = {
    # the p=2 objective prices intervals through optimize_batch
    ("repro.dag.parallel", "optimize"),
    # the chain search prices neighbourhoods through evaluate_schedules
    ("repro.dag.search", "evaluate_schedule"),
    # and solves its orders through optimize_batch
    ("repro.dag.search", "optimize"),
}


def _called_names(module_name: str) -> set[str]:
    source = inspect.getsource(importlib.import_module(module_name))
    return {
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_function_site_is_called_by_name(tracing):
    """A wrapped global that its module only imports records nothing: a
    refactor that moves the call elsewhere would silently zero a layer."""
    sites = {
        (module_name, attr)
        for module_name, owner_name, attr, _ in (
            tracing.IN_PROCESS_SITES + tracing.SERVER_SITES
        )
        if owner_name is None
    }
    assert IMPORT_ONLY_SITES <= sites
    for module_name, attr in sorted(sites - IMPORT_ONLY_SITES):
        assert attr in _called_names(module_name), (module_name, attr)
