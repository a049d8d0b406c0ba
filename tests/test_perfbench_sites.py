"""The repository benchmark's tracer sites still exist in the program.

``perfbench/tracing.py`` wraps program functions by module, class and
attribute name.  A rename there would otherwise surface only when the
benchmark runs; here it fails the test suite.
"""

import importlib
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
