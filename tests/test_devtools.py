"""Tests for :mod:`repro.devtools` — the repo-specific lint engine.

Each rule gets a *fire* fixture (a minimal synthetic project where it
must report) and a *quiet* fixture (the sanctioned spelling of the same
pattern, where it must stay silent).  The suppression grammar is
property-tested: a well-formed ``# repro: allow[...] -- reason`` comment
parses identically under any whitespace reformatting.  Finally the real
tree is scanned end to end: the repository itself must be clean under
the full ruleset, which is the same gate CI's lint lane enforces.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools import (
    DEFAULT_RULES,
    parse_suppressions,
    render_human,
    render_json,
    run_checks,
)
from repro.devtools.cli import main as lint_main
from repro.devtools.report import DEVTOOLS_SCHEMA_VERSION
from repro.devtools.suppress import suppression_findings

REPO_ROOT = Path(__file__).resolve().parent.parent


def _project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize a synthetic ``repro`` package under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def _run(root: Path, select: list[str] | None = None):
    return run_checks([root / "repro"], select=select, root=root)


# ----------------------------------------------------------------------
# RPR001 determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_wall_clock_fires_in_seeded_layers(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/clock.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        report = _run(root, ["RPR001"])
        assert [f.code for f in report.active] == ["RPR001"]
        assert "wall-clock" in report.active[0].message

    def test_wall_clock_resolves_through_import_aliases(self, tmp_path):
        root = _project(tmp_path, {
            "repro/dag/clock.py": """
                from time import time as now

                def stamp():
                    return now()
            """,
        })
        report = _run(root, ["RPR001"])
        assert len(report.active) == 1

    def test_wall_clock_is_sanctioned_in_obs(self, tmp_path):
        root = _project(tmp_path, {
            "repro/obs/clock.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert _run(root, ["RPR001"]).ok

    def test_perf_counter_is_allowed_in_seeded_layers(self, tmp_path):
        root = _project(tmp_path, {
            "repro/core/timing.py": """
                import time

                def tick():
                    return time.perf_counter()
            """,
        })
        assert _run(root, ["RPR001"]).ok

    def test_unseeded_default_rng_fires_everywhere(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/sample.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng().random()
            """,
        })
        report = _run(root, ["RPR001"])
        assert len(report.active) == 1
        assert "unseeded" in report.active[0].message

    def test_seeded_default_rng_is_quiet(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/sample.py": """
                import numpy as np

                def draw(seed):
                    return np.random.default_rng(seed).random()
            """,
        })
        assert _run(root, ["RPR001"]).ok

    def test_legacy_global_rng_fires(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/sample.py": """
                import numpy as np

                def draw():
                    return np.random.rand(3)
            """,
        })
        report = _run(root, ["RPR001"])
        assert "legacy global-state RNG" in report.active[0].message

    def test_stdlib_random_import_fires_only_in_seeded_layers(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/bad.py": "import random\n",
            "repro/service/ok.py": "import random\n",
        })
        report = _run(root, ["RPR001"])
        assert [f.path for f in report.active] == ["repro/simulation/bad.py"]


# ----------------------------------------------------------------------
# RPR002 array-API portability
# ----------------------------------------------------------------------
class TestPortabilityRule:
    def test_nonstandard_xp_name_fires_in_kernel_modules(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/batch.py": """
                def count(xp, a):
                    return xp.bincount(a)
            """,
        })
        report = _run(root, ["RPR002"])
        assert len(report.active) == 1
        assert "xp.bincount" in report.active[0].message

    def test_integer_fancy_indexing_fires(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/compile.py": """
                def pick(xp):
                    a = xp.ones(5)
                    idx = xp.arange(3)
                    return a[idx]
            """,
        })
        report = _run(root, ["RPR002"])
        assert len(report.active) == 1
        assert "integer fancy indexing" in report.active[0].message

    def test_in_place_update_fires(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/breakdown.py": """
                def stamp(xp):
                    a = xp.zeros(5)
                    a[0] = 1.0
                    return a
            """,
        })
        report = _run(root, ["RPR002"])
        assert "in-place update" in report.active[0].message

    def test_boolean_masks_and_take_are_quiet(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/batch.py": """
                def compact(xp, be, b1):
                    t = xp.ones(5)
                    done = t > 2.0
                    keep = be.asarray(~done, dtype=b1)
                    alive = t[keep]
                    hit = t[done]
                    first = xp.take(t, xp.argsort(t))
                    return alive, hit, first
            """,
        })
        assert _run(root, ["RPR002"]).ok

    def test_host_numpy_buffers_are_exempt(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/batch.py": """
                def offload(xp, be, ids):
                    t = xp.ones(5)
                    host = be.to_numpy(t)
                    return host[ids]
            """,
        })
        assert _run(root, ["RPR002"]).ok

    def test_non_kernel_modules_are_out_of_scope(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/helpers.py": """
                def count(xp, a):
                    return xp.bincount(a)
            """,
        })
        assert _run(root, ["RPR002"]).ok


# ----------------------------------------------------------------------
# RPR003 lock discipline
# ----------------------------------------------------------------------
class TestLockDisciplineRule:
    def test_unlocked_mutation_fires(self, tmp_path):
        root = _project(tmp_path, {
            "repro/service/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []
                        self._count = 0

                    def bad_append(self, x):
                        self._items.append(x)

                    def bad_count(self):
                        self._count += 1
            """,
        })
        report = _run(root, ["RPR003"])
        assert len(report.active) == 2
        assert all("outside a 'with self.<lock>:'" in f.message
                   for f in report.active)

    def test_locked_mutation_is_quiet(self, tmp_path):
        root = _project(tmp_path, {
            "repro/service/box.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._cond = threading.Condition()
                        self._items = []

                    def good(self, x):
                        with self._cond:
                            self._items.append(x)
                            self._items[0] = x
                            del self._items[0]
            """,
        })
        assert _run(root, ["RPR003"]).ok

    def test_lockless_classes_are_out_of_scope(self, tmp_path):
        root = _project(tmp_path, {
            "repro/service/plain.py": """
                class Plain:
                    def __init__(self):
                        self._items = []

                    def touch(self, x):
                        self._items.append(x)
            """,
        })
        assert _run(root, ["RPR003"]).ok


# ----------------------------------------------------------------------
# RPR004 library hygiene
# ----------------------------------------------------------------------
class TestLibraryHygieneRule:
    def test_print_and_bare_except_fire(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/noisy.py": """
                def run():
                    try:
                        print("done")
                    except:
                        pass
            """,
        })
        report = _run(root, ["RPR004"])
        assert len(report.active) == 2

    def test_cli_modules_may_print(self, tmp_path):
        root = _project(tmp_path, {
            "repro/cli.py": """
                def main():
                    print("the one sanctioned stdout writer")
            """,
        })
        assert _run(root, ["RPR004"]).ok


# ----------------------------------------------------------------------
# RPR005 schema coverage
# ----------------------------------------------------------------------
_SCHEMA_PROJECT = {
    "repro/models.py": """
        class GoodResult:
            pass

        class DerivedResult(GoodResult):
            pass

        class OrphanResult:
            pass
    """,
    "repro/api/results.py": """
        from ..models import GoodResult, DerivedResult, OrphanResult

        def _good_doc(result):
            return {}

        _AS_DOCUMENT = [
            (GoodResult, _good_doc),
        ]
    """,
}


class TestSchemaCoverageRule:
    def test_undispatched_result_class_fires(self, tmp_path):
        root = _project(tmp_path, dict(_SCHEMA_PROJECT))
        report = _run(root, ["RPR005"])
        assert len(report.active) == 1
        finding = report.active[0]
        assert finding.path == "repro/models.py"
        assert "OrphanResult" in finding.message

    def test_dispatched_ancestors_cover_subclasses(self, tmp_path):
        # DerivedResult has no entry of its own but inherits GoodResult's.
        root = _project(tmp_path, dict(_SCHEMA_PROJECT))
        report = _run(root, ["RPR005"])
        assert not any("DerivedResult" in f.message for f in report.active)

    def test_reasoned_suppression_declares_internal_carriers(self, tmp_path):
        files = dict(_SCHEMA_PROJECT)
        files["repro/models.py"] = files["repro/models.py"].replace(
            "class OrphanResult:",
            "class OrphanResult:  # repro: allow[RPR005] -- internal carrier",
        )
        root = _project(tmp_path, files)
        report = _run(root, ["RPR005"])
        assert report.ok
        assert [f.reason for f in report.suppressed] == ["internal carrier"]

    def test_unreachable_modules_are_out_of_scope(self, tmp_path):
        files = dict(_SCHEMA_PROJECT)
        files["repro/island.py"] = "class IslandResult:\n    pass\n"
        root = _project(tmp_path, files)
        report = _run(root, ["RPR005"])
        assert not any("IslandResult" in f.message for f in report.active)


# ----------------------------------------------------------------------
# RPR006 spawned-seed discipline
# ----------------------------------------------------------------------
class TestSpawnDisciplineRule:
    def test_seed_arithmetic_fires(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/shard.py": """
                from numpy.random import default_rng

                def worker_rng(seed, i):
                    return default_rng(seed + i)
            """,
        })
        report = _run(root, ["RPR006"])
        assert len(report.active) == 1
        assert "SeedSequence.spawn" in report.active[0].message

    def test_seed_keyword_arithmetic_fires_anywhere(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/sweep.py": """
                def launch(run, base_seed, k):
                    return run(seed=base_seed * 1000 + k)
            """,
        })
        assert len(_run(root, ["RPR006"]).active) == 1

    def test_spawned_streams_are_quiet(self, tmp_path):
        root = _project(tmp_path, {
            "repro/simulation/shard.py": """
                import numpy as np

                def worker_rngs(seed, n):
                    root = np.random.SeedSequence(seed)
                    return [np.random.default_rng(s) for s in root.spawn(n)]
            """,
        })
        assert _run(root, ["RPR006"]).ok


# ----------------------------------------------------------------------
# RPR007 process fan-out
# ----------------------------------------------------------------------
class TestProcessPoolRule:
    def test_private_pool_fires(self, tmp_path):
        root = _project(tmp_path, {
            "repro/dag/shards.py": """
                import concurrent.futures
                from concurrent.futures import ProcessPoolExecutor

                def run_all(fn, payloads):
                    with ProcessPoolExecutor(max_workers=2) as pool:
                        return list(pool.map(fn, payloads))

                def run_more(fn, payloads):
                    with concurrent.futures.ProcessPoolExecutor() as pool:
                        return list(pool.map(fn, payloads))
            """,
        })
        report = _run(root, ["RPR007"])
        assert [f.line for f in report.active] == [3, 6, 10]
        assert "repro.obs.fan_out" in report.active[0].message

    def test_fan_out_is_quiet_and_obs_may_pool(self, tmp_path):
        root = _project(tmp_path, {
            "repro/dag/shards.py": """
                from ..obs import fan_out

                def run_all(fn, payloads):
                    return fan_out(fn, payloads, n_jobs=2)
            """,
            "repro/obs/__init__.py": """
                from concurrent.futures import ProcessPoolExecutor

                def process_pool(n):
                    return ProcessPoolExecutor(max_workers=n)
            """,
        })
        assert _run(root, ["RPR007"]).ok


# ----------------------------------------------------------------------
# RPR009 layering
# ----------------------------------------------------------------------
class TestLayeringRule:
    def test_upward_imports_fire_in_library_layers(self, tmp_path):
        root = _project(tmp_path, {
            "repro/dag/search.py": """
                import repro.cli
                from ..analysis import format_table
                from repro.experiments.common import render_stamps

                def stamp():
                    from .. import experiments
                    return experiments
            """,
            "repro/service/engine.py": """
                from ..experiments import dag_search
            """,
        })
        report = _run(root, ["RPR009"])
        assert [(f.path, f.line) for f in report.active] == [
            ("repro/dag/search.py", 2),
            ("repro/dag/search.py", 3),
            ("repro/dag/search.py", 4),
            ("repro/dag/search.py", 7),
            ("repro/service/engine.py", 2),
        ]
        assert "repro.analysis" in report.active[1].message

    def test_front_ends_may_import_the_library(self, tmp_path):
        root = _project(tmp_path, {
            "repro/experiments/dag_search.py": """
                from ..analysis import format_table
                from ..simulation.certify import certify_dag_solution
            """,
            "repro/cli.py": """
                from .experiments import dag_search
            """,
            "repro/simulation/certify.py": """
                from ..core.result import Solution
                from .adaptive import run_adaptive

                def join():
                    from ..dag.join import simulate_join
                    return simulate_join
            """,
        })
        assert _run(root, ["RPR009"]).ok


# ----------------------------------------------------------------------
# suppression parsing (+ RPR000 hygiene)
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_comment_covers_its_own_line(self):
        [sup] = parse_suppressions(
            "x = f()  # repro: allow[RPR001] -- fixture clock\n"
        )
        assert sup.codes == ("RPR001",)
        assert sup.reason == "fixture clock"
        assert sup.covers("RPR001", 1)
        assert not sup.covers("RPR002", 1)
        assert not sup.covers("RPR001", 2)

    def test_standalone_comment_covers_the_next_code_line(self):
        source = (
            "# repro: allow[RPR003] -- snapshot read\n"
            "value = (\n"
            "    compute()\n"
            ")\n"
        )
        [sup] = parse_suppressions(source)
        assert sup.line == 1
        assert sup.target_line == 2
        assert sup.covers("RPR003", 2)

    def test_one_comment_may_allow_many_codes(self):
        [sup] = parse_suppressions(
            "y = g()  # repro: allow[RPR001, RPR006] -- legacy shim\n"
        )
        assert sup.codes == ("RPR001", "RPR006")
        assert sup.covers("RPR001", 1) and sup.covers("RPR006", 1)

    def test_reasonless_suppression_suppresses_nothing(self):
        [sup] = parse_suppressions("x = f()  # repro: allow[RPR001]\n")
        assert not sup.valid
        assert not sup.covers("RPR001", 1)
        [finding] = suppression_findings("repro/x.py", [sup])
        assert finding.code == "RPR000"
        assert "reason" in finding.message

    def test_malformed_suppression_is_flagged_not_ignored(self):
        [sup] = parse_suppressions("x = f()  # repro: allow[oops]\n")
        assert sup.codes == ()
        [finding] = suppression_findings("repro/x.py", [sup])
        assert finding.code == "RPR000"
        assert "malformed" in finding.message

    def test_unrelated_comments_are_not_suppressions(self):
        assert parse_suppressions("x = 1  # a normal comment\n") == []

    def test_rpr000_reaches_the_report(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/lazy.py": """
                def f():
                    return g()  # repro: allow[RPR004]
            """,
        })
        report = _run(root, ["RPR004"])
        assert [f.code for f in report.active] == ["RPR000"]

    _GAP = st.text(alphabet=" \t", max_size=3)

    @settings(max_examples=60, deadline=None)
    @given(a=_GAP, b=_GAP, c=_GAP, d=_GAP, e=_GAP, f=_GAP, g=_GAP, h=_GAP)
    def test_grammar_survives_comment_reformatting(
        self, a, b, c, d, e, f, g, h
    ):
        # Reformatting whitespace anywhere outside the reason text must
        # not change what a suppression means.
        comment = (
            f"#{a}repro{b}:{c}allow{d}[{e}RPR001{f},{g}RPR006{h}]"
            f" -- shard clock"
        )
        [sup] = parse_suppressions(f"x = f()  {comment}\n")
        assert sup.codes == ("RPR001", "RPR006")
        assert sup.reason == "shard clock"
        assert sup.covers("RPR001", 1) and sup.covers("RPR006", 1)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    @pytest.fixture()
    def mixed_report(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/mixed.py": """
                def run(log):
                    print("boom")
                    print("ok")  # repro: allow[RPR004] -- fixture output
            """,
        })
        return _run(root, ["RPR004"])

    def test_json_report_schema(self, mixed_report):
        doc = json.loads(render_json(mixed_report))
        assert doc["devtools_version"] == DEVTOOLS_SCHEMA_VERSION
        assert set(doc) == {
            "devtools_version", "root", "files", "rules",
            "findings", "suppressed", "summary",
        }
        assert doc["files"] == 1
        assert doc["rules"] == ["RPR004"]
        [finding] = doc["findings"]
        assert set(finding) == {"code", "path", "line", "col", "message"}
        assert finding["code"] == "RPR004"
        assert doc["summary"]["active"] == 1
        assert doc["summary"]["by_code"] == {"RPR004": 1}

    def test_json_suppressed_entries_carry_reasons(self, tmp_path):
        root = _project(tmp_path, {
            "repro/analysis/quiet.py": """
                def run():
                    print("x")  # repro: allow[RPR004] -- fixture output
            """,
        })
        doc = json.loads(render_json(_run(root, ["RPR004"])))
        assert doc["findings"] == []
        [sup] = doc["suppressed"]
        assert sup["suppressed"] is True
        assert sup["reason"] == "fixture output"

    def test_human_report_lists_findings_and_inventory(self, mixed_report):
        text = render_human(mixed_report)
        assert "repro/analysis/mixed.py:3" in text
        assert "allowed (1 reasoned suppressions):" in text
        assert "RPR004: 1" in text

    def test_human_report_clean_line(self, tmp_path):
        root = _project(tmp_path, {"repro/empty.py": "X = 1\n"})
        text = render_human(_run(root, ["RPR004"]))
        assert "clean:" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _project(tmp_path, {"repro/empty.py": "X = 1\n"})
        assert lint_main(["--root", str(root)]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = _project(tmp_path, {
            "repro/analysis/noisy.py": "print('x')\n",
        })
        assert lint_main(["--root", str(root)]) == 1
        assert "RPR004" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        root = _project(tmp_path, {"repro/empty.py": "X = 1\n"})
        assert lint_main(["--root", str(root), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["devtools_version"] == DEVTOOLS_SCHEMA_VERSION

    def test_list_rules_prints_the_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_RULES:
            assert rule.code in out

    def test_unknown_select_code_is_a_usage_error(self, tmp_path):
        root = _project(tmp_path, {"repro/empty.py": "X = 1\n"})
        with pytest.raises(SystemExit) as exc:
            lint_main(["--root", str(root), "--select", "RPR999"])
        assert exc.value.code == 2

    def test_missing_path_is_a_usage_error(self, tmp_path):
        root = _project(tmp_path, {"repro/empty.py": "X = 1\n"})
        with pytest.raises(SystemExit) as exc:
            lint_main(["--root", str(root), str(tmp_path / "nope.py")])
        assert exc.value.code == 2

    def test_module_entry_point_matches_the_console_script(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools", "--select", "RPR004"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# the repository itself is clean (CI lint-lane gate)
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_full_ruleset_reports_zero_active_findings(self):
        report = run_checks()
        assert len(report.rule_codes) >= 6
        offenders = [
            f"{f.location()}: {f.code} {f.message}" for f in report.active
        ]
        assert not offenders, "\n".join(offenders)

    def test_every_repo_suppression_carries_a_reason(self):
        report = run_checks()
        assert report.suppressed, "the suppression inventory went missing"
        for finding in report.suppressed:
            assert finding.reason, f"{finding.location()} has no reason"


# ----------------------------------------------------------------------
# typed core (runs where mypy is installed, e.g. the CI lint lane)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed locally"
)
def test_typed_core_passes_mypy_strict():
    proc = subprocess.run(
        [shutil.which("mypy"), "--config-file", "mypy.ini"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
