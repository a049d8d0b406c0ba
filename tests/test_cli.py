"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlatforms:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "platforms")
        assert code == 0
        for name in ("Hera", "Atlas", "Coastal", "Coastal SSD"):
            assert name in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "platforms", "--json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 4
        assert docs[0]["name"] == "Hera"


class TestSolve:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-p", "hera", "-n", "8", "-a", "admv*"
        )
        assert code == 0
        assert "expected makespan" in out
        assert "disk ckpts" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-p", "atlas", "-n", "6", "-a", "adv*", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["algorithm"] == "adv_star"
        assert doc["platform"] == "Atlas"
        assert doc["normalized_makespan"] > 1.0
        assert doc["schedule"]["n"] == 6

    def test_unknown_platform_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-p", "nonexistent")
        assert code == 2
        assert "unknown platform" in err

    def test_unknown_algorithm_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-a", "nope")
        assert code == 2
        assert "unknown algorithm" in err

    def test_pattern_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--pattern", "highlow", "-n", "10", "-a", "admv*"
        )
        assert code == 0
        assert "highlow" in out

    def test_chain_file(self, capsys, tmp_path):
        from repro.chains import TaskChain, save_chain

        path = tmp_path / "c.json"
        save_chain(TaskChain([100.0, 200.0], name="filechain"), path)
        code, out, _ = run_cli(
            capsys, "solve", "--chain-file", str(path), "-a", "admv*"
        )
        assert code == 0
        assert "filechain" in out


class TestEvaluate:
    def test_evaluate_schedule_string(self, capsys):
        code, out, _ = run_cli(
            capsys, "evaluate", "-p", "hera", "-n", "4", "--schedule", "vMvD"
        )
        assert code == 0
        assert "E[makespan]" in out

    def test_bad_symbol(self, capsys):
        code, _, err = run_cli(
            capsys, "evaluate", "-n", "2", "--schedule", "xD"
        )
        assert code == 2
        assert "symbol" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "-n",
            "3",
            "--schedule",
            "vvD",
            "--json",
        )
        doc = json.loads(out)
        assert doc["schedule"] == "vvD"
        assert doc["expected_time"] > 0


class TestSimulate:
    def test_simulate_optimal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "-p",
            "hera",
            "-n",
            "5",
            "-a",
            "admv*",
            "--runs",
            "50",
        )
        assert code == 0
        assert "Monte-Carlo" in out
        assert "analytic" in out

    def test_simulate_fixed_schedule_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "-n",
            "3",
            "--schedule",
            "vMD",
            "--runs",
            "20",
            "--json",
        )
        doc = json.loads(out)
        assert doc["reps"] == 20
        assert doc["ci_low"] <= doc["mean"] <= doc["ci_high"]
        assert doc["breakdown"]["work"] > 0.0
        assert "convergence" not in doc
        assert doc["backend"] == "numpy"

    def test_simulate_explicit_backend_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD", "--runs",
            "20", "--backend", "numpy", "--json",
        )
        assert code == 0
        assert json.loads(out)["backend"] == "numpy"

    def test_simulate_unknown_backend_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD",
            "--backend", "warp-drive",
        )
        assert code == 2
        assert "unknown backend" in err

    def test_simulate_uninstalled_backend_fails_cleanly(
        self, capsys, monkeypatch
    ):
        # a known name whose namespace is missing must error, not crash;
        # the loader is stubbed so the path runs where strict is installed
        from repro.simulation import backend

        def missing():
            raise ImportError("No module named 'array_api_strict'")

        monkeypatch.setitem(backend._LOADERS, "array-api-strict", missing)
        code, _, err = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD",
            "--backend", "array-api-strict",
        )
        assert code == 2
        assert "not installed" in err

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_simulate_removed_gpu_backends_are_unknown(self, capsys, name):
        code, _, err = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD",
            "--backend", name,
        )
        assert code == 2
        assert "unknown backend" in err
        assert "numpy" in err and "array-api-strict" in err

    def test_simulate_scalar_engine_rejects_non_numpy_backend(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD",
            "--engine", "scalar", "--backend", "array-api-strict",
        )
        assert code == 2
        assert "scalar" in err

    def test_simulate_scalar_engine_rejects_unknown_backend(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD",
            "--engine", "scalar", "--backend", "warp-drive",
        )
        assert code == 2
        assert "unknown backend" in err

    def test_simulate_single_run_json_is_strict_rfc8259(self, capsys):
        # n=1 => unbounded CI; the JSON must use null, never Infinity.
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD", "--runs", "1",
            "--json",
        )
        assert code == 0
        assert "Infinity" not in out
        doc = json.loads(out)
        assert doc["ci_low"] is None and doc["ci_high"] is None
        assert doc["agrees"] is False

    def test_simulate_single_run_adaptive_json_is_strict_rfc8259(self, capsys):
        # capped at 1 rep: relative_half_width is inf -> must become null
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD", "--runs", "1",
            "--target-ci", "0.01", "--json",
        )
        assert code == 0
        assert "Infinity" not in out
        doc = json.loads(out)
        assert doc["convergence"]["relative_half_width"] is None
        assert doc["convergence"]["converged"] is False
        assert doc["agrees"] is False

    def test_simulate_prints_breakdown_by_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-p", "hera", "-n", "4", "--runs", "30"
        )
        assert code == 0
        assert "useful_work" in out
        assert "re_executed_work" in out

    def test_simulate_no_breakdown_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "-p",
            "hera",
            "-n",
            "4",
            "--runs",
            "30",
            "--no-breakdown",
        )
        assert code == 0
        assert "useful_work" not in out

    def test_simulate_target_ci_adaptive(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "-p",
            "hera",
            "-n",
            "5",
            "--runs",
            "100000",
            "--target-ci",
            "0.02",
        )
        assert code == 0
        assert "adaptive, target ±2.00%" in out
        assert "adaptive campaign" in out
        assert "round 0" in out

    def test_simulate_target_ci_defaults_to_orchestrator_cap(self, capsys):
        # without --runs the adaptive path gets the 1M orchestrator cap
        # (same as sweep --target-ci), not the fixed-N default of 1000
        code, out, _ = run_cli(
            capsys, "simulate", "-p", "hera", "-n", "5", "--target-ci", "0.02"
        )
        assert code == 0
        assert "certified" in out
        assert "NOT CONVERGED" not in out

    def test_simulate_target_ci_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "-p",
            "hera",
            "-n",
            "5",
            "--runs",
            "100000",
            "--target-ci",
            "0.02",
            "--json",
        )
        doc = json.loads(out)
        assert doc["convergence"]["converged"] is True
        assert doc["convergence"]["relative_half_width"] <= 0.02
        assert doc["reps"] == doc["convergence"]["reps"]


class TestSweepCommand:
    def test_sweep_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "-p",
            "hera",
            "--max-n",
            "10",
            "--step",
            "5",
            "--algorithms",
            "adv_star,admv_star",
        )
        assert code == 0
        assert "ADV*" in out and "ADMV*" in out

    def test_sweep_backend_without_validation_fails_cleanly(self, capsys):
        # --backend only drives validation campaigns; silently ignoring
        # it (or a typo in it) would mislead
        code, _, err = run_cli(
            capsys, "sweep", "--max-n", "4", "--step", "2", "--algorithms",
            "admv", "--backend", "numpy",
        )
        assert code == 2
        assert "--validate-runs" in err
        code, _, err = run_cli(
            capsys, "sweep", "--max-n", "4", "--step", "2", "--algorithms",
            "admv", "--backend", "numpyy",
        )
        assert code == 2
        assert "unknown backend" in err

    def test_sweep_unknown_backend_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--max-n", "4", "--step", "2", "--algorithms",
            "admv", "--validate-runs", "10", "--backend", "warp-drive",
        )
        assert code == 2
        assert "unknown backend" in err

    def test_sweep_chart_and_cprofile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--max-n",
            "6",
            "--step",
            "3",
            "--algorithms",
            "admv_star",
            "--chart",
            "--cprofile",
        )
        assert code == 0
        assert "legend" in out
        assert "cumulative" in out  # cProfile table

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--max-n",
            "4",
            "--step",
            "2",
            "--algorithms",
            "adv_star",
            "--json",
        )
        doc = json.loads(out)
        assert doc["header"] == ["n", "adv_star"]

    def test_sweep_target_ci_validates_adaptively(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "-p",
            "hera",
            "--max-n",
            "6",
            "--step",
            "3",
            "--algorithms",
            "admv_star",
            "--target-ci",
            "0.02",
        )
        assert code == 0
        assert "Monte-Carlo validation" in out
        assert "reps ±" in out

    def test_sweep_target_ci_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--max-n",
            "4",
            "--step",
            "2",
            "--algorithms",
            "adv_star",
            "--target-ci",
            "0.05",
            "--json",
        )
        doc = json.loads(out)
        assert doc["validated_cells"] == 3
        assert doc["all_cells_agree"] is True

    RANDOM_SWEEP = (
        "sweep", "-p", "hera", "--pattern", "random", "--max-n", "6",
        "--step", "6", "--seed", "5", "--json",
    )

    def test_random_sweep_reproduces(self, capsys):
        first = run_cli(capsys, *self.RANDOM_SWEEP)
        second = run_cli(capsys, *self.RANDOM_SWEEP)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_random_sweep_cell_is_the_seeded_solve(self, capsys):
        code, out, _ = run_cli(capsys, *self.RANDOM_SWEEP)
        assert code == 0
        doc = json.loads(out)
        (row,) = [row for row in doc["rows"] if row[0] == 6]
        for algorithm, value in zip(doc["header"][1:], row[1:]):
            code, out, _ = run_cli(
                capsys, "solve", "-p", "hera", "--pattern", "random", "-n", "6",
                "--seed", "5", "-a", algorithm, "--json",
            )
            assert code == 0
            assert json.loads(out)["normalized_makespan"] == value


class TestDagCommand:
    def test_generate_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "generate", "--kind", "fork_join",
            "--branches", "2", "--branch-length", "2", "--seed", "7",
        )
        assert code == 0
        assert "forkjoin-2x2" in out
        assert "seed=7" in out

    def test_generate_json_echoes_seed_and_roundtrips(self, capsys, tmp_path):
        from repro.dag import WorkflowDAG

        path = tmp_path / "dag.json"
        code, out, _ = run_cli(
            capsys, "dag", "generate", "--kind", "diamond", "--rows", "2",
            "--cols", "3", "--seed", "11", "--json", "-o", str(path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 11
        assert doc["kind"] == "diamond"
        assert len(doc["tasks"]) == 6
        on_disk = json.loads(path.read_text())
        assert WorkflowDAG.from_dict(on_disk).n == 6

    def test_generate_seed_determinism(self, capsys):
        argv = ("dag", "generate", "--kind", "layered", "--seed", "3", "--json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_generate_rejects_unknown_weights(self, capsys):
        with pytest.raises(SystemExit):  # argparse choices guard
            main(["dag", "generate", "--weights", "zipf"])
        assert "invalid choice" in capsys.readouterr().err

    def test_generate_rejects_mismatched_knobs(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "generate", "--kind", "diamond", "--branches", "3"
        )
        assert code == 2
        assert "does not accept" in err

    def test_optimize_heuristics_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join",
            "--branches", "2", "--branch-length", "2", "--seed", "1",
            "-a", "adv*",
        )
        assert code == 0
        assert "order:" in out
        assert "expected makespan" in out

    def test_optimize_search_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "layered", "--tasks", "7",
            "--layers", "3", "--seed", "5", "-a", "adv*",
            "--strategy", "search", "--restarts", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 5
        assert doc["strategy"] == "search"
        assert len(doc["solution"]["order"]) == 7
        assert doc["orders_scored"] > 0
        assert doc["solution"]["expected_time"] > 0

    def test_optimize_search_certified_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join",
            "--branches", "2", "--branch-length", "1", "--seed", "0",
            "-a", "adv*", "--strategy", "search", "--certify",
            "--target-ci", "0.05", "--backend", "numpy", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["agrees"] is True
        assert doc["certificate"]["target_ci"] == 0.05

    def test_optimize_processors_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join",
            "--branches", "2", "--branch-length", "2", "--seed", "1",
            "-a", "adv*", "--processors", "2", "--restarts", "1",
        )
        assert code == 0
        assert "parallel schedule" in out
        assert "parallel search" in out
        assert "surrogate" in out

    def test_optimize_processors_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join",
            "--branches", "2", "--branch-length", "2", "--seed", "1",
            "-a", "adv*", "--processors", "2", "--restarts", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["processors"] == 2
        assert (
            len(doc["solution"]["order"])
            == len(doc["solution"]["assignment"])
            == 6
        )
        assert set(doc["solution"]["assignment"].values()) <= {0, 1}
        assert doc["states_priced"] > 0
        assert len(doc["solution"]["worker_busy"]) == 2

    def test_optimize_processors_rejects_serial_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--processors", "2",
            "--strategy", "search", "--recombine", "0",
        )
        assert code == 2
        assert "--strategy" in err and "--recombine" in err
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--processors", "2", "--certify",
        )
        assert code == 2
        assert "simulate_parallel" in err

    def test_optimize_rejects_search_flags_without_search(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "-a", "adv*", "--method", "anneal",
            "--restarts", "8",
        )
        assert code == 2
        assert "--method" in err and "--restarts" in err
        assert "--strategy search" in err

    def test_dag_file_errors_fail_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--dag-file", "missing.json",
        )
        assert code == 2
        assert "cannot read workflow file" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "dag", "optimize", "--dag-file", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    def test_generate_from_file_nulls_provenance(self, capsys, tmp_path):
        path = tmp_path / "wf.json"
        run_cli(
            capsys, "dag", "generate", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--seed", "3", "-o", str(path),
        )
        code, out, _ = run_cli(
            capsys, "dag", "generate", "--dag-file", str(path), "--seed", "9",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] is None and doc["seed"] is None

    def test_optimize_certify_works_without_search(self, capsys):
        # --certify must stamp fixed-strategy winners too, not be
        # silently dropped when --strategy search is absent
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join",
            "--branches", "2", "--branch-length", "1", "--seed", "0",
            "-a", "adv*", "--certify", "--target-ci", "0.05", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["strategy"] == "auto"
        assert doc["certificate"]["agrees"] is True

    def test_optimize_from_dag_file(self, capsys, tmp_path):
        path = tmp_path / "dag.json"
        run_cli(
            capsys, "dag", "generate", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--seed", "3", "-o", str(path),
        )
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--dag-file", str(path), "-a", "adv*",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dag"] == "forkjoin-2x1"
        assert len(doc["order"]) == 4

    def test_optimize_wide_dag_all_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "layered", "--tasks", "12",
            "--layers", "1", "--strategy", "all",
        )
        assert code == 2
        assert 'strategy="search"' in err

    def test_sweep_wiring(self, capsys, monkeypatch):
        # the full driver is exercised in test_experiments (slow lane);
        # here only the CLI plumbing: flags forwarded, JSON passthrough
        from repro.experiments import dag_search

        calls = {}

        def fake_run(**kwargs):
            calls.update(kwargs)

            class Stub:
                def as_dict(self):
                    return {"seed": kwargs["seed"]}

                def render(self):
                    return "stub table"

            return Stub()

        monkeypatch.setattr(dag_search, "run", fake_run)
        code, out, _ = run_cli(
            capsys, "dag", "sweep", "--seed", "6", "--full",
            "--backend", "numpy", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "schema_version": 2,
            "kind": "dag_sweep",
            "backend": "numpy",
            "seed": 6,
        }
        assert calls == {
            "fast": False, "seed": 6, "backend": "numpy", "certify": True,
        }

    def test_sweep_backend_requires_certification(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "sweep", "--no-certify", "--backend", "numpy",
        )
        assert code == 2
        assert "drop --no-certify" in err

    def test_optimize_certify_flags_require_certify(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--backend", "torch",
            "--target-ci", "0.005",
        )
        assert code == 2
        assert "--backend" in err and "--target-ci" in err
        assert "--certify" in err


class TestSeedThreading:
    """One --seed flag everywhere randomness exists, echoed in JSON."""

    def test_simulate_json_echoes_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "3", "--schedule", "vMD",
            "--runs", "50", "--seed", "9", "--json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_sweep_json_echoes_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "-n", "4", "--max-n", "6", "--step", "3",
            "--algorithms", "adv_star", "--validate-runs", "40",
            "--seed", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 4
        assert doc["validated_cells"]

    def test_generate_heterogeneous_costs(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "generate", "--kind", "layered", "--tasks", "8",
            "--layers", "2", "--cost-spread", "1.0", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["cost_multipliers"]) == 8
        code, out, _ = run_cli(
            capsys, "dag", "generate", "--kind", "layered", "--tasks", "8",
            "--layers", "2", "--cost-spread", "1.0",
        )
        assert code == 0
        assert "heterogeneous costs" in out

    def test_generate_join_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "generate", "--kind", "join", "--sources", "11",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["tasks"]) == 12
        assert all(edge[1] == "t11" for edge in doc["edges"])

    def test_optimize_join_search_reports_decisions(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "join", "--sources", "5",
            "--strategy", "search", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == "join"
        assert "checkpointed_sources" in doc["solution"]["join"]
        assert doc["solution"]["join"]["C"] > 0

    def test_optimize_search_accepts_jobs_and_recombine(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "layered", "--tasks", "7",
            "--layers", "2", "--strategy", "search", "-a", "adv*",
            "--recombine", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["recombined"] == 1

    def test_optimize_hetero_fixed_strategy_certified(self, capsys):
        # regression: the fixed-strategy certify path must price the
        # heterogeneous cost profile too, or the stamp spuriously FAILs
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "layered", "--tasks", "6",
            "--layers", "2", "--cost-spread", "1.0", "--strategy",
            "heavy_first", "-a", "adv*", "--certify", "--target-ci", "0.05",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["agrees"] is True

    def test_optimize_hetero_search_certified(self, capsys):
        # heterogeneous costs threaded end to end: search + MC stamp must
        # agree (the certification prices the permuted cost profile)
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "layered", "--tasks", "6",
            "--layers", "2", "--cost-spread", "1.0", "--strategy", "search",
            "-a", "adv*", "--certify", "--target-ci", "0.05", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["agrees"] is True

    def test_dag_commands_accept_seed(self, capsys):
        for argv in (
            ("dag", "generate", "--seed", "2", "--json"),
            (
                "dag", "optimize", "--kind", "fork_join", "--branches", "2",
                "--branch-length", "1", "--seed", "2", "-a", "adv*", "--json",
            ),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["seed"] == 2


class TestFigureAndTable:
    def test_table_1(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0
        assert "Table I" in out

    @pytest.mark.slow
    def test_figure_6(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "6")
        assert code == 0
        assert "Platform Hera with ADMV" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestSolveBreakdown:
    def test_breakdown_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-p", "hera", "-n", "6", "-a", "admv*", "--breakdown"
        )
        assert code == 0
        assert "expected-time breakdown" in out
        assert "useful_work" in out
        assert "re_executed_work" in out


class TestObservabilityFlags:
    """--profile / --profile-out / --trace-out / --log-level plumbing."""

    def test_solve_profile_reports_dp_solves(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-p", "hera", "-n", "6", "-a", "admv*",
            "--profile",
        )
        assert code == 0
        assert "=== run report ===" in out
        assert "dp solves: 1 (admv_star=1)" in out
        # --profile without --profile-out embeds the JSON document
        doc = json.loads(out.split("--- profile json ---\n", 1)[1])
        assert doc["command"] == "solve"
        assert doc["dp"]["solves"] == {"admv_star": 1}
        assert doc["metrics"]["counters"]["dp.solves.admv_star"] == 1

    def test_profile_out_and_trace_out_files(self, capsys, tmp_path):
        prof = tmp_path / "profile.json"
        trace = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys, "simulate", "-p", "hera", "-n", "5", "--runs", "200",
            "--profile-out", str(prof), "--trace-out", str(trace),
        )
        assert code == 0
        assert "=== run report ===" not in out  # report needs --profile
        doc = json.loads(prof.read_text())
        assert doc["command"] == "simulate"
        assert doc["simulation"]["replications"] == 200
        # most Hera replications see no error and skip the lockstep loop
        retired = doc["simulation"]["retired_clean"]
        assert 100 < retired < 200
        assert doc["metrics"]["counters"]["sim.batch.retired_clean"] == retired
        assert doc["wall_s"] > 0
        tdoc = json.loads(trace.read_text())
        names = {e["name"] for e in tdoc["traceEvents"]}
        assert "repro.simulate" in names and "sim.batch" in names

    def test_adaptive_rounds_in_profile(self, capsys, tmp_path):
        prof = tmp_path / "profile.json"
        code, out, _ = run_cli(
            capsys, "simulate", "-p", "hera", "-n", "5",
            "--target-ci", "0.05", "--profile", "--profile-out", str(prof),
        )
        assert code == 0
        assert "adaptive MC rounds:" in out
        doc = json.loads(prof.read_text())
        assert doc["adaptive_rounds"], "mc.round trajectory missing"
        first = doc["adaptive_rounds"][0]
        assert first["index"] == 0
        assert first["reps"] == first["total_reps"] > 0
        assert doc["metrics"]["counters"]["mc.converged"] == 1

    def test_dag_optimize_profile_has_search_and_caches(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "2", "-a", "adv*", "--strategy",
            "search", "--restarts", "1", "--profile",
        )
        assert code == 0
        assert "memo caches:" in out
        assert "search.exact" in out
        assert "moves proposed" in out

    def test_log_level_emits_key_value_records(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "-a", "adv*", "--strategy",
            "search", "--restarts", "1", "--log-level", "debug",
        )
        assert code == 0
        assert "level=debug" in err
        assert "logger=repro." in err

    def test_bad_log_level_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "platforms", "--log-level", "shout"
        )
        assert code == 2
        assert "log level" in err.lower()


class TestParallelEstimate:
    """dag optimize --processors grows a default-on adaptive estimate."""

    def test_estimate_line_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "2", "--seed", "1", "-a", "adv*",
            "--processors", "2", "--restarts", "1", "--target-ci", "0.05",
        )
        assert code == 0
        assert "estimated E[makespan]" in out
        assert "surrogate gap" in out
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "2", "--seed", "1", "-a", "adv*",
            "--processors", "2", "--restarts", "1", "--target-ci", "0.05",
            "--json",
        )
        doc = json.loads(out)
        assert doc["estimate"]["reps"] >= 1
        assert doc["estimate"]["target_ci"] == 0.05
        assert doc["estimate"]["mean"] > 0

    def test_no_estimate_opt_out(self, capsys):
        code, out, _ = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "2", "--seed", "1", "-a", "adv*",
            "--processors", "2", "--restarts", "1", "--no-estimate",
            "--json",
        )
        assert code == 0
        assert "estimate" not in json.loads(out)

    def test_no_estimate_rejects_estimate_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--processors", "2",
            "--no-estimate", "--target-ci", "0.05",
        )
        assert code == 2
        assert "--no-estimate" in err and "--target-ci" in err

    def test_no_estimate_requires_processors(self, capsys):
        code, _, err = run_cli(
            capsys, "dag", "optimize", "--kind", "fork_join", "--branches",
            "2", "--branch-length", "1", "--no-estimate",
        )
        assert code == 2
        assert "--processors" in err


def test_closed_stdout_exits_quietly():
    # `repro ... | head` closes the pipe early; here the read end is
    # closed before the child starts, so every write meets EPIPE
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "dag", "optimize", "--kind",
                "diamond", "--rows", "3", "--cols", "3", "--json",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1
