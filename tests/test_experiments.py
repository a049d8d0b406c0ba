"""Tests of the experiment drivers (small grids) and their paper shapes."""

from __future__ import annotations

import pytest

from repro.experiments import fig5, fig6, fig78, table1
from repro.platforms import HERA


SMALL_GRID = [2, 6, 12]


class TestTable1:
    def test_rows_in_paper_order(self):
        result = table1.run(certify=False)
        names = [row[0] for row in result.rows()]
        assert names == ["Hera", "Atlas", "Coastal", "Coastal SSD"]

    def test_render_contains_mtbf(self):
        text = table1.run(certify=False).render()
        assert "12.2" in text  # Hera fail-stop MTBF days
        assert "Table I" in text
        assert "not certified" in text  # uncertified runs say so

    def test_agreement_stamp_by_default(self):
        result = table1.run(certify_n=10)
        assert len(result.stamps) == 4
        assert all(s.agrees for s in result.stamps)
        text = result.render()
        assert "Monte-Carlo agreement stamp" in text
        assert "ALL AGREE" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(task_counts=SMALL_GRID, platforms=(HERA,))

    def test_sweeps_present(self, result):
        assert set(result.sweeps) == {"Hera"}

    def test_algorithm_ordering_everywhere(self, result):
        sweep = result.sweeps["Hera"]
        for n in sweep.task_counts:
            v1 = sweep.record(n, "adv_star").normalized_makespan
            v2 = sweep.record(n, "admv_star").normalized_makespan
            v3 = sweep.record(n, "admv").normalized_makespan
            assert v3 <= v2 * (1 + 1e-12) <= v1 * (1 + 1e-12)

    def test_makespan_improves_with_more_tasks(self, result):
        """Paper shape: few tasks => large re-execution penalty."""
        sweep = result.sweeps["Hera"]
        first = sweep.record(SMALL_GRID[0], "admv").normalized_makespan
        last = sweep.record(SMALL_GRID[-1], "admv").normalized_makespan
        assert last < first

    def test_gains_nonnegative(self, result):
        assert result.two_level_gain("Hera") >= 0.0
        assert result.partial_gain("Hera") >= 0.0

    def test_render_contains_tables_and_chart(self, result):
        text = result.render()
        assert "Normalized makespan" in text
        assert "Figure 5 (counts)" in text
        assert "ADMV*" in text

    def test_agreement_stamp_rides_along(self, result):
        # certify defaults on: one stamp per algorithm at the largest n
        assert len(result.stamps) == 3
        assert all(s.agrees for s in result.stamps)
        assert all(s.converged for s in result.stamps)
        assert all(f"n={SMALL_GRID[-1]}" in s.label for s in result.stamps)
        assert "Monte-Carlo agreement stamp" in result.render()


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(n=20)

    def test_all_platforms_solved(self, result):
        assert set(result.solutions) == {
            "Hera",
            "Atlas",
            "Coastal",
            "Coastal SSD",
        }

    def test_paper_shape_single_disk_checkpoint(self, result):
        """'For all platforms, the algorithm does not perform any additional
        disk checkpoints' (only the final mandatory one)."""
        for sol in result.solutions.values():
            assert sol.counts().disk == 1

    def test_paper_shape_ssd_prefers_partials(self, result):
        """On Coastal SSD partial verifications dominate guaranteed ones."""
        counts = result.solutions["Coastal SSD"].counts()
        assert counts.partial > counts.guaranteed - 1  # final verif excluded

    def test_render_contains_diagrams(self, result):
        text = result.render()
        assert "Platform Hera with ADMV" in text
        assert "disk ckpts" in text

    def test_placement_maps_are_stamped(self, result):
        assert len(result.stamps) == 4
        assert all(s.agrees for s in result.stamps)
        assert "Monte-Carlo agreement stamp" in result.render()


class TestFig78:
    @pytest.fixture(scope="class")
    def fig7(self):
        return fig78.run_fig7(task_counts=SMALL_GRID, n_map=20)

    @pytest.fixture(scope="class")
    def fig8(self):
        return fig78.run_fig8(task_counts=SMALL_GRID, n_map=20)

    def test_platform_selection(self, fig7):
        assert set(fig7.sweeps) == {"Hera", "Coastal SSD"}

    def test_decrease_protects_heavy_head(self, fig7):
        """Paper shape (Fig. 7): the early heavy tasks are protected, the
        light tail of the Decrease pattern is left mostly bare on Hera."""
        sched = fig7.map_solutions["Hera"].schedule
        n = sched.n
        head = set(range(1, n // 2 + 1))
        protected = set(sched.memory_positions) - {n}
        assert protected and protected <= head

    def test_highlow_memory_on_heavy_tasks_hera(self, fig8):
        """Paper shape (Fig. 8): memory checkpoints are mandatory on the
        heavy head tasks on Hera."""
        sched = fig8.map_solutions["Hera"].schedule
        heavy = set(range(1, max(1, sched.n // 10) + 1))
        assert heavy <= set(sched.memory_positions) | set(
            sched.guaranteed_positions
        )

    def test_ordering_holds(self, fig8):
        for sweep in fig8.sweeps.values():
            for n in sweep.task_counts:
                v1 = sweep.record(n, "adv_star").normalized_makespan
                v3 = sweep.record(n, "admv").normalized_makespan
                assert v3 <= v1 * (1 + 1e-12)

    def test_render(self, fig7):
        text = fig7.render()
        assert "decrease" in text
        assert "Figure 7" in text

    def test_map_solutions_are_stamped(self, fig7, fig8):
        for result in (fig7, fig8):
            assert len(result.stamps) == 2  # Hera + Coastal SSD
            assert all(s.agrees for s in result.stamps)
            assert "Monte-Carlo agreement stamp" in result.render()


def test_dag_sweep_dict_carries_its_stamps():
    """`repro dag sweep --json` echoes every stamp `render()` prints."""
    from repro.api import as_document
    from repro.experiments.dag_search import DagSearchResult
    from repro.simulation.certify import AgreementStamp

    stamp = AgreementStamp(
        platform="Hera",
        label="layered n=12 search",
        analytic=100.0,
        simulated=100.4,
        relative_gap=0.004,
        reps=4096,
        relative_half_width=0.009,
        target_ci=0.01,
        agrees=True,
        converged=True,
    )
    result = DagSearchResult("Hera", 0, "admv", [], [], stamps=[stamp])
    assert "Monte-Carlo" in result.render()
    stamps = result.as_dict()["stamps"]
    assert stamps == [as_document(stamp)]
    assert stamps[0]["kind"] == "agreement_stamp"
    assert DagSearchResult("Hera", 0, "admv", [], []).as_dict()["stamps"] == []


@pytest.mark.slow
class TestDagSearchDriver:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import dag_search

        return dag_search.run(fast=True, seed=0)

    def test_small_campaign_recovers_exhaustive(self, result):
        assert result.all_recovered
        for _name, _n, exhaustive, heuristic, search, _ok in result.small_rows:
            assert search <= exhaustive * (1 + 1e-9)
            assert exhaustive <= heuristic * (1 + 1e-9)

    def test_campaign_search_never_worse(self, result):
        for _name, _n, heuristic, search, gain, won, scored in result.campaign_rows:
            assert search <= heuristic * (1 + 1e-9)
            assert scored > 0
            assert won == (search < heuristic * (1 - 1e-9))

    def test_render_and_dict(self, result):
        text = result.render()
        assert "search vs exhaustive optimum" in text
        assert "Monte-Carlo agreement stamp" in text
        doc = result.as_dict()
        assert doc["seed"] == 0
        assert doc["all_small_recovered"] is True
        assert len(doc["campaign"]) == len(result.campaign_rows)

    def test_stamp_agrees(self, result):
        assert result.stamps and all(s.agrees for s in result.stamps)


@pytest.mark.slow
class TestParallelSpeedupDriver:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import parallel_speedup

        # small campaign + trimmed MC budget keeps the driver test quick
        return parallel_speedup.run(
            fast=True, seed=0, campaign_name="small", mc_runs=256
        )

    def test_ladder_anchored_at_serialized(self, result):
        assert result.ladder()[0] == 1
        for row in result.rows:
            if row.processors == 1:
                assert row.speedup == 1.0

    def test_surrogate_lower_bounds_mc(self, result):
        for row in result.rows:
            assert row.surrogate <= row.mc_mean + 4.0 * row.mc_sem, row

    def test_render_and_dict(self, result):
        text = result.render()
        assert "parallel speedup" in text
        assert "geometric-mean speedup" in text
        doc = result.as_dict()
        assert doc["campaign"] == "small"
        assert len(doc["rows"]) == len(result.rows)
        assert set(doc["mean_speedup"]) == {"2"}
