"""Tests for the experiment harness, figures registry and reporting."""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.experiments.figures import (
    FIGURES,
    dataset_statistics,
    run_figure,
    run_figure9,
)
from repro.experiments.harness import sweep_k, sweep_tau
from repro.experiments.reporting import render_series, render_table


@pytest.fixture(scope="module")
def mc_dataset():
    return load_dataset("rand-mc-c2", seed=3, num_nodes=60)


class TestSweepTau:
    def test_rows_and_series(self, mc_dataset):
        sweep = sweep_tau(
            mc_dataset, k=3, taus=(0.2, 0.8),
            algorithms=("Greedy", "BSM-TSGreedy", "BSM-Saturate"),
        )
        assert sweep.parameter == "tau"
        assert {r.algorithm for r in sweep.rows} == {
            "Greedy", "BSM-TSGreedy", "BSM-Saturate"
        }
        series = sweep.series("BSM-Saturate", "utility")
        assert [v for v, _ in series] == [0.2, 0.8]

    def test_flat_baselines_reuse_measurement(self, mc_dataset):
        sweep = sweep_tau(
            mc_dataset, k=3, taus=(0.1, 0.5, 0.9), algorithms=("Greedy",)
        )
        utils = [m for _, m in sweep.series("Greedy", "utility")]
        assert len(set(utils)) == 1  # identical at every tau

    def test_references_present(self, mc_dataset):
        sweep = sweep_tau(mc_dataset, k=3, taus=(0.5,), algorithms=("Greedy",))
        assert "opt_f_approx" in sweep.references
        assert "opt_g_approx" in sweep.references

    def test_weak_constraint_holds_across_taus(self, mc_dataset):
        sweep = sweep_tau(
            mc_dataset, k=3, taus=(0.3, 0.7),
            algorithms=("BSM-TSGreedy", "BSM-Saturate"),
        )
        opt_g = sweep.references["opt_g_approx"]
        for row in sweep.rows:
            assert row.fairness >= row.value * opt_g - 1e-9

    def test_smsc_dropped_when_not_two_groups(self):
        data = load_dataset("rand-mc-c4", seed=0, num_nodes=60)
        sweep = sweep_tau(
            data, k=3, taus=(0.5,), algorithms=("Greedy", "SMSC")
        )
        assert "SMSC" not in {r.algorithm for r in sweep.rows}

    def test_include_optimal_adds_references(self, mc_dataset):
        sweep = sweep_tau(
            mc_dataset, k=3, taus=(0.5,),
            algorithms=("Greedy",), include_optimal=True,
        )
        assert "opt_f" in sweep.references
        assert "opt_g" in sweep.references
        assert sweep.references["opt_f"] >= sweep.references["opt_f_approx"] - 1e-9
        assert any(r.algorithm == "BSM-Optimal" for r in sweep.rows)


class TestSweepK:
    def test_rows_per_k(self, mc_dataset):
        sweep = sweep_k(
            mc_dataset, ks=(2, 4), tau=0.8,
            algorithms=("Greedy", "BSM-Saturate"),
        )
        assert sweep.parameter == "k"
        greedy_series = sweep.series("Greedy", "utility")
        assert len(greedy_series) == 2
        # Utility grows with k (monotone objective, larger budget).
        assert greedy_series[1][1] >= greedy_series[0][1] - 1e-9

    def test_solution_sizes_match_k(self, mc_dataset):
        sweep = sweep_k(
            mc_dataset, ks=(3,), tau=0.8, algorithms=("BSM-TSGreedy",)
        )
        assert all(r.solution_size == 3 for r in sweep.rows)


class TestInfluenceSweep:
    def test_mc_scoring(self):
        data = load_dataset("rand-im-c2", seed=1)
        sweep = sweep_tau(
            data, k=3, taus=(0.5,),
            algorithms=("Greedy",),
            im_samples=300, mc_simulations=50,
        )
        row = sweep.rows[0]
        assert 0 <= row.fairness <= row.utility <= 1

    def test_collection_shared_across_tau_and_k_sweeps(self):
        from repro.service.session import SolverSession

        data = load_dataset("rand-im-c2", seed=1)
        session = SolverSession(data)
        kwargs = dict(algorithms=("Greedy",), im_samples=200,
                      mc_simulations=20, seed=3, session=session)
        sweep_tau(data, k=3, taus=(0.5,), **kwargs)
        stats = session.objective_cache.stats
        assert stats.entries == 1 and stats.misses == 1
        sweep_k(data, ks=(3,), tau=0.5, **kwargs)
        stats = session.objective_cache.stats
        assert stats.entries == 1  # reused, not re-sampled
        assert stats.misses == 1 and stats.hits >= 1

    def test_cache_distinguishes_same_shaped_graphs(self):
        # Regression: two graphs with identical name/dimensions but
        # different edge probabilities must not share a cached collection.
        from repro.service.session import SolverSession

        a = load_dataset("rand-im-c2", seed=1)
        b = load_dataset("rand-im-c2", seed=1)
        b.graph.set_edge_probabilities(0.9)
        session_a, session_b = SolverSession(a), SolverSession(b)
        kwargs = dict(algorithms=("Greedy",), im_samples=200,
                      mc_simulations=0, seed=3)
        low = sweep_tau(a, k=3, taus=(0.5,), session=session_a, **kwargs)
        high = sweep_tau(b, k=3, taus=(0.5,), session=session_b, **kwargs)
        # Each loaded dataset's session owns its own sampled objective.
        assert session_a.objective_cache.stats.entries == 1
        assert session_b.objective_cache.stats.entries == 1
        # p=0.9 spreads much further than the default p: a shared cache
        # entry would have made these rows identical.
        assert high.rows[0].utility > low.rows[0].utility

    def test_cache_invalidated_by_in_place_mutation(self):
        # Regression: mutating the same graph object between sweeps must
        # not return the collection sampled under the old probabilities
        # (the session repairs or resamples its warm objective).
        from repro.service.session import SolverSession

        data = load_dataset("rand-im-c2", seed=1)
        session = SolverSession(data)
        kwargs = dict(algorithms=("Greedy",), im_samples=200,
                      mc_simulations=0, seed=3, session=session)
        low = sweep_tau(data, k=3, taus=(0.5,), **kwargs)
        data.graph.set_edge_probabilities(0.9)
        high = sweep_tau(data, k=3, taus=(0.5,), **kwargs)
        assert session.full_resamples == 1
        assert high.rows[0].utility > low.rows[0].utility


class TestFigures:
    def test_all_figures_registered(self):
        assert {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                "fig10", "fig11"} <= set(FIGURES)

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            run_figure("fig3", scale="huge")

    @pytest.mark.slow
    def test_fig3_smoke(self):
        results = run_figure(
            "fig3",
            scale="small",
            taus=(0.5,),
            algorithms=("Greedy", "BSM-TSGreedy"),
        )
        assert len(results) == 3
        for sweep in results.values():
            assert sweep.rows

    def test_fig9_shape(self):
        out = run_figure9(epsilons=(0.1, 0.4), k=3, scale="small")
        assert len(out) == 4
        for series in out.values():
            assert [e for e, _, _ in series] == [0.1, 0.4]

    def test_dataset_statistics(self):
        rows = dataset_statistics(
            ["rand-mc-c2"], overrides={"rand-mc-c2": {"num_nodes": 60}}
        )
        assert rows[0]["n"] == 60
        assert rows[0]["c"] == 2
        assert sum(rows[0]["group_percent"]) == pytest.approx(100.0, abs=1)


class TestReporting:
    def test_render_series(self, mc_dataset):
        sweep = sweep_tau(
            mc_dataset, k=3, taus=(0.2, 0.8), algorithms=("Greedy",)
        )
        text = render_series(sweep, "utility")
        assert "tau=0.2" in text
        assert "Greedy" in text
        assert "references:" in text

    def test_render_series_missing_cells(self, mc_dataset):
        sweep = sweep_tau(
            mc_dataset, k=3, taus=(0.5,), algorithms=("Greedy",)
        )
        sweep.rows.append(
            type(sweep.rows[0])(
                algorithm="Fake", parameter="tau", value=0.9,
                utility=1.0, fairness=1.0, runtime=0.0, oracle_calls=0,
                solution_size=0, feasible=True,
            )
        )
        text = render_series(sweep, "utility")
        assert "-" in text  # Fake has no value at tau=0.5

    def test_render_table(self):
        text = render_table(
            "Table 1", ["dataset", "n"], [["rand", 500], ["dblp", 3980]]
        )
        assert "Table 1" in text
        assert "dblp" in text
