"""Tests for repro.core.bsm_saturate (Algorithm 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.baselines import greedy_utility
from repro.core.bsm_saturate import ALPHA_FLOOR, bsm_saturate
from repro.core.saturate import saturate
from repro.core.tsgreedy import bsm_tsgreedy
from repro.problems.coverage import CoverageObjective


class TestBsmSaturate:
    def test_practical_mode_size_k(self, small_coverage):
        result = bsm_saturate(small_coverage, 4, 0.5)
        assert result.size == 4

    def test_theoretical_mode_size_bound(self, small_coverage):
        eps = 0.3
        result = bsm_saturate(
            small_coverage, 2, 0.5, epsilon=eps, enforce_size_k=False
        )
        c = small_coverage.num_groups
        bound = max(2, math.ceil(2 * math.log(c / eps)))
        assert result.size <= bound
        assert result.extra["budget"] == bound

    def test_weak_constraint_satisfied(self, small_coverage):
        for tau in (0.2, 0.5, 0.8):
            result = bsm_saturate(small_coverage, 4, tau)
            assert result.fairness >= tau * result.extra["opt_g_approx"] - 1e-9

    def test_tau_zero_degenerates_to_greedy(self, small_coverage):
        greedy_res = greedy_utility(small_coverage, 4)
        result = bsm_saturate(small_coverage, 4, 0.0)
        assert result.extra["degenerate"]
        assert result.utility == pytest.approx(greedy_res.utility)

    def test_at_least_as_good_as_tsgreedy_on_coverage(self, small_coverage):
        # The paper's headline empirical claim for MC: BSM-Saturate's
        # utility dominates BSM-TSGreedy's at equal tau (Section 5.1).
        for tau in (0.3, 0.6, 0.9):
            f_sat = bsm_saturate(small_coverage, 4, tau).utility
            f_tsg = bsm_tsgreedy(small_coverage, 4, tau).utility
            assert f_sat >= f_tsg - 0.05

    def test_alpha_interval_valid(self, small_facility):
        result = bsm_saturate(small_facility, 3, 0.5)
        assert 0.0 <= result.extra["alpha_min"] <= result.extra["alpha_max"] <= 1.0

    def test_bisection_iteration_count(self, small_coverage):
        eps = 0.05
        result = bsm_saturate(small_coverage, 4, 0.5, epsilon=eps)
        # Bisection halves [0,1] until (1-eps)*alpha_max <= alpha_min; the
        # iteration count stays logarithmic.
        assert 0 < result.extra["bisection_iters"] <= 64

    def test_subroutine_reuse(self, small_coverage):
        greedy_res = greedy_utility(small_coverage, 4)
        saturate_res = saturate(small_coverage, 4)
        small_coverage.reset_counter()
        result = bsm_saturate(
            small_coverage, 4, 0.5,
            greedy_result=greedy_res, saturate_result=saturate_res,
        )
        assert result.extra["opt_f_approx"] == pytest.approx(greedy_res.utility)
        assert result.extra["opt_g_approx"] == pytest.approx(
            saturate_res.fairness
        )

    def test_epsilon_validation(self, small_coverage):
        with pytest.raises(ValueError):
            bsm_saturate(small_coverage, 2, 0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            bsm_saturate(small_coverage, 2, 0.5, epsilon=1.0)

    def test_epsilon_insensitivity(self, small_coverage):
        # Fig. 9's observation: results barely move for eps < 0.5.
        f_vals = {
            eps: bsm_saturate(small_coverage, 4, 0.8, epsilon=eps).utility
            for eps in (0.05, 0.1, 0.2, 0.4)
        }
        spread = max(f_vals.values()) - min(f_vals.values())
        assert spread <= 0.15

    def test_facility_instance(self, small_facility):
        result = bsm_saturate(small_facility, 3, 0.8)
        assert result.size == 3
        assert result.fairness >= 0.8 * result.extra["opt_g_approx"] - 1e-9

    def test_algorithm_name(self, small_coverage):
        assert bsm_saturate(small_coverage, 2, 0.5).algorithm == "BSM-Saturate"

    def test_uncoverable_instance_falls_back_to_saturate(self):
        # Greedy cover with k = 3 stalls at 1.93 < 2(1 - eps/c) for every
        # alpha, although Saturate's set reaches full fairness. The
        # bisection must stop at ALPHA_FLOOR and return S_g instead of
        # halving alpha until the utility threshold underflows to zero.
        sets = [
            [5, 6, 11, 13], [3, 6, 8, 9, 11, 12], [1, 2, 4, 8, 9, 11],
            [0, 1, 2, 7, 8], [0, 3, 4, 6, 9, 10, 13], [2, 4, 5, 7],
            [0, 3, 4, 5, 8, 11, 12], [1, 4, 5, 9, 11],
        ]
        labels = [0, 1, 2, 1, 2, 1, 1, 0, 2, 2, 1, 0, 0, 0]
        objective = CoverageObjective(
            [np.asarray(members, dtype=np.int64) for members in sets], labels
        )
        result = bsm_saturate(objective, 3, 1.0)
        assert result.extra["alpha_min"] == 0.0
        assert result.extra["alpha_max"] <= ALPHA_FLOOR
        assert result.extra["bisection_iters"] <= 64
        assert result.solution == saturate(objective, 3).solution
        assert result.fairness >= result.extra["opt_g_approx"] - 1e-9
        assert result.feasible
