"""Cross-solver metamorphic properties on all five problem domains.

Four relations that must hold regardless of instance content:

* **Budget monotonicity** — greedy's utility is non-decreasing in ``k``
  (each round adds a non-negative marginal gain).
* **Constraint vanishing** — at ``tau = 0`` the fairness constraint is
  vacuous, so both BSM solvers must recover plain greedy's utility.
* **Group permutation symmetry** — every scalarizer is symmetric under
  a joint permutation of group values and weights, and its vectorized
  ``value_batch``/``gain_states`` paths must agree with the scalar
  ``value``/``gain`` row by row under that permutation.
* **Item relabeling invariance** — renaming ground-set items (and
  carrying any item-indexed data along) cannot change the achieved
  utility/fairness of a deterministic solver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import greedy_utility
from repro.core.bsm_saturate import bsm_saturate
from repro.core.functions import (
    AverageUtility,
    BSMCombined,
    MinUtility,
    Scalarizer,
    TruncatedFairness,
    WeightedCombination,
)
from repro.core.tsgreedy import bsm_tsgreedy
from repro.datasets.registry import load_dataset
from repro.influence.ris import RRCollection
from repro.problems.coverage import CoverageObjective
from repro.problems.facility import FacilityLocationObjective
from repro.problems.influence import InfluenceObjective
from repro.problems.recommendation import RecommendationObjective
from repro.problems.summarization import SummarizationObjective

DOMAINS = (
    "coverage",
    "influence",
    "facility",
    "recommendation",
    "summarization",
)

IM_SAMPLES = 300


def _objective(domain: str):
    if domain == "coverage":
        return load_dataset("rand-mc-c2", seed=0, num_nodes=60).objective
    if domain == "influence":
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        return InfluenceObjective.from_graph(
            data.graph, IM_SAMPLES, seed=1
        )
    if domain == "facility":
        return load_dataset("rand-fl-c2", seed=0, num_points=40).objective
    if domain == "recommendation":
        return load_dataset(
            "rec-latent-c2", seed=0, num_users=60, num_items=30
        ).objective
    if domain == "summarization":
        return load_dataset(
            "summ-blobs-c2", seed=0, num_points=50
        ).objective
    raise KeyError(domain)


@pytest.fixture(params=DOMAINS)
def objective(request):
    return _objective(request.param)


# ---------------------------------------------------------------------------
# 1. Utility is monotone in k
# ---------------------------------------------------------------------------
class TestBudgetMonotonicity:
    def test_greedy_utility_non_decreasing_in_k(self, objective):
        utilities = [
            greedy_utility(objective, k).utility for k in (1, 2, 3, 5, 8)
        ]
        for smaller, larger in zip(utilities, utilities[1:]):
            assert larger >= smaller - 1e-12

    def test_greedy_prefix_property(self, objective):
        # The k-solution is a prefix of the (k+3)-solution — the
        # structural fact behind both monotonicity and the service's
        # request coalescing.
        small = greedy_utility(objective, 3).solution
        large = greedy_utility(objective, 6).solution
        assert large[: len(small)] == small


# ---------------------------------------------------------------------------
# 2. tau = 0 reduces BSM to plain greedy
# ---------------------------------------------------------------------------
class TestConstraintVanishing:
    def test_tsgreedy_tau_zero_matches_greedy(self, objective):
        greedy = greedy_utility(objective, 4)
        relaxed = bsm_tsgreedy(objective, 4, 0.0)
        assert relaxed.utility == greedy.utility
        assert relaxed.solution == greedy.solution

    def test_bsm_saturate_tau_zero_matches_greedy(self, objective):
        greedy = greedy_utility(objective, 4)
        relaxed = bsm_saturate(objective, 4, 0.0)
        assert relaxed.utility == greedy.utility


# ---------------------------------------------------------------------------
# 3. Scalarizers are symmetric under group permutation, and the batch /
#    multi-state paths agree with the scalar path under it
# ---------------------------------------------------------------------------
def _scalarizers() -> list[Scalarizer]:
    return [
        AverageUtility(),
        MinUtility(),
        TruncatedFairness(0.4),
        BSMCombined(0.7, 0.3),
        WeightedCombination(
            [(0.6, AverageUtility()), (0.4, TruncatedFairness(0.5))]
        ),
    ]


class TestScalarizerPermutationSymmetry:
    @pytest.fixture
    def payload(self):
        rng = np.random.default_rng(99)
        groups = 5
        group_values = rng.uniform(0.0, 1.0, size=(7, groups))
        gains = rng.uniform(0.0, 0.3, size=(7, groups))
        weights = rng.dirichlet(np.ones(groups))
        perm = rng.permutation(groups)
        return group_values, gains, weights, perm

    @pytest.mark.parametrize(
        "scal", _scalarizers(), ids=lambda s: type(s).__name__
    )
    def test_value_invariant_under_permutation(self, scal, payload):
        group_values, _, weights, perm = payload
        for row in group_values:
            assert scal.value(row[perm], weights[perm]) == pytest.approx(
                scal.value(row, weights), abs=1e-12
            )

    @pytest.mark.parametrize(
        "scal", _scalarizers(), ids=lambda s: type(s).__name__
    )
    def test_value_batch_matches_scalar_under_permutation(
        self, scal, payload
    ):
        group_values, _, weights, perm = payload
        permuted = group_values[:, perm]
        batch = scal.value_batch(permuted, weights[perm])
        scalar = [scal.value(row, weights[perm]) for row in permuted]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)
        np.testing.assert_allclose(
            batch,
            scal.value_batch(group_values, weights),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "scal", _scalarizers(), ids=lambda s: type(s).__name__
    )
    def test_gain_states_matches_scalar_under_permutation(
        self, scal, payload
    ):
        group_values, gains, weights, perm = payload
        stacked = scal.gain_states(
            group_values[:, perm], gains[:, perm], weights[perm]
        )
        scalar = [
            scal.gain(row[perm], gain[perm], weights[perm])
            for row, gain in zip(group_values, gains)
        ]
        np.testing.assert_allclose(stacked, scalar, atol=1e-12)
        unpermuted = scal.gain_states(group_values, gains, weights)
        np.testing.assert_allclose(stacked, unpermuted, atol=1e-12)


# ---------------------------------------------------------------------------
# 4. Solutions are invariant to item relabeling
# ---------------------------------------------------------------------------
def _relabel(domain: str, objective, perm: np.ndarray):
    """Instance with item ``j`` renamed to original item ``perm[j]``."""
    if domain == "coverage":
        sets = [objective._sets[j] for j in perm]
        return CoverageObjective(sets, objective._labels)
    if domain == "influence":
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        old = objective.collection
        relabeled = RRCollection(
            root_groups=old.root_groups,
            num_nodes=old.num_nodes,
            num_groups=old.num_groups,
            set_indptr=old.set_indptr,
            set_indices=inverse[old.set_indices],
        )
        return InfluenceObjective(relabeled, objective.group_sizes)
    if domain == "facility":
        return FacilityLocationObjective(
            objective._benefits[:, perm], objective._labels
        )
    if domain == "recommendation":
        return RecommendationObjective(
            objective.relevance[:, perm], objective._labels
        )
    if domain == "summarization":
        # Items are the records themselves (the exemplar pool is kept
        # sorted internally), so relabel by permuting the records:
        # item j of the permuted instance is record perm[j], and every
        # user carries its group label along.
        return SummarizationObjective(
            objective._points[perm],
            objective._labels[perm],
        )
    raise KeyError(domain)


class TestItemRelabelInvariance:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_greedy_utility_invariant(self, domain):
        objective = _objective(domain)
        rng = np.random.default_rng(7)
        perm = rng.permutation(objective.num_items)
        relabeled = _relabel(domain, objective, perm)
        assert relabeled.num_items == objective.num_items
        base = greedy_utility(objective, 4)
        renamed = greedy_utility(relabeled, 4)
        # The maximised objective is invariant. (Secondary metrics are
        # not: with tied gains — common in integer-valued coverage —
        # the lowest-id tie-break picks a differently-named item whose
        # fairness may differ even though the utility trajectory is
        # identical.)
        assert renamed.utility == pytest.approx(base.utility, abs=1e-9)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_bsm_references_and_feasibility_invariant(self, domain):
        # Two-stage greedy is path-dependent under ties (a tie-different
        # stage-1 cover changes what stage 2 can add), so its *utility*
        # may legitimately move under relabeling; what must not move are
        # the instance-level references OPT'_f / OPT'_g, the feasibility
        # verdict, and the weak constraint it certifies.
        objective = _objective(domain)
        rng = np.random.default_rng(7)
        perm = rng.permutation(objective.num_items)
        relabeled = _relabel(domain, objective, perm)
        tau = 0.5
        base = bsm_tsgreedy(objective, 4, tau)
        renamed = bsm_tsgreedy(relabeled, 4, tau)
        assert renamed.extra["opt_f_approx"] == pytest.approx(
            base.extra["opt_f_approx"], abs=1e-9
        )
        assert renamed.extra["opt_g_approx"] == pytest.approx(
            base.extra["opt_g_approx"], abs=1e-9
        )
        assert renamed.feasible == base.feasible
        if base.feasible:
            floor = tau * base.extra["opt_g_approx"]
            assert renamed.fairness >= floor - 1e-9

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_mapped_solution_evaluates_identically(self, domain):
        # Stronger check: mapping the relabeled solution back through
        # the permutation and evaluating it on the original objective
        # reproduces the relabeled group values exactly.
        objective = _objective(domain)
        rng = np.random.default_rng(11)
        perm = rng.permutation(objective.num_items)
        relabeled = _relabel(domain, objective, perm)
        renamed = greedy_utility(relabeled, 4)
        mapped = [int(perm[j]) for j in renamed.solution]
        values = objective.evaluate(mapped)
        # Not bitwise for summarization (its per-group sums run over the
        # permuted user order), hence the tiny float tolerance.
        np.testing.assert_allclose(
            values, renamed.group_values, atol=1e-9
        )
