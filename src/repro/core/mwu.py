"""Multiplicative-weight-updates (MWU) solver for robust submodular
maximisation.

The paper's related-work section points to MWU algorithms for RSM
[Udwani 2018; Fu et al. 2021] that achieve constant factors when the
number of groups is small (``c = o(k / log^3 k)``). This module provides
that alternative to Saturate, both as a library feature and as an
ablation target (``benchmarks/bench_ablation_mwu.py``): it often trades a
slightly lower worst-group value for a much smaller constant-factor
runtime, since it runs plain greedy ``rounds`` times with no bisection.

Algorithm (standard MWU for max-min over ``c`` objectives):

1. keep a weight ``w_i`` per group, initially uniform;
2. each round, greedily maximise the weighted average
   ``sum_i w_i f_i(S)`` under the cardinality constraint;
3. multiply each ``w_i`` by ``exp(-eta * f_i(S_t) / scale)`` — groups that
   did badly gain weight and steer the next round;
4. return the round solution with the best *actual* ``min_i f_i``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.functions import GroupedObjective, Scalarizer
from repro.core.greedy import greedy_max
from repro.core.result import SolverResult, make_result
from repro.utils.timing import Timer
from repro.utils.validation import check_positive_int

#: Default number of MWU rounds (theory wants O(log c / eta^2); in
#: practice a handful of rounds converges on the paper's instances).
DEFAULT_ROUNDS = 10


class _WeightedGroups(Scalarizer):
    """``sum_i w_i f_i(S)`` for an externally-updated weight vector."""

    def __init__(self, group_weights: np.ndarray) -> None:
        self.weights_vector = group_weights

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        return float(self.weights_vector @ group_values)


def mwu_robust(
    objective: GroupedObjective,
    k: int,
    *,
    rounds: int = DEFAULT_ROUNDS,
    eta: float = 1.0,
    candidates: Optional[Iterable[int]] = None,
) -> SolverResult:
    """Run MWU for ``max_{|S| <= k} min_i f_i(S)``.

    Parameters
    ----------
    rounds:
        Number of greedy rounds (each costs one full greedy run).
    eta:
        Learning rate of the exponential update. Larger values react
        faster to a starving group; ``1.0`` works across the paper's
        instances because group values are normalised fractions.

    Returns
    -------
    SolverResult
        ``extra['round_of_best']`` reports which round won;
        ``extra['final_weights']`` the terminal weight vector.
    """
    check_positive_int(k, "k")
    check_positive_int(rounds, "rounds")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer, objective.shared_gains():
        c = objective.num_groups
        weights = np.full(c, 1.0 / c)
        best_state = None
        best_g = -np.inf
        best_round = -1
        # Scale normalises utilities so eta is dimensionless; groups with
        # zero ground-set utility contribute nothing either way.
        full = objective.max_group_values()
        scale = float(full.max()) if full.max() > 0 else 1.0
        for t in range(rounds):
            state, _ = greedy_max(
                objective,
                _WeightedGroups(weights),
                k,
                candidates=candidates,
            )
            g_val = objective.fairness(state)
            if g_val > best_g:
                best_g = g_val
                best_state = state
                best_round = t
            weights = weights * np.exp(-eta * state.group_values / scale)
            total = weights.sum()
            if total <= 0 or not np.isfinite(total):  # pragma: no cover
                weights = np.full(c, 1.0 / c)
            else:
                weights = weights / total
        assert best_state is not None
    return make_result(
        "MWU",
        objective,
        best_state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        extra={
            "rounds": rounds,
            "eta": eta,
            "round_of_best": best_round,
            "final_weights": weights.tolist(),
        },
    )
