"""Saturate — bicriteria approximation for robust submodular maximisation.

Robust submodular maximisation (RSM) asks for ``argmax_{|S|<=k} min_i
f_i(S)``. It is inapproximable within any constant factor in polynomial
time [Krause et al. 2008], but Saturate obtains the optimal value by
relaxing the cardinality constraint: binary-search the achievable level
``t``, and for each candidate level run greedy partial cover (GPC) on the
truncated average ``(1/c) sum_i min(f_i(S), t)/t``, declaring ``t``
feasible when GPC saturates within the (possibly inflated) budget.

The paper uses Saturate in three roles:

* baseline RSM solver ("Saturate" curves, with budget exactly ``k``);
* sub-routine producing ``OPT'_g`` and ``S_g`` inside both BSM algorithms;
* conceptual template for BSM-Saturate's bisection on ``alpha``.

With ``size_multiplier = 1`` (the paper's practical setting) the returned
solution has ``|S| <= k`` and ``OPT'_g`` is a lower bound on ``OPT_g``;
with the theoretical multiplier ``1 + ln(c/theta)`` the classical
bicriteria guarantee of [Krause et al. 2008, Thm 8] applies.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.cover import greedy_cover
from repro.core.functions import (
    AverageUtility,
    GroupedObjective,
    ObjectiveState,
    TruncatedFairness,
)
from repro.core.greedy import greedy_max
from repro.core.result import SolverResult, make_result
from repro.utils.timing import Timer
from repro.utils.validation import check_fraction, check_positive_int

#: Relative width of the bisection interval at which the search stops.
DEFAULT_BISECTION_TOL = 1e-3
#: Hard cap on bisection iterations (the interval halves every step, so 60
#: iterations exhaust double precision).
MAX_BISECTION_ITERS = 60


def saturate(
    objective: GroupedObjective,
    k: int,
    *,
    size_multiplier: float = 1.0,
    candidates: Optional[Iterable[int]] = None,
    bisection_tol: float = DEFAULT_BISECTION_TOL,
    grid: int = 8,
) -> SolverResult:
    """Run Saturate for ``max_{|S| <= k} min_i f_i(S)``.

    Parameters
    ----------
    k:
        Cardinality constraint of the RSM instance.
    size_multiplier:
        Budget inflation factor ``alpha``: GPC may use ``ceil(alpha * k)``
        items. 1.0 reproduces the paper's "solutions of size at most k"
        adaptation; the theoretical guarantee needs ``1 + ln(c/theta)``.
    bisection_tol:
        Stop when ``(t_max - t_min) <= bisection_tol * t_max``. Must lie
        in ``(0, 1)``, which guarantees at least one bisection probe.
    grid:
        Number of evenly-spaced levels probed before the bisection. GPC is
        greedy, so feasibility is *not* monotone in the level: a probe at a
        high level can produce a better-`g` solution even though a lower
        level failed. The grid seeds the best-actual-`g` tracking with
        such states (0 disables it).

    Returns
    -------
    SolverResult
        ``fairness`` is ``OPT'_g``; ``extra['level']`` is the saturated
        level ``t_min``; ``extra['bisection_iters']`` counts probes.
    """
    check_positive_int(k, "k")
    check_fraction(
        bisection_tol, "bisection_tol", inclusive_low=False, inclusive_high=False
    )
    if size_multiplier < 1.0:
        raise ValueError(f"size_multiplier must be >= 1, got {size_multiplier}")
    budget = int(np.ceil(size_multiplier * k))
    cand = list(range(objective.num_items)) if candidates is None else [
        int(v) for v in candidates
    ]
    timer = Timer()
    start_calls = objective.oracle_calls
    best_state: Optional[ObjectiveState] = None
    best_g = -1.0
    iters = 0

    def probe(t: float) -> bool:
        """Run GPC at level ``t``; keep its state if it has the best g."""
        nonlocal best_state, best_g, iters
        iters += 1
        state, _, covered = greedy_cover(
            objective,
            TruncatedFairness(t),
            target=1.0,
            budget=budget,
            candidates=cand,
        )
        actual_g = objective.fairness(state)
        if actual_g > best_g:
            best_g = actual_g
            best_state = state
        return covered

    with timer, objective.shared_gains():
        upper = float(objective.max_group_values().min())
        if upper <= 0.0:
            # Some group derives zero utility from the entire ground set;
            # the RSM optimum is 0 and any set works. Return greedy-on-f
            # of size k so the result is still a sensible solution.
            best_state, _ = greedy_max(objective, AverageUtility(), k, candidates=cand)
            t_min = 0.0
        else:
            # Bisection on the level t. Every probe's GPC state is a valid
            # size-<=budget solution whether or not it covers, and its
            # *actual* min_i f_i can exceed the probed level (covering only
            # certifies >= t), so we keep the best-actual-g state across
            # all probes. This is a strict improvement over returning the
            # last feasible state and is what recovers the paper's
            # Example-3.1 outcome (S_g = {v1, v4}, OPT'_g = 5/9) despite
            # GPC's greedy failing at the boundary level.
            t_min, t_max = 0.0, upper
            for i in range(1, max(grid, 0) + 1):
                t = upper * i / (grid + 1)
                if probe(t):
                    t_min = max(t_min, t)
            # Standard bisection refines between the best covered level and
            # the ground-set upper bound.
            while (
                t_max - t_min > bisection_tol * t_max
                and iters < MAX_BISECTION_ITERS
            ):
                t = (t_min + t_max) / 2.0
                if probe(t):
                    t_min = t
                else:
                    t_max = t
            t_min = max(t_min, best_g)
    return make_result(
        "Saturate",
        objective,
        best_state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        extra={
            "level": t_min,
            "bisection_iters": iters,
            "budget": budget,
            "upper_bound": upper if upper > 0 else 0.0,
        },
    )
