"""BSM-Saturate — Algorithm 2 of the paper.

Converts the BSM instance into a family of submodular-cover decision
problems indexed by the utility factor ``alpha``: is there a set whose
combined truncated objective

    F'_alpha(S) = min(1, f(S)/(alpha*OPT'_f))
                + (1/c) * sum_i min(1, f_i(S)/(tau*OPT'_g))

reaches ``2(1 - eps/c)``? A bisection on ``alpha in [0, 1]`` keeps the
largest feasible value; each decision is answered by greedy submodular
cover with budget ``k ln(c/eps)`` (theoretical mode) or ``k`` (the paper's
practical adaptation, used in all its experiments).

Guarantee (Theorem 4.5): with the theoretical budget the output is a
``((1-3eps-eps_f) alpha*, 1-2eps-eps_g)``-approximate solution of size at
most ``k ln(c/eps)``, where ``alpha*`` is the instance's best achievable
factor.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.core.baselines import greedy_utility
from repro.core.cover import greedy_cover
from repro.core.functions import AverageUtility, BSMCombined, GroupedObjective
from repro.core.greedy import greedy_max
from repro.core.result import SolverResult, make_result
from repro.core.saturate import saturate
from repro.utils.timing import Timer
from repro.utils.validation import check_fraction, check_positive_int

#: The paper sets eps = 0.05 throughout Section 5 (sensitivity in Fig. 9).
DEFAULT_EPSILON = 0.05

#: Smallest ``alpha_max`` the bisection probes below. With no cover found
#: yet (``alpha_min == 0``) halving would otherwise run until ``alpha``
#: underflows to zero; at this factor the utility part of ``F'_alpha``
#: already saturates on any set with ``f(S) >= ALPHA_FLOOR * OPT'_f``, so
#: an instance still uncovered here falls back to ``S_g``.
ALPHA_FLOOR = 2.0 ** -40


def bsm_saturate(
    objective: GroupedObjective,
    k: int,
    tau: float,
    *,
    epsilon: float = DEFAULT_EPSILON,
    enforce_size_k: bool = True,
    candidates: Optional[Iterable[int]] = None,
    greedy_result: Optional[SolverResult] = None,
    saturate_result: Optional[SolverResult] = None,
) -> SolverResult:
    """Run BSM-Saturate (Algorithm 2).

    Parameters
    ----------
    epsilon:
        Bisection stop parameter (``(1-eps) alpha_max > alpha_min`` keeps
        searching) and cover slack (target ``2(1 - eps/c)``).
    enforce_size_k:
        ``True`` replaces the theoretical budget ``k ln(c/eps)`` with ``k``
        — the paper's practical mode and the setting of every figure.
        ``False`` uses the theoretical budget, so ``|S|`` may exceed ``k``.
    greedy_result, saturate_result:
        Optional precomputed sub-routines (shared across a ``tau`` sweep).

    Returns
    -------
    SolverResult
        ``extra`` records ``alpha_min``/``alpha_max`` at termination, the
        number of bisection probes, the cover budget, and the sub-routine
        approximations ``opt_f_approx``/``opt_g_approx``.
    """
    check_positive_int(k, "k")
    check_fraction(tau, "tau")
    check_fraction(epsilon, "epsilon", inclusive_low=False, inclusive_high=False)
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer:
        if greedy_result is None:
            greedy_result = greedy_utility(objective, k, candidates=candidates)
        if saturate_result is None:
            saturate_result = saturate(objective, k, candidates=candidates)
        opt_f_approx = greedy_result.utility
        opt_g_approx = saturate_result.fairness
        c = objective.num_groups
        if enforce_size_k:
            budget = k
        else:
            budget = max(k, int(math.ceil(k * math.log(c / epsilon))))
        fairness_threshold = tau * opt_g_approx
        alpha_min, alpha_max = 0.0, 1.0
        iters = 0
        degenerate = bool(
            tau == 0.0 or fairness_threshold <= 0.0 or opt_f_approx <= 0.0
        )
        if degenerate:
            # Degenerate instances: no binding fairness constraint (or a
            # zero-utility instance) — return the greedy utility solution.
            best_state = objective.state_of(greedy_result.solution)
            alpha_min = 1.0
        else:
            target = 2.0 * (1.0 - epsilon / c)
            best_state = None
            while (
                (1.0 - epsilon) * alpha_max > alpha_min and alpha_max > ALPHA_FLOOR
            ):
                iters += 1
                alpha = (alpha_max + alpha_min) / 2.0
                surrogate = BSMCombined(
                    utility_threshold=alpha * opt_f_approx,
                    fairness_threshold=fairness_threshold,
                )
                state, _, covered = greedy_cover(
                    objective,
                    surrogate,
                    target=target,
                    budget=budget,
                    candidates=candidates,
                )
                if covered:
                    alpha_min = alpha
                    best_state = state
                else:
                    alpha_max = alpha
            if best_state is None:
                # Not even alpha = ALPHA_FLOOR was coverable within budget:
                # the fairness part alone cannot saturate with <= budget
                # items. Fall back to the Saturate solution S_g (the
                # fairest size-k set we know).
                best_state = objective.state_of(saturate_result.solution[:budget])
            # The bisection's last accepted state may have fewer than k
            # items (cover can saturate early); spend any remaining slots
            # on utility.
            if best_state.size < k:
                greedy_max(
                    objective,
                    AverageUtility(),
                    k - best_state.size,
                    state=best_state,
                    candidates=candidates,
                )
    return make_result(
        "BSM-Saturate",
        objective,
        best_state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        feasible=degenerate
        or objective.fairness(best_state) >= fairness_threshold - 1e-9,
        extra={
            "alpha_min": alpha_min,
            "alpha_max": alpha_max,
            "bisection_iters": iters,
            "budget": budget,
            "opt_f_approx": opt_f_approx,
            "opt_g_approx": opt_g_approx,
            "degenerate": degenerate,
        },
    )
