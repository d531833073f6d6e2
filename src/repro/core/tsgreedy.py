"""BSM-TSGreedy — Algorithm 1 of the paper.

Two stages:

1. *Fairness stage.* Greedy submodular cover on the truncated surrogate
   ``g'_tau(S) = (1/c) sum_i min(1, f_i(S) / (tau * OPT'_g))`` until it
   saturates at 1 or ``k`` items are used. If the stage consumed all ``k``
   slots without saturating, the partial solution is *replaced* by the
   Saturate solution ``S_g`` (for which ``g'_tau(S_g) = 1`` holds by
   construction, line 8 of Algorithm 1).
2. *Utility stage.* Fill the remaining slots with the prefix of the greedy
   utility solution ``S_f``, in greedy order, skipping duplicates.

Guarantee (Theorem 4.2): the output is a
``(1 - exp(-k'/k), 1 - eps_g)``-approximate solution of size ``k``, where
``k'`` is the number of utility-stage items.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.baselines import greedy_utility
from repro.core.cover import greedy_cover
from repro.core.functions import (
    AverageUtility,
    GroupedObjective,
    TruncatedFairness,
)
from repro.core.greedy import greedy_max
from repro.core.result import SolverResult, make_result
from repro.core.saturate import saturate
from repro.utils.timing import Timer
from repro.utils.validation import check_fraction, check_positive_int


def bsm_tsgreedy(
    objective: GroupedObjective,
    k: int,
    tau: float,
    *,
    candidates: Optional[Iterable[int]] = None,
    greedy_result: Optional[SolverResult] = None,
    saturate_result: Optional[SolverResult] = None,
) -> SolverResult:
    """Run BSM-TSGreedy (Algorithm 1).

    Parameters
    ----------
    objective, k, tau:
        The BSM instance. ``tau = 0`` degenerates to plain greedy on ``f``
        (no fairness constraint), matching Example 3.1's discussion.
    greedy_result, saturate_result:
        Optional precomputed sub-routine outputs. The harness sweeps
        ``tau`` with fixed ``k`` and reuses ``S_f``/``S_g`` across the
        sweep, exactly as a careful implementation of the paper would.
        Omitted ones come from the objective's sub-result memo
        (:meth:`~repro.core.functions.GroupedObjective.subresult`), so
        repeated solves at one ``k`` compute them once per objective
        version, and the reported ``oracle_calls`` still include them.

    Returns
    -------
    SolverResult
        ``extra`` records ``stage1_size``, ``k_prime`` (= items added in
        stage 2, the ``k'`` of Theorem 4.2), ``used_sg_fallback``,
        ``opt_f_approx`` and ``opt_g_approx``.
    """
    check_positive_int(k, "k")
    check_fraction(tau, "tau")
    # Greedy, Saturate and every cover read the pool: a one-shot
    # iterator must not be used up by the first of them.
    if candidates is not None:
        candidates = [int(v) for v in candidates]
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer, objective.shared_gains():
        if greedy_result is None:
            greedy_result = objective.subresult(greedy_utility, k, candidates)
        if tau == 0.0:
            # No fairness constraint: BSM collapses to SM (Section 3).
            state = objective.state_of(greedy_result.solution)
            stage1_size, used_fallback, opt_g_approx = 0, False, None
            k_prime = len(greedy_result.solution)
        else:
            if saturate_result is None:
                saturate_result = objective.subresult(saturate, k, candidates)
            opt_g_approx = saturate_result.fairness
            threshold = tau * opt_g_approx
            used_fallback = False
            if threshold <= 0.0:
                # OPT'_g = 0: the fairness constraint is vacuous; stage 1
                # adds nothing and stage 2 fills with S_f.
                state = objective.new_state()
            else:
                state, _, covered = greedy_cover(
                    objective,
                    TruncatedFairness(threshold),
                    target=1.0,
                    budget=k,
                    candidates=candidates,
                )
                if state.size == k and not covered:
                    # Line 8: replace with S_g, which saturates g'_tau by
                    # construction (g(S_g) = OPT'_g >= tau * OPT'_g).
                    state = objective.state_of(saturate_result.solution[:k])
                    used_fallback = True
            stage1_size = state.size
            # Stage 2 (lines 10-15): append the greedy-for-f items in order.
            k_prime = 0
            for item in greedy_result.solution:
                if state.size >= k:
                    break
                if not state.in_solution[item]:
                    objective.add(state, item)
                    k_prime += 1
            # If S_f could not fill the solution (e.g. duplicates), pad with
            # the best remaining items by utility gain to honour |S| = k.
            if state.size < k:
                greedy_max(
                    objective,
                    AverageUtility(),
                    k - state.size,
                    state=state,
                    candidates=candidates,
                )
    return make_result(
        "BSM-TSGreedy",
        objective,
        state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        feasible=objective.fairness(state) >= threshold - 1e-9
        if tau > 0.0
        else True,
        extra={
            "stage1_size": stage1_size,
            "k_prime": k_prime,
            "used_sg_fallback": used_fallback,
            "opt_f_approx": greedy_result.utility,
            "opt_g_approx": opt_g_approx,
        },
    )
