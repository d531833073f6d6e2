"""Feasibility-preserving swap local search for BSM solutions.

Neither paper algorithm revisits its choices: BSM-TSGreedy commits to the
cover-stage items, BSM-Saturate to whatever its final bisection round
greedily picked. A classic post-optimisation is *pairwise exchange*
local search — repeatedly swap one selected item for one outside item
whenever the swap raises ``f(S)`` without dropping ``g(S)`` below the
(weak) fairness floor ``tau * OPT'_g``. Each accepted swap strictly
improves the primary objective over a finite lattice, so the search
terminates; the result dominates its starting point by construction.

This is the "problem-specific analyses ... further improve the
approximation factors" direction of the paper's future work turned into
a concrete, instance-level improver, and the subject of
``benchmarks/bench_ablation_localsearch.py``.

Complexity: one sweep evaluates ``O(k * n)`` candidate swaps, each
costing ``O(k)`` oracle calls to rebuild the state (the grouped oracles
are add-only by design — deletion support would complicate every
substrate for the benefit of this one module). Intended for the
``n <= ~10^4`` instances where polish matters; the sweep budget is
capped by ``max_sweeps``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.functions import GroupedObjective, ObjectiveState
from repro.core.result import SolverResult, make_result
from repro.utils.timing import Timer
from repro.utils.validation import check_non_negative, check_positive_int

#: Minimum relative improvement for a swap to be accepted; guards
#: against cycling on floating-point noise.
IMPROVEMENT_RTOL = 1e-9


def swap_local_search(
    objective: GroupedObjective,
    solution: Iterable[int],
    *,
    fairness_floor: float = 0.0,
    candidates: Optional[Iterable[int]] = None,
    max_sweeps: int = 10,
) -> tuple[ObjectiveState, int]:
    """Improve ``f(S)`` by single-item swaps, keeping ``g(S) >= floor``.

    Parameters
    ----------
    solution:
        Starting items (typically a BSM solver's output).
    fairness_floor:
        The constraint level to preserve, usually ``tau * OPT'_g``. The
        starting solution itself need not satisfy it — swaps then also
        accept fairness repairs (raising ``g`` to/above the floor) even
        at zero utility gain, preferring feasibility first.
    candidates:
        Outside pool to swap in (defaults to the full ground set).
    max_sweeps:
        Upper bound on full passes; each pass applies the best accepted
        swap per position (first-improvement within a position,
        best-improvement across positions).

    Returns
    -------
    (state, swaps):
        Final state and the number of accepted swaps.
    """
    check_non_negative(fairness_floor, "fairness_floor")
    check_positive_int(max_sweeps, "max_sweeps")
    pool = sorted(
        set(range(objective.num_items) if candidates is None else candidates)
    )
    current = sorted(set(solution))
    state = objective.state_of(current)
    weights = objective.group_weights
    swaps = 0
    for _ in range(max_sweeps):
        utility = float(weights @ state.group_values)
        fairness = float(state.group_values.min())
        feasible = fairness >= fairness_floor - 1e-12
        best_swap: Optional[tuple[list[int], ObjectiveState, float, float]]
        best_swap = None
        for out_item in list(current):
            kept = [v for v in current if v != out_item]
            for in_item in pool:
                if in_item in current:
                    continue
                trial_items = kept + [in_item]
                trial = objective.state_of(trial_items)
                trial_utility = float(weights @ trial.group_values)
                trial_fairness = float(trial.group_values.min())
                if feasible:
                    # Preserve feasibility, require a real utility gain.
                    if trial_fairness < fairness_floor - 1e-12:
                        continue
                    if trial_utility <= utility * (1.0 + IMPROVEMENT_RTOL):
                        continue
                    score = trial_utility
                else:
                    # Repair mode: first close the fairness gap.
                    if trial_fairness <= fairness + 1e-12:
                        continue
                    score = trial_fairness
                if best_swap is None or score > best_swap[2]:
                    best_swap = (trial_items, trial, score, trial_utility)
        if best_swap is None:
            break
        current = sorted(best_swap[0])
        state = best_swap[1]
        swaps += 1
    return state, swaps


def polish(
    objective: GroupedObjective,
    result: SolverResult,
    *,
    fairness_floor: float = 0.0,
    max_sweeps: int = 10,
) -> SolverResult:
    """Post-optimise a solver result; never returns a worse solution.

    Wraps :func:`swap_local_search` and keeps the original result when
    no swap is accepted (so pipelines can call it unconditionally). The
    returned result's ``extra`` records the origin algorithm, accepted
    swap count, and the utility delta.
    """
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer:
        state, swaps = swap_local_search(
            objective,
            result.solution,
            fairness_floor=fairness_floor,
            max_sweeps=max_sweeps,
        )
    if swaps == 0:
        return result
    polished = make_result(
        f"{result.algorithm}+LS",
        objective,
        state,
        runtime=result.runtime + timer.elapsed,
        oracle_calls=result.oracle_calls
        + (objective.oracle_calls - start_calls),
        feasible=float(state.group_values.min()) >= fairness_floor - 1e-12,
        extra={
            **result.extra,
            "origin": result.algorithm,
            "swaps": swaps,
            "utility_delta": float(
                objective.group_weights @ state.group_values
            )
            - result.utility,
        },
    )
    return polished
