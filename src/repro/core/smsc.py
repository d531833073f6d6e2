"""SMSC baseline — submodular maximisation under submodular cover.

The paper compares against the ``(0.16, 0.16)``-approximation of Ohsaka &
Matsuoka [52], which maximises one submodular function while keeping
another above a threshold, and notes it "can be used for BSM only when
``c = 2`` by maximizing two submodular functions ``f_1`` and ``f_2``
simultaneously". The reference implementation is not available offline, so
this module reproduces the baseline's *role* (DESIGN.md §6): treat the two
group objectives symmetrically — no ``tau`` knob — and find the largest
common saturation level both groups can reach with ``k`` items.

Concretely we bisect a level ``t in [0, 1]`` and greedily cover

    H_t(S) = (1/2) * [ min(1, f_1(S)/(t*OPT'_1)) + min(1, f_2(S)/(t*OPT'_2)) ]

to 1 with at most ``k`` items, where ``OPT'_i`` is greedy's approximation
of ``max_{|S|=k} f_i(S)``. The output is the cover for the largest
feasible ``t``, topped up with utility-greedy items if slots remain. As in
the paper's figures, the resulting curve is flat across ``tau``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.cover import greedy_cover
from repro.core.functions import AverageUtility, GroupedObjective, Scalarizer
from repro.core.greedy import greedy_max
from repro.core.result import SolverResult, make_result
from repro.errors import SolverError
from repro.utils.timing import Timer
from repro.utils.validation import check_positive_int

#: Bisection resolution on the saturation level.
LEVEL_TOL = 1e-3


class _PairSaturation(Scalarizer):
    """``H_t``: average of the two groups' truncated normalised utilities."""

    def __init__(self, thresholds: np.ndarray) -> None:
        if np.any(thresholds <= 0):
            raise ValueError("thresholds must be positive")
        self.thresholds = thresholds

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        return float(np.minimum(1.0, group_values / self.thresholds).mean())

    @property
    def target(self) -> Optional[float]:
        return 1.0


class _SingleGroup(Scalarizer):
    """``f_i`` alone — used to compute the per-group greedy optima."""

    def __init__(self, index: int) -> None:
        self.index = index

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        return float(group_values[self.index])


def smsc(
    objective: GroupedObjective,
    k: int,
    *,
    candidates: Optional[Iterable[int]] = None,
) -> SolverResult:
    """Run the SMSC baseline (two-group instances only).

    Raises
    ------
    SolverError
        If the instance has ``c != 2`` groups — matching the paper, which
        omits SMSC from every experiment with more than two groups.
    """
    check_positive_int(k, "k")
    if objective.num_groups != 2:
        raise SolverError(
            f"SMSC applies only to instances with 2 groups, got "
            f"{objective.num_groups}"
        )
    timer = Timer()
    start_calls = objective.oracle_calls
    with timer:
        per_group_opt = np.zeros(2)
        for i in range(2):
            state, _ = greedy_max(objective, _SingleGroup(i), k, candidates=candidates)
            per_group_opt[i] = state.group_values[i]
        best_state = None
        if np.all(per_group_opt > 0):
            t_min, t_max = 0.0, 1.0
            while t_max - t_min > LEVEL_TOL:
                t = (t_min + t_max) / 2.0
                surrogate = _PairSaturation(t * per_group_opt)
                state, _, covered = greedy_cover(
                    objective,
                    surrogate,
                    target=1.0,
                    budget=k,
                    candidates=candidates,
                )
                if covered:
                    t_min = t
                    best_state = state
                else:
                    t_max = t
        if best_state is None:
            # One group never benefits (or no level is coverable): fall
            # back to greedy on f so the baseline still reports a solution.
            best_state, _ = greedy_max(
                objective, AverageUtility(), k, candidates=candidates
            )
            t_min = 0.0
        if best_state.size < k:
            greedy_max(
                objective,
                AverageUtility(),
                k - best_state.size,
                state=best_state,
                candidates=candidates,
            )
    return make_result(
        "SMSC",
        objective,
        best_state,
        runtime=timer.elapsed,
        oracle_calls=objective.oracle_calls - start_calls,
        extra={
            "level": t_min,
            "per_group_opt": per_group_opt.tolist(),
        },
    )
