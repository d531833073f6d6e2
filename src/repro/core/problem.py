"""High-level BSM problem façade.

:class:`BSMProblem` bundles a grouped objective with the instance
parameters ``(k, tau)`` and exposes every solver behind one method, which
is what the examples and the experiment harness use. Library users who
need fine-grained control (sub-routine reuse, custom candidates) can call
the solver functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.baselines import greedy_utility, stochastic_greedy_utility
from repro.core.bsm_saturate import bsm_saturate
from repro.core.functions import GroupedObjective
from repro.core.result import SolverResult
from repro.core.saturate import saturate
from repro.core.smsc import smsc
from repro.core.tsgreedy import bsm_tsgreedy
from repro.utils.validation import check_fraction, check_positive_int

#: Registry of solver names accepted by :meth:`BSMProblem.solve`; values
#: take (problem, **kwargs) and return a SolverResult.
_SOLVERS: dict[str, Callable[..., SolverResult]] = {}


def _register(name: str) -> Callable[[Callable[..., SolverResult]], Callable[..., SolverResult]]:
    def wrap(fn: Callable[..., SolverResult]) -> Callable[..., SolverResult]:
        _SOLVERS[name] = fn
        return fn

    return wrap


@dataclass
class BSMProblem:
    """A bicriteria submodular maximisation instance (Problem 1).

    Attributes
    ----------
    objective:
        The grouped utility oracle defining ``f``, ``f_i`` and ``g``.
    k:
        Cardinality constraint.
    tau:
        Balance factor in ``[0, 1]``.
    """

    objective: GroupedObjective
    k: int
    tau: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.k, "k")
        check_fraction(self.tau, "tau")
        if self.k > self.objective.num_items:
            raise ValueError(
                f"k={self.k} exceeds the ground-set size "
                f"{self.objective.num_items}"
            )

    # -- evaluation -------------------------------------------------------
    def evaluate(self, items: Iterable[int]) -> tuple[float, float]:
        """``(f(S), g(S))`` for an arbitrary solution ``S``."""
        values = self.objective.evaluate(items)
        f_val = float(self.objective.group_weights @ values)
        return f_val, float(values.min())

    # -- solvers ------------------------------------------------------------
    def solve(self, algorithm: str = "bsm-saturate", **kwargs: object) -> SolverResult:
        """Dispatch to a solver by name.

        Accepted names: ``greedy``, ``stochastic-greedy``, ``saturate``,
        ``smsc``, ``bsm-tsgreedy``, ``bsm-saturate``, ``bsm-optimal``
        (the latter only for objectives with an ILP formulation).
        """
        key = algorithm.lower()
        if key not in _SOLVERS:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{sorted(_SOLVERS)}"
            )
        return _SOLVERS[key](self, **kwargs)

    def available_algorithms(self) -> list[str]:
        return sorted(_SOLVERS)


@_register("greedy")
def _solve_greedy(problem: BSMProblem, **kwargs: object) -> SolverResult:
    return greedy_utility(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("stochastic-greedy")
def _solve_stochastic(problem: BSMProblem, **kwargs: object) -> SolverResult:
    return stochastic_greedy_utility(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("saturate")
def _solve_saturate(problem: BSMProblem, **kwargs: object) -> SolverResult:
    return saturate(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("mwu")
def _solve_mwu(problem: BSMProblem, **kwargs: object) -> SolverResult:
    from repro.core.mwu import mwu_robust

    return mwu_robust(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("sieve-streaming")
def _solve_sieve(problem: BSMProblem, **kwargs: object) -> SolverResult:
    from repro.core.streaming import sieve_streaming

    return sieve_streaming(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("smsc")
def _solve_smsc(problem: BSMProblem, **kwargs: object) -> SolverResult:
    return smsc(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("bsm-tsgreedy")
def _solve_tsgreedy(problem: BSMProblem, **kwargs: object) -> SolverResult:
    return bsm_tsgreedy(problem.objective, problem.k, problem.tau, **kwargs)  # type: ignore[arg-type]


@_register("bsm-saturate")
def _solve_bsm_saturate(problem: BSMProblem, **kwargs: object) -> SolverResult:
    return bsm_saturate(problem.objective, problem.k, problem.tau, **kwargs)  # type: ignore[arg-type]


@_register("greedi")
def _solve_greedi(problem: BSMProblem, **kwargs: object) -> SolverResult:
    from repro.core.distributed import greedi

    return greedi(problem.objective, problem.k, **kwargs)  # type: ignore[arg-type]


@_register("sliding-window")
def _solve_sliding_window(problem: BSMProblem, **kwargs: object) -> SolverResult:
    from repro.core.sliding_window import sliding_window_utility

    window = kwargs.pop("window", problem.objective.num_items)
    return sliding_window_utility(problem.objective, problem.k, window, **kwargs)  # type: ignore[arg-type]


@_register("streaming-tsgreedy")
def _solve_streaming_tsgreedy(problem: BSMProblem, **kwargs: object) -> SolverResult:
    from repro.core.streaming_bsm import streaming_tsgreedy

    return streaming_tsgreedy(
        problem.objective, problem.k, problem.tau, **kwargs  # type: ignore[arg-type]
    )


@_register("bsm-saturate-ls")
def _solve_bsm_saturate_ls(problem: BSMProblem, **kwargs: object) -> SolverResult:
    """BSM-Saturate followed by swap local search on the weak floor."""
    from repro.core.local_search import polish

    max_sweeps = int(kwargs.pop("max_sweeps", 5))
    base = bsm_saturate(problem.objective, problem.k, problem.tau, **kwargs)  # type: ignore[arg-type]
    return polish(
        problem.objective,
        base,
        fairness_floor=problem.tau * base.extra["opt_g_approx"],
        max_sweeps=max_sweeps,
    )


@_register("bsm-optimal")
def _solve_optimal(problem: BSMProblem, **kwargs: object) -> SolverResult:
    # Imported lazily: the ILP layer pulls in scipy.optimize, which the
    # greedy-only code paths never need.
    from repro.core.optimal import bsm_optimal

    return bsm_optimal(problem.objective, problem.k, problem.tau, **kwargs)  # type: ignore[arg-type]
