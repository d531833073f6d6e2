"""Generic sweep runners behind every figure.

The paper's figures all have the same anatomy: fix a dataset and either
``k`` (sweeping ``tau``, Figs. 3/5/7/10) or ``tau`` (sweeping ``k``,
Figs. 4/6/8/11), then plot ``f(S)``, ``g(S)`` and runtime per algorithm.
The runners here produce those series as plain data rows.

Implementation notes mirroring the paper's Section 5:

* ``Greedy``/``Saturate`` sub-routine outputs are computed once per
  ``(dataset, k)`` and shared across the ``tau`` sweep and across the BSM
  algorithms — their curves are plotted as flat lines in the figures.
  The runners pass them to the BSM solvers explicitly, so the BSM rows'
  ``oracle_calls`` exclude the sub-routines. (A BSM solve called without
  them, as the service does, takes them from the objective's sub-result
  memo instead and counts them.)
* For influence instances the greedy runs on RIS estimates, but reported
  ``f(S)``/``g(S)`` come from independent Monte-Carlo simulation
  (``mc_simulations``; the paper uses 10,000).
* Influence sweeps sample one RR collection and score through one
  Monte-Carlo cascade bundle per distinct solution, both held by the
  :class:`~repro.service.session.SolverSession` the sweep runs on, so
  repeated sweep points pay for solver time only. A caller that passes
  the same session to several sweeps (the service's ``sweep`` and
  ``pareto`` ops pass the request's warm session) shares them across
  sweeps; without one, each sweep builds a session for that call.
* ``OPT'_g`` (the dashed green line) is ``Saturate``'s value; the solid
  line ``OPT_g`` comes from the ILP when the instance is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.baselines import greedy_utility
from repro.core.bsm_saturate import bsm_saturate
from repro.core.functions import GroupedObjective
from repro.core.result import SolverResult
from repro.core.saturate import saturate
from repro.core.smsc import smsc
from repro.core.tsgreedy import bsm_tsgreedy
from repro.datasets.registry import Dataset
from repro.service.session import SolverSession
from repro.utils.rng import SeedLike, as_generator

#: Algorithms that depend on tau (curves); the rest are flat baselines.
TAU_AWARE = ("BSM-TSGreedy", "BSM-Saturate", "BSM-Optimal")
DEFAULT_ALGORITHMS = (
    "Greedy",
    "Saturate",
    "SMSC",
    "BSM-TSGreedy",
    "BSM-Saturate",
)


@dataclass
class ExperimentRow:
    """One (algorithm, parameter point) measurement."""

    algorithm: str
    parameter: str  # 'tau' or 'k'
    value: float
    utility: float
    fairness: float
    runtime: float
    oracle_calls: int
    solution_size: int
    feasible: bool
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All rows of one sweep plus instance-level reference values."""

    dataset: str
    parameter: str
    rows: list[ExperimentRow]
    references: dict[str, float] = field(default_factory=dict)

    def series(self, algorithm: str, metric: str = "utility") -> list[tuple[float, float]]:
        """``[(parameter value, metric), ...]`` for one algorithm."""
        return [
            (row.value, getattr(row, metric))
            for row in self.rows
            if row.algorithm == algorithm
        ]

    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.algorithm, None)
        return list(seen)


def _session_for(
    dataset: Dataset, session: Optional[SolverSession]
) -> SolverSession:
    """The session a sweep runs on: the caller's, or a fresh one."""
    if session is None:
        return SolverSession(dataset)
    if session.dataset is not dataset:
        raise ValueError("session was built for a different dataset")
    return session


def _score(
    session: SolverSession,
    result: SolverResult,
    *,
    mc_simulations: int,
    seed: int,
    workers: Optional[int] = None,
) -> tuple[float, float]:
    """Final reported (f, g): Monte-Carlo for IM, oracle values otherwise.

    One cascade bundle per ``(graph, seed set, budget, seed)``: within a
    sweep every row re-scoring the same solution (flat baselines, or a
    tau-aware algorithm whose selection did not move between sweep
    points) reuses the batched simulation instead of re-running 10,000
    cascades, and all rows of a sweep share one evaluation seed --
    common random numbers, so cross-algorithm differences are not
    sampling noise.
    """
    if session.dataset.kind != "influence" or mc_simulations <= 0:
        return result.utility, result.fairness
    return session.evaluate_mc(
        result.solution,
        mc_simulations=mc_simulations,
        mc_seed=seed,
        workers=workers,
    )


def _run_algorithm(
    name: str,
    objective: GroupedObjective,
    k: int,
    tau: float,
    *,
    greedy_res: SolverResult,
    saturate_res: SolverResult,
    epsilon: float,
    ilp_backend: str,
    exact_opt: Optional[dict[str, float]] = None,
) -> SolverResult:
    if name == "Greedy":
        return greedy_res
    if name == "Saturate":
        return saturate_res
    if name == "SMSC":
        return smsc(objective, k)
    if name == "BSM-TSGreedy":
        return bsm_tsgreedy(
            objective, k, tau,
            greedy_result=greedy_res, saturate_result=saturate_res,
        )
    if name == "BSM-Saturate":
        return bsm_saturate(
            objective, k, tau,
            epsilon=epsilon,
            greedy_result=greedy_res, saturate_result=saturate_res,
        )
    if name == "BSM-Optimal":
        from repro.core.optimal import bsm_optimal

        exact_opt = exact_opt or {}
        return bsm_optimal(
            objective, k, tau,
            backend=ilp_backend,
            opt_g=exact_opt.get("opt_g"),
            opt_f=exact_opt.get("opt_f"),
        )
    raise KeyError(f"unknown algorithm {name!r}")


def sweep_tau(
    dataset: Dataset,
    k: int,
    taus: Sequence[float],
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    epsilon: float = 0.05,
    im_samples: int = 2_000,
    mc_simulations: int = 1_000,
    include_optimal: bool = False,
    ilp_backend: str = "scipy",
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    session: Optional[SolverSession] = None,
) -> SweepResult:
    """Vary the balance factor ``tau`` at fixed ``k`` (Figs. 3/5/7/10).

    ``workers`` spreads RR sampling and Monte-Carlo evaluation over a
    worker pool (:mod:`repro.utils.parallel`, threads by default);
    solver rows are unaffected. Results are identical for every
    positive worker count. ``session`` is the warm
    :class:`~repro.service.session.SolverSession` of ``dataset`` to
    sample and score through (``None`` = a fresh one for this call);
    its storage tier does not change the rows.
    """
    # Derive integer sub-seeds up front: they key the sampling/evaluation
    # caches and keep the streams deterministic whether or not a cached
    # collection is hit.
    rng = as_generator(seed)
    sample_seed = int(rng.integers(0, 2**62))
    mc_seed = int(rng.integers(0, 2**62))
    session = _session_for(dataset, session)
    objective = session.objective(
        im_samples=im_samples, sample_seed=sample_seed, workers=workers
    )
    algorithms = list(algorithms)
    if include_optimal and "BSM-Optimal" not in algorithms:
        algorithms.append("BSM-Optimal")
    if objective.num_groups != 2 and "SMSC" in algorithms:
        algorithms.remove("SMSC")  # matches the paper: SMSC needs c = 2
    greedy_res = greedy_utility(objective, k)
    saturate_res = saturate(objective, k)
    references = {
        "opt_f_approx": greedy_res.utility,
        "opt_g_approx": saturate_res.fairness,
    }
    exact_opt: Optional[dict[str, float]] = None
    if include_optimal:
        from repro.core.optimal import bsm_optimal

        opt0 = bsm_optimal(objective, k, 0.0, backend=ilp_backend)
        references["opt_f"] = opt0.extra["opt_f"]
        references["opt_g"] = opt0.extra["opt_g"]
        exact_opt = {
            "opt_f": opt0.extra["opt_f"],
            "opt_g": opt0.extra["opt_g"],
        }
    rows: list[ExperimentRow] = []
    for name in algorithms:
        for tau in taus:
            if name not in TAU_AWARE and rows and any(
                r.algorithm == name for r in rows
            ):
                # Flat baselines: reuse the single measurement at every tau.
                base = next(r for r in rows if r.algorithm == name)
                rows.append(
                    ExperimentRow(
                        algorithm=name,
                        parameter="tau",
                        value=float(tau),
                        utility=base.utility,
                        fairness=base.fairness,
                        runtime=base.runtime,
                        oracle_calls=base.oracle_calls,
                        solution_size=base.solution_size,
                        feasible=base.feasible,
                        extra=dict(base.extra),
                    )
                )
                continue
            result = _run_algorithm(
                name, objective, k, float(tau),
                greedy_res=greedy_res, saturate_res=saturate_res,
                epsilon=epsilon, ilp_backend=ilp_backend,
                exact_opt=exact_opt,
            )
            f_val, g_val = _score(
                session, result,
                mc_simulations=mc_simulations,
                seed=mc_seed,
                workers=workers,
            )
            rows.append(
                ExperimentRow(
                    algorithm=name,
                    parameter="tau",
                    value=float(tau),
                    utility=f_val,
                    fairness=g_val,
                    runtime=result.runtime,
                    oracle_calls=result.oracle_calls,
                    solution_size=result.size,
                    feasible=result.feasible,
                    extra=dict(result.extra),
                )
            )
    return SweepResult(
        dataset=dataset.name, parameter="tau", rows=rows, references=references
    )


def sweep_k(
    dataset: Dataset,
    ks: Sequence[int],
    tau: float = 0.8,
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    epsilon: float = 0.05,
    im_samples: int = 2_000,
    mc_simulations: int = 1_000,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    session: Optional[SolverSession] = None,
) -> SweepResult:
    """Vary the solution size ``k`` at fixed ``tau`` (Figs. 4/6/8/11).

    ``workers`` and ``session`` work exactly as in :func:`sweep_tau`.
    """
    rng = as_generator(seed)
    sample_seed = int(rng.integers(0, 2**62))
    mc_seed = int(rng.integers(0, 2**62))
    session = _session_for(dataset, session)
    objective = session.objective(
        im_samples=im_samples, sample_seed=sample_seed, workers=workers
    )
    algorithms = list(algorithms)
    if objective.num_groups != 2 and "SMSC" in algorithms:
        algorithms.remove("SMSC")
    rows: list[ExperimentRow] = []
    references: dict[str, float] = {}
    for k in ks:
        greedy_res = greedy_utility(objective, int(k))
        saturate_res = saturate(objective, int(k))
        references[f"opt_g_approx@k={k}"] = saturate_res.fairness
        for name in algorithms:
            result = _run_algorithm(
                name, objective, int(k), float(tau),
                greedy_res=greedy_res, saturate_res=saturate_res,
                epsilon=epsilon, ilp_backend="branch-and-bound",
            )
            f_val, g_val = _score(
                session, result,
                mc_simulations=mc_simulations,
                seed=mc_seed,
                workers=workers,
            )
            rows.append(
                ExperimentRow(
                    algorithm=name,
                    parameter="k",
                    value=float(k),
                    utility=f_val,
                    fairness=g_val,
                    runtime=result.runtime,
                    oracle_calls=result.oracle_calls,
                    solution_size=result.size,
                    feasible=result.feasible,
                    extra=dict(result.extra),
                )
            )
    return SweepResult(
        dataset=dataset.name, parameter="k", rows=rows, references=references
    )
