"""Per-figure experiment definitions (the paper's evaluation, Section 5).

Every figure/table of the paper has an entry in :data:`FIGURES` mapping to
panels; :func:`run_figure` executes all panels and returns their sweeps.

Two scales are provided:

* ``"small"`` (default) — shrunken datasets and Monte-Carlo budgets so
  the full suite regenerates on a laptop in minutes. Curve *shapes* match
  the paper; absolute values drift with size.
* ``"paper"`` — the published sizes (Tables 1–2). Pokec remains scaled to
  50k nodes by default (DESIGN.md §6); pass dataset overrides to go
  bigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.datasets.registry import load_dataset
from repro.experiments.harness import SweepResult, sweep_k, sweep_tau
from repro.utils.rng import SeedLike

TAUS = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass
class Panel:
    """One sub-plot: a dataset plus its sweep configuration."""

    name: str
    dataset: str
    sweep: str  # 'tau' or 'k'
    k: int = 5
    tau: float = 0.8
    taus: Sequence[float] = TAUS
    ks: Sequence[int] = (5, 10, 20, 30, 40, 50)
    include_optimal: bool = False
    dataset_overrides: dict[str, Any] = field(default_factory=dict)
    small_overrides: dict[str, Any] = field(default_factory=dict)
    small_ks: Optional[Sequence[int]] = None


@dataclass
class FigureSpec:
    """A figure (or table) of the paper."""

    figure_id: str
    title: str
    panels: list[Panel]


def _mc_tau_panels() -> list[Panel]:
    return [
        Panel(
            "a: RAND (c=2, k=5)", "rand-mc-c2", "tau", k=5,
            include_optimal=True,
            small_overrides={"num_nodes": 120},
        ),
        Panel(
            "b: RAND (c=4, k=5)", "rand-mc-c4", "tau", k=5,
            include_optimal=True,
            small_overrides={"num_nodes": 120},
        ),
        Panel("c: DBLP (c=5, k=10)", "dblp-mc", "tau", k=10,
              small_overrides={"num_nodes": 800}),
    ]


FIGURES: dict[str, FigureSpec] = {
    "fig3": FigureSpec(
        "fig3", "Maximum coverage vs tau (RAND c=2/c=4, DBLP)", _mc_tau_panels()
    ),
    "fig4": FigureSpec(
        "fig4",
        "Maximum coverage vs k (Facebook c=2/c=4, Pokec gender/age; tau=0.8)",
        [
            Panel("a: Facebook (Age, c=2)", "facebook-mc-c2", "k",
                  small_ks=(5, 10, 20), small_overrides={}),
            Panel("b: Facebook (Age, c=4)", "facebook-mc-c4", "k",
                  small_ks=(5, 10, 20)),
            Panel("c: Pokec (Gender, c=2)", "pokec-mc-gender", "k",
                  ks=(10, 40, 70, 100), small_ks=(10, 20),
                  small_overrides={"num_nodes": 3_000}),
            Panel("d: Pokec (Age, c=6)", "pokec-mc-age", "k",
                  ks=(10, 40, 70, 100), small_ks=(10, 20),
                  small_overrides={"num_nodes": 3_000}),
        ],
    ),
    "fig5": FigureSpec(
        "fig5",
        "Influence maximization vs tau (RAND c=2/c=4, DBLP)",
        [
            Panel("a: RAND (c=2, k=5)", "rand-im-c2", "tau", k=5),
            Panel("b: RAND (c=4, k=5)", "rand-im-c4", "tau", k=5),
            Panel("c: DBLP (c=5, k=10)", "dblp-im", "tau", k=10,
                  small_overrides={"num_nodes": 800}),
        ],
    ),
    "fig6": FigureSpec(
        "fig6",
        "Influence maximization vs k (Facebook, Pokec; tau=0.8)",
        [
            Panel("a: Facebook (Age, c=2)", "facebook-im-c2", "k",
                  small_ks=(5, 10, 20)),
            Panel("b: Facebook (Age, c=4)", "facebook-im-c4", "k",
                  small_ks=(5, 10, 20)),
            Panel("c: Pokec (Gender, c=2)", "pokec-im-gender", "k",
                  ks=(10, 40, 70, 100), small_ks=(10, 20),
                  small_overrides={"num_nodes": 3_000}),
            Panel("d: Pokec (Age, c=6)", "pokec-im-age", "k",
                  ks=(10, 40, 70, 100), small_ks=(10, 20),
                  small_overrides={"num_nodes": 3_000}),
        ],
    ),
    "fig7": FigureSpec(
        "fig7",
        "Facility location vs tau (RAND c=2/c=3, Adult-Small)",
        [
            # Small scale shrinks the point sets: the robust FL ILP that
            # produces OPT_g is the single most expensive solve in the
            # whole evaluation (HiGHS needs ~1 min at m=n=100).
            Panel("a: RAND (c=2, k=5)", "rand-fl-c2", "tau", k=5,
                  include_optimal=True,
                  small_overrides={"num_points": 60}),
            Panel("b: RAND (c=3, k=5)", "rand-fl-c3", "tau", k=5,
                  include_optimal=True,
                  small_overrides={"num_points": 60}),
            Panel("c: Adult-Small (c=5, k=5)", "adult-small", "tau", k=5,
                  include_optimal=True,
                  small_overrides={"num_records": 60}),
        ],
    ),
    "fig8": FigureSpec(
        "fig8",
        "Facility location vs k (Adult c=2/c=5, FourSquare NYC/TKY; tau=0.8)",
        [
            Panel("a: Adult (Gender, c=2)", "adult-gender", "k",
                  small_ks=(5, 10, 20)),
            Panel("b: Adult (Race, c=5)", "adult-race", "k",
                  small_ks=(5, 10, 20)),
            Panel("c: FourSquare-NYC (c=1000)", "foursquare-nyc", "k",
                  small_ks=(5, 10, 20),
                  small_overrides={"seed": None}),
            Panel("d: FourSquare-TKY (c=1000)", "foursquare-tky", "k",
                  small_ks=(5, 10, 20)),
        ],
    ),
    # Fig. 9 (epsilon sensitivity) has a dedicated runner: run_figure9.
    "fig10": FigureSpec(
        "fig10",
        "MC and IM vs tau on Facebook (c=2/c=4, k=5)",
        [
            Panel("a: Facebook (MC, c=2)", "facebook-mc-c2", "tau", k=5),
            Panel("b: Facebook (MC, c=4)", "facebook-mc-c4", "tau", k=5),
            Panel("c: Facebook (IM, c=2)", "facebook-im-c2", "tau", k=5),
            Panel("d: Facebook (IM, c=4)", "facebook-im-c4", "tau", k=5),
        ],
    ),
    "fig11": FigureSpec(
        "fig11",
        "MC and IM vs k on DBLP (c=5, tau=0.8)",
        [
            Panel("a: DBLP (MC, c=5)", "dblp-mc", "k",
                  small_ks=(5, 10, 20), small_overrides={"num_nodes": 800}),
            Panel("b: DBLP (IM, c=5)", "dblp-im", "k",
                  small_ks=(5, 10, 20), small_overrides={"num_nodes": 800}),
        ],
    ),
}


def run_figure(
    figure_id: str,
    *,
    scale: str = "small",
    seed: SeedLike = 0,
    taus: Optional[Sequence[float]] = None,
    algorithms: Optional[Sequence[str]] = None,
    im_samples: Optional[int] = None,
    mc_simulations: Optional[int] = None,
    workers: Optional[int] = None,
) -> dict[str, SweepResult]:
    """Execute every panel of ``figure_id`` and return name -> sweep.

    ``workers`` spreads each panel's RR sampling and Monte-Carlo
    evaluation over a worker pool (see :mod:`repro.utils.parallel`,
    threads by default); any positive count returns identical sweeps.
    """
    if figure_id not in FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        )
    if scale not in ("small", "paper"):
        raise ValueError(f"scale must be 'small' or 'paper', got {scale!r}")
    spec = FIGURES[figure_id]
    small = scale == "small"
    if im_samples is None:
        im_samples = 1_000 if small else 10_000
    if mc_simulations is None:
        mc_simulations = 200 if small else 10_000
    results: dict[str, SweepResult] = {}
    for panel in spec.panels:
        overrides = dict(panel.dataset_overrides)
        if small:
            overrides.update(panel.small_overrides)
        overrides.pop("seed", None)
        dataset = load_dataset(panel.dataset, seed=seed, **overrides)
        panel_taus = tuple(taus) if taus is not None else tuple(panel.taus)
        if small and taus is None:
            panel_taus = (0.1, 0.3, 0.5, 0.7, 0.9)
        kwargs: dict[str, Any] = {
            "im_samples": im_samples,
            "mc_simulations": mc_simulations,
            "seed": seed,
            "workers": workers,
        }
        if algorithms is not None:
            kwargs["algorithms"] = list(algorithms)
        if panel.sweep == "tau":
            include_optimal = panel.include_optimal and (
                small or dataset.kind == "facility"
            )
            sweep = sweep_tau(
                dataset, panel.k, panel_taus,
                include_optimal=include_optimal, **kwargs,
            )
        else:
            ks = panel.small_ks if (small and panel.small_ks) else panel.ks
            sweep = sweep_k(dataset, list(ks), panel.tau, **kwargs)
        results[panel.name] = sweep
    return results


def run_figure9(
    *,
    epsilons: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    k: int = 5,
    tau: float = 0.8,
    scale: str = "small",
    seed: SeedLike = 0,
    workers: Optional[int] = None,
) -> dict[str, list[tuple[float, float, float]]]:
    """Fig. 9: BSM-Saturate's sensitivity to the error parameter eps.

    Returns panel -> ``[(eps, f(S), g(S)), ...]`` for the four panels
    (MC c=2, MC c=4, IM c=2, FL c=2 on RAND).
    """
    from repro.core.baselines import greedy_utility
    from repro.core.bsm_saturate import bsm_saturate
    from repro.core.saturate import saturate as run_saturate
    from repro.service.session import SolverSession
    from repro.utils.rng import as_generator

    small = scale == "small"
    num_nodes = 120 if small else 500
    panels: dict[str, Any] = {}
    mc2 = load_dataset("rand-mc-c2", seed=seed, num_nodes=num_nodes)
    mc4 = load_dataset("rand-mc-c4", seed=seed, num_nodes=num_nodes)
    im2 = load_dataset("rand-im-c2", seed=seed)
    fl2 = load_dataset("rand-fl-c2", seed=seed)
    panels["a: RAND (MC, c=2)"] = mc2.objective
    panels["b: RAND (MC, c=4)"] = mc4.objective
    # Sampled with the first sub-seed the sweeps derive from ``seed``.
    panels["c: RAND (IM, c=2)"] = SolverSession(im2).objective(
        im_samples=1_000 if small else 10_000,
        sample_seed=int(as_generator(seed).integers(0, 2**62)),
        workers=workers,
    )
    panels["d: RAND (FL, c=2)"] = fl2.objective
    out: dict[str, list[tuple[float, float, float]]] = {}
    for name, objective in panels.items():
        greedy_res = greedy_utility(objective, k)
        saturate_res = run_saturate(objective, k)
        series: list[tuple[float, float, float]] = []
        for eps in epsilons:
            result = bsm_saturate(
                objective, k, tau,
                epsilon=float(eps),
                greedy_result=greedy_res,
                saturate_result=saturate_res,
            )
            series.append((float(eps), result.utility, result.fairness))
        out[name] = series
    return out


def dataset_statistics(names: Sequence[str], *, seed: SeedLike = 0,
                       overrides: Optional[Mapping[str, Mapping[str, Any]]] = None
                       ) -> list[dict[str, Any]]:
    """Regenerate the rows of Tables 1–2 for the given dataset names."""
    import numpy as np

    rows: list[dict[str, Any]] = []
    for name in names:
        extra = dict((overrides or {}).get(name, {}))
        dataset = load_dataset(name, seed=seed, **extra)
        if dataset.kind in ("coverage", "influence"):
            graph = dataset.graph
            sizes = graph.group_sizes()
            rows.append(
                {
                    "dataset": name,
                    "n": graph.num_nodes,
                    "m": graph.num_nodes,
                    "edges": graph.num_edges,
                    "c": graph.num_groups,
                    "group_percent": [
                        round(100.0 * int(s) / graph.num_nodes, 1) for s in sizes
                    ],
                }
            )
        else:
            objective = dataset.objective
            sizes = objective.group_sizes
            rows.append(
                {
                    "dataset": name,
                    "n": objective.num_items,
                    "m": objective.num_users,
                    "edges": None,
                    "c": objective.num_groups,
                    "group_percent": [
                        round(100.0 * int(s) / objective.num_users, 1)
                        for s in np.asarray(sizes)
                    ],
                }
            )
    return rows
