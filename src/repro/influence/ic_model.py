"""Independent-cascade (IC) diffusion model [Kempe et al. 2003].

A cascade starts from a seed set ``S``. When node ``u`` becomes active it
gets one chance to activate each inactive out-neighbour ``v``, succeeding
independently with the edge's propagation probability ``p(u, v)``. The
influence spread is the expected number of eventually-active nodes; the
paper's utility ``f_u(S)`` is the probability that user ``u`` is activated.

Exact spread computation is #P-hard [Chen et al. 2010], so this module
provides Monte-Carlo estimation: the paper uses 10,000 simulations to
evaluate final solutions (Section 5.2).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.influence.engine import cascade_activation_counts
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


def prepare_seeds(graph: Graph, seeds: Sequence[int]) -> np.ndarray:
    """Validate and normalise a seed set once, ahead of many cascades.

    Returns the sorted, deduplicated int64 seed array. The Monte-Carlo
    estimators call this a single time and hand the prepared array to the
    batched engine instead of re-validating inside each of the paper's
    10,000 ``simulate_cascade`` calls.
    """
    arr = np.asarray(list(seeds), dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= graph.num_nodes):
        bad = arr[(arr < 0) | (arr >= graph.num_nodes)][0]
        raise IndexError(f"seed {bad} out of range [0, {graph.num_nodes})")
    return np.unique(arr)


def simulate_cascade(
    graph: Graph,
    seeds: Sequence[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one IC cascade; returns the boolean activation vector.

    Edges flip their coins lazily during the BFS — equivalent to the
    live-edge interpretation (each edge is live independently with its
    probability, activation = reachability from the seeds via live edges).
    """
    indptr, indices, probs = graph.out_adjacency()
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier: list[int] = []
    for s in seeds:
        s = int(s)
        if not 0 <= s < graph.num_nodes:
            raise IndexError(f"seed {s} out of range [0, {graph.num_nodes})")
        if not active[s]:
            active[s] = True
            frontier.append(s)
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            lo, hi = indptr[u], indptr[u + 1]
            if lo == hi:
                continue
            nbrs = indices[lo:hi]
            edge_p = probs[lo:hi]
            hits = rng.random(hi - lo) < edge_p
            for v in nbrs[hits]:
                if not active[v]:
                    active[v] = True
                    next_frontier.append(int(v))
        frontier = next_frontier
    return active


def simulate_cascades_batch(
    graph: Graph,
    seeds: Sequence[int] | np.ndarray,
    num_cascades: int,
    rng: np.random.Generator,
    *,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Run ``num_cascades`` IC cascades from ``seeds`` simultaneously.

    All cascades advance level by level through the shared frontier
    engine (:mod:`repro.influence.engine`); seeds are validated once.
    Returns the per-node activation-count vector: entry ``v`` is the
    number of cascades in which ``v`` became active — the sufficient
    statistic for every Monte-Carlo spread estimate. ``workers`` selects
    the pool path (bitwise invariant to worker count, pool backend and
    kernel set; ``None`` keeps the in-line serial stream).
    """
    check_positive_int(num_cascades, "num_cascades")
    prepared = prepare_seeds(graph, seeds)
    return cascade_activation_counts(
        graph.out_adjacency(),
        prepared,
        num_cascades,
        rng,
        workers=workers,
    )


def monte_carlo_group_spread(
    graph: Graph,
    seeds: Sequence[int],
    num_simulations: int = 1000,
    *,
    seed: SeedLike = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Estimate ``(f_1(S), ..., f_c(S))`` — per-group average activation
    probabilities — by averaging ``num_simulations`` batched cascades."""
    check_positive_int(num_simulations, "num_simulations")
    rng = as_generator(seed)
    sizes = graph.group_sizes().astype(float)
    counts = simulate_cascades_batch(
        graph, seeds, num_simulations, rng, workers=workers
    )
    totals = np.bincount(
        graph.groups, weights=counts, minlength=graph.num_groups
    )
    return totals / (sizes * num_simulations)


def simulated_group_spread(
    graph: Graph,
    simulate: Callable[[Sequence[int], np.random.Generator], np.ndarray],
    seeds: Sequence[int],
    num_simulations: int,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Per-group average activation probabilities over scalar cascades.

    ``simulate(seeds, rng)`` runs one cascade of a model without a
    batched engine (LT, triggering) and returns its boolean activation
    vector; the per-group counts are averaged over ``num_simulations``
    cascades drawn from one stream.
    """
    check_positive_int(num_simulations, "num_simulations")
    rng = as_generator(seed)
    labels = graph.groups
    c = graph.num_groups
    totals = np.zeros(c, dtype=float)
    for _ in range(num_simulations):
        totals += np.bincount(labels[simulate(seeds, rng)], minlength=c)
    return totals / (graph.group_sizes().astype(float) * num_simulations)


def monte_carlo_spread(
    graph: Graph,
    seeds: Sequence[int],
    num_simulations: int = 1000,
    *,
    seed: SeedLike = None,
    workers: Optional[int] = None,
) -> float:
    """Estimate the normalised spread ``f(S)`` (expected active fraction)."""
    check_positive_int(num_simulations, "num_simulations")
    rng = as_generator(seed)
    counts = simulate_cascades_batch(
        graph, seeds, num_simulations, rng, workers=workers
    )
    return float(counts.sum()) / (num_simulations * graph.num_nodes)


def exact_group_spread(
    graph: Graph,
    seeds: Sequence[int],
    *,
    max_nodes: int = 20,
) -> np.ndarray:
    """Exact per-group activation probabilities by live-edge enumeration.

    Enumerates all ``2^|E|`` live-edge outcomes — #P-hard in general, so a
    guard refuses graphs with more than ``max_nodes`` nodes or 20 arcs.
    Exists to validate the Monte-Carlo and RIS estimators in tests.
    """
    if graph.num_nodes > max_nodes or graph.num_arcs > 20:
        raise ValueError(
            "exact_group_spread enumerates 2^|arcs| outcomes; instance too large"
        )
    arcs = list(graph.edges())
    labels = graph.groups
    c = graph.num_groups
    sizes = graph.group_sizes().astype(float)
    seeds = [int(s) for s in seeds]
    totals = np.zeros(c, dtype=float)
    n_arcs = len(arcs)
    for mask in range(1 << n_arcs):
        prob = 1.0
        succ: dict[int, list[int]] = {}
        for bit, (u, v, p) in enumerate(arcs):
            if mask >> bit & 1:
                prob *= p
                succ.setdefault(u, []).append(v)
            else:
                prob *= 1.0 - p
        if prob == 0.0:
            continue
        active = np.zeros(graph.num_nodes, dtype=bool)
        stack = list(seeds)
        for s in seeds:
            active[s] = True
        while stack:
            u = stack.pop()
            for v in succ.get(u, ()):
                if not active[v]:
                    active[v] = True
                    stack.append(v)
        totals += prob * np.bincount(labels[active], minlength=c)
    return totals / sizes
