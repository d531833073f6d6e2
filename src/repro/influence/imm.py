"""IMM-style sample-size schedule for RIS [Tang et al. 2015].

IMM ("Influence Maximization via Martingales") answers *how many RR sets
are enough*: with

    alpha = sqrt(ell * ln n + ln 2)
    beta  = sqrt((1 - 1/e) * (ln C(n, k) + ell * ln n + ln 2))
    lambda* = 2 n ((1 - 1/e) alpha + beta)^2 / eps^2

``theta = lambda* / OPT`` samples suffice for a ``(1 - 1/e - eps)``
guarantee with probability ``1 - 1/n^ell``. Since ``OPT`` is unknown, IMM
runs a doubling phase: probe lower bounds ``x = n / 2^i``; at each probe
draw ``lambda' / x`` samples, greedy-solve the coverage instance, and stop
once the estimated spread certifies ``OPT >= x / (1 + eps')``.

This module implements that schedule *simplified in constants only* (we
use the published formulas) and adds one extension for BSM: the returned
collection can be *stratified* so each group's ``f_i`` estimator gets an
equal share of roots, which keeps the fairness estimate's variance
bounded for small groups. ``max_samples`` caps the budget so that
laptop-scale benchmark runs stay fast; the cap is reported in the result
for transparency.

Sampling runs through the batched frontier engine: each doubling probe
tops its pool up to ``theta_i`` with one :func:`sample_rr_sets_batch`
call (the probe sizes grow geometrically, so the top-ups do too), and in
the unstratified case the final collection *reuses* the doubling-phase
samples — uniform roots are exactly the final distribution — drawing
only the shortfall. ``IMMResult.reused_samples`` reports how many came
from the phase. Caveat, as in IMM's own final-phase reuse: the retained
samples are the ones on which the stopping rule fired, so they are not
independent of the certified lower bound and the formal
``(1 - 1/e - eps)`` guarantee holds only for a fresh draw
(``stratified=True``, the default, re-draws and keeps it). The
reproduction tolerates this for the throughput win because, as in the
paper's pipeline, final solutions are re-scored with independent
Monte-Carlo simulation anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.influence.engine import sample_rr_sets_batch
from repro.influence.ris import (
    RRCollection,
    missing_group_roots,
    sample_rr_collection,
)
from repro.utils.csr import build_csr, concat_packed, gather_csr_slices, invert_csr
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


def _log_binomial(n: int, k: int) -> float:
    """``ln C(n, k)`` via lgamma (stable for large n)."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def imm_sample_bound(
    n: int,
    k: int,
    *,
    epsilon: float = 0.5,
    ell: float = 1.0,
) -> float:
    """``lambda*`` of Tang et al. (2015), Eq. (6) — samples per unit OPT.

    ``theta = lambda* / OPT`` where OPT counts *expected activated nodes*
    (not the normalised fraction).
    """
    check_positive_int(n, "n")
    check_positive_int(k, "k")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell}")
    e_frac = 1.0 - 1.0 / math.e
    alpha = math.sqrt(ell * math.log(n) + math.log(2.0))
    beta = math.sqrt(e_frac * (_log_binomial(n, k) + ell * math.log(n) + math.log(2.0)))
    return 2.0 * n * (e_frac * alpha + beta) ** 2 / epsilon**2


@dataclass
class IMMResult:
    """Outcome of the IMM sampling phase."""

    collection: RRCollection
    opt_lower_bound: float
    target_samples: int
    capped: bool
    reused_samples: int = 0


def imm_rr_collection(
    graph: Graph,
    k: int,
    *,
    epsilon: float = 0.5,
    ell: float = 1.0,
    stratified: bool = True,
    max_samples: Optional[int] = 200_000,
    seed: SeedLike = None,
    workers: Optional[int] = None,
) -> IMMResult:
    """Run the IMM doubling phase and return a sized RR collection.

    Parameters
    ----------
    epsilon, ell:
        IMM accuracy / confidence parameters. The defaults favour speed —
        the paper evaluates final solutions with independent Monte-Carlo
        simulation anyway, so the RR estimate only steers the greedy.
    stratified:
        Re-draw the final collection with per-group quotas (see
        :func:`repro.influence.ris.sample_rr_collection`). Unstratified
        collections instead reuse the doubling-phase samples and top up
        only the shortfall.
    max_samples:
        Hard cap on the number of RR sets (``None`` disables). Reported
        via ``IMMResult.capped``.
    workers:
        Worker-pool width for every sampling call (doubling phase and
        final collection); see :mod:`repro.utils.parallel`.
    """
    check_positive_int(k, "k")
    rng = as_generator(seed)
    n = graph.num_nodes
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    eps_prime = math.sqrt(2.0) * epsilon
    log_n = math.log(max(n, 2))
    lambda_prime = (
        (2.0 + 2.0 * eps_prime / 3.0)
        * (_log_binomial(n, k) + ell * log_n + math.log(max(math.log2(max(n, 2)), 1.0)))
        * n
        / eps_prime**2
    )
    # Doubling phase: probe OPT lower bounds x = n / 2^i; each probe tops
    # the shared pool up to theta_i through one batched sampling call.
    transpose = graph.transpose_adjacency()
    labels = graph.groups
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    group_parts: list[np.ndarray] = []
    num_have = 0
    packed = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    lb = 1.0
    max_iters = max(int(math.log2(n)), 1)
    for i in range(1, max_iters + 1):
        x = n / 2.0**i
        theta_i = int(math.ceil(lambda_prime / x))
        if max_samples is not None:
            theta_i = min(theta_i, max_samples)
        if theta_i > num_have:
            roots = rng.integers(0, n, size=theta_i - num_have)
            parts.append(
                sample_rr_sets_batch(transpose, roots, rng, workers=workers)
            )
            group_parts.append(labels[roots])
            num_have = theta_i
            packed = concat_packed(parts)
            parts = [packed]
        frac = _greedy_coverage_fraction(packed, n, k)
        if n * frac >= (1.0 + eps_prime) * x:
            lb = n * frac / (1.0 + eps_prime)
            break
        if max_samples is not None and num_have >= max_samples:
            lb = max(n * frac, 1.0)
            break
    lambda_star = imm_sample_bound(n, k, epsilon=epsilon, ell=ell)
    theta = int(math.ceil(lambda_star / lb))
    capped = False
    if max_samples is not None and theta > max_samples:
        theta = max_samples
        capped = True
    theta = max(theta, graph.num_groups)  # at least one RR set per group
    if stratified:
        # Per-group quotas need a fresh root distribution; the phase pool
        # (uniform roots) cannot be reused.
        collection = sample_rr_collection(
            graph,
            theta,
            seed=rng,
            stratified=True,
            workers=workers,
        )
        reused = 0
    else:
        collection, reused = _final_unstratified(
            graph, packed, np.concatenate(group_parts), theta, transpose, rng,
            workers=workers,
        )
    return IMMResult(
        collection=collection,
        opt_lower_bound=lb,
        target_samples=theta,
        capped=capped,
        reused_samples=reused,
    )


def _final_unstratified(
    graph: Graph,
    packed: tuple[np.ndarray, np.ndarray],
    phase_groups: np.ndarray,
    theta: int,
    transpose: tuple[np.ndarray, np.ndarray, np.ndarray],
    rng: np.random.Generator,
    *,
    workers: Optional[int] = None,
) -> tuple[RRCollection, int]:
    """Assemble the final unstratified collection, reusing phase samples.

    The doubling phase drew roots uniformly — the same distribution the
    final unstratified collection needs — so the first ``theta`` phase
    samples are kept verbatim and only the shortfall is drawn. The kept
    samples are conditioned on the doubling phase's stopping event (see
    the module docstring for why that trade is accepted). Groups that no
    root hit get one extra RR set each (the collection requires every
    group to be present), drawn by the same
    :func:`~repro.influence.ris.missing_group_roots` as
    ``sample_rr_collection``.
    """
    set_indptr, set_indices = packed
    reused = min(set_indptr.size - 1, theta)
    parts = [(set_indptr[: reused + 1].copy(), set_indices[: set_indptr[reused]])]
    group_parts = [phase_groups[:reused]]
    labels = graph.groups
    if theta > reused:
        roots = rng.integers(0, graph.num_nodes, size=theta - reused)
        parts.append(
            sample_rr_sets_batch(transpose, roots, rng, workers=workers)
        )
        group_parts.append(labels[roots])
    root_groups = np.concatenate(group_parts)
    extra = np.fromiter(
        missing_group_roots(graph, root_groups, rng), dtype=np.int64
    )
    if extra.size:
        parts.append(
            sample_rr_sets_batch(transpose, extra, rng, workers=workers)
        )
        root_groups = np.concatenate([root_groups, labels[extra]])
    merged_ptr, merged_idx = concat_packed(parts)
    collection = RRCollection.from_packed(
        merged_ptr, merged_idx, root_groups, graph.num_nodes, graph.num_groups
    )
    return collection, reused


def _greedy_coverage_fraction(
    sets: Sequence[np.ndarray] | tuple[np.ndarray, np.ndarray],
    n: int,
    k: int,
) -> float:
    """Fraction of RR sets covered by the greedy size-k node set.

    Standard max-coverage greedy, run on the packed inverted index: the
    node->RR-set CSR comes from one stable counting sort of the packed entries,
    per-node counts start as one ``bincount``, and each round's decrement
    gathers the freshly covered sets' members in a single flat pass.
    Accepts either the packed ``(set_indptr, set_indices)`` pair or the
    legacy list of per-set node arrays. Used only inside the doubling
    phase to certify OPT lower bounds.
    """
    if isinstance(sets, tuple):
        set_indptr, set_indices = sets
    else:
        if not len(sets):
            return 0.0
        set_indptr, set_indices = build_csr(list(sets))
    num_sets = set_indptr.size - 1
    if num_sets == 0:
        return 0.0
    mem_indptr, mem_indices, _ = invert_csr(set_indptr, set_indices, n)
    counts = np.bincount(set_indices, minlength=n)
    covered = np.zeros(num_sets, dtype=bool)
    total = 0
    for _ in range(k):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break
        ids = mem_indices[mem_indptr[best]:mem_indptr[best + 1]]
        fresh = ids[~covered[ids]]
        if fresh.size:
            covered[fresh] = True
            total += fresh.size
            positions, _ = gather_csr_slices(set_indptr, fresh)
            counts -= np.bincount(set_indices[positions], minlength=n)
    return total / num_sets
