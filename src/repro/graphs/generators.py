"""Random-graph generators used to build the paper's datasets.

The paper's synthetic RAND graphs are stochastic block models (SBM) with
intra-/inter-group probabilities 0.1 / 0.02 (Section 5.1). The real social
graphs (Facebook, DBLP, Pokec) are unavailable offline, so the dataset
layer composes these generators into *-like* graphs that match the
paper's published node counts, edge densities and group mixes (Table 1)
— see ``repro/datasets/social.py``.

Each generator collects its edges first and builds its :class:`Graph`
with one :meth:`Graph.add_edges` call. The RNG draws and the resulting
adjacency are those of adding the same edges one by one.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int, check_probability


#: Most uniform draws one SBM chunk holds (2 MiB of doubles). Each block
#: pair's Bernoulli matrix is drawn in row-major chunks of this many
#: entries, so a cold build's peak memory no longer grows with the
#: block sizes.
SBM_CHUNK_DOUBLES = 1 << 18


def _sbm_edges(
    sizes: Sequence[int],
    p_intra: float,
    p_inter: float,
    rng: np.random.Generator,
    directed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample SBM edges over contiguous blocks of ``sizes`` nodes.

    Returns ``(sources, targets)`` in sampling order: block pair by block
    pair, row-major within a pair. Each block pair's Bernoulli matrix is
    drawn in row-major chunks of at most :data:`SBM_CHUNK_DOUBLES`
    uniforms (a chunk may end mid-row) from the one ``rng``. Chunks
    consume the stream in the order one dense ``rng.random((n_i, n_j))``
    call would, so the edges and the generator's final state are those
    of the dense draw. Within a diagonal block the self-pairs are dropped
    from the hit positions (directed), or everything but ``u < v`` is
    (undirected).
    """
    offsets = np.cumsum([0] + list(sizes))
    sources: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    targets: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for gi in range(len(sizes)):
        for gj in range(len(sizes)):
            if not directed and gj < gi:
                continue
            p = p_intra if gi == gj else p_inter
            if p == 0.0:
                continue
            total = sizes[gi] * sizes[gj]
            for lo in range(0, total, SBM_CHUNK_DOUBLES):
                draw = rng.random(min(SBM_CHUNK_DOUBLES, total - lo))
                ii, jj = np.divmod(np.flatnonzero(draw < p) + lo, sizes[gj])
                if gi == gj:
                    keep = ii != jj if directed else ii < jj
                    ii, jj = ii[keep], jj[keep]
                sources.append(ii + offsets[gi])
                targets.append(jj + offsets[gj])
    return np.concatenate(sources), np.concatenate(targets)


def stochastic_block_model(
    group_sizes: Sequence[int],
    p_intra: float,
    p_inter: float,
    *,
    seed: SeedLike = None,
    directed: bool = False,
) -> Graph:
    """Sample an SBM graph; node groups are attached to the result.

    Nodes are laid out block-by-block: group 0 first, then group 1, etc.
    """
    sizes = [check_positive_int(s, "group size") for s in group_sizes]
    check_probability(p_intra, "p_intra")
    check_probability(p_inter, "p_inter")
    rng = as_generator(seed)
    groups = np.repeat(np.arange(len(sizes)), sizes)
    graph = Graph(sum(sizes), directed=directed, groups=groups)
    graph.add_edges(*_sbm_edges(sizes, p_intra, p_inter, rng, directed))
    return graph


def erdos_renyi(
    num_nodes: int,
    p: float,
    *,
    seed: SeedLike = None,
    directed: bool = False,
) -> Graph:
    """G(n, p) random graph (no groups attached): a one-block SBM."""
    n = check_positive_int(num_nodes, "num_nodes")
    check_probability(p, "p")
    rng = as_generator(seed)
    graph = Graph(n, directed=directed)
    graph.add_edges(*_sbm_edges([n], p, 0.0, rng, directed))
    return graph


def preferential_attachment(
    num_nodes: int,
    edges_per_node: int,
    *,
    seed: SeedLike = None,
    directed: bool = False,
) -> Graph:
    """Barabási–Albert-style growth; yields the heavy-tailed degree
    distribution characteristic of large social networks (Pokec-like).

    Each arriving node attaches to ``edges_per_node`` distinct existing
    nodes chosen proportionally to their current degree (implemented with
    the standard repeated-endpoints urn trick, O(|E|)).
    """
    n = check_positive_int(num_nodes, "num_nodes")
    m = check_positive_int(edges_per_node, "edges_per_node")
    if m >= n:
        raise ValueError(f"edges_per_node ({m}) must be < num_nodes ({n})")
    rng = as_generator(seed)
    # Urn of edge endpoints; each entry is one "degree unit".
    urn: list[int] = list(range(m))  # seed clique endpoints
    for u in range(m):
        for v in range(u + 1, m):
            urn.extend((u, v))
    for u in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            pick = urn[int(rng.integers(0, len(urn)))] if urn else int(
                rng.integers(0, u)
            )
            if pick != u:
                targets.add(pick)
        for v in targets:
            urn.extend((u, v))
    # Past the m seed entries, the urn lists every edge's (u, v) in order.
    graph = Graph(n, directed=directed)
    graph.add_edges(urn[m::2], urn[m + 1::2])
    return graph


def gaussian_points(
    counts: Sequence[int],
    centers: Optional[np.ndarray] = None,
    *,
    dim: int = 2,
    scale: float = 1.0,
    spread: float = 4.0,
    seed: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian blobs: returns ``(points, labels)``.

    One blob per entry in ``counts``. Used for the paper's random FL
    datasets ("each group corresponds to an isotropic Gaussian blob",
    Section 5.3) and as the backbone of the spatial FourSquare-like data.
    """
    sizes = [check_positive_int(c, "blob size") for c in counts]
    rng = as_generator(seed)
    k = len(sizes)
    if centers is None:
        centers = rng.uniform(-spread, spread, size=(k, dim))
    centers = np.asarray(centers, dtype=float)
    if centers.shape != (k, dim):
        raise ValueError(f"centers must have shape ({k}, {dim}), got {centers.shape}")
    points = np.vstack([
        rng.normal(loc=centers[i], scale=scale, size=(sizes[i], dim))
        for i in range(k)
    ])
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return points, labels


def random_groups_graph(
    num_nodes: int,
    avg_degree: float,
    proportions: Sequence[float],
    *,
    seed: SeedLike = None,
    directed: bool = False,
    homophily: float = 2.0,
) -> Graph:
    """Random graph with a target average degree and a given group mix.

    Helper behind the *-like* real-dataset substitutes: an SBM whose
    intra-group probability is ``homophily`` times the inter-group one,
    calibrated so that the expected average degree matches ``avg_degree``.
    """
    n = check_positive_int(num_nodes, "num_nodes")
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    rng = as_generator(seed)
    from repro.utils.rng import deterministic_partition

    labels = deterministic_partition(n, proportions)
    rng.shuffle(labels)
    sizes = np.bincount(labels, minlength=len(list(proportions)))
    # Solve for p_inter such that expected degree == avg_degree given the
    # group sizes: E[deg] = (h * sum_i s_i(s_i-1) + sum_{i!=j} s_i s_j) * p / n
    h = max(homophily, 1.0)
    intra_pairs = float(np.sum(sizes * (sizes - 1)))
    total_pairs = float(n) * (n - 1)
    inter_pairs = total_pairs - intra_pairs
    denom = h * intra_pairs + inter_pairs
    p_inter = min(1.0, avg_degree * n / denom) if denom > 0 else 0.0
    p_intra = min(1.0, h * p_inter)
    # Sample the SBM in block layout (contiguous blocks in label order),
    # then relabel block node order[i] as node i. Sampling order already
    # lists every node's edges in the order a block Graph stores them.
    order = np.argsort(labels, kind="stable")
    sources, targets = _sbm_edges(
        [int(s) for s in sizes if s > 0], p_intra, p_inter, rng, directed
    )
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n)
    graph = Graph(n, directed=directed, groups=labels)
    graph.add_edges(inverse[sources], inverse[targets])
    return graph
