"""Synthetic substitutes for the paper's real social graphs (Table 1).

The real Facebook (Rice), DBLP and Pokec graphs are not redistributable
offline. Each builder below matches the published node count, target edge
count and exact group mix, and reproduces the structural property the
experiments depend on (DESIGN.md §6):

* ``facebook_like`` — dense homophilous friendship graph (avg degree ~70);
* ``dblp_like`` — sparse clustered co-authorship graph (avg degree ~3.5);
* ``pokec_like`` — directed heavy-tailed follower graph. The real Pokec
  has 1.6M nodes / 30.6M arcs; the default here scales to 50k nodes with
  the same density (~19 arcs/node) so that the scalability *trend* of
  Figures 4/6 is measurable on a laptop. Pass ``num_nodes`` to change.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.generators import preferential_attachment, random_groups_graph
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_generator, deterministic_partition
from repro.utils.validation import check_positive_int

#: Table 1 group mixes, in percent.
FACEBOOK_AGE_C2 = (8, 92)             # age < 20 vs >= 20
FACEBOOK_AGE_C4 = (8, 28, 31, 33)      # age 19 / 20 / 21 / 22
DBLP_CONTINENT_C5 = (21, 23, 52, 3, 1)  # Asia/Europe/N.America/Oceania/S.America
POKEC_GENDER_C2 = (51, 49)
POKEC_AGE_C6 = (17, 45, 29, 6, 2, 1)

#: Table 1 sizes.
FACEBOOK_NODES = 1_216
FACEBOOK_EDGES = 42_443
DBLP_NODES = 3_980
DBLP_EDGES = 6_966


def facebook_like(
    num_groups: int = 2,
    *,
    seed: SeedLike = None,
    num_nodes: int = FACEBOOK_NODES,
) -> Graph:
    """Facebook-like friendship graph (Age attribute, c = 2 or 4)."""
    if num_groups == 2:
        percents = FACEBOOK_AGE_C2
    elif num_groups == 4:
        percents = FACEBOOK_AGE_C4
    else:
        raise ValueError(f"Facebook groups are c=2 or c=4, got {num_groups}")
    check_positive_int(num_nodes, "num_nodes")
    avg_degree = 2.0 * FACEBOOK_EDGES / FACEBOOK_NODES  # ~69.8
    return random_groups_graph(
        num_nodes,
        avg_degree,
        percents,
        seed=seed,
        directed=False,
        homophily=3.0,  # campus friendships skew within age cohorts
    )


def dblp_like(
    *,
    seed: SeedLike = None,
    num_nodes: int = DBLP_NODES,
) -> Graph:
    """DBLP-like co-authorship graph (Continent attribute, c = 5)."""
    check_positive_int(num_nodes, "num_nodes")
    avg_degree = 2.0 * DBLP_EDGES / DBLP_NODES  # ~3.5
    return random_groups_graph(
        num_nodes,
        avg_degree,
        DBLP_CONTINENT_C5,
        seed=seed,
        directed=False,
        homophily=5.0,  # collaborations cluster strongly by region
    )


def pokec_like(
    attribute: str = "gender",
    *,
    seed: SeedLike = None,
    num_nodes: int = 50_000,
) -> Graph:
    """Pokec-like directed follower graph (gender c=2 or age c=6).

    Heavy-tailed out-degrees via preferential attachment, then group
    labels assigned to match the Table-1 mixes (the gender split is nearly
    uniform, so labels and structure are independent, as in Pokec itself).
    """
    if attribute == "gender":
        percents = POKEC_GENDER_C2
    elif attribute == "age":
        percents = POKEC_AGE_C6
    else:
        raise ValueError(
            f"attribute must be 'gender' or 'age', got {attribute!r}"
        )
    check_positive_int(num_nodes, "num_nodes")
    rng = as_generator(seed)
    # Real Pokec density: 30.6M arcs / 1.63M nodes ~ 18.8 arcs per node.
    arcs_per_node = 9  # undirected PA edges stored as 2 arcs each -> ~18.8
    base = preferential_attachment(
        num_nodes, arcs_per_node, seed=rng, directed=False
    )
    # Both arcs of every undirected edge, follower-style.
    indptr, indices, probs = base.out_adjacency()
    graph = Graph(num_nodes, directed=True)
    graph.add_edges(
        np.repeat(np.arange(num_nodes), np.diff(indptr)), indices, probs
    )
    labels = deterministic_partition(num_nodes, list(percents))
    rng.shuffle(labels)
    graph.set_groups(labels)
    return graph
