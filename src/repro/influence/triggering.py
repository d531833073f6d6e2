"""The general triggering model [Kempe et al. 2003, §4.1].

Footnote 3 of the paper notes the algorithms extend to "any diffusion
model, e.g., linear threshold and triggering models" whose spread stays
monotone submodular. The triggering model is the common generalisation:
every node ``v`` independently samples a *trigger set* ``T_v`` from a
distribution over subsets of its in-neighbours, and ``v`` activates as
soon as some node of ``T_v`` is active. Reachability from the seeds
through the sampled "live" arcs ``(u, v), u in T_v`` equals the cascade
outcome, which is what makes the spread monotone submodular and RIS
sampling valid.

Special cases provided as trigger samplers:

* :func:`ic_trigger_sampler` — each in-neighbour joins ``T_v``
  independently with its arc probability (= independent cascade);
* :func:`lt_trigger_sampler` — at most one in-neighbour, chosen with
  the LT weights (= linear threshold);
* :func:`topk_trigger_sampler` — a correlated example: the ``r``
  strongest in-arcs all fire together with probability equal to their
  mean strength (models "peer-group" adoption; not expressible as IC).

:class:`TriggeringModel` mirrors :class:`repro.influence.lt_model.
LTModel`: forward simulation, Monte-Carlo group spread, and RR-set
sampling producing a standard :class:`repro.influence.ris.RRCollection`
so :class:`repro.problems.influence.InfluenceObjective` works unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.influence.ic_model import simulated_group_spread
from repro.influence.ris import RRCollection, rr_collection_from_walks
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

#: ``(in_neighbors, in_probs, rng) -> selected in-neighbours`` for one node.
TriggerSampler = Callable[
    [np.ndarray, np.ndarray, np.random.Generator], np.ndarray
]


def ic_trigger_sampler() -> TriggerSampler:
    """Independent-cascade trigger distribution (independent inclusion)."""

    def sample(
        neighbors: np.ndarray, probs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if neighbors.size == 0:
            return neighbors
        return neighbors[rng.random(neighbors.size) < probs]

    return sample


def lt_trigger_sampler(*, normalize: bool = True) -> TriggerSampler:
    """Linear-threshold trigger distribution (at most one in-neighbour).

    With ``normalize`` the arc strengths are rescaled per node so they
    sum to at most 1 (else strengths above 1 in total are an error).
    """

    def sample(
        neighbors: np.ndarray, probs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if neighbors.size == 0:
            return neighbors
        weights = probs.astype(float)
        total = float(weights.sum())
        if total > 1.0:
            if not normalize:
                raise ValueError(
                    f"LT in-weights sum to {total} > 1; pass normalize=True"
                )
            weights = weights / total
        r = rng.random()
        acc = 0.0
        for offset in range(neighbors.size):
            acc += weights[offset]
            if r < acc:
                return neighbors[offset : offset + 1]
        return neighbors[:0]

    return sample


def topk_trigger_sampler(r: int = 2) -> TriggerSampler:
    """A correlated trigger distribution: all-or-nothing strongest arcs.

    The ``r`` in-arcs with the largest strengths fire *together* with
    probability equal to their mean strength, otherwise ``T_v`` is
    empty. Positively correlated arc liveness like this cannot be
    produced by IC, demonstrating that the substrate genuinely covers
    the triggering generality (and giving tests a third model).
    """
    check_positive_int(r, "r")

    def sample(
        neighbors: np.ndarray, probs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if neighbors.size == 0:
            return neighbors
        top = np.argsort(probs)[::-1][:r]
        if rng.random() < float(probs[top].mean()):
            return neighbors[np.sort(top)]
        return neighbors[:0]

    return sample


class TriggeringModel:
    """Diffusion under an arbitrary per-node trigger-set distribution.

    Parameters
    ----------
    graph:
        The grouped social graph; arc probabilities parameterise the
        sampler.
    sampler:
        The trigger-set distribution (defaults to independent cascade,
        making the model a strict superset of
        :mod:`repro.influence.ic_model`).
    """

    def __init__(
        self, graph: Graph, sampler: Optional[TriggerSampler] = None
    ) -> None:
        self.graph = graph
        self.sampler = sampler or ic_trigger_sampler()
        indptr, indices, probs = graph.transpose_adjacency()
        self._in_indptr = indptr
        self._in_indices = indices
        self._in_probs = probs

    def _sample_trigger_set(
        self, node: int, rng: np.random.Generator
    ) -> np.ndarray:
        lo, hi = self._in_indptr[node], self._in_indptr[node + 1]
        return self.sampler(
            self._in_indices[lo:hi], self._in_probs[lo:hi], rng
        )

    # -- forward simulation -------------------------------------------------
    def simulate(
        self, seeds: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """One cascade; returns the boolean activation vector.

        Trigger sets are sampled lazily the first time a node is
        examined, which is distributionally identical to sampling all of
        them upfront (they are mutually independent) but touches only
        the explored part of the graph.
        """
        n = self.graph.num_nodes
        active = np.zeros(n, dtype=bool)
        for s in seeds:
            s = int(s)
            if not 0 <= s < n:
                raise IndexError(f"seed {s} out of range [0, {n})")
            active[s] = True
        # Fixed-point iteration over sampled trigger sets: node v joins
        # when T_v intersects the active set. Each node's T_v is sampled
        # once and cached for the cascade.
        triggers: dict[int, np.ndarray] = {}
        changed = True
        while changed:
            changed = False
            for v in range(n):
                if active[v]:
                    continue
                t_v = triggers.get(v)
                if t_v is None:
                    t_v = self._sample_trigger_set(v, rng)
                    triggers[v] = t_v
                if t_v.size and bool(active[t_v].any()):
                    active[v] = True
                    changed = True
        return active

    def monte_carlo_group_spread(
        self,
        seeds: Sequence[int],
        num_simulations: int = 1000,
        *,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Per-group average activation probabilities."""
        return simulated_group_spread(
            self.graph, self.simulate, seeds, num_simulations, seed=seed
        )

    # -- reverse sampling ---------------------------------------------------
    def sample_rr_set(
        self, root: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One RR set: reverse BFS through lazily sampled trigger sets.

        A node ``u`` belongs to the RR set of ``root`` iff seeding ``u``
        would activate ``root`` in the live-arc outcome, i.e. iff
        ``root`` is reachable from ``u`` along arcs ``(x in T_y, y)``.
        Walking backwards, the out-edges of ``y`` in the reverse view
        are exactly ``T_y`` — sampled once per visited node.
        """
        n = self.graph.num_nodes
        if not 0 <= root < n:
            raise IndexError(f"root {root} out of range [0, {n})")
        visited = np.zeros(n, dtype=bool)
        visited[root] = True
        out = [int(root)]
        frontier = [int(root)]
        while frontier:
            next_frontier: list[int] = []
            for y in frontier:
                for x in self._sample_trigger_set(y, rng):
                    x = int(x)
                    if not visited[x]:
                        visited[x] = True
                        out.append(x)
                        next_frontier.append(x)
            frontier = next_frontier
        return np.asarray(out, dtype=np.int64)

    def sample_rr_collection(
        self,
        num_samples: int,
        *,
        seed: SeedLike = None,
        stratified: bool = True,
    ) -> RRCollection:
        """An :class:`RRCollection` drop-in compatible with the IC/LT ones."""
        return rr_collection_from_walks(
            self.graph, num_samples, self.sample_rr_set,
            seed=seed, stratified=stratified,
        )
