"""Linear-threshold (LT) diffusion model [Kempe et al. 2003].

The paper's footnote 3 notes that its algorithms "can be trivially
extended to any diffusion model, e.g., linear threshold and triggering
models" whose spread is monotone submodular. This module provides that
extension: the LT model with its live-edge (triggering) equivalent, a
Monte-Carlo evaluator, and LT reverse-reachable sampling — so
:class:`repro.problems.influence.InfluenceObjective` works unchanged on
LT estimates via :meth:`LTModel.sample_rr_collection`.

Model: node ``v`` has a random threshold ``theta_v ~ U[0, 1]`` and each
in-neighbour ``u`` an influence weight ``b_uv`` with
``sum_u b_uv <= 1``; ``v`` activates when the weights of its active
in-neighbours reach ``theta_v``. Equivalently (Kempe et al., Thm 4.6),
every node picks *at most one* in-neighbour as its "trigger" with
probability ``b_uv`` (no one with ``1 - sum_u b_uv``); activation equals
reachability from the seeds through trigger edges. Both directions of
that equivalence are exercised in the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.influence.ris import RRCollection
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


class LTModel:
    """Linear-threshold diffusion on a grouped graph.

    Parameters
    ----------
    graph:
        The social graph (arcs carry the raw influence strengths).
    weighting:
        ``"degree"`` (default) sets ``b_uv = 1 / indegree(v)`` — the
        standard parameter-free LT instantiation; ``"probability"``
        reuses the stored arc probabilities, rescaled per target node so
        that in-weights sum to at most 1.
    """

    def __init__(self, graph: Graph, *, weighting: str = "degree") -> None:
        if weighting not in ("degree", "probability"):
            raise ValueError(
                f"weighting must be 'degree' or 'probability', got {weighting!r}"
            )
        self.graph = graph
        self.weighting = weighting
        # In-adjacency with trigger probabilities: CSR over the transpose,
        # so row v lists (u, b_uv).
        indptr, indices, probs = graph.transpose_adjacency()
        weights = probs.astype(float).copy()
        for v in range(graph.num_nodes):
            lo, hi = indptr[v], indptr[v + 1]
            if lo == hi:
                continue
            if weighting == "degree":
                weights[lo:hi] = 1.0 / (hi - lo)
            else:
                total = float(weights[lo:hi].sum())
                if total > 1.0:
                    weights[lo:hi] /= total
        self._in_indptr = indptr
        self._in_indices = indices
        self._in_weights = weights

    # ------------------------------------------------------------------
    def sample_triggers(self, rng: np.random.Generator) -> np.ndarray:
        """One live-edge outcome: each node's trigger in-neighbour (or -1).

        Node ``v`` selects in-neighbour ``u`` with probability ``b_uv``,
        independently across nodes.
        """
        n = self.graph.num_nodes
        triggers = np.full(n, -1, dtype=np.int64)
        for v in range(n):
            lo, hi = self._in_indptr[v], self._in_indptr[v + 1]
            if lo == hi:
                continue
            w = self._in_weights[lo:hi]
            r = rng.random()
            acc = 0.0
            for offset in range(hi - lo):
                acc += w[offset]
                if r < acc:
                    triggers[v] = self._in_indices[lo + offset]
                    break
        return triggers

    def simulate(
        self, seeds: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """One LT cascade via the triggering equivalence; returns the
        boolean activation vector."""
        triggers = self.sample_triggers(rng)
        n = self.graph.num_nodes
        active = np.zeros(n, dtype=bool)
        frontier = []
        for s in seeds:
            s = int(s)
            if not 0 <= s < n:
                raise IndexError(f"seed {s} out of range [0, {n})")
            if not active[s]:
                active[s] = True
                frontier.append(s)
        # Forward propagation through trigger edges: v activates iff its
        # trigger is active. Build the forward view once per cascade.
        children: dict[int, list[int]] = {}
        for v, t in enumerate(triggers):
            if t >= 0:
                children.setdefault(int(t), []).append(v)
        while frontier:
            u = frontier.pop()
            for v in children.get(u, ()):
                if not active[v]:
                    active[v] = True
                    frontier.append(v)
        return active

    def simulate_thresholds(
        self, seeds: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """One LT cascade via explicit thresholds (the model's original
        definition) — used in tests to validate the triggering
        equivalence distributionally."""
        n = self.graph.num_nodes
        thresholds = rng.random(n)
        active = np.zeros(n, dtype=bool)
        for s in seeds:
            active[int(s)] = True
        changed = True
        while changed:
            changed = False
            for v in range(n):
                if active[v]:
                    continue
                lo, hi = self._in_indptr[v], self._in_indptr[v + 1]
                if lo == hi:
                    continue
                mass = float(
                    self._in_weights[lo:hi][active[self._in_indices[lo:hi]]].sum()
                )
                if mass >= thresholds[v]:
                    active[v] = True
                    changed = True
        return active

    # ------------------------------------------------------------------
    def monte_carlo_group_spread(
        self,
        seeds: Sequence[int],
        num_simulations: int = 1000,
        *,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Per-group average activation probabilities under LT."""
        check_positive_int(num_simulations, "num_simulations")
        rng = as_generator(seed)
        labels = self.graph.groups
        c = self.graph.num_groups
        sizes = self.graph.group_sizes().astype(float)
        totals = np.zeros(c, dtype=float)
        for _ in range(num_simulations):
            active = self.simulate(seeds, rng)
            totals += np.bincount(labels[active], minlength=c)
        return totals / (sizes * num_simulations)

    def sample_rr_set(
        self, root: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One LT reverse-reachable set: a random backward trigger walk.

        From the root, repeatedly sample the current node's trigger
        in-neighbour and step to it; stop on "no trigger" or on a cycle.
        The walk visits exactly the nodes whose selection as seeds would
        activate the root in the corresponding live-edge outcome.
        """
        n = self.graph.num_nodes
        if not 0 <= root < n:
            raise IndexError(f"root {root} out of range [0, {n})")
        visited = {int(root)}
        out = [int(root)]
        current = int(root)
        while True:
            lo, hi = self._in_indptr[current], self._in_indptr[current + 1]
            if lo == hi:
                break
            w = self._in_weights[lo:hi]
            r = rng.random()
            acc = 0.0
            nxt = -1
            for offset in range(hi - lo):
                acc += w[offset]
                if r < acc:
                    nxt = int(self._in_indices[lo + offset])
                    break
            if nxt < 0 or nxt in visited:
                break
            visited.add(nxt)
            out.append(nxt)
            current = nxt
        return np.asarray(out, dtype=np.int64)

    def sample_rr_collection(
        self,
        num_samples: int,
        *,
        seed: SeedLike = None,
        stratified: bool = True,
    ) -> RRCollection:
        """An :class:`RRCollection` of LT RR sets (drop-in for the IC one)."""
        check_positive_int(num_samples, "num_samples")
        rng = as_generator(seed)
        labels = self.graph.groups
        c = self.graph.num_groups
        sets: list[np.ndarray] = []
        root_groups: list[int] = []
        if stratified:
            members = [np.flatnonzero(labels == i) for i in range(c)]
            base, rem = divmod(num_samples, c)
            for i in range(c):
                quota = max(base + (1 if i < rem else 0), 1)
                roots = members[i][rng.integers(0, members[i].size, size=quota)]
                for r in roots:
                    sets.append(self.sample_rr_set(int(r), rng))
                    root_groups.append(i)
        else:
            roots = rng.integers(0, self.graph.num_nodes, size=num_samples)
            for r in roots:
                sets.append(self.sample_rr_set(int(r), rng))
                root_groups.append(int(labels[r]))
            present = np.bincount(np.asarray(root_groups), minlength=c)
            for i in np.flatnonzero(present == 0):
                members = np.flatnonzero(labels == i)
                r = int(members[rng.integers(0, members.size)])
                sets.append(self.sample_rr_set(r, rng))
                root_groups.append(int(i))
        return RRCollection(
            sets=sets,
            root_groups=np.asarray(root_groups, dtype=np.int64),
            num_nodes=self.graph.num_nodes,
            num_groups=c,
        )
