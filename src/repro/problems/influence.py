"""Influence maximization as a grouped submodular objective.

The per-user utility is ``f_u(S) = P[u activated by seed set S]`` under
the independent-cascade model (Section 5.2). Exact evaluation is #P-hard,
so the objective operates on a fixed :class:`RRCollection`: the estimate
of ``f_i(S)`` is the fraction of group-``i``-rooted RR sets that ``S``
intersects. Coverage of a fixed collection is monotone and submodular, so
all solvers run unchanged on the estimates; final solutions are then
re-scored with Monte-Carlo simulation, exactly as the paper does.

The objective is the covered-elements oracle of
:mod:`repro.problems.coverage` with RR sets as the elements: the
collection, on either storage tier, is the incidence. The objective adds
only the graph binding that :meth:`InfluenceObjective.refresh` repairs
or resamples against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.influence.imm import imm_rr_collection
from repro.influence.ris import (
    AnyRRCollection,
    RepairResult,
    repair_rr_collection,
    repair_seed_sequence,
    sample_rr_collection,
)
from repro.problems.coverage import CoveredElementsObjective
from repro.storage.backend import ArrayBackend
from repro.utils.rng import SeedLike


class InfluenceObjective(CoveredElementsObjective):
    """Grouped influence oracle over a fixed RR-set collection.

    Build via :meth:`from_graph` (fixed sample count) or
    :meth:`from_graph_imm` (IMM-sized sample count).
    """

    def __init__(
        self,
        collection: AnyRRCollection,
        population_sizes: Sequence[int],
    ) -> None:
        """Wrap an RR collection (flat or segmented).

        ``population_sizes`` are the true group sizes ``m_i``: the weights
        in ``f = sum_i (m_i/m) f_i`` must reflect the user population, while
        each *estimate* ``f_i`` divides by the collection's per-group RR-set
        counts (which differ under stratified sampling).
        """
        if len(population_sizes) != collection.num_groups:
            raise ValueError(
                "population_sizes length must equal the collection's group count"
            )
        super().__init__(
            collection.num_nodes,
            population_sizes,
            collection,
            collection.root_groups,
            collection.group_counts.astype(float),
        )
        self._collection = collection
        # Graph binding, set by from_graph: refresh() needs the source
        # graph, its version at sampling time and the sampling config to
        # repair or (on unreplayable deltas) resample.
        self._graph: Optional[Graph] = None
        self._graph_version: Optional[int] = None

    def _bind_graph(
        self,
        graph: Graph,
        seed: SeedLike,
        num_samples: int,
        stratified: bool,
        workers: Optional[int],
        store: str = "ram",
        memory_budget: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._graph_version = graph.version
        # Entropy for the repair seed-stream law. Integer seeds carry
        # over; live generators and None collapse to 0 — the law only
        # needs determinism per objective, and it must never consume
        # draws from a caller's generator (the original sampling stream
        # is pinned bitwise by tests).
        self._sample_entropy = (
            int(seed) if isinstance(seed, (int, np.integer)) else 0
        )
        self._num_samples = int(num_samples)
        self._stratified = bool(stratified)
        self._workers = workers
        self._store = store
        self._memory_budget = memory_budget

    @classmethod
    def from_collection(
        cls,
        collection: AnyRRCollection,
        population_sizes: Sequence[int],
    ) -> "InfluenceObjective":
        """Alias of the constructor (kept for API symmetry)."""
        return cls(collection, population_sizes)

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        num_samples: int,
        *,
        seed: SeedLike = None,
        stratified: bool = True,
        workers: Optional[int] = None,
        store: str = "ram",
        memory_budget: Optional[int] = None,
        backend: Optional[ArrayBackend] = None,
    ) -> "InfluenceObjective":
        """Sample ``num_samples`` RR sets from ``graph`` and wrap them.

        ``workers`` selects the sampling law (see
        :func:`repro.influence.ris.sample_rr_collection`), and every
        later :meth:`refresh` repairs or resamples under that same law.
        The pool backend and the kernel set are process pins
        (:func:`repro.utils.parallel.set_default_backend`,
        :func:`repro.kernels.set_default_kernel`); the kernel set is
        resolved once here for the gains oracles, and all sets are
        bitwise-equal. ``store`` / ``memory_budget`` select the storage
        tier — ``store="mmap"`` streams the collection into byte-budgeted
        memory-mapped segments whose gains fold to bitwise the flat
        results.
        """
        collection = sample_rr_collection(
            graph, num_samples, seed=seed, stratified=stratified,
            workers=workers, store=store, memory_budget=memory_budget,
            backend=backend,
        )
        objective = cls.from_collection(collection, graph.group_sizes())
        objective._bind_graph(
            graph, seed, num_samples, stratified, workers,
            store=store, memory_budget=memory_budget,
        )
        return objective

    @classmethod
    def from_graph_imm(
        cls,
        graph: Graph,
        k: int,
        *,
        epsilon: float = 0.5,
        ell: float = 1.0,
        max_samples: Optional[int] = 200_000,
        seed: SeedLike = None,
        stratified: bool = True,
        workers: Optional[int] = None,
    ) -> "InfluenceObjective":
        """IMM-sized sampling (see :mod:`repro.influence.imm`)."""
        imm = imm_rr_collection(
            graph,
            k,
            epsilon=epsilon,
            ell=ell,
            max_samples=max_samples,
            seed=seed,
            stratified=stratified,
            workers=workers,
        )
        return cls.from_collection(imm.collection, graph.group_sizes())

    @property
    def collection(self) -> AnyRRCollection:
        return self._collection

    @property
    def graph_version(self) -> Optional[int]:
        """Graph version the sampled state reflects (None when unbound).

        Unbound objectives (:meth:`from_collection` /
        :meth:`from_graph_imm`) report ``None`` and cannot refresh.
        """
        return self._graph_version

    def memory_bytes(self) -> int:
        """Approximate *resident* size of the sampled state.

        Counts the collection's resident bytes (for a flat one, the
        packed sets plus the inverted index — the arrays that dominate a
        warm influence objective) and the per-group arrays. Used by the
        byte-budgeted caches (:mod:`repro.utils.caching`) to account
        entries. A segmented collection counts only heap-resident bytes:
        its segment arrays are file-backed and reclaimable, which is
        what lets one warm session serve collections far larger than its
        cache budget.
        """
        return int(
            self._collection.resident_bytes()
            + self._denominators.nbytes
            + self._group_sizes.nbytes
        )

    def storage_info(self) -> dict[str, int | str]:
        """Storage-tier summary (the service ``stats`` op embeds this)."""
        info = self._collection.storage_info()
        info["resident_bytes"] = self.memory_bytes()
        return info

    # -- incremental repair ----------------------------------------------
    def refresh(self, graph: Optional[Graph] = None) -> RepairResult:
        """Bring the sampled state up to date with the bound graph.

        Reads the graph's mutation log since the version this objective
        was sampled at. When the delta is replayable, only the affected
        RR sets are regenerated and spliced in by one ``replace_sets``
        call on the collection
        (:func:`repro.influence.ris.repair_rr_collection`), which keeps
        its own inverted index consistent; when it is not (whole-graph
        rewrite, log overflow), the collection is resampled from scratch
        under the same configuration. Either way the objective ends
        consistent with the current graph, and :attr:`repair_epoch` is
        bumped, dropping every memoized sub-result
        (:meth:`~repro.core.functions.GroupedObjective.subresult`), iff
        the sampled state changed. Repair and resample run
        under the sampling law the objective was built with (its
        ``workers``), so a collection never mixes the two laws' sets.

        Only objectives built by :meth:`from_graph` can refresh —
        :meth:`from_collection` / :meth:`from_graph_imm` objectives have
        no graph binding and raise ``ValueError``.
        """
        bound = self._graph
        if bound is None or self._graph_version is None:
            raise ValueError(
                "refresh() requires an objective built by from_graph "
                "(from_collection/from_graph_imm objectives carry no "
                "graph binding)"
            )
        if graph is not None and graph is not bound:
            raise ValueError(
                "refresh() must receive the graph this objective was "
                "sampled from"
            )
        graph = bound
        from_version = self._graph_version
        to_version = graph.version
        if to_version == from_version:
            return RepairResult(
                np.zeros(0, dtype=np.int64), self._collection.num_sets
            )
        delta = graph.mutations_since(from_version)
        seed = repair_seed_sequence(
            self._sample_entropy, from_version, to_version
        )
        if delta is None:
            # Unreplayable delta: resample the whole collection under
            # the original configuration (fresh stream — the repair law
            # keyed on the version step keeps it deterministic). The
            # storage tier carries over: a segmented objective resamples
            # into fresh segments on the same backend.
            collection = sample_rr_collection(
                graph,
                self._num_samples,
                seed=seed,
                stratified=self._stratified,
                workers=self._workers,
                store=self._store,
                memory_budget=self._memory_budget,
                backend=self._collection.backend,
            )
            self._collection = collection
            self._bind_incidence(
                collection,
                collection.root_groups,
                collection.group_counts.astype(float),
            )
            result = RepairResult(
                np.zeros(0, dtype=np.int64),
                collection.num_sets,
                full_resample=True,
            )
        else:
            result = repair_rr_collection(
                self._collection, graph, delta, seed, workers=self._workers
            )
        self._graph_version = to_version
        if result.sets_repaired:
            self._advance_version()
        return result
