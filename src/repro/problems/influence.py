"""Influence maximization as a grouped submodular objective.

The per-user utility is ``f_u(S) = P[u activated by seed set S]`` under
the independent-cascade model (Section 5.2). Exact evaluation is #P-hard,
so the objective operates on a fixed :class:`RRCollection`: the estimate
of ``f_i(S)`` is the fraction of group-``i``-rooted RR sets that ``S``
intersects. Coverage of a fixed collection is monotone and submodular, so
all solvers run unchanged on the estimates; final solutions are then
re-scored with Monte-Carlo simulation, exactly as the paper does.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.functions import GroupedObjective
from repro.graphs.graph import Graph
from repro.kernels import get_kernel
from repro.influence.imm import imm_rr_collection
from repro.influence.ris import (
    RepairResult,
    RRCollection,
    SegmentedRRCollection,
    repair_rr_collection,
    repair_seed_sequence,
    sample_rr_collection,
)
from repro.storage.backend import ArrayBackend, resident_nbytes
from repro.utils.csr import (
    gather_csr_slices,
    invert_csr,
    merge_sorted_disjoint,
)
from repro.utils.rng import SeedLike


class _InfluencePayload:
    """Bookkeeping: which RR sets the current seed set already hits."""

    __slots__ = ("covered",)

    def __init__(self, num_sets: int) -> None:
        self.covered = np.zeros(num_sets, dtype=bool)

    def copy(self) -> "_InfluencePayload":
        fresh = _InfluencePayload(self.covered.size)
        fresh.covered = self.covered.copy()
        return fresh


class InfluenceObjective(GroupedObjective):
    """Grouped influence oracle over a fixed RR-set collection.

    Build via :meth:`from_graph` (fixed sample count) or
    :meth:`from_graph_imm` (IMM-sized sample count).
    """

    def __init__(
        self,
        collection: RRCollection | SegmentedRRCollection,
        population_sizes: Sequence[int],
    ) -> None:
        """Wrap an RR collection (flat or segmented).

        ``population_sizes`` are the true group sizes ``m_i``: the weights
        in ``f = sum_i (m_i/m) f_i`` must reflect the user population, while
        each *estimate* ``f_i`` divides by the collection's per-group RR-set
        counts (which differ under stratified sampling).

        A :class:`SegmentedRRCollection` keeps its inverted index inside
        its per-segment store; the flat inverted CSR is only built for
        flat collections. Every oracle hook folds segment results into
        the same integers the flat arrays would produce, so solvers see
        bitwise-identical gains either way.
        """
        if len(population_sizes) != collection.num_groups:
            raise ValueError(
                "population_sizes length must equal the collection's group count"
            )
        super().__init__(collection.num_nodes, population_sizes)
        self._collection = collection
        self._segmented = isinstance(collection, SegmentedRRCollection)
        if self._segmented:
            self._mem_indptr = None
            self._mem_indices = None
        else:
            # Inverted CSR index (node v's RR-set ids occupy the slice
            # [_mem_indptr[v], _mem_indptr[v+1]) of _mem_indices), built
            # directly from the collection's packed arrays: the stable
            # inversion keeps each node's RR-set ids in increasing order,
            # exactly as the per-set append loop did.
            self._mem_indptr, self._mem_indices, _ = invert_csr(
                collection.set_indptr, collection.set_indices,
                collection.num_nodes,
            )
        self._root_groups = collection.root_groups
        self._group_counts = collection.group_counts.astype(float)
        #: Bumped whenever :meth:`refresh` changes the sampled state —
        #: consumers holding derived state (e.g. the dynamic maximizer)
        #: compare it to decide whether to rebuild.
        self.repair_epoch = 0
        # Graph binding, set by from_graph: refresh() needs the source
        # graph, its version at sampling time and the sampling config to
        # repair or (on unreplayable deltas) resample.
        self._graph: Optional[Graph] = None
        self._graph_version: Optional[int] = None
        self._sample_entropy = 0
        self._num_samples = 0
        self._stratified = True
        self._workers: Optional[int] = None
        # The resolved set, fixed when the objective is built: the gains
        # oracles run thousands of times a solve.
        self._kernel_set = get_kernel()
        self._store = "mmap" if self._segmented else "ram"
        self._memory_budget: Optional[int] = None
        self._backend: Optional[ArrayBackend] = (
            collection.store.backend if self._segmented else None
        )

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
        collection: RRCollection,
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
    def collection(self) -> RRCollection:
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

        Counts the packed collection plus the inverted index — the
        arrays that dominate a warm influence objective. Used by the
        byte-budgeted caches (:mod:`repro.utils.caching`) to account
        entries. For a segmented collection only heap-resident bytes
        count: the segment arrays are file-backed and reclaimable, which
        is what lets one warm session serve collections far larger than
        its cache budget.
        """
        collection = self._collection
        if self._segmented:
            return int(
                collection.store.resident_bytes()
                + collection.root_groups.nbytes
                + collection.group_counts.nbytes
                + self._group_counts.nbytes
                + self._group_sizes.nbytes
            )
        return int(
            resident_nbytes(collection.set_indptr)
            + resident_nbytes(collection.set_indices)
            + collection.root_groups.nbytes
            + self._mem_indptr.nbytes
            + self._mem_indices.nbytes
            + self._group_counts.nbytes
            + self._group_sizes.nbytes
        )

    def storage_info(self) -> dict[str, int | str]:
        """Storage-tier summary (the service ``stats`` op embeds this)."""
        if self._segmented:
            info = dict(self._collection.store.storage_info())
            info["resident_bytes"] = self.memory_bytes()
            return info
        return {
            "store_kind": "ram",
            "segments": 0,
            "num_sets": self._collection.num_sets,
            "resident_bytes": self.memory_bytes(),
            "on_disk_bytes": 0,
        }

    # -- incremental repair ----------------------------------------------
    def refresh(self, graph: Optional[Graph] = None) -> RepairResult:
        """Bring the sampled state up to date with the bound graph.

        Reads the graph's mutation log since the version this objective
        was sampled at. When the delta is replayable, only the affected
        RR sets are regenerated and spliced in
        (:func:`repro.influence.ris.repair_rr_collection`) and the CSR
        inverted index is patched in place; when it is not (whole-graph
        rewrite, log overflow), the collection is resampled from scratch
        under the same configuration. Either way the objective ends
        consistent with the current graph and :attr:`repair_epoch` is
        bumped iff the sampled state changed. Repair and resample run
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
                backend=self._backend,
            )
            self._collection = collection
            self._segmented = isinstance(collection, SegmentedRRCollection)
            if self._segmented:
                self._mem_indptr = None
                self._mem_indices = None
            else:
                self._mem_indptr, self._mem_indices, _ = invert_csr(
                    collection.set_indptr,
                    collection.set_indices,
                    collection.num_nodes,
                )
            self._root_groups = collection.root_groups
            self._group_counts = collection.group_counts.astype(float)
            result = RepairResult(
                np.zeros(0, dtype=np.int64),
                collection.num_sets,
                full_resample=True,
            )
        else:
            result = repair_rr_collection(
                self._collection, graph, delta, seed, workers=self._workers
            )
            # The segmented store re-inverts the rewritten segments
            # inside replace_sets; only the flat index needs patching.
            if result.affected.size and not self._segmented:
                self._repair_inverted_index(result.affected)
        self._graph_version = to_version
        if result.sets_repaired:
            self.repair_epoch += 1
        return result

    def _repair_inverted_index(self, affected: np.ndarray) -> None:
        """Patch the node -> RR-set-ids CSR after a splice.

        Entries are identified by flat ``node * num_sets + set_id`` keys,
        which the index stores in globally increasing order (nodes
        ascending, set ids ascending within a node). Surviving keys
        (set id not affected) and replacement keys (set id affected, read
        from the spliced collection) are disjoint by construction, so one
        :func:`repro.utils.csr.merge_sorted_disjoint` pass rebuilds the
        packed entries without the stable argsort a full
        :func:`invert_csr` would pay.
        """
        collection = self._collection
        num_sets = collection.num_sets
        n = collection.num_nodes
        affected_mask = np.zeros(num_sets, dtype=bool)
        affected_mask[affected] = True
        entry_nodes = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self._mem_indptr)
        )
        keep = ~affected_mask[self._mem_indices]
        kept_keys = entry_nodes[keep] * num_sets + self._mem_indices[keep]
        positions, owners = gather_csr_slices(collection.set_indptr, affected)
        new_keys = (
            collection.set_indices[positions] * num_sets + affected[owners]
        )
        new_keys.sort()
        merged = merge_sorted_disjoint(kept_keys, new_keys)
        self._mem_indices = merged % num_sets
        self._mem_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(merged // num_sets, minlength=n),
            out=self._mem_indptr[1:],
        )

    # -- GroupedObjective hooks ------------------------------------------
    def _new_payload(self) -> _InfluencePayload:
        return _InfluencePayload(self._collection.num_sets)

    def _copy_payload(self, payload: _InfluencePayload) -> _InfluencePayload:
        return payload.copy()

    def _member_ids(self, item: int) -> np.ndarray:
        """RR-set ids containing ``item``, sorted ascending.

        Flat: a view into the inverted CSR. Segmented: the concatenation
        of the per-segment inverted slices — the same ids in the same
        order (segment starts increase and per-segment slices are
        sorted).
        """
        if self._segmented:
            return self._collection.store.member_ids(item)
        return self._mem_indices[
            self._mem_indptr[item]:self._mem_indptr[item + 1]
        ]

    def _gains(self, payload: _InfluencePayload, item: int) -> np.ndarray:
        ids = self._member_ids(item)
        counts = self._kernel_set.gains_rescore(
            ids, payload.covered, self._root_groups, self.num_groups
        )
        return counts / self._group_counts

    def _gains_batch(
        self, payload: _InfluencePayload, items: np.ndarray
    ) -> np.ndarray:
        if self._segmented:
            # Fold integer fresh-coverage counts segment by segment
            # (pages released after each segment): int64 sums are exact,
            # so the resulting gain matrix — and every downstream greedy
            # selection — is bitwise the flat path's.
            counts = self._collection.store.fold_group_counts(
                items,
                payload.covered,
                self._root_groups,
                self.num_groups,
            )
            return counts / self._group_counts
        counts = self._kernel_set.group_counts(
            self._mem_indptr,
            self._mem_indices,
            items,
            payload.covered,
            self._root_groups,
            self.num_groups,
        )
        return counts / self._group_counts

    def _gains_states(
        self, payloads: Sequence[_InfluencePayload], item: int
    ) -> np.ndarray:
        # One node vs many seed-set states: gather the node's RR-set ids
        # once, stack the per-state hit flags on those ids only, and
        # count the fresh roots per (state, group) cell with one flat
        # bincount — the multi-state twin of the CSR pool batch.
        ids = self._member_ids(item)
        num_states = len(payloads)
        if ids.size == 0 or num_states == 0:
            return np.zeros((num_states, self.num_groups), dtype=float)
        fresh = np.empty((num_states, ids.size), dtype=bool)
        for r, payload in enumerate(payloads):
            np.take(payload.covered, ids, out=fresh[r])
        np.logical_not(fresh, out=fresh)
        root_labels = self._root_groups[ids]
        bins = (
            np.arange(num_states)[:, None] * self.num_groups
            + root_labels[None, :]
        )
        counts = np.bincount(
            bins[fresh], minlength=num_states * self.num_groups
        ).reshape(num_states, self.num_groups)
        return counts / self._group_counts

    def _apply(self, payload: _InfluencePayload, item: int) -> np.ndarray:
        gains = self._gains(payload, item)
        payload.covered[self._member_ids(item)] = True
        return gains
