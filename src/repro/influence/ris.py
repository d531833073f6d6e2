"""Reverse-influence sampling (RIS) [Borgs et al. 2014].

A *reverse-reachable (RR) set* for root ``r`` is the random set of nodes
that reach ``r`` through live edges, where each arc ``(u, v)`` is live
independently with probability ``p(u, v)``. The key identity: for any seed
set ``S``, ``P[r activated by S] = P[S intersects RR(r)]``. Averaging the
indicator over many RR sets therefore estimates activation probabilities
— and, with roots drawn per group, the group utilities ``f_i(S)`` needed
by BSM. Coverage of a fixed RR-set collection is monotone submodular in
``S``, so the whole greedy machinery applies to the estimates.

Sampling runs through the batched frontier engine
(:mod:`repro.influence.engine`): all requested RR sets grow level by
level through one shared reverse BFS, and the collection stores them
CSR-packed (``set_indptr``/``set_indices``) so coverage queries and the
node -> RR-set inverted index are single NumPy passes.

The flat :class:`RRCollection` and the out-of-core
:class:`SegmentedRRCollection` answer one interface (DESIGN.md §10), each
keeping and repairing its own inverted index, so
:func:`sample_rr_collection` is the only code that chooses a tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GroupPartitionError, StorageError
from repro.graphs.graph import Graph, GraphDelta
from repro.influence.engine import sample_rr_sets_batch, sample_rr_sets_stream
from repro.kernels import get_kernel
from repro.storage.backend import ArrayBackend, resident_nbytes, resolve_backend
from repro.storage.segments import DEFAULT_SEGMENT_BYTES, SegmentedRRStore
from repro.utils.csr import (
    build_csr,
    concat_packed,
    gather_csr_slices,
    invert_csr,
    merge_sorted_disjoint,
    splice_packed,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

#: Domain-separation tag for repair seed streams (see
#: :func:`repair_seed_sequence`).
REPAIR_STREAM_TAG = 0x5252_5345

#: Instances per sampling chunk on the segmented path. The sparse
#: reachability chunk has no dense visited buffer, so the chunk size is
#: a plain batching knob: it must only be large enough that the pinned
#: small datasets sample in a single chunk (where the draw law provably
#: coincides with the flat serial path) and small enough that one
#: chunk's packed arrays stay well under any realistic memory budget.
SEGMENT_CHUNK_INSTANCES = 8_192


def segment_bytes_for(memory_budget: Optional[int]) -> int:
    """Segment byte target under ``memory_budget`` total resident bytes.

    The backend selection rule (DESIGN.md §10): a sixteenth of the
    budget per segment, clamped to [1 MB, 256 MB]; without a budget,
    :data:`repro.storage.segments.DEFAULT_SEGMENT_BYTES`. A full pass
    holds one segment's pages plus its per-pass temporaries — the gains
    gather and the flush-time inversion both allocate ~6 int64 arrays
    over the segment's entries, i.e. ~3x the segment's bytes — so a
    sixteenth leaves the rest of the budget for those temporaries, the
    collection-wide bookkeeping (roots, labels, coverage flags) and the
    graph pages touched while sampling.
    """
    if memory_budget is None:
        return DEFAULT_SEGMENT_BYTES
    budget = int(memory_budget)
    if budget <= 0:
        raise ValueError(f"memory_budget must be positive, got {budget}")
    return min(max(budget // 16, 1 << 20), 1 << 28)


class _RootedSets:
    """The root bookkeeping both storage tiers keep on the heap.

    Attributes
    ----------
    root_groups:
        Group label of the root of each RR set.
    num_nodes, num_groups:
        Ground-set dimensions (for building objectives).
    group_counts:
        Number of RR sets rooted in each group; the per-group estimate of
        ``f_i(S)`` is (covered sets with group-i root) / ``group_counts[i]``.
    """

    def __init__(
        self, root_groups: np.ndarray, num_nodes: int, num_groups: int
    ) -> None:
        self.num_nodes = num_nodes
        self.num_groups = num_groups
        self.root_groups = np.asarray(root_groups, dtype=np.int64)
        counts = np.bincount(self.root_groups, minlength=self.num_groups)
        if np.any(counts == 0):
            raise GroupPartitionError(
                "every group needs at least one RR set for its f_i estimate"
            )
        self.group_counts = counts

    def coverage(self, seeds: np.ndarray | list[int]) -> np.ndarray:
        """Per-group fraction of RR sets hit by ``seeds`` (= ``f_i`` estimate).

        Integer hit counts per group, so both tiers give bitwise the same
        fractions.
        """
        seed_mask = np.zeros(self.num_nodes, dtype=bool)
        seed_mask[np.asarray(list(seeds), dtype=np.int64)] = True
        hit = self.sets_hitting(seed_mask)
        covered = np.bincount(
            self.root_groups[hit], minlength=self.num_groups
        ).astype(float)
        return covered / self.group_counts


class RRCollection(_RootedSets):
    """A bag of RR sets plus the group of each root, stored CSR-packed.

    ``set_indptr``, ``set_indices`` are the packed storage: RR set
    ``j``'s nodes occupy ``set_indices[set_indptr[j]:set_indptr[j + 1]]``.

    The constructor also accepts the legacy list-of-arrays form via
    ``sets`` (packed on entry); the :attr:`sets` property exposes the
    matching compatibility view as per-set slices of ``set_indices``.

    The collection also holds the node -> RR-set inverted CSR (node
    ``v``'s set ids occupy ``_mem_indices[_mem_indptr[v]:_mem_indptr[v +
    1]]``, ascending) and the kernel set, both fixed when it is built:
    they serve the oracle's :meth:`member_ids` and
    :meth:`fold_group_counts`, and :meth:`replace_sets` patches the index.
    """

    #: The segment backend a resample of this collection reuses (none).
    backend: Optional[ArrayBackend] = None

    def __init__(
        self,
        sets: Optional[Sequence[np.ndarray]] = None,
        root_groups: Optional[np.ndarray] = None,
        num_nodes: int = 0,
        num_groups: int = 0,
        *,
        set_indptr: Optional[np.ndarray] = None,
        set_indices: Optional[np.ndarray] = None,
    ) -> None:
        if sets is not None:
            if set_indptr is not None or set_indices is not None:
                raise ValueError("pass either sets or packed arrays, not both")
            set_indptr, set_indices = build_csr(list(sets))
        if set_indptr is None or set_indices is None:
            raise ValueError("either sets or set_indptr/set_indices required")
        self.set_indptr = np.asarray(set_indptr, dtype=np.int64)
        self.set_indices = np.asarray(set_indices, dtype=np.int64)
        if self.set_indptr.size - 1 != np.size(root_groups):
            raise ValueError("sets and root_groups must have equal length")
        super().__init__(root_groups, num_nodes, num_groups)
        if self.set_indices.size and self.set_indices.max() >= num_nodes:
            raise ValueError(f"RR sets reference nodes outside [0, {num_nodes})")
        self._row_ids: Optional[np.ndarray] = None
        # The stable inversion keeps each node's RR-set ids ascending.
        self._mem_indptr, self._mem_indices, _ = invert_csr(
            self.set_indptr, self.set_indices, num_nodes
        )
        self._kernel_set = get_kernel()

    @classmethod
    def from_packed(
        cls,
        set_indptr: np.ndarray,
        set_indices: np.ndarray,
        root_groups: np.ndarray,
        num_nodes: int,
        num_groups: int,
    ) -> "RRCollection":
        """Wrap already-packed arrays (no copy beyond dtype coercion)."""
        return cls(
            root_groups=root_groups,
            num_nodes=num_nodes,
            num_groups=num_groups,
            set_indptr=set_indptr,
            set_indices=set_indices,
        )

    @property
    def num_sets(self) -> int:
        return self.set_indptr.size - 1

    @property
    def roots(self) -> np.ndarray:
        """Root node of every RR set.

        The sampling engine stores each set root-first, so the roots are
        the first entry of every packed slice (every set has at least its
        root). Needed by the repair path, which resamples an affected set
        from the *same* root so the per-group estimates keep their
        stratification.
        """
        return self.set_indices[self.set_indptr[:-1]]

    @property
    def sets(self) -> list[np.ndarray]:
        """Compatibility view: RR set ``j`` as a slice of ``set_indices``."""
        return [
            self.set_indices[self.set_indptr[j]:self.set_indptr[j + 1]]
            for j in range(self.num_sets)
        ]

    def entry_rows(self) -> np.ndarray:
        """RR-set id of every packed entry (cached ``np.repeat`` expansion)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.num_sets, dtype=np.int64),
                np.diff(self.set_indptr),
            )
        return self._row_ids

    def member_ids(self, item: int) -> np.ndarray:
        """Ids of the RR sets containing node ``item``, ascending (a view)."""
        return self._mem_indices[
            self._mem_indptr[item]:self._mem_indptr[item + 1]
        ]

    def fold_group_counts(
        self, items: np.ndarray, covered: np.ndarray
    ) -> np.ndarray:
        """Per-``(node, root group)`` counts of sets not flagged ``covered``."""
        return self._kernel_set.group_counts(
            self._mem_indptr, self._mem_indices, items, covered,
            self.root_groups, self.num_groups,
        )

    def sets_hitting(self, node_mask: np.ndarray) -> np.ndarray:
        """Ids of the RR sets containing a masked node, ascending."""
        return np.unique(self.entry_rows()[node_mask[self.set_indices]])

    def roots_of(self, ids: np.ndarray) -> np.ndarray:
        """Roots of the RR sets ``ids``."""
        return self.set_indices[self.set_indptr[ids]]

    def replace_sets(
        self, ids: np.ndarray, sub_indptr: np.ndarray, sub_indices: np.ndarray
    ) -> None:
        """Splice row ``i`` of the packed sub-CSR in as set ``ids[i]``.

        ``ids`` must be sorted ascending. The packed arrays are rebuilt by
        :func:`repro.utils.csr.splice_packed`, and the inverted index is
        patched rather than rebuilt. Its entries are flat ``node *
        num_sets + set_id`` keys in globally increasing order. Surviving
        keys (set id not in ``ids``) and replacement keys (read from the
        spliced arrays) are disjoint, so one
        :func:`repro.utils.csr.merge_sorted_disjoint` pass rebuilds the
        index without the stable sort a full :func:`invert_csr` pays.
        """
        self.set_indptr, self.set_indices = splice_packed(
            self.set_indptr, self.set_indices, ids, sub_indptr, sub_indices
        )
        self._row_ids = None
        num_sets, n = self.num_sets, self.num_nodes
        replaced = np.zeros(num_sets, dtype=bool)
        replaced[ids] = True
        entry_nodes = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self._mem_indptr)
        )
        keep = ~replaced[self._mem_indices]
        kept_keys = entry_nodes[keep] * num_sets + self._mem_indices[keep]
        positions, owners = gather_csr_slices(self.set_indptr, ids)
        new_keys = self.set_indices[positions] * num_sets + ids[owners]
        new_keys.sort()
        merged = merge_sorted_disjoint(kept_keys, new_keys)
        self._mem_indices = merged % num_sets
        self._mem_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(merged // num_sets, minlength=n),
            out=self._mem_indptr[1:],
        )

    def resident_bytes(self) -> int:
        """Heap bytes of the packed sets, root labels and inverted index."""
        return int(
            resident_nbytes(self.set_indptr)
            + resident_nbytes(self.set_indices)
            + self.root_groups.nbytes
            + self._mem_indptr.nbytes
            + self._mem_indices.nbytes
        )

    def storage_info(self) -> dict[str, int | str]:
        """Storage-tier summary (the service ``stats`` op embeds this)."""
        return {
            "store_kind": "ram",
            "segments": 0,
            "num_sets": self.num_sets,
            "resident_bytes": self.resident_bytes(),
            "on_disk_bytes": 0,
        }


class SegmentedRRCollection(_RootedSets):
    """RR sets held in a :class:`SegmentedRRStore` instead of flat arrays.

    The out-of-core twin of :class:`RRCollection`, answering the same
    interface: same group bookkeeping (``root_groups``/``group_counts``
    stay heap-resident — they are O(num sets), needed by every gains
    fold), but the packed sets and the inverted index live in
    byte-budgeted backend segments, and every query delegates to the
    store. Queries walk segment by segment and release pages as they go;
    folded integer counts equal the flat ones, so gains are bitwise the
    flat tier's.
    """

    def __init__(
        self,
        store: SegmentedRRStore,
        root_groups: np.ndarray,
        num_nodes: int,
        num_groups: int,
    ) -> None:
        self.store = store
        if store.num_sets != np.size(root_groups):
            raise StorageError(
                f"store holds {store.num_sets} sets but root_groups has "
                f"{np.size(root_groups)} entries"
            )
        super().__init__(root_groups, num_nodes, num_groups)

    @property
    def num_sets(self) -> int:
        return self.store.num_sets

    @property
    def roots(self) -> np.ndarray:
        """Root node of every RR set (one heap-resident pass)."""
        return self.store.roots()

    @property
    def backend(self) -> ArrayBackend:
        """The segment backend a resample of this collection reuses."""
        return self.store.backend

    def member_ids(self, item: int) -> np.ndarray:
        """Ids of the RR sets containing node ``item``, ascending."""
        return self.store.member_ids(item)

    def fold_group_counts(
        self, items: np.ndarray, covered: np.ndarray
    ) -> np.ndarray:
        """Per-``(node, root group)`` counts of sets not flagged ``covered``."""
        return self.store.fold_group_counts(
            items, covered, self.root_groups, self.num_groups
        )

    def sets_hitting(self, node_mask: np.ndarray) -> np.ndarray:
        """Ids of the RR sets containing a masked node, ascending."""
        return np.flatnonzero(self.store.hit_rows(node_mask))

    def roots_of(self, ids: np.ndarray) -> np.ndarray:
        """Roots of the RR sets ``ids`` (sorted ascending)."""
        return self.store.roots_of(ids)

    def replace_sets(
        self, ids: np.ndarray, sub_indptr: np.ndarray, sub_indices: np.ndarray
    ) -> None:
        """Splice replacements in; only the owning segments are rewritten
        and re-inverted."""
        self.store.replace_sets(ids, sub_indptr, sub_indices)

    def resident_bytes(self) -> int:
        """Heap bytes: pinned segment pages plus the root bookkeeping."""
        return int(
            self.store.resident_bytes()
            + self.root_groups.nbytes
            + self.group_counts.nbytes
        )

    def storage_info(self) -> dict[str, int | str]:
        """Storage-tier summary (the service ``stats`` op embeds this)."""
        info = dict(self.store.storage_info())
        info["resident_bytes"] = self.resident_bytes()
        return info


#: An RR collection on either storage tier.
AnyRRCollection = RRCollection | SegmentedRRCollection


def sample_rr_set(
    transpose_adjacency: tuple[np.ndarray, np.ndarray, np.ndarray],
    root: int,
    rng: np.random.Generator,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample one RR set by a randomized reverse BFS from ``root``.

    ``transpose_adjacency`` is the CSR triple of the *transpose* graph, so
    walking its out-arcs follows original arcs backwards. ``scratch`` is an
    optional reusable visited buffer (cleared on entry) to avoid an O(n)
    allocation per sample. Collections are sampled through
    :func:`repro.influence.engine.sample_rr_sets_stream` (the one
    batched sampler; :func:`sample_rr_collection`, IMM and repair all
    call it) — this scalar path remains as the per-sample reference
    (benchmarked against the engine in ``benchmarks/bench_rr_engine.py``).
    """
    indptr, indices, probs = transpose_adjacency
    n = indptr.size - 1
    if not 0 <= root < n:
        raise IndexError(f"root {root} out of range [0, {n})")
    if scratch is None:
        visited = np.zeros(n, dtype=bool)
    else:
        visited = scratch
        visited[:] = False
    visited[root] = True
    out = [root]
    frontier = [root]
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            lo, hi = indptr[u], indptr[u + 1]
            if lo == hi:
                continue
            hits = rng.random(hi - lo) < probs[lo:hi]
            for v in indices[lo:hi][hits]:
                if not visited[v]:
                    visited[v] = True
                    out.append(int(v))
                    next_frontier.append(int(v))
        frontier = next_frontier
    return np.asarray(out, dtype=np.int64)


def missing_group_roots(
    graph: Graph, root_groups: np.ndarray, rng: np.random.Generator
) -> Iterator[int]:
    """One uniform root from every group absent from ``root_groups``.

    Collections need every group present, so each unstratified root law
    (:func:`_draw_roots`, IMM's final pool, the scalar walks of
    :func:`rr_collection_from_walks`) tops up with these, in group
    order. Roots are drawn lazily, one per ``next()``, so a caller may
    interleave other draws between them.
    """
    present = np.bincount(root_groups, minlength=graph.num_groups)
    for i in np.flatnonzero(present == 0):
        members = graph.group_members(i)
        yield int(members[rng.integers(0, members.size)])


def _stratified_roots(
    graph: Graph, num_samples: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Per-group root draws in group order, one group per ``next()``.

    The budget is split evenly over groups (the first ``num_samples %
    c`` groups get one more) after clamping it up to
    ``max(num_samples, c)``, so every group gets at least one root.
    """
    c = graph.num_groups
    base, rem = divmod(max(num_samples, c), c)
    for i in range(c):
        members = graph.group_members(i)
        quota = base + (1 if i < rem else 0)
        yield members[rng.integers(0, members.size, size=quota)]


def _draw_roots(
    graph: Graph,
    num_samples: int,
    rng: np.random.Generator,
    stratified: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw RR roots and their group labels (the shared root law).

    All roots are drawn before any set is sampled, so the flat and the
    segmented stores consume *exactly* the same root draws — the first
    precondition of their bitwise-identity contract.
    """
    labels = graph.groups
    if stratified:
        roots = np.concatenate(list(_stratified_roots(graph, num_samples, rng)))
    else:
        roots = rng.integers(0, graph.num_nodes, size=num_samples)
        extra = np.fromiter(
            missing_group_roots(graph, labels[roots], rng), dtype=np.int64
        )
        roots = np.concatenate([roots, extra])
    return roots, labels[roots]


def sample_rr_collection(
    graph: Graph,
    num_samples: int,
    *,
    seed: SeedLike = None,
    stratified: bool = True,
    workers: Optional[int] = None,
    store: str = "ram",
    memory_budget: Optional[int] = None,
    backend: Optional[ArrayBackend] = None,
) -> AnyRRCollection:
    """Sample an :class:`RRCollection` from a grouped graph.

    Parameters
    ----------
    num_samples:
        Total number of RR sets. When ``stratified`` and the graph has
        more groups than ``num_samples``, the total is clamped up to
        ``max(num_samples, num_groups)`` — one RR set per group is the
        minimum for every ``f_i`` estimate to exist. (The unstratified
        path can likewise exceed ``num_samples`` by up to the number of
        groups that uniform root draws missed.)
    stratified:
        ``True`` (default) splits the budget evenly across groups so every
        ``f_i`` estimate has comparable variance — important because the
        fairness objective is driven by the *smallest* (often rarest)
        group. ``False`` draws roots uniformly from all users, matching
        plain IMM.
    workers:
        Worker-pool width for the sampling engine
        (:mod:`repro.utils.parallel`). ``None`` keeps the serial in-line
        stream; any integer switches to the worker-count-invariant unit
        decomposition (bitwise-identical collections for all counts,
        for every pool backend and every kernel set; both are process
        pins, see :func:`repro.utils.parallel.set_default_backend` and
        :func:`repro.kernels.set_default_kernel`). On the segmented
        store, units stream through a bounded in-flight window and
        append in unit order, so the stored sets are bitwise those of
        the flat ``workers`` path.
    store:
        ``"ram"`` (default) builds the flat in-memory
        :class:`RRCollection`; ``"mmap"`` streams completed sampling
        chunks into byte-budgeted memory-mapped segments and returns a
        :class:`SegmentedRRCollection`.
    memory_budget:
        Target resident bytes for the segmented path; sets the segment
        byte budget via :func:`segment_bytes_for`. Ignored by the flat
        store.
    backend:
        Explicit :class:`repro.storage.backend.ArrayBackend` for the
        segments (tests inject scratch directories); defaults to a fresh
        backend of the ``store`` kind.
    """
    check_positive_int(num_samples, "num_samples")
    if store not in ("ram", "mmap"):
        raise StorageError(
            f"unknown store kind {store!r}, expected 'ram' or 'mmap'"
        )
    rng = as_generator(seed)
    c = graph.num_groups
    roots, root_groups = _draw_roots(graph, num_samples, rng, stratified)
    flat = store == "ram" and backend is None
    chunks = sample_rr_sets_stream(
        graph.transpose_adjacency(),
        roots,
        rng,
        chunk_instances=None if flat else SEGMENT_CHUNK_INSTANCES,
        workers=workers,
    )
    if flat:
        set_indptr, set_indices = concat_packed(list(chunks))
        return RRCollection.from_packed(
            set_indptr, set_indices, root_groups, graph.num_nodes, c
        )
    seg_store = SegmentedRRStore(
        graph.num_nodes,
        backend if backend is not None else resolve_backend(store),
        segment_bytes=segment_bytes_for(memory_budget),
    )
    for chunk_indptr, chunk_indices in chunks:
        seg_store.append_chunk(chunk_indptr, chunk_indices)
    seg_store.finalize()
    return SegmentedRRCollection(
        seg_store, root_groups, graph.num_nodes, c
    )


def rr_collection_from_walks(
    graph: Graph,
    num_samples: int,
    sample_rr_set: Callable[[int, np.random.Generator], np.ndarray],
    *,
    seed: SeedLike = None,
    stratified: bool = True,
) -> RRCollection:
    """An :class:`RRCollection` of RR sets drawn one scalar walk at a time.

    The collection loop of the diffusion models without a batched
    sampler (:class:`~repro.influence.lt_model.LTModel`,
    :class:`~repro.influence.triggering.TriggeringModel`):
    ``sample_rr_set(root, rng)`` draws one RR set. Roots follow
    :func:`sample_rr_collection`'s law — per-group quotas, or uniform
    roots topped up by :func:`missing_group_roots` — but each group's
    (or each extra) root draw is followed by its walks on the same
    ``rng`` before the next draw.
    """
    check_positive_int(num_samples, "num_samples")
    rng = as_generator(seed)
    sets: list[np.ndarray] = []
    if stratified:
        root_parts = []
        for roots in _stratified_roots(graph, num_samples, rng):
            sets.extend(sample_rr_set(int(r), rng) for r in roots)
            root_parts.append(roots)
        roots = np.concatenate(root_parts)
    else:
        roots = rng.integers(0, graph.num_nodes, size=num_samples)
        sets.extend(sample_rr_set(int(r), rng) for r in roots)
        extra = []
        for r in missing_group_roots(graph, graph.groups[roots], rng):
            sets.append(sample_rr_set(r, rng))
            extra.append(r)
        roots = np.concatenate([roots, np.asarray(extra, dtype=np.int64)])
    return RRCollection(
        sets=sets,
        root_groups=graph.groups[roots],
        num_nodes=graph.num_nodes,
        num_groups=graph.num_groups,
    )


# ----------------------------------------------------------------------
# Incremental repair (delta-updates on graph mutation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RepairResult:
    """Outcome of one repair pass over a collection.

    ``affected`` lists the RR-set ids that were resampled (empty when the
    delta touched no sampled membership, or on a full resample, where the
    notion of "the same set" no longer applies).
    """

    affected: np.ndarray
    sets_total: int
    full_resample: bool = False

    @property
    def sets_repaired(self) -> int:
        if self.full_resample:
            return self.sets_total
        return int(self.affected.size)

    @property
    def repair_ratio(self) -> float:
        if self.sets_total == 0:
            return 0.0
        return self.sets_repaired / self.sets_total


def repair_seed_sequence(
    entropy: int, from_version: int, to_version: int
) -> np.random.SeedSequence:
    """The seed-stream law for regenerated RR sets (DESIGN.md §9).

    Repair streams are keyed on the objective's original sampling entropy
    plus the ``(from, to)`` graph-version pair, under a fixed
    domain-separation tag. Two consequences: (1) repairing the same
    mutation twice is deterministic, so repaired objectives stay
    reproducible and cacheable; (2) the stream never collides with the
    original sampling stream or with the repair stream of any other
    version step, so regenerated sets are statistically independent of
    everything they splice into.
    """
    return np.random.SeedSequence(
        [REPAIR_STREAM_TAG, int(entropy), int(from_version), int(to_version)]
    )


def affected_rr_sets(
    collection: AnyRRCollection, delta: GraphDelta
) -> np.ndarray:
    """RR-set ids whose sampled law changed under ``delta`` (sorted).

    The affected-set rule: the reverse BFS examines arc ``(u, v)`` iff it
    pops ``v`` — transpose out-arcs of ``v`` are original in-arcs of
    ``v`` — so a set's sampled trajectory can involve a changed arc only
    if the set contains that arc's *target*. This covers probability
    increases too: a set could newly traverse ``(u, v)`` only at a pop of
    ``v``, which requires ``v`` to already be a member (the "one-level
    frontier probe" of a head node is therefore subsumed by the
    membership gather). One boolean gather over the packed entries — no
    per-set work.
    """
    if delta.num_arcs == 0:
        return np.zeros(0, dtype=np.int64)
    mask = np.zeros(collection.num_nodes, dtype=bool)
    mask[delta.targets] = True
    return collection.sets_hitting(mask)


def repair_rr_collection(
    collection: AnyRRCollection,
    graph: Graph,
    delta: GraphDelta,
    seed: SeedLike = None,
    *,
    workers: Optional[int] = None,
) -> RepairResult:
    """Splice freshly resampled replacements for the affected RR sets.

    Identifies the sets whose membership touches a changed arc's target
    (:func:`affected_rr_sets`), regenerates *only those* from their
    original roots on the mutated graph via the batched engine, and
    splices the replacements in with the collection's own
    ``replace_sets``, which also patches its inverted index (flat) or
    rewrites the owning segments (segmented). Roots, root groups and group
    counts are unchanged, so every ``f_i`` estimator keeps its
    stratification. A delta touching no sampled membership leaves the
    collection bitwise identical and performs zero sampling.

    The caller owns the seed-stream law — objectives derive ``seed`` via
    :func:`repair_seed_sequence` so repairs are reproducible.
    """
    affected = affected_rr_sets(collection, delta)
    total = collection.num_sets
    if affected.size == 0:
        return RepairResult(affected, total)
    # Affected ids ascending, one batched resample from the original
    # roots: the segmented store's replacements are bitwise the flat
    # splice's, and only the owning segments are rewritten.
    sub_indptr, sub_indices = sample_rr_sets_batch(
        graph.transpose_adjacency(),
        collection.roots_of(affected),
        as_generator(seed),
        workers=workers,
    )
    collection.replace_sets(affected, sub_indptr, sub_indices)
    return RepairResult(affected, total)
