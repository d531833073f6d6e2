"""A compact directed/undirected graph with per-node group labels.

Nodes are the integers ``0..n-1``. Edges may carry a propagation
probability (used by the independent-cascade model); unweighted graphs get
probability 1.0 on every edge. Undirected graphs are stored as two directed
arcs so that the influence and coverage code paths are identical for both.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GroupPartitionError, StorageError
from repro.utils.csr import invert_csr, stable_order
from repro.utils.validation import check_positive_int

EdgeLike = Tuple[int, int]
WeightedEdgeLike = Tuple[int, int, float]

#: Arc records the mutation log keeps; past it the oldest half is
#: dropped. Dynamic workloads mutate a handful of arcs per event, so the
#: log stays small; a whole-graph rewrite (``set_edge_probabilities``)
#: or a bulk build (``add_edges``) would blow through any cap and is
#: floored instead (see :meth:`Graph.mutations_since`).
MUTATION_LOG_LIMIT = 65_536

#: Arcs :meth:`Graph.edges` converts to Python objects at a time.
_EDGES_PER_CHUNK = 1 << 16

#: Version of a mutation-log record; versions never decrease along the log.
_record_version = itemgetter(0)


@dataclass(frozen=True)
class GraphDelta:
    """Arc-level changes between two graph versions.

    Parallel arrays, one entry per changed *stored arc* (an undirected
    edge mutation contributes both directions): arc ``sources[i] ->
    targets[i]`` moved from probability ``old_probabilities[i]`` to
    ``new_probabilities[i]``. A freshly added arc records ``old = 0.0``
    — absent and never-live are the same event under the IC model.
    """

    sources: np.ndarray
    targets: np.ndarray
    old_probabilities: np.ndarray
    new_probabilities: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.sources.size)


class Graph:
    """Array-backed graph over nodes ``0..n-1``.

    Arcs live in three growable arrays ``(source, target, probability)``,
    appended in insertion order: an undirected edge stores ``u -> v``
    then ``v -> u``, a self-loop once. The first query after an append
    sorts the arrays by source with a stable counting sort, so each
    node's out-arcs keep their insertion order, and the sorted target and
    probability arrays then *are* the forward CSR (:meth:`out_adjacency`)
    every query reads. :class:`CSRGraph` is the read-only form of the
    same class over pre-built (typically memory-mapped) CSR arrays.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are implicit integers.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, p)`` tuples. For undirected
        graphs each input edge creates both arcs.
    directed:
        Whether edges are one-way arcs.
    groups:
        Optional per-node group labels in ``[0, c)``; required by the
        fairness objectives. May be attached later via :meth:`set_groups`.
    """

    #: Whether the mutators raise :class:`repro.errors.StorageError`.
    read_only = False

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[EdgeLike | WeightedEdgeLike] = (),
        *,
        directed: bool = False,
        groups: Optional[Sequence[int]] = None,
    ) -> None:
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        self.directed = bool(directed)
        # Arc arrays; entries past ``_num_arcs`` are spare capacity.
        self._src = np.empty(0, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._prob = np.empty(0, dtype=np.float64)
        self._num_arcs = 0
        # Row pointer of the arc arrays while they are sorted by source
        # (they then hold exactly ``_num_arcs`` entries); None after an
        # append until the next query sorts them.
        self._indptr: Optional[np.ndarray] = None
        self._num_input_edges = 0
        self._groups: Optional[np.ndarray] = None
        self._num_groups = 0
        self._csr_cache: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._transpose_cache: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._version = 0
        # Arc-level mutation records ``(version, u, v, old_p, new_p)``.
        # ``_log_floor`` is the oldest version the log can still replay
        # from; whole-graph rewrites raise it past the current version so
        # consumers fall back to a full rebuild (see mutations_since).
        self._mutation_log: list[tuple[int, int, int, float, float]] = []
        self._log_floor = 0
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                self.add_edge(int(u), int(v))
            else:
                u, v, p = edge  # type: ignore[misc]
                self.add_edge(int(u), int(v), probability=float(p))
        if groups is not None:
            self.set_groups(groups)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, *, probability: float = 1.0) -> None:
        """Add edge ``u -> v`` (and ``v -> u`` when undirected)."""
        self._check_writable()
        self._check_node(u)
        self._check_node(v)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {probability}")
        if self.directed or u == v:
            self._append_arcs((u,), (v,), (probability,))
        else:
            self._append_arcs((u, v), (v, u), (probability, probability))
        self._num_input_edges += 1
        self._version += 1
        # A new arc is a probability move from 0 (never live) to p.
        self._record_mutation(u, v, 0.0, probability)
        if not self.directed and u != v:
            self._record_mutation(v, u, 0.0, probability)

    def add_edges(
        self,
        sources: Sequence[int] | np.ndarray,
        targets: Sequence[int] | np.ndarray,
        probabilities: float | Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Add edges ``sources[i] -> targets[i]`` in bulk.

        Leaves the same adjacency, ``version`` and ``num_edges`` as one
        :meth:`add_edge` call per entry, in order. ``probabilities`` is a
        scalar or one value per edge (default 1.0). Every node and
        probability is checked before anything changes. The arcs are not
        logged one by one: like :meth:`set_edge_probabilities`, the call
        floors the mutation log at the new version.
        """
        self._check_writable()
        u = np.asarray(sources, dtype=np.int64)
        v = np.asarray(targets, dtype=np.int64)
        p = np.asarray(1.0 if probabilities is None else probabilities,
                       dtype=np.float64)
        if p.ndim == 0:
            p = np.full(u.shape, float(p))
        if u.ndim != 1 or u.shape != v.shape or u.shape != p.shape:
            raise ValueError(
                "sources, targets and probabilities must be 1-D with equal "
                f"lengths, got shapes {u.shape}, {v.shape}, {p.shape}"
            )
        n = self.num_nodes
        bad = np.flatnonzero(
            (u < 0) | (u >= n) | (v < 0) | (v >= n) | ~((p >= 0.0) & (p <= 1.0))
        )
        if bad.size:
            # Raise what add_edge would have raised on the first bad edge.
            i = int(bad[0])
            self._check_node(int(u[i]))
            self._check_node(int(v[i]))
            raise ValueError(
                f"edge probability must be in [0, 1], got {float(p[i])}"
            )
        if not u.size:
            return
        if self.directed:
            self._append_arcs(u, v, p)
        else:
            # Each edge's arcs in add_edge's order: u -> v, then v -> u
            # (a self-loop once).
            keep = np.ones(2 * u.size, dtype=bool)
            keep[1::2] = u != v
            self._append_arcs(
                np.column_stack((u, v)).ravel()[keep],
                np.column_stack((v, u)).ravel()[keep],
                np.repeat(p, 2)[keep],
            )
        self._num_input_edges += int(u.size)
        self._version += int(u.size)
        self._mutation_log.clear()
        self._log_floor = self._version

    def _append_arcs(self, src, dst, prob) -> None:
        """Append arcs to the arc arrays, growing them by doubling, and
        drop everything sorted out of them."""
        lo = self._num_arcs
        hi = lo + len(src)
        # Sorted arrays are exactly full, so an append never writes into
        # arrays the forward CSR handed out: it reallocates them first.
        if hi > self._src.size:
            capacity = max(hi, 2 * self._src.size)
            self._src, self._dst, self._prob = (
                np.concatenate((a[:lo], np.empty(capacity - lo, a.dtype)))
                for a in (self._src, self._dst, self._prob)
            )
        self._src[lo:hi] = src
        self._dst[lo:hi] = dst
        self._prob[lo:hi] = prob
        self._num_arcs = hi
        self._indptr = self._csr_cache = self._transpose_cache = None

    def set_groups(self, groups: Sequence[int]) -> None:
        """Attach group labels; labels must be ``0..c-1`` with no empty group."""
        arr = np.asarray(groups, dtype=np.int64)
        if arr.shape != (self.num_nodes,):
            raise GroupPartitionError(
                f"groups must have length {self.num_nodes}, got {arr.shape}"
            )
        if arr.size and arr.min() < 0:
            raise GroupPartitionError("group labels must be non-negative")
        c = int(arr.max()) + 1 if arr.size else 0
        present = np.bincount(arr, minlength=c)
        if np.any(present == 0):
            missing = np.flatnonzero(present == 0).tolist()
            raise GroupPartitionError(f"empty group label(s): {missing}")
        self._groups = arr
        self._num_groups = c

    def set_edge_probabilities(self, probability: float) -> None:
        """Overwrite every arc's propagation probability with a constant.

        The paper's IM experiments use uniform ``p = 0.1`` or ``p = 0.01``.
        """
        self._check_writable()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        # A fresh array: the forward CSR handed out may be the old one.
        self._prob = np.full(self._prob.size, probability, dtype=np.float64)
        self._csr_cache = None
        self._transpose_cache = None
        self._version += 1
        # A whole-graph rewrite touches every arc: logging it would make
        # the "repair" as expensive as a rebuild, so floor the log instead
        # and let mutations_since() report the delta as unreplayable.
        self._mutation_log.clear()
        self._log_floor = self._version

    def set_arc_probability(self, u: int, v: int, probability: float) -> None:
        """Update the probability of the existing arc ``u -> v``.

        For undirected graphs the mirror arc ``v -> u`` is updated too.
        Raises :class:`KeyError` if the arc is absent — use
        :meth:`add_edge` to create new arcs. Parallel arcs (the graph
        permits duplicates) are all updated.

        Warm CSR caches are patched rather than dropped: each gets a
        fresh ``probabilities`` array with the changed entries rewritten,
        while ``indptr`` and ``indices`` keep their identity. Arrays
        handed out earlier are never written, so a caller (or a sampling
        pass in flight) keeps seeing the old values.
        """
        self._check_writable()
        self._check_node(u)
        self._check_node(v)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        arcs = [(u, v)]
        if not self.directed and u != v:
            arcs.append((v, u))
        indptr = self._sort_arcs()
        ids = [
            indptr[a] + np.flatnonzero(self._dst[indptr[a]:indptr[a + 1]] == b)
            for a, b in arcs
        ]
        if not ids[0].size:
            raise KeyError(f"arc {u} -> {v} not present")
        # Bump before recording so the log entries carry the version the
        # mutation *creates* (matching add_edge, where consumers replay
        # "everything after version X").
        self._version += 1
        # Copy-on-write: the forward CSR handed out holds ``_prob`` itself.
        prob = self._prob.copy()
        for (a, b), hits in zip(arcs, ids):
            for old in prob[hits].tolist():
                self._record_mutation(a, b, old, probability)
            prob[hits] = probability
        self._prob = prob
        if self._csr_cache is not None:
            self._csr_cache = (*self._csr_cache[:2], prob)
        self._transpose_cache = _patch_probabilities(
            self._transpose_cache, [(b, a) for a, b in arcs], probability
        )

    def _sort_arcs(self) -> np.ndarray:
        """Sort the arc arrays by source, stably, unless they are; returns
        their row pointer."""
        if self._indptr is None:
            m = self._num_arcs
            src = self._src[:m]
            order = stable_order(src, self.num_nodes)
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.num_nodes),
                      out=indptr[1:])
            self._src, self._dst, self._prob = (
                src[order], self._dst[order], self._prob[order]
            )
            self._indptr = indptr
        return self._indptr

    def _record_mutation(self, u: int, v: int, old_p: float, new_p: float) -> None:
        log = self._mutation_log
        log.append((self._version, u, v, old_p, new_p))
        if len(log) > MUTATION_LOG_LIMIT:
            # Drop the oldest half, cut after a whole version, so only
            # consumers older than the cut fall back to a rebuild.
            dropped = log[len(log) // 2 - 1][0]
            del log[: bisect_right(log, dropped, key=_record_version)]
            self._log_floor = dropped

    def mutations_since(self, version: int) -> Optional[GraphDelta]:
        """Arc deltas between ``version`` and the current version.

        Returns ``None`` when the log cannot replay from ``version`` —
        either the graph was rewritten wholesale
        (:meth:`set_edge_probabilities`) or built in bulk
        (:meth:`add_edges`) after it, the records after it were dropped
        (an overflow past ``MUTATION_LOG_LIMIT`` drops the oldest half
        of the log), or ``version`` predates this object —
        in which case the caller must rebuild from scratch. Successive
        mutations of the same arc are collapsed to one record carrying
        the oldest ``old_p`` and the newest ``new_p``; arcs whose
        probability ends where it started are dropped entirely.
        """
        if version > self._version:
            raise ValueError(
                f"version {version} is ahead of graph version {self._version}"
            )
        if version < self._log_floor:
            return None
        first: dict[tuple[int, int], float] = {}
        last: dict[tuple[int, int], float] = {}
        log = self._mutation_log
        start = bisect_right(log, version, key=_record_version)
        for _, u, v, old_p, new_p in islice(log, start, None):
            key = (u, v)
            if key not in first:
                first[key] = old_p
            last[key] = new_p
        changed = [
            (u, v, first[u, v], last[u, v])
            for (u, v) in first
            if first[u, v] != last[u, v]
        ]
        if not changed:
            return GraphDelta(
                sources=np.empty(0, dtype=np.int64),
                targets=np.empty(0, dtype=np.int64),
                old_probabilities=np.empty(0, dtype=np.float64),
                new_probabilities=np.empty(0, dtype=np.float64),
            )
        srcs, tgts, olds, news = zip(*changed)
        return GraphDelta(
            sources=np.asarray(srcs, dtype=np.int64),
            targets=np.asarray(tgts, dtype=np.int64),
            old_probabilities=np.asarray(olds, dtype=np.float64),
            new_probabilities=np.asarray(news, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of input edges (arcs if directed, undirected edges otherwise)."""
        return self._num_input_edges

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (2x input edges when undirected)."""
        return self._num_arcs

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every structural or weight change.

        External state derived from the graph (e.g. a warm session's
        sampled RR collection) records this and replays
        :meth:`mutations_since` to catch up. The graph's own CSR caches
        do not key on it: ``set_arc_probability`` patches them instead
        of rebuilding, and the other mutators drop them.
        """
        return self._version

    @property
    def groups(self) -> np.ndarray:
        if self._groups is None:
            raise GroupPartitionError("graph has no group labels attached")
        return self._groups

    @property
    def has_groups(self) -> bool:
        return self._groups is not None

    @property
    def num_groups(self) -> int:
        if self._groups is None:
            raise GroupPartitionError("graph has no group labels attached")
        return self._num_groups

    def group_members(self, label: int) -> np.ndarray:
        """Node ids belonging to group ``label``."""
        return np.flatnonzero(self.groups == label)

    def group_sizes(self) -> np.ndarray:
        """Array of group sizes indexed by group label."""
        return np.bincount(self.groups, minlength=self.num_groups)

    def out_neighbors(self, u: int) -> list[int]:
        self._check_node(u)
        indptr, indices, _ = self.out_adjacency()
        return indices[indptr[u]:indptr[u + 1]].tolist()

    def out_degree(self, u: int) -> int:
        self._check_node(u)
        indptr = self.out_adjacency()[0]
        return int(indptr[u + 1] - indptr[u])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate stored arcs as ``(u, v, p)`` triples, in CSR order.

        For undirected graphs each input edge appears twice (both arcs).
        """
        indptr, indices, probs = self.out_adjacency()
        m = int(indptr[-1])
        for lo in range(0, m, _EDGES_PER_CHUNK):
            hi = min(lo + _EDGES_PER_CHUNK, m)
            src = np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1
            yield from zip(
                src.tolist(), indices[lo:hi].tolist(), probs[lo:hi].tolist()
            )

    def out_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style arrays ``(indptr, indices, probabilities)`` of out-arcs.

        Cached; used by the cascade simulator and RIS sampler, and by
        every query. A cold build sorts the arc arrays by source (or finds
        them sorted) and hands out the sorted arrays themselves;
        ``set_arc_probability`` patches a warm cache, and the other
        mutators drop it.
        """
        if self._csr_cache is None:
            self._csr_cache = (self._sort_arcs(), self._dst, self._prob)
        return self._csr_cache

    def transpose_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays ``(indptr, indices, probabilities)`` of *in*-arcs.

        Equals ``transpose().out_adjacency()`` entry for entry (arcs of a
        target sorted by source in insertion order): one stable counting
        sort of the cached out-CSR by target (:func:`invert_csr`). The
        RIS sampler and IMM schedule hit this once per collection.
        """
        if self._transpose_cache is None:
            indptr, indices, probs = self.out_adjacency()
            t_indptr, sources, order = invert_csr(
                indptr, indices, self.num_nodes
            )
            self._transpose_cache = (t_indptr, sources, probs[order])
        return self._transpose_cache

    def transpose(self) -> "Graph":
        """Reverse of the graph (arcs flipped); groups carried over.

        For undirected graphs the transpose equals the graph itself, but a
        fresh object is still returned so that mutation stays local.
        """
        g = Graph(self.num_nodes, directed=True)
        indptr, indices, probs = self.out_adjacency()
        sources = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
        g.add_edges(indices, sources, probs)
        if self._groups is not None:
            g.set_groups(self._groups)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        grp = f", groups={self._num_groups}" if self._groups is not None else ""
        return f"Graph({kind}, n={self.num_nodes}, edges={self.num_edges}{grp})"

    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.num_nodes:
            raise IndexError(f"node {u} out of range [0, {self.num_nodes})")

    def _check_writable(self) -> None:
        if self.read_only:
            raise StorageError(
                "CSR-backed graphs are immutable; rebuild the graph (or load "
                "with the text format) to mutate edges"
            )


def _patch_probabilities(
    adjacency: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]],
    arcs: Sequence[tuple[int, int]],
    probability: float,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``adjacency`` with every stored ``row -> col`` of ``arcs`` set to
    ``probability``, written into a copy of its probabilities.

    ``indptr`` and ``indices`` are returned as they are; a cold (``None``)
    cache stays cold.
    """
    if adjacency is None:
        return None
    indptr, indices, probs = adjacency
    probs = probs.copy()
    for row, col in arcs:
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        probs[lo:hi][indices[lo:hi] == col] = probability
    return indptr, indices, probs


class CSRGraph(Graph):
    """Read-only :class:`Graph` over pre-built CSR arrays.

    The out-of-core representation: both the forward and the transposed
    adjacency arrive pre-built (typically as read-only ``np.memmap``
    views from :func:`repro.graphs.io.read_csr_graph`) and become the
    graph's CSR caches as they are. Every query is the inherited one and
    no arc arrays are built, so a million-node graph costs O(1) heap
    beyond the (possibly memory-mapped) arrays themselves.

    Mutation is rejected with :class:`repro.errors.StorageError`: the
    arrays may be shared, file-backed pages. ``version`` is permanently
    0 and :meth:`Graph.mutations_since` reports an empty delta, so warm
    sessions never try to repair sampled state for these graphs.
    """

    read_only = True

    def __init__(
        self,
        num_nodes: int,
        forward: tuple[np.ndarray, np.ndarray, np.ndarray],
        transpose: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        directed: bool = True,
        groups: Optional[Sequence[int]] = None,
        num_input_edges: Optional[int] = None,
        store_kind: str = "ram",
    ) -> None:
        super().__init__(num_nodes, directed=directed, groups=groups)
        self.store_kind = str(store_kind)
        for name, indptr in (("forward", forward[0]), ("transpose", transpose[0])):
            if indptr.size != self.num_nodes + 1:
                raise StorageError(
                    f"{name} indptr has {indptr.size} entries, "
                    f"expected {self.num_nodes + 1}"
                )
        arcs = int(forward[0][-1])
        if arcs != int(transpose[0][-1]):
            raise StorageError(
                "forward and transpose CSR disagree on arc count: "
                f"{arcs} vs {int(transpose[0][-1])}"
            )
        self._csr_cache = tuple(forward)
        self._transpose_cache = tuple(transpose)
        self._num_arcs = arcs
        if num_input_edges is None:
            num_input_edges = arcs if self.directed else arcs // 2
        self._num_input_edges = int(num_input_edges)

    def transpose(self) -> "CSRGraph":
        g = CSRGraph(
            self.num_nodes,
            self._transpose_cache,
            self._csr_cache,
            directed=True,
            num_input_edges=self._num_input_edges,
            store_kind=self.store_kind,
        )
        if self._groups is not None:
            g.set_groups(self._groups)
        return g

    def release(self) -> None:
        """Drop resident pages of all memory-mapped arrays (best effort)."""
        from repro.storage.backend import release_array

        for arr in (*self._csr_cache, *self._transpose_cache):
            release_array(arr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grp = f", groups={self._num_groups}" if self._groups is not None else ""
        return (
            f"CSRGraph(store={self.store_kind}, n={self.num_nodes}, "
            f"arcs={self.num_arcs}{grp})"
        )
