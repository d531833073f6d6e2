"""Tightened pure-NumPy kernels (the always-available fast set).

Same loops as :mod:`repro.kernels.baseline`, same draw law, bitwise the
same outputs — minus the allocation churn. The rewrite applies four
mechanical optimizations:

* **Preallocated per-thread scratch.** Every per-level temporary (draw
  buffer, gathered probabilities, live mask, compressed positions …)
  lives in a grow-only :class:`threading.local` arena reused across
  levels, chunks and calls, so the steady state allocates only the
  per-level result arrays that must survive. The dense visited buffer
  is reused too: after a chunk, exactly the touched keys are cleared
  (O(reached), not O(instances · n)).
* **``rng.random(out=)`` draws.** Filling a preallocated float64 buffer
  produces the identical stream to ``rng.random(size)`` — the bitwise
  contract holds with zero per-level draw allocations.
* **In-place sort + dedup instead of ``np.unique``.** The profile's
  single largest line: ``np.unique`` hashes and copies every level.
  Arrivals are compressed into scratch, sorted in place, and deduped
  with one ``!=`` shift-compare — the same sorted unique array.
* **Narrow dtypes + ``take``/``compress`` with ``out=``.** Flat keys
  fit int32 whenever ``num_instances * n`` does (always, for dense
  chunks capped by ``MAX_FLAT_KEYS``), halving the bytes moved by the
  sort and every gather. Probabilities stay float64 — comparing
  float32 would change draw outcomes. Inputs that don't fit the narrow
  path (huge key spaces, non-float64 probabilities) fall back to the
  baseline implementation, which is bitwise-identical by definition.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.kernels import baseline
from repro.utils.csr import merge_sorted_disjoint

Adjacency = tuple[np.ndarray, np.ndarray, np.ndarray]

_INT32_LIMIT = np.iinfo(np.int32).max

#: Largest block, in gathered CSR entries, that :func:`group_counts`
#: hands to the baseline. Below about this size the scratch bookkeeping
#: (a dozen named-buffer lookups and as many small NumPy calls) costs
#: more than the allocations it saves; the crossover tracks the entry
#: count, not the item count, because slices range from a few to
#: thousands of entries.
SMALL_BLOCK_ENTRIES = 8192

#: Largest probability array worth scanning for uniformity per chunk
#: call. Above this the O(arcs) scan could rival a level's work, so the
#: gathered path runs unconditionally.
_UNIFORM_SCAN_LIMIT = 1 << 25


def _uniform_probability(probs: np.ndarray) -> float | None:
    """``p`` when every arc carries probability ``p``, else ``None``.

    A uniform IC model (the repo's ``set_edge_probabilities`` default)
    makes the per-edge probability gather a broadcast: ``draws < p`` is
    bitwise identical to ``draws < probs[positions]``, so the chunk can
    skip its largest gather entirely. The scan runs per chunk call and
    costs O(arcs); first/last probes early-out the common non-uniform
    case.
    """
    if probs.size == 0 or probs.size > _UNIFORM_SCAN_LIMIT:
        return None
    p0 = probs[0]
    if probs[-1] != p0:
        return None
    return float(p0) if bool(np.all(probs == p0)) else None


class _Scratch:
    """Grow-only named buffers plus the reusable dense visited array."""

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self._visited = np.zeros(0, dtype=bool)
        self._visited_clean = True
        self._arange32 = np.empty(0, dtype=np.int32)
        self._arange64 = np.empty(0, dtype=np.int64)

    def buf(self, name: str, size: int, dtype) -> np.ndarray:
        key = f"{name}/{np.dtype(dtype).str}"
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            capacity = max(size, 1024)
            if buf is not None:
                capacity = max(capacity, 2 * buf.size)
            buf = np.empty(capacity, dtype=dtype)
            self._bufs[key] = buf
        return buf[:size]

    def arange32(self, size: int) -> np.ndarray:
        if self._arange32.size < size:
            self._arange32 = np.arange(max(size, 1024), dtype=np.int32)
        return self._arange32[:size]

    def arange64(self, size: int) -> np.ndarray:
        if self._arange64.size < size:
            self._arange64 = np.arange(max(size, 1024), dtype=np.int64)
        return self._arange64[:size]

    def visited(self, size: int) -> np.ndarray:
        """An all-False bool buffer of at least ``size`` entries.

        Callers must clear every key they set before returning (the
        ``finally`` blocks below); ``_visited_clean`` guards against a
        previous call that died before its reset ran.
        """
        if self._visited.size < size:
            self._visited = np.zeros(
                max(size, 2 * self._visited.size), dtype=bool
            )
        elif not self._visited_clean:
            self._visited[:] = False
        self._visited_clean = True
        return self._visited


_LOCAL = threading.local()


def _scratch() -> _Scratch:
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None:
        scratch = _LOCAL.scratch = _Scratch()
    return scratch


def _csr_level(
    scratch: _Scratch,
    indptr: np.ndarray,
    nodes: np.ndarray,
    idx_dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-row slice offsets, lengths and cumulative lengths of a frontier.

    Returns ``(offsets, lengths, cums, total)`` where the flat CSR
    positions of the level are ``repeat(offsets, lengths) +
    arange(total)`` and ``cums`` is the running edge count per row (the
    owner-lookup table for live edges) — the scratch-buffered half of
    :func:`repro.utils.csr.gather_csr_slices`.
    """
    size = nodes.size
    starts = scratch.buf("lvl.starts", size, np.int64)
    np.take(indptr, nodes, out=starts)
    bounds = scratch.buf("lvl.bounds", size, nodes.dtype)
    np.add(nodes, 1, out=bounds)
    ends = scratch.buf("lvl.ends", size, np.int64)
    np.take(indptr, bounds, out=ends)
    lengths = scratch.buf("lvl.lengths", size, np.int64)
    np.subtract(ends, starts, out=lengths)
    cums = scratch.buf("lvl.cums", size, np.int64)
    np.cumsum(lengths, out=cums)
    total = int(cums[-1]) if size else 0
    # offsets = starts - (cums - lengths), folded in place into starts.
    np.add(starts, lengths, out=starts)
    np.subtract(starts, cums, out=starts)
    if np.dtype(idx_dtype) == np.int64:
        return starts, lengths, cums, total
    offsets = scratch.buf("lvl.offs32", size, np.int32)
    offsets[...] = starts
    return offsets, lengths, cums, total


def reachability_chunk(
    adjacency: Adjacency,
    start_keys: np.ndarray,
    num_instances: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Allocation-lean twin of :func:`baseline.reachability_chunk`."""
    indptr, indices, probs = adjacency
    n = indptr.size - 1
    total_keys = num_instances * n
    if (
        total_keys > _INT32_LIMIT
        or indices.size > _INT32_LIMIT
        or probs.dtype != np.float64
    ):
        return baseline.reachability_chunk(
            adjacency, start_keys, num_instances, rng
        )
    start = np.unique(np.asarray(start_keys, dtype=np.int64))
    if start.size == 0:
        return np.zeros(0, dtype=np.int64)
    scratch = _scratch()
    indices32 = np.asarray(indices, dtype=np.int32)
    uniform_p = _uniform_probability(probs)
    visited = scratch.visited(total_keys)
    scratch._visited_clean = False
    reached: list[np.ndarray] = [start.astype(np.int32)]
    frontier = reached[0]
    try:
        visited[frontier] = True
        while frontier.size:
            size = frontier.size
            nodes = scratch.buf("rc.nodes", size, np.int32)
            np.remainder(frontier, n, out=nodes)
            bases = scratch.buf("rc.bases", size, np.int32)
            np.subtract(frontier, nodes, out=bases)
            offsets, lengths, cums, total = _csr_level(
                scratch, indptr, nodes, np.int32
            )
            if total == 0:
                break
            if total > _INT32_LIMIT:  # pragma: no cover - pathological level
                frontier = _expand_level_wide(
                    adjacency, frontier, n, visited, rng
                )
                if frontier.size == 0:
                    break
                reached.append(frontier)
                continue
            positions = np.repeat(offsets, lengths)
            np.add(positions, scratch.arange32(total), out=positions)
            draws = scratch.buf("rc.draws", total, np.float64)
            rng.random(out=draws)
            live = scratch.buf("rc.live", total, bool)
            if uniform_p is None:
                gathered = scratch.buf("rc.probs", total, np.float64)
                np.take(probs, positions, out=gathered)
                np.less(draws, gathered, out=live)
            else:
                # Every arc carries the same probability, so the gather
                # is a broadcast: draws < p is bitwise the gathered
                # comparison.
                np.less(draws, uniform_p, out=live)
            edges = np.flatnonzero(live)
            hits = edges.size
            if hits == 0:
                break
            live_pos = scratch.buf("rc.livepos", hits, np.int32)
            np.take(positions, edges, out=live_pos)
            # Each live edge's owning frontier row — found by bisecting
            # the cumulative lengths instead of materialising (and then
            # compressing) a repeated per-edge base array.
            owners = np.searchsorted(
                cums[:size], edges, side="right"
            )
            keys = scratch.buf("rc.keys", hits, np.int32)
            np.take(bases, owners, out=keys)
            arrivals = scratch.buf("rc.arrivals", hits, np.int32)
            np.take(indices32, live_pos, out=arrivals)
            np.add(keys, arrivals, out=keys)
            seen = scratch.buf("rc.seen", hits, bool)
            np.take(visited, keys, out=seen)
            np.logical_not(seen, out=seen)
            fresh_count = int(np.count_nonzero(seen))
            if fresh_count == 0:
                break
            fresh = scratch.buf("rc.fresh", fresh_count, np.int32)
            np.compress(seen, keys, out=fresh)
            fresh.sort()
            flags = scratch.buf("rc.flags", fresh_count, bool)
            flags[0] = True
            np.not_equal(fresh[1:], fresh[:-1], out=flags[1:])
            unique = np.empty(int(np.count_nonzero(flags)), dtype=np.int32)
            np.compress(flags, fresh, out=unique)
            reached.append(unique)
            visited[unique] = True
            frontier = unique
    finally:
        for part in reached:
            visited[part] = False
        scratch._visited_clean = True
    return np.concatenate(reached).astype(np.int64)


def _expand_level_wide(
    adjacency: Adjacency,
    frontier: np.ndarray,
    n: int,
    visited: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:  # pragma: no cover - levels beyond int32 positions
    """Baseline-style int64 expansion of one oversized level.

    The draw law is per level, so mixing one wide level into the narrow
    loop keeps the stream — and therefore the result — bitwise intact.
    """
    from repro.utils.csr import gather_csr_slices

    indptr, indices, probs = adjacency
    wide = frontier.astype(np.int64)
    positions, owners = gather_csr_slices(indptr, wide % n)
    live = rng.random(positions.size) < probs[positions]
    keys = (wide // n)[owners[live]] * n + indices[positions[live]]
    keys = keys[~visited[keys]]
    if keys.size == 0:
        return np.zeros(0, dtype=np.int32)
    keys = np.unique(keys)
    visited[keys] = True
    return keys.astype(np.int32)


def reachability_chunk_sparse(
    adjacency: Adjacency,
    start_keys: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Allocation-lean twin of :func:`baseline.reachability_chunk_sparse`.

    Keys stay int64 (the sparse chunk serves unbounded key spaces); the
    wins here are the buffered draws, the fused base arithmetic and the
    sort+dedup replacing ``np.unique``. Membership stays the baseline's
    sorted-array ``searchsorted`` probes — they are already vector-bound.
    """
    indptr, indices, probs = adjacency
    n = indptr.size - 1
    if probs.dtype != np.float64:
        return baseline.reachability_chunk_sparse(adjacency, start_keys, rng)
    start = np.unique(np.asarray(start_keys, dtype=np.int64))
    if start.size == 0:
        return np.zeros(0, dtype=np.int64)
    scratch = _scratch()
    uniform_p = _uniform_probability(probs)
    reached: list[np.ndarray] = [start]
    base = start
    pending: list[np.ndarray] = []
    frontier = start
    while frontier.size:
        size = frontier.size
        nodes = scratch.buf("rs.nodes", size, np.int64)
        np.remainder(frontier, n, out=nodes)
        bases = scratch.buf("rs.bases", size, np.int64)
        np.subtract(frontier, nodes, out=bases)
        offsets, lengths, cums, total = _csr_level(
            scratch, indptr, nodes, np.int64
        )
        if total == 0:
            break
        positions = np.repeat(offsets, lengths)
        np.add(positions, scratch.arange64(total), out=positions)
        draws = scratch.buf("rs.draws", total, np.float64)
        rng.random(out=draws)
        live = scratch.buf("rs.live", total, bool)
        if uniform_p is None:
            gathered = scratch.buf("rs.probs", total, np.float64)
            np.take(probs, positions, out=gathered)
            np.less(draws, gathered, out=live)
        else:
            np.less(draws, uniform_p, out=live)
        edges = np.flatnonzero(live)
        hits = edges.size
        if hits == 0:
            break
        live_pos = scratch.buf("rs.livepos", hits, np.int64)
        np.take(positions, edges, out=live_pos)
        owners = np.searchsorted(cums[:size], edges, side="right")
        keys = scratch.buf("rs.keys", hits, np.int64)
        np.take(bases, owners, out=keys)
        arrivals = scratch.buf("rs.arrivals", hits, np.int64)
        np.take(indices, live_pos, out=arrivals)
        np.add(keys, arrivals, out=keys)
        seen = baseline.member_sorted(base, keys)
        for level in pending:
            seen |= baseline.member_sorted(level, keys)
        np.logical_not(seen, out=seen)
        fresh_count = int(np.count_nonzero(seen))
        if fresh_count == 0:
            break
        fresh = scratch.buf("rs.fresh", fresh_count, np.int64)
        np.compress(seen, keys, out=fresh)
        fresh.sort()
        flags = scratch.buf("rs.flags", fresh_count, bool)
        flags[0] = True
        np.not_equal(fresh[1:], fresh[:-1], out=flags[1:])
        unique = np.empty(int(np.count_nonzero(flags)), dtype=np.int64)
        np.compress(flags, fresh, out=unique)
        reached.append(unique)
        pending.append(unique)
        frontier = unique
        if len(pending) >= baseline.SPARSE_MERGE_EVERY:
            merged = pending[0]
            for level in pending[1:]:
                merged = merge_sorted_disjoint(merged, level)
            base = merge_sorted_disjoint(base, merged)
            pending = []
    return np.concatenate(reached) if len(reached) > 1 else reached[0]


def pack_chunk_keys(
    keys: np.ndarray, num_instances: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Narrow-dtype twin of :func:`baseline.pack_chunk_keys`.

    When the chunk's flat key space fits int32 (always, under the
    engine's ``MAX_FLAT_KEYS`` chunk law), the divmod and the stable
    argsort run narrow — the permutation and the int64 outputs are
    identical, the sort moves half the bytes.
    """
    if num_instances * n > _INT32_LIMIT or keys.dtype != np.int64:
        return baseline.pack_chunk_keys(keys, num_instances, n)
    keys = keys.astype(np.int32)
    sample_ids = keys // np.int32(n)
    nodes = keys - sample_ids * np.int32(n)
    order = np.argsort(sample_ids, kind="stable")
    counts = np.bincount(sample_ids, minlength=num_instances)
    set_indptr = np.zeros(num_instances + 1, dtype=np.int64)
    np.cumsum(counts, out=set_indptr[1:])
    return set_indptr, nodes[order].astype(np.int64, copy=False)


def group_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    items: np.ndarray,
    already_counted: np.ndarray,
    labels: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Scratch-buffered twin of :func:`repro.utils.csr.batch_group_counts`.

    Blocks of at most :data:`SMALL_BLOCK_ENTRIES` entries run the
    baseline's plain passes (the same counts, cheaper at that size).
    """
    items = np.asarray(items, dtype=np.int64)
    if int((indptr[items + 1] - indptr[items]).sum()) <= SMALL_BLOCK_ENTRIES:
        return baseline.group_counts(
            indptr, indices, items, already_counted, labels, num_groups
        )
    scratch = _scratch()
    offsets, lengths, _, total = _csr_level(scratch, indptr, items, np.int64)
    if total == 0:
        return np.zeros((items.size, num_groups), dtype=np.int64)
    positions = np.repeat(offsets, lengths)
    np.add(positions, scratch.arange64(total), out=positions)
    entries = scratch.buf("gc.entries", total, np.int64)
    np.take(indices, positions, out=entries)
    row_rep = np.repeat(scratch.arange64(items.size), lengths)
    fresh = scratch.buf("gc.fresh", total, bool)
    np.take(already_counted, entries, out=fresh)
    np.logical_not(fresh, out=fresh)
    hits = int(np.count_nonzero(fresh))
    if hits == 0:
        return np.zeros((items.size, num_groups), dtype=np.int64)
    fresh_entries = scratch.buf("gc.fe", hits, np.int64)
    np.compress(fresh, entries, out=fresh_entries)
    bins = scratch.buf("gc.bins", hits, np.int64)
    np.compress(fresh, row_rep, out=bins)
    np.multiply(bins, num_groups, out=bins)
    entry_labels = scratch.buf("gc.labels", hits, np.int64)
    np.take(labels, fresh_entries, out=entry_labels)
    np.add(bins, entry_labels, out=bins)
    return np.bincount(bins, minlength=items.size * num_groups).reshape(
        items.size, num_groups
    )


def gains_rescore(
    ids: np.ndarray,
    covered: np.ndarray,
    labels: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Scratch-buffered twin of :func:`baseline.gains_rescore`."""
    if ids.size == 0:
        return np.zeros(num_groups, dtype=np.int64)
    scratch = _scratch()
    fresh = scratch.buf("gr.fresh", ids.size, bool)
    np.take(covered, ids, out=fresh)
    np.logical_not(fresh, out=fresh)
    hits = int(np.count_nonzero(fresh))
    if hits == 0:
        return np.zeros(num_groups, dtype=np.int64)
    fresh_ids = scratch.buf("gr.ids", hits, np.int64)
    np.compress(fresh, ids, out=fresh_ids)
    fresh_labels = scratch.buf("gr.labels", hits, np.int64)
    np.take(labels, fresh_ids, out=fresh_labels)
    return np.bincount(fresh_labels, minlength=num_groups)
