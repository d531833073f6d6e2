"""Segmented, append-only RR-set store with per-segment inverted indexes.

The flat :class:`repro.influence.ris.RRCollection` holds the whole
packed collection and its whole node -> RR-set inverted index as single
arrays, so the working set is O(total entries) no matter what is being
computed. This store cuts the collection into fixed-byte-budget
*segments* as sampling streams in, and
:class:`repro.influence.ris.SegmentedRRCollection` answers the flat
collection's interface by delegating to it:

* each segment holds its own packed ``(set_indptr, set_indices)`` slice
  (local row ids, ``start`` gives the global id of row 0) plus its own
  inverted ``node -> global RR-set ids`` index, built at flush time;
* all six arrays live on an :class:`repro.storage.backend.ArrayBackend`
  — memory-mapped files for the out-of-core tier — and every whole-store
  operation walks segment by segment, releasing each segment's pages as
  its pass completes, so resident memory is bounded by one segment
  regardless of collection size;
* per-segment inverted entries store *global* ids in sorted order, and
  segment starts increase, so concatenating a node's per-segment slices
  reproduces exactly the flat inverted index slice — integer coverage
  counts folded across segments equal the flat counts, which is what
  makes segmented greedy selections bitwise-identical to the flat path;
* repair rewrites only the segments owning affected sets (new file
  revisions; untouched segments keep their bytes), mirroring PR 6's
  splice-in-place at segment granularity.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import StorageError
from repro.storage.backend import ArrayBackend, release_array, resident_nbytes
from repro.utils.csr import (
    batch_group_counts,
    concat_packed,
    invert_csr_segment,
    splice_packed,
)

__all__ = ["RRSegment", "SegmentedRRStore", "DEFAULT_SEGMENT_BYTES"]

#: Default byte target per segment (entries of ``set_indices`` +
#: ``inv_indices``; 16 bytes per packed entry at int64). 32 MB keeps a
#: segment pass comfortably cache-and-budget friendly while holding
#: enough rows to amortize the per-segment numpy call overhead.
DEFAULT_SEGMENT_BYTES = 32 << 20

#: Bytes one packed entry costs on disk across both per-segment arrays.
_BYTES_PER_ENTRY = 16


class RRSegment:
    """One immutable slice of the collection plus its inverted index."""

    __slots__ = (
        "index",
        "start",
        "set_indptr",
        "set_indices",
        "inv_indptr",
        "inv_indices",
    )

    def __init__(
        self,
        index: int,
        start: int,
        set_indptr: np.ndarray,
        set_indices: np.ndarray,
        inv_indptr: np.ndarray,
        inv_indices: np.ndarray,
    ) -> None:
        self.index = int(index)
        self.start = int(start)
        self.set_indptr = set_indptr
        self.set_indices = set_indices
        self.inv_indptr = inv_indptr
        self.inv_indices = inv_indices

    @property
    def num_sets(self) -> int:
        return self.set_indptr.size - 1

    @property
    def num_entries(self) -> int:
        return int(self.set_indices.size)

    @property
    def stop(self) -> int:
        """Global id one past the last RR set of this segment."""
        return self.start + self.num_sets

    def roots(self) -> np.ndarray:
        """Root node of every set (sets are stored root-first)."""
        return np.asarray(self.set_indices[self.set_indptr[:-1]])

    def member_slice(self, item: int) -> np.ndarray:
        """Global ids of this segment's RR sets containing node ``item``."""
        return self.inv_indices[self.inv_indptr[item] : self.inv_indptr[item + 1]]

    def entry_rows_global(self) -> np.ndarray:
        """Global RR-set id of every packed entry (materialized per call)."""
        return np.repeat(
            np.arange(self.start, self.stop, dtype=np.int64),
            np.diff(self.set_indptr),
        )

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.set_indptr, self.set_indices, self.inv_indptr, self.inv_indices)

    def resident_nbytes(self) -> int:
        return sum(resident_nbytes(arr) for arr in self._arrays())

    def on_disk_nbytes(self) -> int:
        return int(sum(arr.nbytes for arr in self._arrays()))

    def release(self) -> None:
        """Drop resident pages of all memory-mapped arrays (best effort)."""
        for arr in self._arrays():
            release_array(arr)


class SegmentedRRStore:
    """Byte-budgeted segments of an RR collection, built append-only.

    Build protocol: :meth:`append_chunk` packed chunks as sampling
    streams them in (chunks are atomic — a segment is cut at a chunk
    boundary once it holds at least ``segment_bytes`` worth of entries),
    then :meth:`finalize` once. After that the store is immutable except
    through :meth:`replace_sets` (the repair path), which rewrites whole
    segments in place.
    """

    def __init__(
        self,
        num_nodes: int,
        backend: ArrayBackend,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if num_nodes <= 0:
            raise StorageError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.backend = backend
        self.segment_bytes = max(int(segment_bytes), _BYTES_PER_ENTRY)
        self.segments: list[RRSegment] = []
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_entries = 0
        self._next_start = 0
        self._finalized = False
        self._starts = np.zeros(0, dtype=np.int64)

    # -- build -----------------------------------------------------------
    @property
    def _entries_per_segment(self) -> int:
        return max(self.segment_bytes // _BYTES_PER_ENTRY, 1)

    def append_chunk(self, set_indptr: np.ndarray, set_indices: np.ndarray) -> None:
        """Buffer one packed chunk; flush a segment when the budget fills."""
        if self._finalized:
            raise StorageError("cannot append to a finalized segment store")
        if set_indptr.size < 1:
            raise StorageError("chunk indptr must have at least one entry")
        if set_indptr.size == 1:
            return
        self._pending.append((set_indptr, set_indices))
        self._pending_entries += int(set_indices.size)
        if self._pending_entries >= self._entries_per_segment:
            self._flush_segment()

    def _flush_segment(self) -> None:
        if not self._pending:
            return
        indptr, indices = concat_packed(self._pending)
        self._pending = []
        self._pending_entries = 0
        segment = self._build_segment(
            len(self.segments), self._next_start, indptr, indices
        )
        self._next_start = segment.stop
        self.segments.append(segment)

    def _build_segment(
        self, index: int, start: int, indptr: np.ndarray, indices: np.ndarray
    ) -> RRSegment:
        inv_indptr, inv_indices = invert_csr_segment(
            indptr, indices, self.num_nodes, start
        )
        store = self.backend.store
        segment = RRSegment(
            index,
            start,
            store(f"seg{index:05d}-set_indptr", indptr),
            store(f"seg{index:05d}-set_indices", indices),
            store(f"seg{index:05d}-inv_indptr", inv_indptr),
            store(f"seg{index:05d}-inv_indices", inv_indices),
        )
        segment.release()
        return segment

    def finalize(self) -> "SegmentedRRStore":
        """Flush the remainder and freeze the segment list."""
        if self._finalized:
            return self
        self._flush_segment()
        self._finalized = True
        self._starts = np.asarray([seg.start for seg in self.segments], dtype=np.int64)
        return self

    @classmethod
    def from_chunks(
        cls,
        chunks: Iterable[tuple[np.ndarray, np.ndarray]],
        num_nodes: int,
        backend: ArrayBackend,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "SegmentedRRStore":
        store = cls(num_nodes, backend, segment_bytes=segment_bytes)
        for set_indptr, set_indices in chunks:
            store.append_chunk(set_indptr, set_indices)
        return store.finalize()

    # -- whole-store queries ---------------------------------------------
    def _require_finalized(self) -> None:
        if not self._finalized:
            raise StorageError("segment store must be finalized first")

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_sets(self) -> int:
        if self._finalized:
            return self._next_start
        return sum(seg.num_sets for seg in self.segments)

    @property
    def total_entries(self) -> int:
        return sum(seg.num_entries for seg in self.segments)

    def iter_segments(self, *, release: bool = True) -> Iterator[RRSegment]:
        """Yield segments in order, releasing each one's pages afterwards.

        ``release=True`` is the budget contract: a full pass keeps at
        most one segment's pages resident at a time.
        """
        self._require_finalized()
        for segment in self.segments:
            try:
                yield segment
            finally:
                if release:
                    segment.release()

    def roots(self) -> np.ndarray:
        """Root of every RR set, in global id order (heap-resident)."""
        self._require_finalized()
        if not self.segments:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([seg.roots() for seg in self.iter_segments()])

    def member_ids(self, item: int) -> np.ndarray:
        """Global ids of all RR sets containing ``item``, sorted ascending.

        Concatenation order equals sorted order because each segment's
        inverted slice is sorted and segment id ranges are disjoint and
        increasing — bitwise the flat inverted-index slice.

        Parts are copied to the heap and each segment released as it is
        read: a point lookup faults far more than the bytes it needs
        (the kernel maps file pages in multi-megabyte folios), so
        leaving pages mapped would grow the resident set by segment
        count, not by ids returned.
        """
        self._require_finalized()
        parts = [
            np.array(segment.member_slice(item), dtype=np.int64)
            for segment in self.iter_segments()
        ]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def fold_group_counts(
        self,
        items: np.ndarray,
        already_counted: np.ndarray,
        labels: np.ndarray,
        num_groups: int,
    ) -> np.ndarray:
        """Per-``(item, group)`` fresh-coverage counts folded over segments.

        Integer accumulation of :func:`repro.utils.csr.batch_group_counts`
        per segment — sums to exactly the flat counts, so downstream gain
        vectors (counts / group RR-set counts) are bitwise-identical to
        the flat objective's.
        """
        self._require_finalized()
        total = np.zeros((items.size, num_groups), dtype=np.int64)
        for segment in self.iter_segments():
            total += batch_group_counts(
                segment.inv_indptr,
                segment.inv_indices,
                items,
                already_counted,
                labels,
                num_groups,
            )
        return total

    def hit_rows(self, node_mask: np.ndarray) -> np.ndarray:
        """Boolean per-RR-set flags: does the set contain a masked node?"""
        self._require_finalized()
        hit = np.zeros(self.num_sets, dtype=bool)
        for segment in self.iter_segments():
            entry_hits = node_mask[segment.set_indices]
            rows = segment.entry_rows_global()[entry_hits]
            hit[rows] = True
        return hit

    # -- repair ----------------------------------------------------------
    def segment_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Owning segment index of every global RR-set id."""
        self._require_finalized()
        if self._starts.size == 0:
            raise StorageError("store has no segments")
        return np.searchsorted(self._starts, global_ids, side="right") - 1

    def roots_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Roots of ``global_ids`` (ascending ids => one pass per segment)."""
        self._require_finalized()
        owners = self.segment_of(global_ids)
        parts = []
        for idx in np.unique(owners):
            segment = self.segments[idx]
            local = global_ids[owners == idx] - segment.start
            parts.append(np.asarray(segment.set_indices[segment.set_indptr[local]]))
            segment.release()
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def replace_sets(
        self,
        global_ids: np.ndarray,
        sub_indptr: np.ndarray,
        sub_indices: np.ndarray,
    ) -> int:
        """Splice replacement rows in, rewriting only the owning segments.

        ``global_ids`` must be sorted ascending (the affected-set rule
        produces them that way); row ``i`` of the packed sub-CSR replaces
        global set ``global_ids[i]``. Each touched segment is spliced,
        re-inverted and re-stored as a fresh backend revision; untouched
        segments are not read at all. Returns the number of segments
        rewritten. Set counts never change, so global ids stay stable.
        """
        self._require_finalized()
        if global_ids.size == 0:
            return 0
        if np.any(np.diff(global_ids) <= 0):
            raise StorageError("global_ids must be sorted ascending")
        owners = self.segment_of(global_ids)
        rewritten = 0
        for idx in np.unique(owners):
            segment = self.segments[idx]
            in_seg = owners == idx
            local_rows = global_ids[in_seg] - segment.start
            # Cut the matching rows out of the packed replacement CSR.
            sel = np.flatnonzero(in_seg)
            lo, hi = sel[0], sel[-1] + 1
            if not np.array_equal(sel, np.arange(lo, hi)):
                raise StorageError("global_ids must be sorted ascending")
            part_indptr = sub_indptr[lo : hi + 1] - sub_indptr[lo]
            part_indices = sub_indices[sub_indptr[lo] : sub_indptr[hi]]
            new_indptr, new_indices = splice_packed(
                np.asarray(segment.set_indptr),
                np.asarray(segment.set_indices),
                local_rows,
                part_indptr,
                part_indices,
            )
            self.segments[idx] = self._build_segment(
                segment.index, segment.start, new_indptr, new_indices
            )
            rewritten += 1
        return rewritten

    # -- accounting ------------------------------------------------------
    def resident_bytes(self) -> int:
        """Heap bytes currently pinned by segment arrays (0 when mapped)."""
        return sum(seg.resident_nbytes() for seg in self.segments)

    def on_disk_bytes(self) -> int:
        return sum(seg.on_disk_nbytes() for seg in self.segments)

    def release(self) -> None:
        for segment in self.segments:
            segment.release()

    def storage_info(self) -> dict[str, int | str]:
        """JSON-safe storage-tier summary (service ``stats`` embeds this)."""
        return {
            "store_kind": self.backend.kind,
            "segments": self.num_segments,
            "segment_bytes": self.segment_bytes,
            "num_sets": self.num_sets,
            "total_entries": self.total_entries,
            "resident_bytes": self.resident_bytes(),
            "on_disk_bytes": self.on_disk_bytes(),
        }
