"""CSR-style incidence helpers shared by the batch-oracle backends.

Coverage and influence both score a candidate pool by gathering each
candidate's incidence list (users covered / RR sets hit), masking the
entries the current solution already accounts for, and counting the
survivors per ``(candidate, group)`` cell. The ragged lists are stored
flattened (``indptr``/``indices``, as in a CSR sparse matrix) so the
whole pool is one NumPy gather plus one ``bincount`` pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def build_csr(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ragged ``arrays`` into ``(indptr, indices)``.

    Entry ``j``'s values occupy ``indices[indptr[j]:indptr[j + 1]]``.
    """
    lengths = np.asarray([np.asarray(a).size for a in arrays], dtype=np.int64)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])
    if lengths.sum():
        indices = np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays])
    else:
        indices = np.zeros(0, dtype=np.int64)
    return indptr, indices


def stable_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """The stable sorting permutation of integer ``keys`` in ``[0, num_keys)``.

    An LSD radix sort over 16-bit digits: numpy sorts ``uint16`` keys
    with a stable counting (radix) sort in O(len) per digit, where the
    general stable sort of ``int64`` keys is a comparison sort. Stable
    permutations are unique, so this equals
    ``np.argsort(keys, kind="stable")``.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while num_keys > 1 << shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def invert_csr(
    indptr: np.ndarray, indices: np.ndarray, num_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert a packed row->cols mapping into its col->rows CSR.

    Returns ``(inv_indptr, inv_rows, order)``: column ``c``'s owning rows
    occupy ``inv_rows[inv_indptr[c]:inv_indptr[c + 1]]`` in increasing
    row order (one stable counting sort — within a column, flattened
    entries keep row order). ``order`` is the sorting permutation of the
    packed entries, so per-entry payloads travel along via
    ``payload[order]`` (the graph transpose permutes its edge
    probabilities this way).
    """
    order = stable_order(indices, num_cols)
    rows = np.repeat(
        np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
    )
    inv_indptr = np.zeros(num_cols + 1, dtype=np.int64)
    inv_indptr[1:] = np.cumsum(np.bincount(indices, minlength=num_cols))
    return inv_indptr, rows[order], order


def gather_csr_slices(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of every CSR entry of ``rows``, plus each entry's owner.

    Returns ``(positions, owners)`` where ``positions`` indexes the CSR
    data arrays and ``owners[t]`` is the index into ``rows`` whose slice
    produced ``positions[t]`` — the repeat/fancy-index gather that
    :func:`batch_group_counts` and the sampling engine's frontier
    expansion are built on.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    ends = np.cumsum(lengths)
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )
    owners = np.repeat(np.arange(rows.size, dtype=np.int64), lengths)
    return positions, owners


def concat_packed(
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate packed ``(indptr, indices)`` pairs into one pair."""
    if not parts:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    indptrs, indices = zip(*parts)
    offsets = np.cumsum([0] + [ptr[-1] for ptr in indptrs[:-1]])
    merged_ptr = np.concatenate(
        [indptrs[0][:1]] + [ptr[1:] + off for ptr, off in zip(indptrs, offsets)]
    )
    return merged_ptr, np.concatenate(indices)


def splice_packed(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    sub_indptr: np.ndarray,
    sub_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace the slices of ``rows`` with the rows of a packed sub-CSR.

    Row ``rows[i]`` of ``(indptr, indices)`` is replaced by row ``i`` of
    ``(sub_indptr, sub_indices)``; all other rows keep their entries and
    order. Returns a fresh ``(indptr, indices)`` pair — row count is
    unchanged, total size shifts by the length difference of the
    replaced slices. ``rows`` must be duplicate-free.
    """
    num_rows = indptr.size - 1
    if sub_indptr.size - 1 != rows.size:
        raise ValueError(
            f"sub CSR has {sub_indptr.size - 1} rows, expected {rows.size}"
        )
    new_lengths = np.diff(indptr).copy()
    new_lengths[rows] = np.diff(sub_indptr)
    out_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(new_lengths, out=out_indptr[1:])
    out_indices = np.empty(int(out_indptr[-1]), dtype=indices.dtype)
    # Kept rows: one flat gather from the old arrays.
    keep_mask = np.ones(num_rows, dtype=bool)
    keep_mask[rows] = False
    kept = np.flatnonzero(keep_mask)
    src_pos, _ = gather_csr_slices(indptr, kept)
    dst_pos, _ = gather_csr_slices(out_indptr, kept)
    out_indices[dst_pos] = indices[src_pos]
    # Replaced rows: scatter the sub-CSR into the new slots.
    sub_pos, _ = gather_csr_slices(out_indptr, rows)
    out_indices[sub_pos] = sub_indices
    return out_indptr, out_indices


def merge_sorted_disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted arrays with no common elements into one sorted array.

    Linear-ish (`searchsorted` + scatter) alternative to re-sorting the
    concatenation: used by the incremental inverted-index repair, where
    the surviving entry keys and the freshly resampled entry keys are
    disjoint by construction (they belong to different RR-set ids).
    """
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    pos_b = np.searchsorted(a, b, side="left")
    idx_b = pos_b + np.arange(b.size, dtype=np.int64)
    mask = np.ones(out.size, dtype=bool)
    mask[idx_b] = False
    out[idx_b] = b
    out[mask] = a
    return out


def segment_spans(
    indptr: np.ndarray, max_entries: int
) -> list[tuple[int, int]]:
    """Cut a packed CSR into row spans of at most ``max_entries`` entries.

    Returns ``[(row_lo, row_hi), ...]`` covering all rows in order. Every
    span holds at least one row, so a single row larger than
    ``max_entries`` gets a span of its own rather than failing — segment
    byte budgets are targets, not hard guarantees, for pathological rows.
    """
    num_rows = indptr.size - 1
    if num_rows <= 0:
        return []
    max_entries = max(int(max_entries), 1)
    spans: list[tuple[int, int]] = []
    lo = 0
    while lo < num_rows:
        # Largest hi with indptr[hi] - indptr[lo] <= max_entries …
        hi = int(
            np.searchsorted(indptr, indptr[lo] + max_entries, side="right")
        ) - 1
        hi = min(max(hi, lo + 1), num_rows)  # … but always take ≥ 1 row.
        spans.append((lo, hi))
        lo = hi
    return spans


def invert_csr_segment(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_cols: int,
    row_offset: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment-aware :func:`invert_csr`: rows are reported as global ids.

    The segmented RR store keeps one inverted index per segment whose
    entries are *global* RR-set ids (``local row + row_offset``), so that
    per-segment results concatenate into exactly the flat inverted index:
    segment starts increase, hence each column's ids stay sorted across
    the concatenation. The ``order`` permutation of :func:`invert_csr` is
    dropped — segments carry no per-entry payloads.
    """
    inv_indptr, inv_rows, _ = invert_csr(indptr, indices, num_cols)
    return inv_indptr, inv_rows + np.int64(row_offset)


def batch_group_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    items: np.ndarray,
    already_counted: np.ndarray,
    labels: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Per-``(item, group)`` counts of *fresh* incidence entries.

    For each requested item, gathers its slice of ``indices``, drops the
    entries flagged in the boolean ``already_counted`` mask, maps the
    survivors through ``labels`` and counts them per group — all in one
    flat ``bincount`` pass. Returns an integer array of shape
    ``(len(items), num_groups)``.
    """
    starts = indptr[items]
    lengths = indptr[items + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros((items.size, num_groups), dtype=np.int64)
    ends = np.cumsum(lengths)
    # Flat gather of every requested slice, tagged by the row (candidate)
    # it belongs to: position t of row r maps to indices[starts[r] + t].
    flat = np.arange(total) + np.repeat(starts - (ends - lengths), lengths)
    entries = indices[flat]
    row_id = np.repeat(np.arange(items.size), lengths)
    fresh = ~already_counted[entries]
    bins = row_id[fresh] * num_groups + labels[entries[fresh]]
    return np.bincount(bins, minlength=items.size * num_groups).reshape(
        items.size, num_groups
    )
