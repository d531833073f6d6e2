"""Batched level-synchronous frontier engine for influence sampling.

Both halves of the influence subsystem are randomized reachability
problems over a CSR graph: an RR set is the set of nodes that reach a
root through live edges of the *transpose* graph, and an IC cascade is
the set of nodes reached from a seed set through live edges of the
forward graph. The scalar implementations (`sample_rr_set`,
`simulate_cascade`) pay one Python-level BFS per sample; at the paper's
budgets (10,000 evaluation cascades, 10^5-ish RR sets) that loop is the
dominant cost of every influence figure.

This module runs *many* samples through one BFS. All in-flight samples
share a combined frontier of ``(instance, node)`` pairs encoded as flat
``instance * n + node`` keys; each level expands the whole frontier
through the CSR arrays with one ``np.repeat``/fancy-indexing gather,
flips every frontier edge's coin in a single ``rng.random`` draw, and
dedups arrivals against a flat visited buffer — no per-node Python work.
Memory is bounded by chunking the instances so the visited buffer stays
under ``max_keys`` bools regardless of ``n`` or the sample count.

One iterator draws every RR set: :func:`sample_rr_sets_stream` yields
packed ``(set_indptr, set_indices)`` chunks under one of two laws.

* ``workers=None`` is the in-line stream: one caller-supplied generator
  drawn across chunks in order. Chunks hold ``max_keys // n`` instances
  over a dense visited buffer, or, when ``chunk_instances`` is given,
  that many instances over a sparse visited set whose memory is
  O(reached keys) (the out-of-core tier's law).
* Any integer ``workers >= 1`` is the *unit decomposition*: instances
  are split into fixed work units (sized by the visited-buffer cap and
  :data:`repro.utils.parallel.DEFAULT_UNITS`, never by the worker
  count), each unit draws from its own ``SeedSequence.spawn`` child
  stream, and units run over a persistent worker pool
  (:func:`repro.utils.parallel.parallel_imap`), yielded in unit order.
  The pool flavour is the process pin
  (:func:`repro.utils.parallel.set_default_backend`): ``"thread"``
  (default) shares the CSR triple zero-copy and releases the GIL inside
  the kernels, ``"process"`` ships it through
  ``multiprocessing.shared_memory``, ``"serial"`` runs the units
  in-process. Because the decomposition and the streams depend only on
  the inputs, results are bitwise-identical for every worker count and
  every backend — including ``workers=1``, which runs the same units
  serially in-process.

:func:`sample_rr_sets_batch` is that iterator concatenated into one
packed pair; :func:`cascade_activation_counts` runs forward cascades
through the same chunk kernel under the same two laws. ``workers`` is
the only execution setting any of the three takes.

The chunk BFS itself dispatches through :mod:`repro.kernels`: each call
resolves the active implementation set (baseline or tightened numpy,
bitwise-equal by contract) once in the caller's
process and ships its name to the pool units, so a process pool forked
before a pin change still runs the caller's choice.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.kernels import Kernel, get_kernel
from repro.utils.csr import concat_packed
from repro.utils.parallel import (
    WorkerContext,
    parallel_imap,
    parallel_map,
    spawn_seed_sequences,
    split_ranges,
    unit_size_for,
)

Adjacency = tuple[np.ndarray, np.ndarray, np.ndarray]
Packed = tuple[np.ndarray, np.ndarray]

#: Visited-buffer budget (flat ``instance * n + node`` bool keys) per
#: chunk — 32M keys = 32 MB, small enough to live in cache-friendly
#: territory while keeping chunks large enough to amortize level setup.
MAX_FLAT_KEYS = 1 << 25


def _chunk_size(n: int, max_keys: int) -> int:
    """Instances per dense chunk: the visited buffer holds ``max_keys``."""
    return max(int(max_keys) // max(n, 1), 1)


def _instance_units(
    num_instances: int, n: int, max_keys: int
) -> list[tuple[int, int]]:
    """Fixed work-unit ranges for the parallel decomposition.

    Unit size honours the visited-buffer cap (``max_keys // n``) and the
    global unit target; it depends only on the inputs, so every worker
    count sees the same units (the determinism contract).
    """
    return split_ranges(
        num_instances,
        unit_size_for(num_instances, cap=_chunk_size(n, max_keys)),
    )


def _check_roots(roots: np.ndarray, n: int) -> np.ndarray:
    """``roots`` as int64; ``IndexError`` names the first one outside ``[0, n)``."""
    roots = np.asarray(roots, dtype=np.int64)
    if roots.size and (roots.min() < 0 or roots.max() >= n):
        bad = roots[(roots < 0) | (roots >= n)][0]
        raise IndexError(f"root {bad} out of range [0, {n})")
    return roots


def _rr_chunk(
    adjacency: Adjacency,
    roots: np.ndarray,
    rng: np.random.Generator,
    impl: Kernel,
    sparse: bool = False,
) -> Packed:
    """Sample one chunk's RR sets (one per root) and pack them.

    The dense chunk keeps a ``roots.size * n`` visited buffer, the
    sparse one only the reached keys (see
    :func:`repro.kernels.baseline.reachability_chunk` and
    :func:`repro.kernels.baseline.reachability_chunk_sparse` for the
    draw law). The pack puts each set's root first.
    """
    n = adjacency[0].size - 1
    start_keys = np.arange(roots.size, dtype=np.int64) * n + roots
    if sparse:
        keys = impl.reachability_chunk_sparse(adjacency, start_keys, rng)
    else:
        keys = impl.reachability_chunk(adjacency, start_keys, roots.size, rng)
    return impl.pack_chunk_keys(keys, roots.size, n)


def _rr_pack_unit(ctx: WorkerContext, task: tuple) -> Packed:
    """Worker: sample one unit's RR sets and CSR-pack them locally."""
    roots, seed = task
    return _rr_chunk(
        ctx.arrays, roots, np.random.default_rng(seed), get_kernel(ctx.payload)
    )


def _cascade_counts(
    adjacency: Adjacency,
    seeds: np.ndarray,
    m: int,
    rng: np.random.Generator,
    impl: Kernel,
) -> np.ndarray:
    """Per-node activation counts of one chunk of ``m`` cascades."""
    n = adjacency[0].size - 1
    keys = impl.reachability_chunk(
        adjacency,
        np.repeat(np.arange(m, dtype=np.int64), seeds.size) * n
        + np.tile(seeds, m),
        m,
        rng,
    )
    return np.bincount(keys % n, minlength=n)


def _cascade_count_unit(ctx: WorkerContext, task: tuple) -> np.ndarray:
    """Worker: per-node activation counts of one unit of cascades."""
    seeds, m, seed = task
    return _cascade_counts(
        ctx.arrays, seeds, m, np.random.default_rng(seed),
        get_kernel(ctx.payload),
    )


def sample_rr_sets_stream(
    transpose_adjacency: Adjacency,
    roots: np.ndarray,
    rng: np.random.Generator,
    *,
    max_keys: int = MAX_FLAT_KEYS,
    chunk_instances: Optional[int] = None,
    workers: Optional[int] = None,
) -> Iterator[Packed]:
    """Yield packed ``(set_indptr, set_indices)`` chunks, one RR set per root.

    ``transpose_adjacency`` is the CSR triple of the transpose graph (so
    out-arcs walk original arcs backwards). Within a chunk, sample
    ``j``'s nodes occupy ``set_indices[set_indptr[j]:set_indptr[j + 1]]``,
    root first; chunks follow root order, so ``concat_packed`` over them
    is the whole collection.

    ``workers=None`` draws the chunks in-line from ``rng``: dense chunks
    of ``max_keys // n`` roots, or sparse chunks of ``chunk_instances``
    roots when that is given. The two agree bitwise whenever both cover
    the roots in one chunk (``roots.size <= min(chunk_instances,
    max_keys // n)``, which covers the bitwise-pinned small datasets);
    beyond that the sparse law is deterministic but its own. Any integer
    ``workers`` runs the unit decomposition instead (``chunk_instances``
    does not apply): units sample and pack on the pinned pool backend
    and are yielded in unit order with a bounded number in flight, so
    the result is bitwise-identical for every worker count. The caller
    that streams chunks into segments (the out-of-core tier) holds one
    chunk at a time, never the whole collection.
    """
    n = transpose_adjacency[0].size - 1
    roots = _check_roots(roots, n)
    if roots.size == 0:
        return
    impl = get_kernel()
    if workers is not None:
        units = _instance_units(roots.size, n, max_keys)
        seeds = spawn_seed_sequences(rng, len(units))
        yield from parallel_imap(
            _rr_pack_unit,
            [(roots[lo:hi], seq) for (lo, hi), seq in zip(units, seeds)],
            workers=workers,
            shared=transpose_adjacency,
            payload=impl.name,
        )
        return
    sparse = chunk_instances is not None
    chunk = max(int(chunk_instances), 1) if sparse else _chunk_size(n, max_keys)
    for lo in range(0, roots.size, chunk):
        yield _rr_chunk(
            transpose_adjacency, roots[lo:lo + chunk], rng, impl, sparse
        )


def sample_rr_sets_batch(
    transpose_adjacency: Adjacency,
    roots: np.ndarray,
    rng: np.random.Generator,
    *,
    max_keys: int = MAX_FLAT_KEYS,
    workers: Optional[int] = None,
) -> Packed:
    """Sample one RR set per root into one packed ``(set_indptr, set_indices)``.

    :func:`sample_rr_sets_stream` with dense chunks, concatenated.
    """
    return concat_packed(
        list(
            sample_rr_sets_stream(
                transpose_adjacency,
                roots,
                rng,
                max_keys=max_keys,
                workers=workers,
            )
        )
    )


def cascade_activation_counts(
    adjacency: Adjacency,
    seeds: np.ndarray,
    num_cascades: int,
    rng: np.random.Generator,
    *,
    max_keys: int = MAX_FLAT_KEYS,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Per-node activation counts over ``num_cascades`` batched IC cascades.

    Every cascade starts from the same (already validated, deduplicated)
    ``seeds`` and runs through the shared frontier engine; the result's
    entry ``v`` counts the cascades in which ``v`` became active. That is
    the sufficient statistic for both the per-group Monte-Carlo spread
    (``bincount`` over group labels) and the scalar spread (one sum) —
    the full ``(cascade, node)`` activation matrix never materializes.
    With ``workers`` set, cascade ranges run as pool units; int64 count
    vectors sum exactly, so the total is bitwise worker-count-invariant.
    """
    n = adjacency[0].size - 1
    counts = np.zeros(n, dtype=np.int64)
    if seeds.size == 0 or num_cascades == 0:
        return counts
    impl = get_kernel()
    if workers is not None:
        units = _instance_units(num_cascades, n, max_keys)
        seqs = spawn_seed_sequences(rng, len(units))
        parts = parallel_map(
            _cascade_count_unit,
            [(seeds, hi - lo, seq) for (lo, hi), seq in zip(units, seqs)],
            workers=workers,
            shared=adjacency,
            payload=impl.name,
        )
    else:
        chunk = _chunk_size(n, max_keys)
        parts = (
            _cascade_counts(
                adjacency, seeds, min(chunk, num_cascades - lo), rng, impl
            )
            for lo in range(0, num_cascades, chunk)
        )
    for part in parts:
        counts += part
    return counts
