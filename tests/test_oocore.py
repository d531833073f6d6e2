"""Out-of-core storage tier: backends, segments, and bitwise identity.

The load-bearing claim of the segmented store is that it changes *where
bytes live*, never *what gets computed*: segmented sampling, coverage,
greedy selection and repair must be bitwise-identical to the flat
in-RAM path. These tests pin that identity on the five CLI datasets and
on hand-built multi-segment stores, alongside unit coverage of the
backend layer and the resident-byte accounting fix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import greedy_utility
from repro.core.functions import AverageUtility
from repro.core.greedy import greedy_max
from repro.core.problem import BSMProblem
from repro.datasets.registry import load_dataset
from repro.errors import StorageError
from repro.influence.engine import (
    MAX_FLAT_KEYS,
    sample_rr_sets_batch,
    sample_rr_sets_stream,
)
from repro.influence.ris import (
    SegmentedRRCollection,
    affected_rr_sets,
    repair_rr_collection,
    sample_rr_collection,
    segment_bytes_for,
)
from repro.problems.influence import InfluenceObjective
from repro.storage import (
    MmapBackend,
    RamBackend,
    SegmentedRRStore,
    release_array,
    resident_nbytes,
    resolve_backend,
)
from repro.utils.caching import estimate_nbytes
from repro.utils.csr import (
    batch_group_counts,
    invert_csr,
    invert_csr_segment,
    segment_spans,
)
from repro.utils.parallel import set_default_backend

#: The five influence datasets the CLI exposes (mirrors test_repair.py).
CLI_DATASETS = [
    ("rand-im-c2", {}),
    ("rand-im-c4", {}),
    ("facebook-im-c2", {"num_nodes": 400}),
    ("facebook-im-c4", {"num_nodes": 400}),
    ("dblp-im", {"num_nodes": 600}),
]

SAMPLES = 1_500


def _flat_and_segmented(name, overrides, *, seed=7, samples=SAMPLES, budget=1 << 22):
    data = load_dataset(name, seed=0, **overrides)
    flat = InfluenceObjective.from_graph(data.graph, samples, seed=seed)
    seg = InfluenceObjective.from_graph(
        data.graph, samples, seed=seed, store="mmap", memory_budget=budget
    )
    return data.graph, flat, seg


# ---------------------------------------------------------------------------
# Backend layer
# ---------------------------------------------------------------------------
class TestBackends:
    def test_ram_backend_round_trip(self):
        backend = RamBackend()
        arr = np.arange(10, dtype=np.int64)
        stored = backend.store("a", arr)
        assert np.array_equal(stored, arr)
        assert backend.kind == "ram"

    def test_mmap_backend_round_trip_and_kind(self):
        with MmapBackend() as backend:
            arr = np.arange(17, dtype=np.int64)
            stored = backend.store("a", arr)
            assert isinstance(stored, np.memmap)
            assert np.array_equal(np.asarray(stored), arr)
            assert backend.kind == "mmap"

    def test_mmap_backend_revisions_replace_old_file(self):
        with MmapBackend() as backend:
            first = backend.store("x", np.arange(4, dtype=np.int64))
            second = backend.store("x", np.arange(8, dtype=np.int64))
            # Old revision stays readable (POSIX unlink semantics) while
            # the new one holds the new contents.
            assert np.array_equal(np.asarray(first), np.arange(4))
            assert np.array_equal(np.asarray(second), np.arange(8))
            assert backend.on_disk_nbytes() == 8 * 8

    def test_mmap_backend_zero_length_array(self):
        with MmapBackend() as backend:
            stored = backend.store("empty", np.zeros(0, dtype=np.int64))
            assert stored.size == 0

    def test_resolve_backend(self, tmp_path):
        assert resolve_backend("ram").kind == "ram"
        backend = resolve_backend("mmap", directory=tmp_path)
        assert backend.kind == "mmap"
        backend.close()
        with pytest.raises(StorageError):
            resolve_backend("tape")

    def test_resident_nbytes_and_release(self):
        heap = np.arange(100, dtype=np.int64)
        assert resident_nbytes(heap) == heap.nbytes
        with MmapBackend() as backend:
            mapped = backend.store("a", heap)
            assert resident_nbytes(mapped) == 0
            assert resident_nbytes(mapped[10:50]) == 0
            release_array(mapped)  # must not raise
            assert np.array_equal(np.asarray(mapped), heap)


class TestEstimateNbytesMemmap:
    """Satellite: np.memmap counts as resident-zero in cache accounting."""

    def test_memmap_is_resident_zero(self, tmp_path):
        path = tmp_path / "arr.bin"
        np.arange(1000, dtype=np.int64).tofile(path)
        mapped = np.memmap(path, dtype=np.int64, mode="r")
        assert estimate_nbytes(mapped) == 0

    def test_memmap_view_is_resident_zero(self, tmp_path):
        path = tmp_path / "arr.bin"
        np.arange(1000, dtype=np.int64).tofile(path)
        mapped = np.memmap(path, dtype=np.int64, mode="r")
        assert estimate_nbytes(mapped[100:900]) == 0

    def test_heap_array_still_counted(self):
        arr = np.arange(1000, dtype=np.int64)
        assert estimate_nbytes(arr) == arr.nbytes
        assert estimate_nbytes(arr[100:900]) == arr[100:900].nbytes


# ---------------------------------------------------------------------------
# CSR segment helpers
# ---------------------------------------------------------------------------
class TestSegmentHelpers:
    def test_segment_spans_cover_all_rows(self):
        indptr = np.array([0, 3, 5, 9, 9, 14, 15], dtype=np.int64)
        spans = segment_spans(indptr, 5)
        assert spans[0][0] == 0 and spans[-1][1] == 6
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        for lo, hi in spans:
            entries = int(indptr[hi] - indptr[lo])
            assert hi - lo >= 1
            assert entries <= 5 or hi - lo == 1

    def test_segment_spans_oversized_row_gets_own_span(self):
        indptr = np.array([0, 100, 101], dtype=np.int64)
        assert segment_spans(indptr, 5) == [(0, 1), (1, 2)]

    def test_segment_spans_empty(self):
        assert segment_spans(np.zeros(1, dtype=np.int64), 5) == []

    def test_invert_csr_segment_offsets_rows(self):
        indptr = np.array([0, 2, 3, 6], dtype=np.int64)
        indices = np.array([1, 4, 1, 0, 1, 4], dtype=np.int64)
        inv_indptr, inv_rows = invert_csr_segment(indptr, indices, 5, 100)
        flat_indptr, flat_rows, _ = invert_csr(indptr, indices, 5)
        assert np.array_equal(inv_indptr, flat_indptr)
        assert np.array_equal(inv_rows, flat_rows + 100)


# ---------------------------------------------------------------------------
# Segmented store vs flat arrays (hand-built, multi-segment)
# ---------------------------------------------------------------------------
def _random_packed(rng, num_sets, num_nodes):
    sets = [
        np.unique(rng.integers(0, num_nodes, size=rng.integers(1, 8)))
        for _ in range(num_sets)
    ]
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    indices = np.concatenate(sets).astype(np.int64)
    return indptr, indices


def _chunked(indptr, indices, chunk_rows):
    for lo in range(0, indptr.size - 1, chunk_rows):
        hi = min(lo + chunk_rows, indptr.size - 1)
        yield (
            indptr[lo : hi + 1] - indptr[lo],
            indices[indptr[lo] : indptr[hi]],
        )


class TestSegmentedStore:
    NUM_NODES = 60
    NUM_SETS = 400

    def _store(self, indptr, indices, backend=None, segment_bytes=2_048):
        backend = backend or MmapBackend()
        # 2 KB segments => 128 entries => many segments for ~1 600 entries.
        return SegmentedRRStore.from_chunks(
            _chunked(indptr, indices, 37),
            self.NUM_NODES,
            backend,
            segment_bytes=segment_bytes,
        )

    def test_multi_segment_member_ids_equal_flat_inverted_index(self):
        rng = np.random.default_rng(0)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices)
        assert store.num_segments >= 3
        assert store.num_sets == self.NUM_SETS
        assert store.total_entries == indices.size
        inv_indptr, inv_rows, _ = invert_csr(indptr, indices, self.NUM_NODES)
        for node in range(self.NUM_NODES):
            flat = inv_rows[inv_indptr[node] : inv_indptr[node + 1]]
            assert np.array_equal(store.member_ids(node), flat)

    def test_fold_group_counts_equal_flat_counts(self):
        rng = np.random.default_rng(1)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices)
        inv_indptr, inv_rows, _ = invert_csr(indptr, indices, self.NUM_NODES)
        labels = rng.integers(0, 3, size=self.NUM_SETS)
        covered = rng.random(self.NUM_SETS) < 0.3
        items = np.arange(self.NUM_NODES, dtype=np.int64)
        flat = batch_group_counts(inv_indptr, inv_rows, items, covered, labels, 3)
        folded = store.fold_group_counts(items, covered, labels, 3)
        assert np.array_equal(folded, flat)

    def test_roots_and_hit_rows(self):
        rng = np.random.default_rng(2)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices)
        assert np.array_equal(store.roots(), indices[indptr[:-1]])
        mask = np.zeros(self.NUM_NODES, dtype=bool)
        mask[rng.integers(0, self.NUM_NODES, size=5)] = True
        expected = np.array(
            [
                bool(mask[indices[indptr[i] : indptr[i + 1]]].any())
                for i in range(self.NUM_SETS)
            ]
        )
        assert np.array_equal(store.hit_rows(mask), expected)

    def test_replace_sets_rewrites_only_owning_segments(self):
        rng = np.random.default_rng(3)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices)
        untouched = store.segments[-1]
        # Replace three sets that all live in the first segments.
        targets = np.array([0, 5, 40], dtype=np.int64)
        sub_indptr = np.array([0, 2, 4, 5], dtype=np.int64)
        sub_indices = np.array([7, 9, 1, 3, 11], dtype=np.int64)
        rewritten = store.replace_sets(targets, sub_indptr, sub_indices)
        assert 1 <= rewritten <= 2
        assert store.segments[-1] is untouched
        assert 40 in store.member_ids(11)
        from repro.utils.csr import splice_packed

        ref_indptr, ref_indices = splice_packed(
            indptr, indices, targets, sub_indptr, sub_indices
        )
        ref_inv_indptr, ref_inv_rows, _ = invert_csr(
            ref_indptr, ref_indices, self.NUM_NODES
        )
        for node in range(self.NUM_NODES):
            flat = ref_inv_rows[ref_inv_indptr[node] : ref_inv_indptr[node + 1]]
            assert np.array_equal(store.member_ids(node), flat)

    def test_replace_sets_rejects_unsorted_ids(self):
        rng = np.random.default_rng(4)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices)
        with pytest.raises(StorageError, match="sorted ascending"):
            store.replace_sets(
                np.array([40, 0], dtype=np.int64),
                np.array([0, 1, 2], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
            )

    def test_storage_info_and_accounting(self):
        rng = np.random.default_rng(5)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices)
        info = store.storage_info()
        assert info["store_kind"] == "mmap"
        assert info["segments"] == store.num_segments
        assert info["num_sets"] == self.NUM_SETS
        assert info["on_disk_bytes"] > 0
        # Memory-mapped segments are resident-zero for cache accounting.
        assert store.resident_bytes() == 0

    def test_ram_backend_store_counts_resident(self):
        rng = np.random.default_rng(6)
        indptr, indices = _random_packed(rng, self.NUM_SETS, self.NUM_NODES)
        store = self._store(indptr, indices, backend=RamBackend())
        assert store.resident_bytes() > 0

    def test_unfinalized_store_refuses_queries(self):
        backend = MmapBackend()
        store = SegmentedRRStore(self.NUM_NODES, backend, segment_bytes=2048)
        store.append_chunk(
            np.array([0, 2], dtype=np.int64), np.array([1, 2], dtype=np.int64)
        )
        with pytest.raises(StorageError, match="finalized"):
            store.member_ids(1)
        store.finalize()
        with pytest.raises(StorageError, match="finalized"):
            store.append_chunk(
                np.array([0, 1], dtype=np.int64),
                np.array([3], dtype=np.int64),
            )


# ---------------------------------------------------------------------------
# Sampling stream equivalence
# ---------------------------------------------------------------------------
class TestSamplingStream:
    def test_stream_flat_law_matches_batch(self):
        data = load_dataset("rand-im-c2", seed=0)
        graph = data.graph
        transpose = graph.transpose_adjacency()
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        roots = np.random.default_rng(9).integers(0, graph.num_nodes, size=500)
        roots = roots.astype(np.int64)
        flat_indptr, flat_indices = sample_rr_sets_batch(transpose, roots, rng_a)
        parts = list(sample_rr_sets_stream(transpose, roots, rng_b))
        from repro.utils.csr import concat_packed

        indptr, indices = concat_packed(parts)
        assert np.array_equal(indptr, flat_indptr)
        assert np.array_equal(indices, flat_indices)

    def test_sparse_chunk_matches_dense_when_chunking_agrees(self):
        # Chunk size chosen >= the root count on both laws, so the dense
        # flat chunk and the sparse stream chunk see identical draws.
        data = load_dataset("rand-im-c2", seed=0)
        graph = data.graph
        transpose = graph.transpose_adjacency()
        roots = np.random.default_rng(9).integers(0, graph.num_nodes, size=400)
        roots = roots.astype(np.int64)
        assert MAX_FLAT_KEYS // graph.num_nodes >= roots.size
        flat_indptr, flat_indices = sample_rr_sets_batch(
            transpose, roots, np.random.default_rng(42)
        )
        parts = list(
            sample_rr_sets_stream(
                transpose,
                roots,
                np.random.default_rng(42),
                chunk_instances=roots.size,
            )
        )
        from repro.utils.csr import concat_packed

        indptr, indices = concat_packed(parts)
        assert np.array_equal(indptr, flat_indptr)
        assert np.array_equal(indices, flat_indices)


# ---------------------------------------------------------------------------
# End-to-end bitwise identity on the CLI datasets
# ---------------------------------------------------------------------------
class TestSegmentedIdentity:
    @pytest.mark.parametrize("name,overrides", CLI_DATASETS)
    def test_greedy_selection_bitwise_identical(self, name, overrides):
        _, flat, seg = _flat_and_segmented(name, overrides)
        assert isinstance(seg.collection, SegmentedRRCollection)
        assert np.array_equal(
            np.asarray(flat.collection.roots),
            np.asarray(seg.collection.roots),
        )
        r_flat = greedy_utility(flat, 8)
        r_seg = greedy_utility(seg, 8)
        assert r_flat.solution == r_seg.solution
        assert r_flat.utility == r_seg.utility
        assert r_flat.fairness == r_seg.fairness
        assert np.array_equal(
            np.asarray(r_flat.group_values), np.asarray(r_seg.group_values)
        )

    @pytest.mark.parametrize("name,overrides", CLI_DATASETS[:2])
    def test_plain_and_lazy_greedy_agree_on_segmented(self, name, overrides):
        _, _, seg = _flat_and_segmented(name, overrides)
        assert (
            greedy_max(seg, AverageUtility(), 6, lazy=False)[0].solution
            == greedy_max(seg, AverageUtility(), 6, lazy=True)[0].solution
        )

    def test_bsm_solver_identical_on_segmented(self):
        _, flat, seg = _flat_and_segmented("rand-im-c2", {})
        r_flat = BSMProblem(flat, k=6, tau=0.5).solve("bsm-saturate")
        r_seg = BSMProblem(seg, k=6, tau=0.5).solve("bsm-saturate")
        assert r_flat.solution == r_seg.solution
        assert r_flat.utility == r_seg.utility

    def test_coverage_and_member_ids_identical(self):
        graph, flat, seg = _flat_and_segmented("facebook-im-c2", {"num_nodes": 400})
        seeds = [0, 17, 311]
        assert np.array_equal(
            np.asarray(flat.collection.coverage(seeds)),
            np.asarray(seg.collection.coverage(seeds)),
        )
        for node in range(0, graph.num_nodes, 23):
            assert np.array_equal(
                np.asarray(flat._member_ids(node)),
                np.asarray(seg._member_ids(node)),
            )

    def test_memory_accounting_segmented_vs_flat(self):
        _, flat, seg = _flat_and_segmented("rand-im-c2", {})
        # The segmented objective keeps only O(num_sets) bookkeeping on
        # the heap; the packed sets and inverted index live on disk.
        assert seg.memory_bytes() < flat.memory_bytes()
        info = seg.storage_info()
        assert info["store_kind"] == "mmap"
        assert info["segments"] >= 1
        assert info["on_disk_bytes"] > 0
        flat_info = flat.storage_info()
        assert flat_info["store_kind"] == "ram"
        assert flat_info["segments"] == 0
        assert flat_info["on_disk_bytes"] == 0

    def test_segment_bytes_for(self):
        from repro.storage.segments import DEFAULT_SEGMENT_BYTES

        assert segment_bytes_for(None) == DEFAULT_SEGMENT_BYTES
        assert segment_bytes_for(256 << 20) == 16 << 20
        assert segment_bytes_for(1 << 20) == 1 << 20  # clamp floor
        assert segment_bytes_for(1 << 40) == 256 << 20  # clamp ceiling
        with pytest.raises(ValueError):
            segment_bytes_for(0)

    @pytest.mark.parametrize("exec_backend", ["serial", "thread", "process"])
    def test_segmented_workers_match_flat_workers(self, exec_backend):
        # The mmap tier accepts workers: units stream through a bounded
        # window and append in unit order, so the stored sets are
        # bitwise those of the flat workers path — for every backend.
        data = load_dataset("rand-im-c2", seed=0)
        flat = sample_rr_collection(data.graph, 150, seed=11, workers=2)
        set_default_backend(exec_backend)
        seg = sample_rr_collection(
            data.graph, 150, seed=11, store="mmap", workers=2
        )
        from repro.utils.csr import concat_packed

        seg_indptr, seg_indices = concat_packed(
            [
                (np.asarray(s.set_indptr), np.asarray(s.set_indices))
                for s in seg.store.iter_segments(release=False)
            ]
        )
        assert np.array_equal(flat.set_indptr, seg_indptr)
        assert np.array_equal(flat.set_indices, seg_indices)
        assert np.array_equal(flat.root_groups, seg.root_groups)

    def test_unknown_store_kind_rejected(self):
        data = load_dataset("rand-im-c2", seed=0)
        with pytest.raises(StorageError):
            sample_rr_collection(data.graph, 100, seed=1, store="tape")


# ---------------------------------------------------------------------------
# Repair within segments
# ---------------------------------------------------------------------------
def _mutate_arcs(graph, count, *, seed=13, factor=2.5):
    rng = np.random.default_rng(seed)
    arcs = list(graph.edges())
    picks = rng.choice(len(arcs), size=min(count, len(arcs)), replace=False)
    for i in picks:
        u, v, p = arcs[i]
        graph.set_arc_probability(u, v, min(0.95, p * factor))


class TestSegmentedRepair:
    @pytest.mark.parametrize("name,overrides", CLI_DATASETS)
    def test_repair_identical_to_flat_repair(self, name, overrides):
        data = load_dataset(name, seed=0, **overrides)
        graph = data.graph
        flat = sample_rr_collection(graph, SAMPLES, seed=7)
        seg = sample_rr_collection(
            graph, SAMPLES, seed=7, store="mmap", memory_budget=1 << 22
        )
        v0 = graph.version
        _mutate_arcs(graph, 8)
        delta = graph.mutations_since(v0)
        assert np.array_equal(
            affected_rr_sets(flat, delta), affected_rr_sets(seg, delta)
        )
        r_flat = repair_rr_collection(flat, graph, delta, seed=7)
        r_seg = repair_rr_collection(seg, graph, delta, seed=7)
        assert np.array_equal(r_flat.affected, r_seg.affected)
        assert np.array_equal(np.asarray(flat.roots), np.asarray(seg.roots))
        seeds = list(range(0, graph.num_nodes, 37))
        assert np.array_equal(
            np.asarray(flat.coverage(seeds)), np.asarray(seg.coverage(seeds))
        )
        # Full inverted-index identity after the splice.
        inv_indptr, inv_rows, _ = invert_csr(
            flat.set_indptr, flat.set_indices, flat.num_nodes
        )
        for node in range(0, graph.num_nodes, 17):
            assert np.array_equal(
                seg.store.member_ids(node),
                inv_rows[inv_indptr[node] : inv_indptr[node + 1]],
            )

    def test_objective_refresh_repairs_segmented_state(self):
        data = load_dataset("rand-im-c2", seed=0)
        graph = data.graph
        flat = InfluenceObjective.from_graph(graph, SAMPLES, seed=7)
        seg = InfluenceObjective.from_graph(
            graph, SAMPLES, seed=7, store="mmap", memory_budget=1 << 22
        )
        _mutate_arcs(graph, 6)
        res_flat = flat.refresh()
        res_seg = seg.refresh()
        assert not res_seg.full_resample
        assert res_flat.sets_repaired == res_seg.sets_repaired
        assert greedy_utility(flat, 8).solution == greedy_utility(seg, 8).solution

    def test_no_op_delta_is_free(self):
        data = load_dataset("rand-im-c2", seed=0)
        seg = InfluenceObjective.from_graph(
            data.graph, SAMPLES, seed=7, store="mmap", memory_budget=1 << 22
        )
        result = seg.refresh()
        assert result.sets_repaired == 0
        assert not result.full_resample
