"""Frozen outputs of every RR-set sampling entry point.

Each constant is a sha256 over the packed ``(set_indptr, set_indices)``
arrays (dtype, shape and bytes) plus the root groups of one sampled
collection, or over the activation-count vector of one cascade batch.
A refactor of the sampling engine, the collection builders, IMM, the
repair path or the LT/triggering walks that moves any drawn bit moves
the hash. The ``ram`` and ``mmap`` stores share one constant per case,
since both must hold the same bits. The constants were computed before
the sampling entry points were folded into one iterator, and must not
move. The default run covers the store x workers x root-law grid on
the resolved kernel; the kernel x ``workers`` in ``{1, 2, 4}`` grid is
marked ``slow`` and must reproduce the ``workers=2`` constants, since
the unit decomposition is worker-count and kernel invariant.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.influence import ris
from repro.influence.engine import (
    cascade_activation_counts,
    sample_rr_sets_batch,
)
from repro.influence.imm import imm_rr_collection
from repro.influence.lt_model import LTModel
from repro.influence.ris import (
    SegmentedRRCollection,
    repair_rr_collection,
    repair_seed_sequence,
    sample_rr_collection,
)
from repro.influence.triggering import (
    TriggeringModel,
    lt_trigger_sampler,
    topk_trigger_sampler,
)
from repro.kernels import available_kernels, set_default_kernel
from repro.storage.backend import resolve_backend
from repro.utils.csr import concat_packed

DATASETS = ("rand-im-c2", "facebook-im-c2")
SAMPLES = 300
#: Visited-buffer cap small enough that 400 roots on ``rand-im-c2``
#: (100 nodes) sample in three chunks.
SMALL_MAX_KEYS = 1 << 14

FINGERPRINTS = {
    ('collection', 'rand-im-c2', None, True): "3b1adc0a24bc941b263fbe52c1bf54cfbece0e4f7edeab4eb2855a8e2436f803",
    ('collection', 'rand-im-c2', None, False): "4c2696de5ce3f264d13a89eec4bffa2301d1d0e4ac0e2153cfb2d09f01456e2e",
    ('collection', 'rand-im-c2', 2, True): "5e1e38d3751b6c58d138a80762715bfd2c2fd4b7da2a58db59a13e8693aff368",
    ('collection', 'rand-im-c2', 2, False): "0678ad954f32eead821e7f0c2d4ceb678b25ec0b900ba5f7df772ec5f5c96d80",
    ('collection', 'facebook-im-c2', None, True): "5cc136bda8e5985e0b9b5c24f5444e3fd2baabfe1960344f2fcf4469390735d9",
    ('collection', 'facebook-im-c2', None, False): "5887c6c0a94d21db7a94337c9f0d835a03be5f8c513fe45c67e7c96be1cde1dc",
    ('collection', 'facebook-im-c2', 2, True): "777f05bea6560af64f226cdaa7592d04b305a1b983a0a03b5b74a5572dd46f53",
    ('collection', 'facebook-im-c2', 2, False): "82a86922caf3a337fb9d631d73379558bcff55ab1a43c49f3047ad62b2462971",
    'segmented-chunks': "80ca0204592d5290dc0e86c9fbc938c408e930c7e27a2fb8c85c20e6ca16e136",
    ('batch', None): "f4d2fbb2f3324b87a2c1b16c532f4ecb4c62b75464aa7ba1e67ae12ccd9d1ee9",
    ('cascade', None): "db744a47b96861701ee97a610dd77b67a71e92238c91cdee30211c928ece4704",
    ('imm', None, True): "4da0261ebf572166bcbe2ce6625dd853aa491ef7a1f7ca94a927953007f676b2",
    ('imm', None, False): "d7db5819bdd6dc798046166ce7c0adbb6e4f973fa2f33262042f9774a216fedb",
    ('batch', 2): "aabf30e4587ee7f3b3be63fb73fbe8c29d6d3be9c2372c76d1138b9a7214686f",
    ('cascade', 2): "18b5349ffc5e8e73e966d95fd72ab0021ae88eb7d0b3bd56a18ea2a1c8c35b26",
    ('imm', 2, True): "c51a3ec431739280dbe703361b4d6715cd53eca9e4158fc91f23437143a4640f",
    ('imm', 2, False): "380a655ec9262e4649e196add29425fb63b214a65cb5bb3d30656ae2df29114a",
    'repair': "06da0759ccd6c0e9d7c8b20f9633efe6a1eb968e4bcd6ecd10251f85363170e2",
    ('walks', 'lt-degree', True): "55d4826fb0bc1e137dce8086f958b2d6be80788e551da98946a1b01272974dcf",
    ('walks', 'lt-degree', False): "2b6da9b78985e8cca653680c69dece2b7950e8735725196c5356ad4f8c05083e",
    ('walks', 'lt-probability', True): "4ecde42fc9e307e6ff1d99037bb6ee9589a6b7dd1a2d8c111736685bd86c943d",
    ('walks', 'lt-probability', False): "5b4d1a60b8522ec874800e9d796e464b7162ed66cd6922279bee5443d8528452",
    ('walks', 'trig-ic', True): "80a8df74412ae06fad798b28bc916b80ae5f50d6c79d2d8b95937bb3a51e07a4",
    ('walks', 'trig-ic', False): "95630983012e3dfa469feb38443cf4e73483542473e714671c25f304faa51d81",
    ('walks', 'trig-lt', True): "4ecde42fc9e307e6ff1d99037bb6ee9589a6b7dd1a2d8c111736685bd86c943d",
    ('walks', 'trig-lt', False): "5b4d1a60b8522ec874800e9d796e464b7162ed66cd6922279bee5443d8528452",
    ('walks', 'trig-topk', True): "5f264b4dde91877fd4aefe4b9c9d5cf9b80232c04360460d576acdf44e6a7b94",
    ('walks', 'trig-topk', False): "9dd01066c053948ba2f628108b116707937004d2237cbb695204b2c487449dd3",
}


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _packed(collection) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(collection, SegmentedRRCollection):
        return concat_packed(
            [
                (np.asarray(s.set_indptr), np.asarray(s.set_indices))
                for s in collection.store.iter_segments(release=False)
            ]
        )
    return collection.set_indptr, collection.set_indices


def _collection_digest(collection) -> str:
    return _digest(*_packed(collection), collection.root_groups)


def _collection(name, store, workers, stratified, tmp_path):
    backend = (
        resolve_backend("mmap", directory=str(tmp_path))
        if store == "mmap" else None
    )
    return sample_rr_collection(
        load_dataset(name, seed=0).graph,
        SAMPLES,
        seed=11,
        stratified=stratified,
        workers=workers,
        store=store,
        backend=backend,
    )


def _roots(graph, size: int) -> np.ndarray:
    return np.random.default_rng(9).integers(0, graph.num_nodes, size=size)


def _batch_digest(workers) -> str:
    graph = load_dataset("rand-im-c2", seed=0).graph
    return _digest(
        *sample_rr_sets_batch(
            graph.transpose_adjacency(),
            _roots(graph, 400),
            np.random.default_rng(5),
            max_keys=SMALL_MAX_KEYS,
            workers=workers,
        )
    )


def _cascade_digest(workers) -> str:
    graph = load_dataset("rand-im-c2", seed=0).graph
    return _digest(
        cascade_activation_counts(
            graph.out_adjacency(),
            np.asarray([0, 7, 42], dtype=np.int64),
            500,
            np.random.default_rng(6),
            max_keys=SMALL_MAX_KEYS,
            workers=workers,
        )
    )


# ---------------------------------------------------------------------------
# sample_rr_collection: store x workers x root law
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("store", ["ram", "mmap"])
@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("stratified", [True, False])
def test_rr_collection_is_frozen(name, store, workers, stratified, tmp_path):
    collection = _collection(name, store, workers, stratified, tmp_path)
    assert _collection_digest(collection) == FINGERPRINTS[
        "collection", name, workers, stratified
    ]


def test_segmented_multi_chunk_law_is_frozen(tmp_path, monkeypatch):
    # Several sparse chunks per collection: the out-of-core law on a
    # graph too large for one chunk.
    monkeypatch.setattr(ris, "SEGMENT_CHUNK_INSTANCES", 64)
    collection = _collection("rand-im-c2", "mmap", None, True, tmp_path)
    assert _collection_digest(collection) == FINGERPRINTS["segmented-chunks"]


# ---------------------------------------------------------------------------
# Engine entry points
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [None, 2])
def test_multi_chunk_batch_is_frozen(workers):
    assert _batch_digest(workers) == FINGERPRINTS["batch", workers]


@pytest.mark.parametrize("workers", [None, 2])
def test_cascade_counts_are_frozen(workers):
    assert _cascade_digest(workers) == FINGERPRINTS["cascade", workers]


# ---------------------------------------------------------------------------
# IMM pool and repair
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("stratified", [True, False])
def test_imm_collection_is_frozen(workers, stratified):
    result = imm_rr_collection(
        load_dataset("rand-im-c2", seed=0).graph,
        3,
        stratified=stratified,
        max_samples=600,
        seed=5,
        workers=workers,
    )
    digest = _digest(
        *_packed(result.collection),
        result.collection.root_groups,
        np.asarray([result.target_samples, result.reused_samples]),
    )
    assert digest == FINGERPRINTS["imm", workers, stratified]


@pytest.mark.parametrize("store", ["ram", "mmap"])
def test_repair_is_frozen(store, tmp_path):
    graph = load_dataset("rand-im-c2", seed=0).graph
    backend = (
        resolve_backend("mmap", directory=str(tmp_path))
        if store == "mmap" else None
    )
    collection = sample_rr_collection(
        graph, SAMPLES, seed=3, store=store, backend=backend
    )
    v0 = graph.version
    for u in range(5):
        graph.set_arc_probability(u, int(graph.out_neighbors(u)[0]), 1.0)
    result = repair_rr_collection(
        collection,
        graph,
        graph.mutations_since(v0),
        repair_seed_sequence(3, v0, graph.version),
    )
    digest = _digest(
        *_packed(collection), collection.root_groups, result.affected
    )
    assert digest == FINGERPRINTS["repair"]


# ---------------------------------------------------------------------------
# LT and triggering walks
# ---------------------------------------------------------------------------
WALK_MODELS = {
    "lt-degree": lambda g: LTModel(g),
    "lt-probability": lambda g: LTModel(g, weighting="probability"),
    "trig-ic": lambda g: TriggeringModel(g),
    "trig-lt": lambda g: TriggeringModel(g, lt_trigger_sampler()),
    "trig-topk": lambda g: TriggeringModel(g, topk_trigger_sampler(2)),
}


@pytest.mark.parametrize("model", sorted(WALK_MODELS))
@pytest.mark.parametrize("stratified", [True, False])
def test_walk_collection_is_frozen(model, stratified):
    graph = load_dataset("rand-im-c2", seed=0).graph
    collection = WALK_MODELS[model](graph).sample_rr_collection(
        120, seed=4, stratified=stratified
    )
    assert _collection_digest(collection) == FINGERPRINTS[
        "walks", model, stratified
    ]


# ---------------------------------------------------------------------------
# Kernel x worker-count invariance (slow)
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("store", ["ram", "mmap"])
def test_units_law_is_kernel_and_worker_count_invariant(
    kernel, workers, store, tmp_path
):
    set_default_kernel(kernel)
    for name in DATASETS:
        collection = _collection(name, store, workers, True, tmp_path)
        assert _collection_digest(collection) == FINGERPRINTS[
            "collection", name, 2, True
        ]
    assert _batch_digest(workers) == FINGERPRINTS["batch", 2]
    assert _cascade_digest(workers) == FINGERPRINTS["cascade", 2]


@pytest.mark.slow
@pytest.mark.parametrize("kernel", available_kernels())
def test_serial_law_is_kernel_invariant(kernel, tmp_path):
    set_default_kernel(kernel)
    for store in ("ram", "mmap"):
        collection = _collection(
            "facebook-im-c2", store, None, False, tmp_path
        )
        assert _collection_digest(collection) == FINGERPRINTS[
            "collection", "facebook-im-c2", None, False
        ]
    assert _batch_digest(None) == FINGERPRINTS["batch", None]
    assert _cascade_digest(None) == FINGERPRINTS["cascade", None]
