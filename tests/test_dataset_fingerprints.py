"""Frozen content of the graph datasets the serving benchmark builds.

Each constant is a sha256 over the graph's ``out_adjacency()`` arrays,
its group labels and its ``version``. A change to a generator, to the
RNG draws it makes, to the per-node adjacency order or to the version
count moves the hash. Seed 1,000,000 is the first cold seed the
``influence-churn`` workload sends.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.registry import load_dataset

FINGERPRINTS = {
    ("facebook-im-c2", 0): "466613750de46a2a05d0b690b65ce31daa4bae508ca58091aa8398633116854b",
    ("facebook-im-c2", 1_000_000): "9336c956997cefedf80760e6a973683c594753ed5b96635c0e63d7db429b5b8e",
    ("facebook-mc-c2", 0): "cf51757cb38345b9dcfd35286c769e81c62d51c0e34d1eb282369bfd3fdc1a74",
    ("facebook-mc-c2", 1_000_000): "048573f6141f6c283664db501ec442d9805ba1c7b72b6bf4166c61d91f0d911d",
    ("dblp-im", 0): "41a9628bfa492dd2a6bfda63283fc1874c7de4ac211cd1c121830e7d3c2fe86c",
    ("dblp-im", 1_000_000): "d2b26df708a9baefb80df9a12a2028cdd151deefac4b73fe069a1d2c4dfeb434",
    ("rand-mc-c2", 0): "1537f3a37a88f618b23665f546debaebe0ed2b026d478164d2b050dd061d60ba",
    ("rand-mc-c2", 1_000_000): "a30b2914b89878e5e44551622736b839a3dea769639164b2623fa1b6376351f5",
}


def fingerprint(graph) -> str:
    digest = hashlib.sha256()
    for arr in graph.out_adjacency():
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(np.ascontiguousarray(graph.groups, dtype=np.int64).tobytes())
    digest.update(str(graph.version).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(FINGERPRINTS))
def test_dataset_graph_is_frozen(name, seed):
    graph = load_dataset(name, seed=seed).graph
    assert fingerprint(graph) == FINGERPRINTS[name, seed]
