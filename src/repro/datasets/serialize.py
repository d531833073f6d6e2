"""Persist and reload constructed datasets.

The generators in this package are deterministic given a seed, but
downstream users comparing against this reproduction need *the exact
instance bytes*, not a recipe: a different numpy version can change
generator output. This module writes a :class:`repro.datasets.registry.
Dataset` to a directory of portable artifacts (``.npz`` arrays + an
edge list + a small JSON manifest) and rebuilds an equivalent dataset
from them.

Coverage/influence datasets persist the graph (edges, probabilities,
groups); facility/recommendation datasets persist their matrices;
summarization persists points. The manifest records the kind, name and
metadata so :func:`load_dataset_dir` can dispatch without guessing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.datasets.registry import Dataset
from repro.graphs.graph import Graph

#: Manifest schema version (bump on breaking layout changes).
FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _graph_arrays(graph: Graph) -> dict[str, np.ndarray]:
    sources, targets, probs = [], [], []
    for u, v, p in graph.edges():
        # Undirected graphs store both arcs; persist each input edge once
        # (self-loops appear once already).
        if not graph.directed and v < u:
            continue
        sources.append(u)
        targets.append(v)
        probs.append(p)
    return {
        "edge_sources": np.asarray(sources, dtype=np.int64),
        "edge_targets": np.asarray(targets, dtype=np.int64),
        "edge_probs": np.asarray(probs, dtype=float),
        "groups": graph.groups,
    }


def _graph_from_arrays(
    arrays: "np.lib.npyio.NpzFile", num_nodes: int, directed: bool
) -> Graph:
    graph = Graph(
        num_nodes, directed=directed, groups=arrays["groups"].tolist()
    )
    graph.add_edges(
        arrays["edge_sources"], arrays["edge_targets"], arrays["edge_probs"]
    )
    return graph


def save_dataset(dataset: Dataset, directory: PathLike) -> Path:
    """Write a dataset to ``directory`` (created if missing).

    Returns the manifest path. Raises for dataset kinds that carry
    neither a graph nor a reconstructible objective.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, object] = {
        "format": FORMAT_VERSION,
        "name": dataset.name,
        "kind": dataset.kind,
        "meta": {k: v for k, v in dataset.meta.items()
                 if isinstance(v, (str, int, float, bool, list))},
    }
    arrays: dict[str, np.ndarray] = {}
    if dataset.graph is not None:
        arrays.update(_graph_arrays(dataset.graph))
        manifest["num_nodes"] = dataset.graph.num_nodes
        manifest["directed"] = dataset.graph.directed
    if dataset.kind == "facility":
        arrays["benefits"] = dataset.objective.benefits
        arrays["user_groups"] = dataset.objective.user_groups
    elif dataset.kind == "recommendation":
        arrays["relevance"] = dataset.objective.relevance
        arrays["user_groups"] = dataset.objective.user_groups
    elif dataset.kind == "summarization":
        arrays["points"] = dataset.objective._points
        arrays["user_groups"] = dataset.objective.user_groups
    elif dataset.graph is None:
        raise ValueError(
            f"cannot serialize dataset kind {dataset.kind!r} without a graph"
        )
    np.savez_compressed(target / "arrays.npz", **arrays)
    manifest_path = target / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return manifest_path


def load_dataset_dir(directory: PathLike) -> Dataset:
    """Rebuild a dataset previously written by :func:`save_dataset`."""
    source = Path(directory)
    manifest = json.loads(
        (source / "manifest.json").read_text(encoding="utf-8")
    )
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format {manifest.get('format')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    arrays = np.load(source / "arrays.npz")
    kind = manifest["kind"]
    graph = None
    if "edge_sources" in arrays:
        graph = _graph_from_arrays(
            arrays, int(manifest["num_nodes"]), bool(manifest["directed"])
        )
    objective = None
    if kind == "coverage":
        from repro.problems.coverage import CoverageObjective

        objective = CoverageObjective.from_graph(graph)
    elif kind == "influence":
        objective = None  # built lazily from the graph, as in the registry
    elif kind == "facility":
        from repro.problems.facility import FacilityLocationObjective

        objective = FacilityLocationObjective(
            arrays["benefits"], arrays["user_groups"].tolist()
        )
    elif kind == "recommendation":
        from repro.problems.recommendation import RecommendationObjective

        objective = RecommendationObjective(
            arrays["relevance"], arrays["user_groups"].tolist()
        )
    elif kind == "summarization":
        from repro.problems.summarization import SummarizationObjective

        objective = SummarizationObjective(
            arrays["points"], arrays["user_groups"].tolist()
        )
    else:
        raise ValueError(f"unknown dataset kind {kind!r} in manifest")
    return Dataset(
        name=str(manifest["name"]),
        kind=kind,
        objective=objective,
        graph=graph,
        meta=dict(manifest.get("meta", {})),
    )
