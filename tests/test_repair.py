"""Correctness of incremental RR-set repair (DESIGN.md §9).

Three layers of guarantees:

* **Bitwise identity** — a delta touching no sampled set leaves the
  packed collection byte-for-byte unchanged and performs *zero*
  resampling (pinned by making the sampling engine unreachable).
* **Distributional fidelity** — on the five CLI influence datasets a
  repaired collection estimates the same spread as a from-scratch
  resample of the mutated graph, within a normal-approximation CI.
* **Metamorphic laws** — monotone-in-k and the greedy prefix property
  keep holding on repaired objectives, so everything downstream of the
  objective (solvers, the service) is oblivious to how it was refreshed.

Plus unit coverage of the two new CSR primitives the splice rides on
(``splice_packed``, ``merge_sorted_disjoint``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import greedy_utility
from repro.datasets.registry import load_dataset
from repro.graphs.graph import Graph
from repro.influence import ris
from repro.influence.ris import (
    RRCollection,
    affected_rr_sets,
    repair_rr_collection,
    repair_seed_sequence,
)
from repro.problems.influence import InfluenceObjective
from repro.utils.csr import invert_csr, merge_sorted_disjoint, splice_packed


def _hit_fraction(collection: RRCollection, seeds) -> float:
    """Overall fraction of RR sets hit by ``seeds`` (spread / n)."""
    mask = np.zeros(collection.num_nodes, dtype=bool)
    mask[np.asarray(list(seeds), dtype=np.int64)] = True
    hit_rows = collection.entry_rows()[mask[collection.set_indices]]
    hit = np.bincount(hit_rows, minlength=collection.num_sets) > 0
    return float(hit.mean())


def _mutate_arcs(graph: Graph, count: int) -> int:
    """Deterministically perturb ``count`` arcs (half up, half down)."""
    seen: set[tuple[int, int]] = set()
    done = 0
    for u, v, p in graph.edges():
        if (u, v) in seen or (v, u) in seen:
            continue
        seen.add((u, v))
        new_p = min(1.0, p * 3.0) if done % 2 == 0 else p * 0.25
        graph.set_arc_probability(u, v, new_p)
        done += 1
        if done == count:
            break
    return done


def _rebuilt_index(objective: InfluenceObjective):
    collection = objective.collection
    indptr, indices, _ = invert_csr(
        collection.set_indptr, collection.set_indices, collection.num_nodes
    )
    return indptr, indices


# ---------------------------------------------------------------------------
# CSR primitives
# ---------------------------------------------------------------------------
class TestCsrPrimitives:
    def test_splice_packed_replaces_rows(self):
        indptr = np.array([0, 2, 5, 6], dtype=np.int64)
        indices = np.array([7, 8, 1, 2, 3, 9], dtype=np.int64)
        sub_indptr = np.array([0, 1], dtype=np.int64)
        sub_indices = np.array([42], dtype=np.int64)
        out_indptr, out_indices = splice_packed(
            indptr, indices, np.array([1], dtype=np.int64),
            sub_indptr, sub_indices,
        )
        assert out_indptr.tolist() == [0, 2, 3, 4]
        assert out_indices.tolist() == [7, 8, 42, 9]

    def test_splice_packed_multiple_rows_and_growth(self):
        indptr = np.array([0, 1, 2, 3], dtype=np.int64)
        indices = np.array([5, 6, 7], dtype=np.int64)
        sub_indptr = np.array([0, 3, 3], dtype=np.int64)
        sub_indices = np.array([1, 2, 3], dtype=np.int64)
        out_indptr, out_indices = splice_packed(
            indptr, indices, np.array([0, 2], dtype=np.int64),
            sub_indptr, sub_indices,
        )
        assert out_indptr.tolist() == [0, 3, 4, 4]
        assert out_indices.tolist() == [1, 2, 3, 6]

    def test_splice_packed_no_rows_is_identity(self):
        indptr = np.array([0, 2, 3], dtype=np.int64)
        indices = np.array([4, 5, 6], dtype=np.int64)
        out_indptr, out_indices = splice_packed(
            indptr, indices, np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
        )
        np.testing.assert_array_equal(out_indptr, indptr)
        np.testing.assert_array_equal(out_indices, indices)

    def test_merge_sorted_disjoint(self):
        a = np.array([1, 4, 9], dtype=np.int64)
        b = np.array([0, 5, 6, 12], dtype=np.int64)
        merged = merge_sorted_disjoint(a, b)
        assert merged.tolist() == [0, 1, 4, 5, 6, 9, 12]

    def test_merge_sorted_disjoint_empty_sides(self):
        a = np.array([2, 3], dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        assert merge_sorted_disjoint(a, empty).tolist() == [2, 3]
        assert merge_sorted_disjoint(empty, a).tolist() == [2, 3]


# ---------------------------------------------------------------------------
# (a) No-op delta: bitwise identity, zero sampling
# ---------------------------------------------------------------------------
class TestNoOpDelta:
    def _sparse_setup(self):
        # Few sets over many nodes: most nodes are in no sampled set,
        # so arcs exist whose mutation must be a provable no-op.
        rng = np.random.default_rng(11)
        n = 200
        edges = [
            (int(u), int(v), 0.05)
            for u, v in rng.integers(0, n, size=(300, 2))
            if u != v
        ]
        graph = Graph(n, edges, directed=True, groups=[i % 2 for i in range(n)])
        objective = InfluenceObjective.from_graph(graph, 10, seed=3)
        return graph, objective

    def _untouched_arc(self, graph: Graph, collection: RRCollection):
        member = np.zeros(graph.num_nodes, dtype=bool)
        member[collection.set_indices] = True
        for u, v, _ in graph.edges():
            if not member[v]:
                return u, v
        raise AssertionError("no arc with unsampled target in fixture")

    def test_noop_delta_is_bitwise_identity_with_zero_sampling(
        self, monkeypatch
    ):
        graph, objective = self._sparse_setup()
        collection = objective.collection
        before_indptr = collection.set_indptr.copy()
        before_indices = collection.set_indices.copy()
        index_before = _rebuilt_index(objective)
        u, v = self._untouched_arc(graph, collection)

        graph.set_arc_probability(u, v, 1.0)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("no-op delta must not resample")

        monkeypatch.setattr(ris, "sample_rr_sets_batch", boom)
        epoch = objective.repair_epoch
        result = objective.refresh()

        assert result.sets_repaired == 0
        assert not result.full_resample
        assert result.repair_ratio == 0.0
        assert objective.repair_epoch == epoch
        assert objective.graph_version == graph.version
        np.testing.assert_array_equal(collection.set_indptr, before_indptr)
        np.testing.assert_array_equal(collection.set_indices, before_indices)
        for got, expected in zip(_rebuilt_index(objective), index_before):
            np.testing.assert_array_equal(got, expected)

    def test_version_only_refresh_skips_delta_replay(self, monkeypatch):
        graph, objective = self._sparse_setup()
        monkeypatch.setattr(
            ris, "sample_rr_sets_batch",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("sampled")),
        )
        result = objective.refresh()
        assert result.sets_repaired == 0
        assert objective.graph_version == graph.version


# ---------------------------------------------------------------------------
# Repair mechanics on real collections
# ---------------------------------------------------------------------------
class TestRepairMechanics:
    def _setup(self, im_samples: int = 400):
        data = load_dataset("rand-im-c2", seed=0)
        objective = InfluenceObjective.from_graph(
            data.graph, im_samples, seed=7
        )
        return data.graph, objective

    def test_unaffected_sets_survive_bitwise(self):
        graph, objective = self._setup()
        collection = objective.collection
        before = [row.copy() for row in collection.sets]
        v0 = graph.version
        _mutate_arcs(graph, 3)
        delta = graph.mutations_since(v0)
        affected = set(affected_rr_sets(collection, delta).tolist())
        assert affected, "fixture must touch at least one set"
        result = repair_rr_collection(
            collection, graph, delta,
            repair_seed_sequence(7, v0, graph.version),
        )
        assert 0 < result.sets_repaired < result.sets_total
        for row, (before_row, after_row) in enumerate(
            zip(before, collection.sets)
        ):
            if row not in affected:
                np.testing.assert_array_equal(before_row, after_row)
            # Roots are pinned even for resampled rows.
            assert before_row[0] == after_row[0]

    def test_inverted_index_patch_matches_full_rebuild(self):
        graph, objective = self._setup()
        v0 = graph.version
        _mutate_arcs(graph, 4)
        result = objective.refresh()
        assert result.sets_repaired > 0
        patched = (objective.collection._mem_indptr, objective.collection._mem_indices)
        for got, expected in zip(patched, _rebuilt_index(objective)):
            np.testing.assert_array_equal(got, expected)

    def test_repair_is_deterministic(self):
        runs = []
        for _ in range(2):
            graph, objective = self._setup()
            _mutate_arcs(graph, 3)
            objective.refresh()
            runs.append(
                (
                    objective.collection.set_indptr.copy(),
                    objective.collection.set_indices.copy(),
                )
            )
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_wholesale_rewrite_falls_back_to_full_resample(self):
        graph, objective = self._setup()
        epoch = objective.repair_epoch
        graph.set_edge_probabilities(0.05)
        result = objective.refresh()
        assert result.full_resample
        assert result.sets_repaired == result.sets_total
        assert result.repair_ratio == 1.0
        assert objective.repair_epoch == epoch + 1
        assert objective.graph_version == graph.version
        for got, expected in zip(
            (objective.collection._mem_indptr, objective.collection._mem_indices),
            _rebuilt_index(objective),
        ):
            np.testing.assert_array_equal(got, expected)

    def test_refresh_requires_graph_binding(self):
        graph, objective = self._setup(im_samples=50)
        unbound = InfluenceObjective.from_collection(
            objective.collection, graph.group_sizes()
        )
        with pytest.raises(ValueError, match="from_graph"):
            unbound.refresh()
        other = load_dataset("rand-im-c2", seed=1).graph
        with pytest.raises(ValueError, match="sampled from"):
            objective.refresh(other)


# ---------------------------------------------------------------------------
# (b) Distributional fidelity on the five CLI influence datasets
# ---------------------------------------------------------------------------
CLI_DATASETS = [
    ("rand-im-c2", {}),
    ("rand-im-c4", {}),
    ("facebook-im-c2", {"num_nodes": 400}),
    ("facebook-im-c4", {"num_nodes": 400}),
    ("dblp-im", {"num_nodes": 600}),
]


class TestRepairedDistribution:
    @pytest.mark.parametrize("name,overrides", CLI_DATASETS)
    def test_repaired_spread_within_ci_of_fresh_resample(
        self, name, overrides
    ):
        m = 1_500
        data = load_dataset(name, seed=0, **overrides)
        graph = data.graph
        objective = InfluenceObjective.from_graph(graph, m, seed=5)
        _mutate_arcs(graph, 6)
        result = objective.refresh()
        assert not result.full_resample

        fresh = InfluenceObjective.from_graph(graph, m, seed=1_005)
        degrees = np.array(
            [graph.out_degree(u) for u in range(graph.num_nodes)]
        )
        seeds = np.argsort(-degrees)[:10]
        p_repaired = _hit_fraction(objective.collection, seeds)
        p_fresh = _hit_fraction(fresh.collection, seeds)
        # Two-sample normal CI at z = 5: wide enough to be flake-free
        # under the pinned seeds, tight enough to catch a biased or
        # stale estimator (an unrepaired collection on these mutations
        # drifts by many sigma).
        sigma = np.sqrt(
            p_repaired * (1 - p_repaired) / m + p_fresh * (1 - p_fresh) / m
        )
        assert abs(p_repaired - p_fresh) <= 5.0 * sigma + 1e-12


# ---------------------------------------------------------------------------
# (c) Metamorphic laws on repaired objectives
# ---------------------------------------------------------------------------
class TestRepairedMetamorphic:
    @pytest.fixture()
    def repaired_objective(self):
        data = load_dataset("rand-im-c2", seed=0, num_nodes=60)
        objective = InfluenceObjective.from_graph(data.graph, 300, seed=1)
        _mutate_arcs(data.graph, 5)
        result = objective.refresh()
        assert result.sets_repaired > 0
        return objective

    def test_greedy_utility_non_decreasing_in_k(self, repaired_objective):
        utilities = [
            greedy_utility(repaired_objective, k).utility
            for k in (1, 2, 3, 5, 8)
        ]
        for smaller, larger in zip(utilities, utilities[1:]):
            assert larger >= smaller - 1e-12

    def test_greedy_prefix_property(self, repaired_objective):
        small = greedy_utility(repaired_objective, 3).solution
        large = greedy_utility(repaired_objective, 6).solution
        assert large[: len(small)] == small
