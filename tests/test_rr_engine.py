"""Tests for repro.influence.engine (the batched sampling engine).

Covers the three engine guarantees the refactor rests on: fixed-seed
determinism of the batched samplers, statistical equivalence of batched
vs scalar RR-set sizes and spread estimates, and bitwise-identical
greedy/BSM seed selections on a fixed RR collection before and after the
CSR packing change (the frozen tuples below were produced by the
pre-packing list-of-arrays implementation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import stochastic_block_model
from repro.graphs.graph import Graph
from repro.influence.engine import (
    cascade_activation_counts,
    sample_rr_sets_batch,
)
from repro.utils.csr import concat_packed
from repro.influence.ic_model import (
    exact_group_spread,
    monte_carlo_group_spread,
    prepare_seeds,
    simulate_cascade,
    simulate_cascades_batch,
)
from repro.influence.ris import RRCollection, sample_rr_collection, sample_rr_set


def _path_graph(p: float = 0.5) -> Graph:
    return Graph(3, [(0, 1, p), (1, 2, p)], directed=True, groups=[0, 0, 1])


def _sbm_graph(edge_p: float = 0.2) -> Graph:
    g = stochastic_block_model([40, 40], 0.1, 0.02, seed=11)
    g.set_edge_probabilities(edge_p)
    return g


class TestSampleRRSetsBatch:
    def test_fixed_seed_determinism(self):
        g = _sbm_graph()
        transpose = g.transpose_adjacency()
        roots = np.random.default_rng(3).integers(0, g.num_nodes, size=200)
        a_ptr, a_idx = sample_rr_sets_batch(
            transpose, roots, np.random.default_rng(7)
        )
        b_ptr, b_idx = sample_rr_sets_batch(
            transpose, roots, np.random.default_rng(7)
        )
        np.testing.assert_array_equal(a_ptr, b_ptr)
        np.testing.assert_array_equal(a_idx, b_idx)

    def test_root_first_and_unique_nodes(self):
        g = _sbm_graph()
        roots = np.random.default_rng(4).integers(0, g.num_nodes, size=100)
        ptr, idx = sample_rr_sets_batch(
            g.transpose_adjacency(), roots, np.random.default_rng(0)
        )
        for j, root in enumerate(roots):
            members = idx[ptr[j]:ptr[j + 1]]
            assert members[0] == root
            assert np.unique(members).size == members.size

    def test_zero_probability_roots_only(self):
        g = _path_graph(0.0)
        ptr, idx = sample_rr_sets_batch(
            g.transpose_adjacency(),
            np.array([0, 1, 2, 2]),
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(ptr, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(idx, [0, 1, 2, 2])

    def test_full_probability_collects_ancestors(self):
        g = _path_graph(1.0)
        ptr, idx = sample_rr_sets_batch(
            g.transpose_adjacency(), np.array([2]), np.random.default_rng(0)
        )
        assert sorted(idx[ptr[0]:ptr[1]].tolist()) == [0, 1, 2]

    def test_root_bounds(self):
        g = _path_graph()
        with pytest.raises(IndexError):
            sample_rr_sets_batch(
                g.transpose_adjacency(), np.array([9]), np.random.default_rng(0)
            )

    def test_empty_roots(self):
        g = _path_graph()
        ptr, idx = sample_rr_sets_batch(
            g.transpose_adjacency(), np.array([], dtype=np.int64),
            np.random.default_rng(0),
        )
        assert ptr.tolist() == [0]
        assert idx.size == 0

    def test_chunked_run_is_valid_and_deterministic(self):
        g = _sbm_graph()
        transpose = g.transpose_adjacency()
        roots = np.random.default_rng(5).integers(0, g.num_nodes, size=150)
        # max_keys = 2n forces ~2 samples per chunk.
        kwargs = dict(max_keys=2 * g.num_nodes)
        a_ptr, a_idx = sample_rr_sets_batch(
            transpose, roots, np.random.default_rng(1), **kwargs
        )
        b_ptr, b_idx = sample_rr_sets_batch(
            transpose, roots, np.random.default_rng(1), **kwargs
        )
        np.testing.assert_array_equal(a_ptr, b_ptr)
        np.testing.assert_array_equal(a_idx, b_idx)
        for j, root in enumerate(roots):
            members = a_idx[a_ptr[j]:a_ptr[j + 1]]
            assert members[0] == root
            assert np.all((members >= 0) & (members < g.num_nodes))

    def test_sizes_match_scalar_statistically(self):
        g = _sbm_graph(0.25)
        transpose = g.transpose_adjacency()
        roots = np.random.default_rng(6).integers(0, g.num_nodes, size=2_000)
        scratch = np.zeros(g.num_nodes, dtype=bool)
        rng = np.random.default_rng(8)
        scalar_mean = np.mean(
            [sample_rr_set(transpose, int(r), rng, scratch).size for r in roots]
        )
        ptr, _ = sample_rr_sets_batch(transpose, roots, np.random.default_rng(9))
        batch_mean = np.diff(ptr).mean()
        assert batch_mean == pytest.approx(scalar_mean, rel=0.15)

    def test_collection_estimates_match_exact(self):
        g = _path_graph(0.5)
        coll = sample_rr_collection(g, 6_000, seed=1, stratified=True)
        exact = exact_group_spread(g, [0])
        np.testing.assert_allclose(coll.coverage([0]), exact, atol=0.05)


class TestSimulateCascadesBatch:
    def test_fixed_seed_determinism(self):
        g = _sbm_graph()
        a = simulate_cascades_batch(g, [0, 41], 300, np.random.default_rng(2))
        b = simulate_cascades_batch(g, [0, 41], 300, np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)

    def test_seeds_always_active(self):
        g = _path_graph(0.0)
        counts = cascade_activation_counts(
            g.out_adjacency(), np.array([0]), 50, np.random.default_rng(0)
        )
        assert counts.tolist() == [50, 0, 0]

    def test_duplicate_seeds_match_unique(self):
        g = _sbm_graph()
        a = simulate_cascades_batch(g, [0, 0, 5], 100, np.random.default_rng(3))
        b = simulate_cascades_batch(g, [5, 0], 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_bad_seed_rejected(self):
        g = _path_graph()
        with pytest.raises(IndexError):
            simulate_cascades_batch(g, [7], 10, np.random.default_rng(0))

    def test_spread_matches_scalar_statistically(self):
        g = _sbm_graph(0.15)
        rng = np.random.default_rng(4)
        scalar = np.zeros(g.num_nodes, dtype=np.int64)
        for _ in range(1_500):
            scalar += simulate_cascade(g, [0, 41], rng)
        batched = simulate_cascades_batch(
            g, [0, 41], 1_500, np.random.default_rng(5)
        )
        assert batched.sum() / 1_500 == pytest.approx(
            scalar.sum() / 1_500, rel=0.1
        )

    def test_group_spread_matches_exact(self):
        g = _path_graph(0.5)
        exact = exact_group_spread(g, [0])
        mc = monte_carlo_group_spread(g, [0], 4_000, seed=1)
        np.testing.assert_allclose(mc, exact, atol=0.05)

    def test_chunked_counts_are_valid(self):
        g = _sbm_graph()
        counts = cascade_activation_counts(
            g.out_adjacency(), np.array([0]), 200,
            np.random.default_rng(6), max_keys=3 * g.num_nodes,
        )
        assert counts[0] == 200
        assert np.all(counts <= 200) and np.all(counts >= 0)

    def test_prepare_seeds(self):
        g = _path_graph()
        np.testing.assert_array_equal(prepare_seeds(g, [2, 0, 2]), [0, 2])
        with pytest.raises(IndexError):
            prepare_seeds(g, [-1])
        assert prepare_seeds(g, []).size == 0


class TestPackedCollection:
    def _random_sets(self, rng, num_sets=50, n=20):
        return [
            rng.choice(n, size=rng.integers(1, 8), replace=False)
            for _ in range(num_sets)
        ]

    def test_sets_property_round_trips(self):
        rng = np.random.default_rng(0)
        sets = self._random_sets(rng)
        groups = rng.integers(0, 3, size=len(sets))
        groups[:3] = [0, 1, 2]
        coll = RRCollection(
            sets=sets, root_groups=groups, num_nodes=20, num_groups=3
        )
        assert coll.num_sets == len(sets)
        for original, view in zip(sets, coll.sets):
            np.testing.assert_array_equal(view, original)

    def test_from_packed_matches_list_construction(self):
        rng = np.random.default_rng(1)
        sets = self._random_sets(rng)
        groups = rng.integers(0, 2, size=len(sets))
        groups[:2] = [0, 1]
        by_list = RRCollection(
            sets=sets, root_groups=groups, num_nodes=20, num_groups=2
        )
        by_packed = RRCollection.from_packed(
            by_list.set_indptr, by_list.set_indices, groups, 20, 2
        )
        np.testing.assert_allclose(
            by_list.coverage([3, 7]), by_packed.coverage([3, 7])
        )

    def test_coverage_matches_per_set_reference(self):
        rng = np.random.default_rng(2)
        sets = self._random_sets(rng)
        groups = rng.integers(0, 3, size=len(sets))
        groups[:3] = [0, 1, 2]
        coll = RRCollection(
            sets=sets, root_groups=groups, num_nodes=20, num_groups=3
        )
        seeds = [0, 4, 11]
        # Pre-packing reference: one Python any() per RR set.
        seed_mask = np.zeros(20, dtype=bool)
        seed_mask[seeds] = True
        hit = np.array([bool(seed_mask[s].any()) for s in sets])
        expected = np.bincount(groups[hit], minlength=3) / coll.group_counts
        np.testing.assert_allclose(coll.coverage(seeds), expected)

    def test_rejects_both_forms(self):
        with pytest.raises(ValueError):
            RRCollection(
                sets=[np.array([0])],
                root_groups=np.array([0]),
                num_nodes=2,
                num_groups=1,
                set_indptr=np.array([0, 1]),
                set_indices=np.array([0]),
            )
        with pytest.raises(ValueError):
            RRCollection(root_groups=np.array([0]), num_nodes=2, num_groups=1)

    def test_rejects_nodes_outside_the_ground_set(self):
        with pytest.raises(ValueError, match="outside"):
            RRCollection(sets=[np.array([0, 2])], root_groups=np.array([0]),
                         num_nodes=2, num_groups=1)

    def test_concat_packed(self):
        a = (np.array([0, 2, 3]), np.array([4, 5, 6]))
        b = (np.array([0, 1]), np.array([7]))
        ptr, idx = concat_packed([a, b])
        np.testing.assert_array_equal(ptr, [0, 2, 3, 4])
        np.testing.assert_array_equal(idx, [4, 5, 6, 7])
        empty_ptr, empty_idx = concat_packed([])
        assert empty_ptr.tolist() == [0] and empty_idx.size == 0


class TestPinnedSelections:
    """Greedy/BSM selections on a fixed-seed RR collection are identical
    before and after the packing change.

    The collection is built through the (unchanged) scalar sampler, and
    the frozen tuples were produced by the pre-packing implementation
    (list-of-arrays membership); the packed inverted index must
    reproduce them bitwise.
    """

    def _collection(self):
        g = stochastic_block_model([30, 30], 0.15, 0.05, seed=7)
        g.set_edge_probabilities(0.2)
        rng = np.random.default_rng(42)
        transpose = g.transpose().out_adjacency()
        labels = g.groups
        sets, root_groups = [], []
        for r in rng.integers(0, g.num_nodes, size=300):
            sets.append(sample_rr_set(transpose, int(r), rng))
            root_groups.append(int(labels[r]))
        coll = RRCollection(
            sets=sets,
            root_groups=np.asarray(root_groups),
            num_nodes=g.num_nodes,
            num_groups=g.num_groups,
        )
        return g, coll

    def test_selections_pinned(self):
        from repro.core.baselines import greedy_utility
        from repro.core.bsm_saturate import bsm_saturate
        from repro.core.saturate import saturate
        from repro.problems.influence import InfluenceObjective

        g, coll = self._collection()
        obj = InfluenceObjective(coll, g.group_sizes())
        greedy_res = greedy_utility(obj, 5)
        saturate_res = saturate(obj, 5)
        bsm_res = bsm_saturate(
            obj, 5, 0.6,
            greedy_result=greedy_res, saturate_result=saturate_res,
        )
        assert greedy_res.solution == (46, 26, 29, 24, 33)
        assert saturate_res.solution == (46, 26, 29, 24, 33)
        assert bsm_res.solution == (46, 26, 29, 24, 1)
        assert bsm_res.feasible

    def test_coverage_pinned(self):
        _, coll = self._collection()
        np.testing.assert_allclose(
            coll.coverage([46, 26, 29, 24, 33]),
            [0.44516129032258067, 0.4482758620689655],
        )
