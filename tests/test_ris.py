"""Tests for repro.influence.ris (reverse-influence sampling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GroupPartitionError
from repro.graphs.graph import Graph
from repro.influence.ic_model import exact_group_spread
from repro.influence.ris import (
    RRCollection,
    sample_rr_collection,
    sample_rr_set,
)


def _path_graph(p: float = 0.5) -> Graph:
    return Graph(3, [(0, 1, p), (1, 2, p)], directed=True, groups=[0, 0, 1])


class TestSampleRRSet:
    def test_root_always_included(self):
        g = _path_graph(0.0)
        rr = sample_rr_set(g.transpose().out_adjacency(), 2, np.random.default_rng(0))
        assert rr.tolist() == [2]

    def test_full_probability_collects_ancestors(self):
        g = _path_graph(1.0)
        rr = sample_rr_set(g.transpose().out_adjacency(), 2, np.random.default_rng(0))
        assert sorted(rr.tolist()) == [0, 1, 2]

    def test_scratch_buffer_reuse(self):
        g = _path_graph(1.0)
        adj = g.transpose().out_adjacency()
        scratch = np.zeros(3, dtype=bool)
        rr1 = sample_rr_set(adj, 2, np.random.default_rng(0), scratch)
        rr2 = sample_rr_set(adj, 0, np.random.default_rng(0), scratch)
        assert sorted(rr1.tolist()) == [0, 1, 2]
        assert rr2.tolist() == [0]

    def test_root_bounds(self):
        g = _path_graph()
        with pytest.raises(IndexError):
            sample_rr_set(g.transpose().out_adjacency(), 9, np.random.default_rng(0))


class TestRRCollection:
    def test_validation_needs_every_group(self):
        with pytest.raises(GroupPartitionError):
            RRCollection(
                sets=[np.array([0])],
                root_groups=np.array([0]),
                num_nodes=3,
                num_groups=2,
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RRCollection(
                sets=[np.array([0])],
                root_groups=np.array([0, 1]),
                num_nodes=3,
                num_groups=2,
            )

    def test_coverage_computation(self):
        coll = RRCollection(
            sets=[np.array([0, 1]), np.array([2]), np.array([1])],
            root_groups=np.array([0, 0, 1]),
            num_nodes=3,
            num_groups=2,
        )
        cov = coll.coverage([1])
        assert cov[0] == pytest.approx(0.5)  # one of two group-0 sets hit
        assert cov[1] == pytest.approx(1.0)

    def test_coverage_empty_seed(self):
        coll = RRCollection(
            sets=[np.array([0]), np.array([1])],
            root_groups=np.array([0, 1]),
            num_nodes=2,
            num_groups=2,
        )
        assert coll.coverage([]).tolist() == [0.0, 0.0]


class TestSampleRRCollection:
    def test_stratified_quotas(self):
        g = _path_graph()
        coll = sample_rr_collection(g, 10, seed=0, stratified=True)
        assert coll.num_sets == 10
        assert coll.group_counts.tolist() == [5, 5]

    def test_stratified_quota_clamped_to_group_count(self):
        # Regression: quotas of max(quota, 1) per group used to return up
        # to num_groups sets when groups outnumber samples; the total is
        # now clamped to max(num_samples, num_groups) exactly.
        g = Graph(
            5,
            [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)],
            directed=True,
            groups=[0, 1, 2, 3, 4],
        )
        coll = sample_rr_collection(g, 3, seed=0, stratified=True)
        assert coll.num_sets == 5  # max(3 samples, 5 groups)
        assert coll.group_counts.tolist() == [1, 1, 1, 1, 1]

    def test_stratified_uneven_quota_exact_total(self):
        g = Graph(
            4,
            [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)],
            directed=True,
            groups=[0, 0, 1, 2],
        )
        coll = sample_rr_collection(g, 10, seed=0, stratified=True)
        assert coll.num_sets == 10
        assert coll.group_counts.tolist() == [4, 3, 3]

    def test_unstratified_guarantees_presence(self):
        g = _path_graph()
        coll = sample_rr_collection(g, 5, seed=0, stratified=False)
        assert np.all(coll.group_counts >= 1)

    def test_estimates_match_exact_spread(self):
        g = _path_graph(0.5)
        coll = sample_rr_collection(g, 6000, seed=1, stratified=True)
        exact = exact_group_spread(g, [0])
        estimate = coll.coverage([0])
        np.testing.assert_allclose(estimate, exact, atol=0.05)

    def test_estimates_match_exact_undirected(self):
        g = Graph(4, [(0, 1, 0.4), (1, 2, 0.4), (2, 3, 0.4)],
                  groups=[0, 0, 1, 1])
        coll = sample_rr_collection(g, 8000, seed=2)
        exact = exact_group_spread(g, [1])
        estimate = coll.coverage([1])
        np.testing.assert_allclose(estimate, exact, atol=0.05)

    def test_num_samples_validated(self):
        with pytest.raises(ValueError):
            sample_rr_collection(_path_graph(), 0)


class TestWalkCollections:
    """LT and triggering collections share one root law."""

    @staticmethod
    def _tail_group_path() -> Graph:
        # A 50-node directed path whose last node alone forms group 1:
        # five uniform roots almost never land there.
        return Graph(
            50,
            [(i, i + 1, 0.5) for i in range(49)],
            directed=True,
            groups=[0] * 49 + [1],
        )

    def test_unstratified_triggering_tops_up_missing_group(self):
        from repro.influence.triggering import TriggeringModel

        coll = TriggeringModel(self._tail_group_path()).sample_rr_collection(
            5, seed=0, stratified=False
        )
        assert coll.group_counts.tolist() == [5, 1]

    def test_lt_and_triggering_share_the_root_law(self):
        from repro.influence.lt_model import LTModel
        from repro.influence.triggering import TriggeringModel, lt_trigger_sampler

        # Probability weighting on a path gives every node one in-arc of
        # strength 0.5, which is exactly the LT trigger sampler's law.
        g = self._tail_group_path()
        for stratified in (True, False):
            lt = LTModel(g, weighting="probability").sample_rr_collection(
                5, seed=0, stratified=stratified
            )
            trig = TriggeringModel(g, lt_trigger_sampler()).sample_rr_collection(
                5, seed=0, stratified=stratified
            )
            np.testing.assert_array_equal(lt.set_indptr, trig.set_indptr)
            np.testing.assert_array_equal(lt.set_indices, trig.set_indices)
            np.testing.assert_array_equal(lt.root_groups, trig.root_groups)
