"""Tests for repro.graphs.generators."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.generators import (
    _sbm_edges,
    erdos_renyi,
    gaussian_points,
    preferential_attachment,
    random_groups_graph,
    stochastic_block_model,
)


class TestSBM:
    def test_sizes_and_groups(self):
        g = stochastic_block_model([30, 70], 0.1, 0.02, seed=0)
        assert g.num_nodes == 100
        assert g.group_sizes().tolist() == [30, 70]

    def test_density_between_blocks(self):
        g = stochastic_block_model([100, 100], 0.2, 0.01, seed=1)
        groups = g.groups
        intra = inter = 0
        seen = set()
        for u, v, _ in g.edges():
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            if groups[u] == groups[v]:
                intra += 1
            else:
                inter += 1
        # Expected: intra ~ 0.2 * 2 * C(100,2) = 1980, inter ~ 0.01 * 10000 = 100.
        assert intra > 5 * inter

    def test_seeded_determinism(self):
        a = stochastic_block_model([10, 10], 0.5, 0.1, seed=3)
        b = stochastic_block_model([10, 10], 0.5, 0.1, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_zero_probability(self):
        g = stochastic_block_model([5, 5], 0.0, 0.0, seed=0)
        assert g.num_edges == 0

    def test_directed(self):
        g = stochastic_block_model([10, 10], 0.3, 0.1, seed=0, directed=True)
        assert g.directed

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            stochastic_block_model([5], 1.5, 0.0)


class TestErdosRenyi:
    def test_no_self_loops(self):
        g = erdos_renyi(50, 0.2, seed=0, directed=True)
        assert all(u != v for u, v, _ in g.edges())

    def test_edge_count_near_expectation(self):
        g = erdos_renyi(100, 0.1, seed=0)
        expected = 0.1 * 100 * 99 / 2
        assert 0.6 * expected < g.num_edges < 1.4 * expected

    def test_p_zero(self):
        assert erdos_renyi(10, 0.0, seed=0).num_edges == 0


class TestPreferentialAttachment:
    def test_edge_count(self):
        g = preferential_attachment(100, 3, seed=0)
        # seed clique C(3,2)=3 edges + 97 nodes * 3 edges.
        assert g.num_edges == 3 + 97 * 3

    def test_heavy_tail(self):
        g = preferential_attachment(500, 2, seed=0)
        degrees = sorted(
            (g.out_degree(v) for v in range(g.num_nodes)), reverse=True
        )
        # Hubs: the max degree should far exceed the median.
        assert degrees[0] > 5 * degrees[len(degrees) // 2]

    def test_m_ge_n_rejected(self):
        with pytest.raises(ValueError):
            preferential_attachment(3, 3)


class TestGaussianPoints:
    def test_shapes(self):
        pts, labels = gaussian_points([10, 20], dim=3, seed=0)
        assert pts.shape == (30, 3)
        assert labels.tolist() == [0] * 10 + [1] * 20

    def test_blobs_separated_with_wide_spread(self):
        pts, labels = gaussian_points(
            [50, 50], centers=np.array([[0.0, 0.0], [20.0, 0.0]]), seed=0
        )
        mean0 = pts[labels == 0].mean(axis=0)
        mean1 = pts[labels == 1].mean(axis=0)
        assert np.linalg.norm(mean1 - mean0) > 10

    def test_center_shape_validated(self):
        with pytest.raises(ValueError):
            gaussian_points([5], centers=np.zeros((2, 2)), seed=0)


class TestRandomGroupsGraph:
    def test_group_mix(self):
        g = random_groups_graph(200, 10.0, [20, 80], seed=0)
        sizes = g.group_sizes()
        assert sizes.tolist() == [40, 160]

    def test_average_degree_close(self):
        g = random_groups_graph(300, 12.0, [50, 50], seed=1)
        avg = 2.0 * g.num_edges / g.num_nodes
        assert 9.0 < avg < 15.0

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            random_groups_graph(10, 0.0, [1, 1])


def _sbm_edges_dense_reference(sizes, p_intra, p_inter, rng, directed):
    """Frozen copy of the dense-mask ``_sbm_edges`` body (``triu`` /
    ``fill_diagonal`` on the Bernoulli matrix, then ``np.nonzero``)."""
    offsets = np.cumsum([0] + list(sizes))
    sources = [np.empty(0, dtype=np.int64)]
    targets = [np.empty(0, dtype=np.int64)]
    for gi in range(len(sizes)):
        for gj in range(len(sizes)):
            if not directed and gj < gi:
                continue
            p = p_intra if gi == gj else p_inter
            if p == 0.0:
                continue
            mask = rng.random((sizes[gi], sizes[gj])) < p
            if gi == gj:
                if directed:
                    np.fill_diagonal(mask, False)
                else:
                    mask = np.triu(mask, k=1)
            ii, jj = np.nonzero(mask)
            sources.append(ii + offsets[gi])
            targets.append(jj + offsets[gj])
    return np.concatenate(sources), np.concatenate(targets)


class TestSBMEdgesReference:
    """``_sbm_edges`` draws and orders exactly as the dense-mask body did."""

    CASES = {
        "single-node": ([1], 1.0, 0.0),
        "size-1-blocks": ([1, 1, 1], 0.5, 0.5),
        "mixed-with-size-1": ([5, 1, 7], 0.3, 0.1),
        "intra-zero": ([6, 6], 0.0, 0.5),
        "inter-zero": ([4, 3], 0.6, 0.0),
        "all-one": ([3, 1, 4], 1.0, 1.0),
        "paper-like": ([40, 25], 0.1, 0.02),
    }

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_mask_reference(self, case, directed):
        sizes, p_intra, p_inter = self.CASES[case]
        for seed in range(3):
            rng_new = np.random.default_rng(seed)
            rng_ref = np.random.default_rng(seed)
            got = _sbm_edges(sizes, p_intra, p_inter, rng_new, directed)
            ref = _sbm_edges_dense_reference(
                sizes, p_intra, p_inter, rng_ref, directed
            )
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("directed", [True, False])
    def test_probability_one_keeps_every_off_diagonal_pair(self, directed):
        sizes = [3, 1, 4]
        n = sum(sizes)
        src, dst = _sbm_edges(sizes, 1.0, 1.0, np.random.default_rng(0),
                              directed)
        pairs = set(zip(src.tolist(), dst.tolist()))
        expected = {
            (u, v) for u in range(n) for v in range(n)
            if u != v and (directed or u < v)
        }
        assert pairs == expected
        assert src.size == len(expected)

    # (sizes, p_intra, p_inter, chunk doubles): the chunk is shrunk so
    # that its boundaries fall where each case says.
    CHUNK_CASES = {
        # Block (0, 1)'s rows hold 9 draws, more than one chunk.
        "row-longer-than-chunk": ([3, 9], 0.5, 0.5, 4),
        # 4-wide blocks, 2 rows per chunk, 4 rows: chunks end on rows.
        "rows-exact-multiple": ([4, 4], 0.5, 0.5, 8),
        # 5 rows of block (0, 1) in 2-row chunks; block (0, 0)'s 5-wide
        # rows are cut mid-row.
        "rows-not-multiple": ([5, 4], 0.5, 0.5, 8),
        # One diagonal block whose chunks cut through the diagonal.
        "diagonal-crossing": ([7], 0.6, 0.0, 5),
        "one-draw-chunks": ([3, 2], 0.5, 0.4, 1),
        "p-zero": ([6, 5], 0.0, 0.0, 7),
        "p-one": ([6, 5], 1.0, 1.0, 7),
    }

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_chunk_boundaries_match_dense_reference(
        self, case, directed, monkeypatch
    ):
        sizes, p_intra, p_inter, chunk = self.CHUNK_CASES[case]
        monkeypatch.setattr(generators, "SBM_CHUNK_DOUBLES", chunk)
        for seed in range(3):
            rng_new = np.random.default_rng(seed)
            rng_ref = np.random.default_rng(seed)
            got = _sbm_edges(sizes, p_intra, p_inter, rng_new, directed)
            ref = _sbm_edges_dense_reference(
                sizes, p_intra, p_inter, rng_ref, directed
            )
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_peak_memory_is_bounded(self):
        """A 4000-node two-block draw stays within a few chunks; one
        dense 2000 x 2000 block alone would hold about 30 MiB."""
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _sbm_edges([2000, 2000], 0.002, 0.001, rng, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
