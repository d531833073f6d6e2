"""Kernel-registry equivalence suite.

Every registered kernel set must be *bitwise* interchangeable with the
"baseline" set (the PR 3 reference implementations, kept verbatim in
:mod:`repro.kernels.baseline`): identical reached keys from the BFS
chunks — including identical RNG stream consumption, so downstream
draws cannot diverge — and identical coverage/gain counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.kernels as kernels_module
from repro.core.functions import AverageUtility
from repro.core.greedy import greedy_max
from repro.graphs.generators import stochastic_block_model
from repro.influence.ris import sample_rr_collection
from repro.kernels import (
    KERNEL_ENV_VAR,
    available_kernels,
    default_kernel_name,
    get_kernel,
    set_default_kernel,
)
from repro.kernels.numpy_kernels import SMALL_BLOCK_ENTRIES
from repro.problems.coverage import CoverageObjective
from repro.problems.influence import InfluenceObjective

#: Kernel sets compared against baseline.
OPTIMIZED = ["numpy"]


def _adjacency(seed: int = 3, n: int = 60):
    g = stochastic_block_model([n // 2, n - n // 2], 0.15, 0.05, seed=seed)
    g.set_edge_probabilities(0.3)
    return g.transpose_adjacency(), g


class TestRegistry:
    def test_baseline_and_numpy_always_available(self):
        names = available_kernels()
        assert names[0] == "baseline"
        assert "numpy" in names

    def test_default_resolution_without_numba(self):
        assert default_kernel_name() == "numpy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "baseline")
        assert default_kernel_name() == "baseline"
        assert get_kernel().name == "baseline"

    def test_env_override_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "fortran")
        with pytest.raises(ValueError):
            default_kernel_name()

    def test_pin_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "baseline")
        set_default_kernel("numpy")
        assert get_kernel().name == "numpy"

    def test_pin_unknown_rejected(self):
        with pytest.raises(ValueError):
            set_default_kernel("fortran")

    def test_get_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_kernel("fortran")


class TestObjectiveKernelResolution:
    """Objectives resolve their kernel set once, when they are built."""

    @staticmethod
    def _spy(monkeypatch, name: str, calls: list) -> None:
        """Register ``name``: the numpy set, logging each oracle call."""
        numpy_set = get_kernel("numpy")

        def logged(fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        spy = dataclasses.replace(
            numpy_set,
            name=name,
            group_counts=logged(numpy_set.group_counts),
            gains_rescore=logged(numpy_set.gains_rescore),
        )
        monkeypatch.setitem(kernels_module._REGISTRY, name, spy)

    @staticmethod
    def _objectives():
        g = stochastic_block_model([20, 20], 0.15, 0.05, seed=3)
        g.set_edge_probabilities(0.3)
        return (
            CoverageObjective.from_graph(g),
            InfluenceObjective.from_graph(g, 60, seed=2),
        )

    @staticmethod
    def _solve_all(objectives) -> None:
        for objective in objectives:
            greedy_max(objective, AverageUtility(), 3)

    def test_env_and_pin_apply_to_objectives_built_after(self, monkeypatch):
        calls: list = []
        self._spy(monkeypatch, "spy-env", calls)
        self._spy(monkeypatch, "spy-pin", calls)
        monkeypatch.setenv(KERNEL_ENV_VAR, "spy-env")
        built_under_env = self._objectives()
        set_default_kernel("spy-pin")
        built_under_pin = self._objectives()
        set_default_kernel(None)
        monkeypatch.delenv(KERNEL_ENV_VAR)

        calls.clear()
        self._solve_all(built_under_env)
        assert calls and set(calls) == {"spy-env"}
        calls.clear()
        self._solve_all(built_under_pin)
        assert calls and set(calls) == {"spy-pin"}
        calls.clear()
        self._solve_all(self._objectives())
        assert calls == []

    def test_oracles_do_not_resolve_per_call(self, monkeypatch):
        objectives = self._objectives()

        def no_lookup(name=None):
            raise AssertionError("gains oracle re-resolved its kernel")

        for module in ("repro.problems.coverage", "repro.problems.influence"):
            monkeypatch.setattr(f"{module}.get_kernel", no_lookup)
        self._solve_all(objectives)


class TestChunkEquivalence:
    """The BFS chunks: same reached keys, same RNG consumption."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_dense_chunk_bitwise(self, name):
        adjacency, g = _adjacency()
        n = g.num_nodes
        num_instances = 8
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        starts = np.arange(num_instances, dtype=np.int64) * n + np.arange(
            num_instances, dtype=np.int64
        )
        ref = get_kernel("baseline").reachability_chunk(
            adjacency, starts, num_instances, rng_a
        )
        out = get_kernel(name).reachability_chunk(
            adjacency, starts, num_instances, rng_b
        )
        np.testing.assert_array_equal(np.sort(ref), np.sort(out))
        # Post-chunk stream state must match: the next draw is shared.
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_sparse_chunk_bitwise(self, name):
        adjacency, g = _adjacency(seed=7)
        n = g.num_nodes
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        starts = np.array([0 * n + 3, 1 * n + 17, 2 * n + 40], dtype=np.int64)
        ref = get_kernel("baseline").reachability_chunk_sparse(
            adjacency, starts, rng_a
        )
        out = get_kernel(name).reachability_chunk_sparse(
            adjacency, starts, rng_b
        )
        np.testing.assert_array_equal(np.sort(ref), np.sort(out))
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_dense_chunk_nonuniform_probs(self, name):
        # Heterogeneous arc probabilities force the gathered comparison
        # (the uniform broadcast fast path must not be taken).
        (indptr, indices, probs), g = _adjacency(seed=13)
        probs = np.random.default_rng(8).uniform(0.05, 0.6, size=probs.size)
        adjacency = (indptr, indices, probs)
        n = g.num_nodes
        num_instances = 6
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        starts = np.arange(num_instances, dtype=np.int64) * n + np.arange(
            num_instances, dtype=np.int64
        )
        ref = get_kernel("baseline").reachability_chunk(
            adjacency, starts, num_instances, rng_a
        )
        out = get_kernel(name).reachability_chunk(
            adjacency, starts, num_instances, rng_b
        )
        np.testing.assert_array_equal(np.sort(ref), np.sort(out))
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_sparse_chunk_nonuniform_probs(self, name):
        (indptr, indices, probs), g = _adjacency(seed=17)
        probs = np.random.default_rng(9).uniform(0.05, 0.6, size=probs.size)
        adjacency = (indptr, indices, probs)
        n = g.num_nodes
        rng_a = np.random.default_rng(23)
        rng_b = np.random.default_rng(23)
        starts = np.array([0 * n + 5, 1 * n + 9, 2 * n + 33], dtype=np.int64)
        ref = get_kernel("baseline").reachability_chunk_sparse(
            adjacency, starts, rng_a
        )
        out = get_kernel(name).reachability_chunk_sparse(
            adjacency, starts, rng_b
        )
        np.testing.assert_array_equal(np.sort(ref), np.sort(out))
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_dense_empty_frontier(self, name):
        # A graph with no arcs: the chunk returns exactly the starts.
        indptr = np.zeros(6, dtype=np.int64)
        adjacency = (
            indptr,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        starts = np.array([2, 8], dtype=np.int64)
        out = get_kernel(name).reachability_chunk(
            adjacency, starts, 2, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(np.sort(out), starts)


class TestCountEquivalence:
    """Coverage counting and the CELF re-score."""

    #: Users behind the CSR below; its pool holds ~11k entries, so
    #: blocks land on both sides of numpy's SMALL_BLOCK_ENTRIES cutoff.
    NUM_USERS = 3000

    def _csr(self, rng):
        """200 slices of 0–119 entries (20 forced empty), 150 of one."""
        lengths = np.concatenate(
            [rng.integers(0, 120, size=200), np.ones(150, dtype=np.int64)]
        )
        lengths[rng.choice(200, size=20, replace=False)] = 0
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.concatenate(
            [np.sort(rng.choice(self.NUM_USERS, size=n, replace=False))
             for n in lengths]
        ).astype(np.int64)
        return lengths, indptr, indices

    @staticmethod
    def _block(lengths, target, rng):
        """Items, in random order, whose slices hold ``target`` entries.

        Takes every multi-entry slice that still fits, then tops up with
        single-entry ones.
        """
        order = rng.permutation(lengths.size)
        block, total = [], 0
        for item in order[lengths[order] != 1]:
            if total + lengths[item] <= target:
                block.append(item)
                total += int(lengths[item])
        block.extend(order[lengths[order] == 1][: target - total])
        assert lengths[block].sum() == target
        return np.asarray(block, dtype=np.int64)

    @pytest.mark.parametrize("name", OPTIMIZED)
    @pytest.mark.parametrize(
        "block", ["one", "cutoff", "cutoff+1", "pool", "empty-slices"]
    )
    @pytest.mark.parametrize("mask", ["random", "all-covered"])
    def test_group_counts_bitwise(self, name, block, mask):
        rng = np.random.default_rng(2)
        lengths, indptr, indices = self._csr(rng)
        if block == "one":
            items = np.array([int(np.argmax(lengths))], dtype=np.int64)
        elif block == "pool":
            items = np.arange(lengths.size, dtype=np.int64)
        elif block == "empty-slices":
            items = np.flatnonzero(lengths == 0).astype(np.int64)
        else:
            target = SMALL_BLOCK_ENTRIES + (block == "cutoff+1")
            items = self._block(lengths, target, rng)
        if mask == "random":
            covered = rng.random(self.NUM_USERS) < 0.3
        else:
            covered = np.ones(self.NUM_USERS, dtype=bool)
        labels = rng.integers(0, 3, size=self.NUM_USERS).astype(np.int64)
        ref = get_kernel("baseline").group_counts(
            indptr, indices, items, covered, labels, 3
        )
        out = get_kernel(name).group_counts(
            indptr, indices, items, covered, labels, 3
        )
        assert out.shape == (items.size, 3)
        np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_gains_rescore_bitwise(self, name):
        rng = np.random.default_rng(4)
        ids = np.unique(rng.integers(0, 200, size=60))
        covered = rng.random(200) < 0.4
        labels = rng.integers(0, 4, size=200).astype(np.int64)
        ref = get_kernel("baseline").gains_rescore(ids, covered, labels, 4)
        out = get_kernel(name).gains_rescore(ids, covered, labels, 4)
        np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_pack_chunk_keys_bitwise(self, name):
        rng = np.random.default_rng(6)
        n, num_instances = 50, 12
        keys = np.unique(
            rng.integers(0, num_instances * n, size=300)
        ).astype(np.int64)
        ref_indptr, ref_nodes = get_kernel("baseline").pack_chunk_keys(
            keys, num_instances, n
        )
        out_indptr, out_nodes = get_kernel(name).pack_chunk_keys(
            keys, num_instances, n
        )
        np.testing.assert_array_equal(ref_indptr, out_indptr)
        np.testing.assert_array_equal(ref_nodes, out_nodes)
        assert out_indptr.dtype == np.int64
        assert out_nodes.dtype == np.int64

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_gains_rescore_empty(self, name):
        ids = np.zeros(0, dtype=np.int64)
        covered = np.zeros(10, dtype=bool)
        labels = np.zeros(10, dtype=np.int64)
        out = get_kernel(name).gains_rescore(ids, covered, labels, 2)
        np.testing.assert_array_equal(out, np.zeros(2, dtype=np.int64))


class TestEndToEndKernelInvariance:
    """The sampling stack produces identical collections per kernel."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_rr_collection_kernel_invariant(self, name):
        g = stochastic_block_model([40, 40], 0.1, 0.02, seed=9)
        g.set_edge_probabilities(0.2)
        set_default_kernel("baseline")
        reference = sample_rr_collection(g, 200, seed=5)
        set_default_kernel(name)
        col = sample_rr_collection(g, 200, seed=5)
        np.testing.assert_array_equal(
            reference.set_indptr, col.set_indptr
        )
        np.testing.assert_array_equal(
            reference.set_indices, col.set_indices
        )
        np.testing.assert_array_equal(
            reference.root_groups, col.root_groups
        )

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_greedy_solution_kernel_invariant(self, name):
        from repro.core.problem import BSMProblem
        from repro.datasets.registry import load_dataset

        data = load_dataset("rand-im-c2", seed=0)
        results = {}
        for kernel in ("baseline", name):
            set_default_kernel(kernel)
            from repro.problems.influence import InfluenceObjective

            objective = InfluenceObjective.from_graph(data.graph, 300, seed=1)
            problem = BSMProblem(objective, k=3, tau=0.0)
            results[kernel] = problem.solve("greedy")
        set_default_kernel(None)
        assert results[name].solution == results["baseline"].solution
        assert results[name].utility == results["baseline"].utility
