"""Tests for the shared-memory parallel execution backend.

Two layers of coverage:

* unit tests for :mod:`repro.utils.parallel` itself (worker resolution,
  deterministic unit sizing, seed spawning, shared-memory round-trips,
  pool dispatch order);
* the worker-count invariance contract — for a fixed seed, RR
  collections, Monte-Carlo spreads, and GreeDi solutions are
  bitwise-identical for ``workers`` in {1, 2, 4}, on multiple
  objectives.

The pool paths genuinely fork OS processes, so the instances here stay
small; determinism is a property of the decomposition, not the size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributed import greedi
from repro.core.functions import TruncatedFairness
from repro.datasets.registry import load_dataset
from repro.graphs.generators import stochastic_block_model
from repro.influence.ic_model import monte_carlo_group_spread, monte_carlo_spread
from repro.influence.imm import imm_rr_collection
from repro.influence.ris import sample_rr_collection
from repro.kernels import set_default_kernel
from repro.utils.parallel import (
    DEFAULT_UNITS,
    SharedArrays,
    WorkerContext,
    attach_shared,
    available_cpus,
    fork_available,
    get_pool,
    parallel_imap,
    parallel_map,
    pool_stats,
    pool_width,
    resolve_backend,
    resolve_workers,
    set_default_backend,
    shutdown_pools,
    spawn_seed_sequences,
    split_ranges,
    unit_size_for,
)

WORKER_COUNTS = (1, 2, 4)


def _im_graph(seed: int = 11):
    g = stochastic_block_model([50, 50], 0.1, 0.02, seed=seed)
    g.set_edge_probabilities(0.2)
    return g


class TestResolveWorkers:
    def test_none_zero_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_means_available_cpus(self):
        assert resolve_workers(-1) == available_cpus()

    def test_available_cpus_prefers_affinity(self):
        # workers=-1 must size to the CPUs this process may actually
        # run on (cgroup/affinity mask), not the machine core count.
        import os

        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpus() == (os.cpu_count() or 1)


class TestBackendResolution:
    def test_default_backend_is_thread(self):
        assert resolve_backend(None) == "thread"

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_known_backends_pass_through(self, name):
        assert resolve_backend(name) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_pool_width_serial_backend_pins_one(self):
        assert pool_width(4, 8, backend="serial") == 1

    def test_pool_width_thread_never_needs_fork(self):
        # The fork gate applies only to the process backend; threads
        # are always available.
        assert pool_width(4, 8, backend="thread") == 4

    def test_pool_width_caps_at_task_count(self):
        assert pool_width(8, 3, backend="thread") == 3


class TestBackendPin:
    """``set_default_backend`` is the one way to pick the pool flavour."""

    def test_pin_feeds_resolution_and_pool_width(self):
        set_default_backend("serial")
        assert resolve_backend(None) == "serial"
        assert pool_width(4, 8) == 1
        assert resolve_backend("thread") == "thread"  # explicit wins
        set_default_backend(None)
        assert resolve_backend(None) == "thread"

    def test_unknown_pin_rejected_and_pin_kept(self):
        set_default_backend("serial")
        with pytest.raises(ValueError):
            set_default_backend("gpu")
        assert resolve_backend(None) == "serial"

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_process_pin_spawns_process_pool_with_same_bits(self):
        g = _im_graph()
        set_default_backend("serial")
        reference = sample_rr_collection(g, 200, seed=5, workers=1)
        shutdown_pools()
        try:
            set_default_backend("process")
            col = sample_rr_collection(g, 200, seed=5, workers=2)
            backends = {
                pool["backend"] for pool in pool_stats()["active_pools"]
            }
            assert "process" in backends
        finally:
            shutdown_pools()
        np.testing.assert_array_equal(reference.set_indptr, col.set_indptr)
        np.testing.assert_array_equal(reference.set_indices, col.set_indices)
        np.testing.assert_array_equal(reference.root_groups, col.root_groups)

    def test_service_engine_config_sets_pin(self):
        from repro.service import ServiceEngine

        engine = ServiceEngine(exec_backend="serial")
        assert resolve_backend(None) == "serial"
        assert engine.stats()["exec_backend"] == "serial"
        later = ServiceEngine()
        assert resolve_backend(None) == "serial"
        assert later.stats()["config"]["exec_backend"] is None

    def test_service_engine_rejects_unknown_backend(self):
        from repro.service import ServiceEngine

        with pytest.raises(ValueError):
            ServiceEngine(exec_backend="gpu")
        assert resolve_backend(None) == "thread"


class TestPersistentPools:
    def test_get_pool_reuses_instance(self):
        shutdown_pools()
        try:
            a = get_pool("thread", 2)
            assert get_pool("thread", 2) is a
            assert get_pool("thread", 3) is not a
        finally:
            shutdown_pools()
        assert pool_stats()["active_pools"] == []

    def test_get_pool_rejects_serial(self):
        with pytest.raises(ValueError):
            get_pool("serial", 2)

    def test_pool_stats_counts_dispatches(self):
        shutdown_pools()
        try:
            spawns_before = pool_stats()["pool_spawns"]
            data = np.arange(50, dtype=np.int64)
            tasks = [(0, 10), (10, 30), (30, 50)]
            out = parallel_map(
                _sum_task, tasks, workers=2, backend="thread",
                shared=(data,), payload=1,
            )
            assert out == [int(data[lo:hi].sum()) + 1 for lo, hi in tasks]
            stats = pool_stats()
            assert stats["pool_spawns"] == spawns_before + 1
            active = [
                pool for pool in stats["active_pools"]
                if pool["backend"] == "thread" and pool["width"] == 2
            ]
            assert active
            assert active[0]["dispatches"] >= 1
            assert active[0]["tasks_run"] >= len(tasks)
        finally:
            shutdown_pools()

    def test_serial_dispatch_counter(self):
        before = pool_stats()["serial_dispatches"]
        parallel_map(
            _sum_task, [(0, 3)], workers=1,
            shared=(np.arange(3, dtype=np.int64),), payload=0,
        )
        assert pool_stats()["serial_dispatches"] == before + 1


class TestUnitDecomposition:
    def test_split_ranges_cover(self):
        ranges = split_ranges(10, 3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_split_ranges_rejects_nonpositive_unit(self):
        with pytest.raises(ValueError):
            split_ranges(5, 0)

    def test_unit_size_targets_default_units(self):
        size = unit_size_for(1600)
        assert size == 100
        assert len(split_ranges(1600, size)) == DEFAULT_UNITS

    def test_unit_size_honours_cap(self):
        assert unit_size_for(1600, cap=7) == 7

    def test_unit_size_never_zero(self):
        assert unit_size_for(0) == 1
        assert unit_size_for(3) == 1
        assert unit_size_for(5, cap=0) == 1


class TestSpawnSeedSequences:
    def test_deterministic_and_independent(self):
        a = spawn_seed_sequences(42, 4)
        b = spawn_seed_sequences(42, 4)
        vals_a = [np.random.default_rng(s).integers(0, 1 << 30) for s in a]
        vals_b = [np.random.default_rng(s).integers(0, 1 << 30) for s in b]
        assert vals_a == vals_b
        assert len(set(vals_a)) == 4

    def test_single_draw_regardless_of_count(self):
        # The caller's stream must advance identically whatever the unit
        # count, or downstream draws would depend on the decomposition.
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        spawn_seed_sequences(rng_a, 2)
        spawn_seed_sequences(rng_b, 16)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)


class TestSharedArrays:
    def test_round_trip(self):
        arrays = (
            np.arange(10, dtype=np.int64),
            np.linspace(0.0, 1.0, 7),
        )
        with SharedArrays(arrays) as shared:
            views, segments = attach_shared(shared.descriptor())
            try:
                for original, view in zip(arrays, views):
                    assert view.dtype == original.dtype
                    np.testing.assert_array_equal(np.array(view), original)
            finally:
                del views
                for segment in segments:
                    segment.close()

    def test_empty_array_round_trip(self):
        with SharedArrays((np.zeros(0, dtype=np.int64),)) as shared:
            views, segments = attach_shared(shared.descriptor())
            try:
                assert views[0].size == 0
            finally:
                del views
                for segment in segments:
                    segment.close()

    def test_close_is_idempotent(self):
        shared = SharedArrays((np.arange(3),))
        shared.close()
        shared.close()
        assert shared.descriptor() == []


def _sum_task(ctx: WorkerContext, task: tuple) -> int:
    lo, hi = task
    total = int(ctx.arrays[0][lo:hi].sum())
    return total + int(ctx.payload)


class TestParallelMap:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_results_in_task_order(self, workers):
        data = np.arange(100, dtype=np.int64)
        tasks = [(0, 10), (10, 50), (50, 100)]
        out = parallel_map(_sum_task, tasks, workers=workers, shared=(data,), payload=5)
        expected = [int(data[lo:hi].sum()) + 5 for lo, hi in tasks]
        assert out == expected

    def test_empty_tasks(self):
        assert parallel_map(_sum_task, [], workers=4) == []

    def test_serial_fallback_uses_caller_arrays(self):
        # workers=1 must not round-trip through shared memory: the
        # context carries the very arrays the caller passed.
        data = np.arange(4, dtype=np.int64)
        seen = parallel_map(_identity_arrays, [0], workers=1, shared=(data,))
        assert seen[0] is data


def _identity_arrays(ctx: WorkerContext, task: int):
    return ctx.arrays[0]


class TestParallelImap:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_streams_in_task_order(self, backend):
        data = np.arange(100, dtype=np.int64)
        tasks = [(0, 10), (10, 50), (50, 100)]
        out = list(
            parallel_imap(
                _sum_task, tasks, workers=2, backend=backend,
                shared=(data,), payload=5,
            )
        )
        assert out == [int(data[lo:hi].sum()) + 5 for lo, hi in tasks]

    def test_empty_tasks(self):
        assert list(parallel_imap(_sum_task, [], workers=4)) == []


class TestThreadBackendInvariance:
    """Thread-backend rows of the bitwise-identity matrix (no fork)."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_rr_collection_matches_serial_backend(self, workers):
        g = _im_graph()
        set_default_backend("serial")
        reference = sample_rr_collection(g, 200, seed=5, workers=1)
        set_default_backend("thread")
        col = sample_rr_collection(g, 200, seed=5, workers=workers)
        np.testing.assert_array_equal(reference.set_indptr, col.set_indptr)
        np.testing.assert_array_equal(reference.set_indices, col.set_indices)
        np.testing.assert_array_equal(reference.root_groups, col.root_groups)

    def test_mc_group_spread_matches_serial_backend(self):
        g = _im_graph()
        seeds = [0, 7, 23]
        set_default_backend("serial")
        reference = monte_carlo_group_spread(g, seeds, 150, seed=3, workers=1)
        set_default_backend("thread")
        for workers in WORKER_COUNTS[1:]:
            values = monte_carlo_group_spread(
                g, seeds, 150, seed=3, workers=workers
            )
            np.testing.assert_array_equal(reference, values)

    def test_greedi_thread_matches_serial(self):
        objective = load_dataset("rand-mc-c2", seed=0).objective
        reference = greedi(objective, 4, num_machines=4, seed=3)
        set_default_backend("thread")
        result = greedi(objective, 4, num_machines=4, seed=3, workers=2)
        assert result.solution == reference.solution
        assert result.oracle_calls == reference.oracle_calls
        assert result.extra["machine_calls"] == reference.extra["machine_calls"]


@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestWorkerCountInvariance:
    """The tentpole contract: results never depend on the worker count."""

    def test_rr_collection_bitwise_identical(self):
        g = _im_graph()
        reference = sample_rr_collection(g, 300, seed=5, workers=1)
        for workers in WORKER_COUNTS[1:]:
            col = sample_rr_collection(g, 300, seed=5, workers=workers)
            np.testing.assert_array_equal(reference.set_indptr, col.set_indptr)
            np.testing.assert_array_equal(reference.set_indices, col.set_indices)
            np.testing.assert_array_equal(reference.root_groups, col.root_groups)

    def test_rr_collection_unstratified_bitwise_identical(self):
        g = _im_graph()
        reference = sample_rr_collection(g, 300, seed=5, stratified=False, workers=1)
        for workers in WORKER_COUNTS[1:]:
            col = sample_rr_collection(
                g, 300, seed=5, stratified=False, workers=workers
            )
            np.testing.assert_array_equal(reference.set_indices, col.set_indices)

    def test_mc_group_spread_bitwise_identical(self):
        g = _im_graph()
        seeds = [0, 7, 23]
        reference = monte_carlo_group_spread(g, seeds, 200, seed=3, workers=1)
        for workers in WORKER_COUNTS[1:]:
            values = monte_carlo_group_spread(g, seeds, 200, seed=3, workers=workers)
            np.testing.assert_array_equal(reference, values)

    def test_mc_spread_bitwise_identical(self):
        g = _im_graph()
        reference = monte_carlo_spread(g, [1, 2], 200, seed=3, workers=1)
        for workers in WORKER_COUNTS[1:]:
            assert (
                monte_carlo_spread(g, [1, 2], 200, seed=3, workers=workers)
                == reference
            )

    def test_imm_collection_bitwise_identical(self):
        g = _im_graph()
        reference = imm_rr_collection(g, 2, max_samples=400, seed=8, workers=1)
        for workers in WORKER_COUNTS[1:]:
            result = imm_rr_collection(g, 2, max_samples=400, seed=8, workers=workers)
            np.testing.assert_array_equal(
                reference.collection.set_indices,
                result.collection.set_indices,
            )
            assert result.target_samples == reference.target_samples

    @pytest.mark.parametrize("dataset", ["rand-mc-c2", "rand-fl-c2"])
    def test_greedi_solutions_bitwise_identical(self, dataset):
        # Two objectives (coverage + facility location), per the
        # invariance checklist; serial (workers=None) is the reference.
        objective = load_dataset(dataset, seed=0).objective
        reference = greedi(objective, 4, num_machines=4, seed=3)
        assert reference.extra["workers_used"] == 1
        for workers in WORKER_COUNTS:
            result = greedi(objective, 4, num_machines=4, seed=3, workers=workers)
            assert result.solution == reference.solution
            assert result.oracle_calls == reference.oracle_calls
            assert result.extra["machine_calls"] == reference.extra["machine_calls"]
            assert result.extra["winner"] == reference.extra["winner"]
            assert result.extra["workers_used"] == min(workers, 4)

    def test_greedi_truncated_scalarizer_parallel(self):
        # A non-default scalarizer must survive the pickle round-trip.
        objective = load_dataset("rand-mc-c2", seed=0).objective
        scal = TruncatedFairness(0.5)
        reference = greedi(objective, 3, num_machines=2, seed=1, scalarizer=scal)
        result = greedi(
            objective, 3, num_machines=2, seed=1, scalarizer=scal, workers=2
        )
        assert result.solution == reference.solution

    def test_rr_sampling_legacy_default_unchanged(self):
        # workers=None keeps the pre-parallel stream: pin it against the
        # explicit serial call to catch accidental default switches.
        g = _im_graph()
        a = sample_rr_collection(g, 120, seed=2)
        b = sample_rr_collection(g, 120, seed=2, workers=None)
        np.testing.assert_array_equal(a.set_indices, b.set_indices)

    @pytest.mark.parametrize("exec_backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kernel", ["baseline", "numpy"])
    def test_backend_kernel_matrix_bitwise_identical(
        self, exec_backend, kernel
    ):
        # The full (backend, kernel, workers) cross: every combination
        # reproduces the workers=1 serial-backend baseline stream.
        g = _im_graph()
        set_default_backend("serial")
        set_default_kernel("baseline")
        reference = sample_rr_collection(g, 200, seed=5, workers=1)
        set_default_backend(exec_backend)
        set_default_kernel(kernel)
        for workers in WORKER_COUNTS:
            col = sample_rr_collection(g, 200, seed=5, workers=workers)
            np.testing.assert_array_equal(
                reference.set_indptr, col.set_indptr
            )
            np.testing.assert_array_equal(
                reference.set_indices, col.set_indices
            )


@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestHarnessWorkers:
    def test_sweep_rows_worker_invariant(self):
        from repro.experiments.harness import sweep_tau

        # A fresh dataset (hence a fresh graph identity) per worker
        # count: the harness caches key on graph id, so sharing one
        # dataset would hand the second sweep the first one's cached
        # collection and never exercise its parallel sampling path.
        sweeps = {
            workers: sweep_tau(
                load_dataset("rand-im-c2", seed=0),
                3,
                [0.5],
                im_samples=200,
                mc_simulations=50,
                seed=1,
                workers=workers,
            )
            for workers in (1, 2)
        }
        rows_a, rows_b = sweeps[1].rows, sweeps[2].rows
        assert len(rows_a) == len(rows_b)
        for a, b in zip(rows_a, rows_b):
            assert a.algorithm == b.algorithm
            assert a.utility == b.utility
            assert a.fairness == b.fairness


class TestCLIWorkersFlag:
    def test_solve_accepts_workers(self, capsys):
        from repro.cli import main

        argv = [
            "solve",
            "--dataset",
            "rand-im-c2",
            "--k",
            "2",
            "--im-samples",
            "150",
            "--workers",
            "2",
        ]
        assert main(argv) == 0
        assert "f(S)" in capsys.readouterr().out

    def test_parser_exposes_workers_everywhere(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["solve", "--dataset", "rand-mc-c2", "--workers", "2"],
            ["figure", "fig3", "--workers", "2"],
            ["chart", "fig3", "--workers", "2"],
            ["pareto", "--dataset", "rand-mc-c2", "--workers", "2"],
        ):
            assert parser.parse_args(argv).workers == 2

    def test_parser_exposes_backend(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["solve", "--dataset", "rand-mc-c2", "--backend", "thread"],
            ["serve", "--backend", "process"],
            ["request", "{}", "--backend", "serial"],
        ):
            assert parser.parse_args(argv).backend == argv[-1]

    def test_solve_accepts_backend(self, capsys):
        from repro.cli import main

        argv = [
            "solve", "--dataset", "rand-im-c2", "--k", "2",
            "--im-samples", "150", "--workers", "2",
            "--backend", "thread",
        ]
        assert main(argv) == 0
        assert "f(S)" in capsys.readouterr().out
