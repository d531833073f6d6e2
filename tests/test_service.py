"""Tests for the persistent solver service layer.

Covers the byte-budgeted cache primitives (`repro.utils.caching`), warm
session reuse, request coalescing (bitwise-equal to sequential solves on
all five problem domains), LRU eviction + ``Graph.version``
invalidation, the engine ops, and the JSON-lines daemon loop.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.dynamic import DynamicMaximizer
from repro.datasets.registry import load_dataset
from repro.service.daemon import serve_forever
from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    Request,
    decode_response,
    encode_response,
)
from repro.service.session import (
    SolverSession,
    reset_shared_sessions,
    shared_session,
)
from repro.utils.caching import BoundedCache, estimate_nbytes, lru_bound

#: One small dataset per problem domain (the coalescing acceptance bar
#: is "bitwise-identical on all five domains").
FIVE_DOMAINS = (
    "rand-mc-c2",
    "rand-im-c2",
    "rand-fl-c2",
    "rec-latent-c2",
    "summ-blobs-c2",
)

IM_SAMPLES = 300


# ---------------------------------------------------------------------------
# BoundedCache / lru_bound primitives
# ---------------------------------------------------------------------------
class TestBoundedCache:
    def test_budget_never_exceeded(self):
        cache = BoundedCache(100, sizeof=len)
        for i in range(20):
            cache.put(i, b"x" * 30)
            assert cache.current_bytes <= 100
        assert len(cache) == 3
        assert cache.stats.evictions == 17

    def test_lru_eviction_order(self):
        cache = BoundedCache(100, sizeof=len)
        cache.put("a", b"x" * 40)
        cache.put("b", b"x" * 40)
        cache.get("a")  # refresh a -> b is now LRU
        cache.put("c", b"x" * 40)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_oversize_value_rejected_not_stored(self):
        cache = BoundedCache(10, sizeof=len)
        cache.put("big", b"x" * 50)
        assert "big" not in cache
        assert cache.stats.rejected == 1
        assert cache.current_bytes == 0

    def test_get_or_create_counts_hits_and_misses(self):
        cache = BoundedCache(1000, sizeof=len)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or b"v")
            assert value == b"v"
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_validate_forces_recompute(self):
        cache = BoundedCache(1000, sizeof=len)
        cache.put("k", b"stale")
        fresh = cache.get_or_create(
            "k", lambda: b"fresh", validate=lambda v: v != b"stale"
        )
        assert fresh == b"fresh"
        assert cache.stats.invalidations == 1

    def test_anchor_identity_checked(self):
        cache = BoundedCache(1000, sizeof=len)
        anchor_a, anchor_b = object(), object()
        cache.get_or_create("k", lambda: b"a", anchor=anchor_a)
        value = cache.get_or_create("k", lambda: b"b", anchor=anchor_b)
        assert value == b"b"  # anchor moved -> entry invalidated
        assert cache.stats.invalidations == 1

    def test_peek_does_not_touch_stats(self):
        cache = BoundedCache(1000, sizeof=len)
        cache.put("k", b"v")
        assert cache.peek("k") == b"v"
        assert cache.peek("missing", b"d") == b"d"
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_pop_and_clear_release_bytes(self):
        cache = BoundedCache(1000, sizeof=len)
        cache.put("k", b"x" * 10)
        assert cache.pop("k") == b"x" * 10
        assert cache.current_bytes == 0
        cache.put("k2", b"y" * 10)
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            BoundedCache(0)


class TestEstimateNbytes:
    def test_numpy_arrays_report_nbytes(self):
        arr = np.zeros(1000, dtype=np.float64)
        assert estimate_nbytes(arr) == arr.nbytes

    def test_memory_bytes_hook_trusted(self):
        class Sized:
            def memory_bytes(self):
                return 12345

        assert estimate_nbytes(Sized()) == 12345

    def test_containers_recurse(self):
        arr = np.zeros(100, dtype=np.int64)
        assert estimate_nbytes([arr, arr.copy()]) >= 2 * arr.nbytes

    def test_cycles_terminate(self):
        a: list = []
        a.append(a)
        assert estimate_nbytes(a) > 0

    def test_influence_objective_hook(self):
        data = load_dataset("rand-im-c2", seed=0, num_nodes=30)
        from repro.problems.influence import InfluenceObjective

        obj = InfluenceObjective.from_graph(data.graph, 100, seed=0)
        assert estimate_nbytes(obj) == obj.memory_bytes() > 0


class TestLruBound:
    def test_caches_by_default_key(self):
        calls = []

        @lru_bound(10_000)
        def fn(x, y=1):
            calls.append((x, y))
            return x + y

        assert fn(1) == 2 and fn(1) == 2 and fn(1, y=2) == 3
        assert calls == [(1, 1), (1, 2)]
        assert fn.cache_stats().hits == 1

    def test_custom_key_and_validate(self):
        calls = []

        @lru_bound(10_000, key=lambda obj: id(obj),
                   validate=lambda value, obj: value == len(obj))
        def measure(obj):
            calls.append(1)
            return len(obj)

        items = [1, 2]
        assert measure(items) == 2
        items.append(3)  # same id, stale cached value -> revalidated
        assert measure(items) == 3
        assert len(calls) == 2

    def test_cache_clear(self):
        @lru_bound(10_000)
        def fn(x):
            return object()

        first = fn(1)
        fn.cache_clear()
        assert fn(1) is not first


# ---------------------------------------------------------------------------
# SolverSession
# ---------------------------------------------------------------------------
class TestSolverSession:
    def test_static_objective_is_dataset_objective(self):
        data = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        session = SolverSession(data)
        assert session.objective() is data.objective

    def test_warm_reuse_zero_sampling(self):
        # Second identical request does no sampling: the exact same
        # objective instance (hence RR collection) is served, the only
        # new work is the solve itself.
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        session = SolverSession(data)
        obj1 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        calls_after_sampling = obj1.batch_oracle_calls
        obj2 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        assert obj2 is obj1
        assert obj2.collection is obj1.collection
        # The cache hit did not touch the oracle at all.
        assert obj2.batch_oracle_calls == calls_after_sampling
        stats = session.objective_cache.stats
        assert stats.misses == 1 and stats.hits == 1

    def test_distinct_configs_sample_independently(self):
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        session = SolverSession(data)
        obj1 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        obj2 = session.objective(im_samples=IM_SAMPLES, sample_seed=8)
        assert obj1 is not obj2
        assert session.objective_cache.stats.entries == 2

    def test_graph_mutation_refreshes_in_place(self):
        # A graph mutation no longer strands the warm entry: the same
        # objective instance is served, brought up to date by refresh()
        # (here via the full-resample fallback — set_edge_probabilities
        # rewrites every arc, which the mutation log does not replay).
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        session = SolverSession(data)
        obj1 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        old_version = obj1.graph_version
        data.graph.set_edge_probabilities(0.5)  # bumps Graph.version
        obj2 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        assert obj2 is obj1  # warm entry kept, not evicted
        assert obj2.graph_version == data.graph.version != old_version
        assert session.full_resamples == 1
        assert session.sets_total > 0

    def test_arc_mutation_repairs_incrementally(self):
        # A single-arc mutation repairs only the affected RR sets — no
        # full resample, same instance, accounting updated.
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        session = SolverSession(data)
        obj1 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        u, v, _ = next(data.graph.edges())
        data.graph.set_arc_probability(u, v, 0.9)
        obj2 = session.objective(im_samples=IM_SAMPLES, sample_seed=7)
        assert obj2 is obj1
        assert session.full_resamples == 0 and session.repairs == 1
        assert 0 <= session.sets_repaired < session.sets_total
        stats = session.stats()["repair"]
        assert stats["repairs"] == 1
        assert 0.0 <= stats["repair_ratio"] < 1.0

    def test_lru_eviction_within_budget(self):
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        probe = SolverSession(data)
        single = estimate_nbytes(
            probe.objective(im_samples=IM_SAMPLES, sample_seed=0)
        )
        budget = int(2.5 * single)
        session = SolverSession(data, objective_budget=budget)
        for sample_seed in range(6):
            session.objective(
                im_samples=IM_SAMPLES, sample_seed=sample_seed
            )
            assert session.objective_cache.current_bytes <= budget
        assert session.objective_cache.stats.evictions > 0

    def test_evaluate_mc_bundle_reused(self):
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        session = SolverSession(data)
        one = session.evaluate_mc((1, 2), mc_simulations=50, mc_seed=3)
        two = session.evaluate_mc((2, 1), mc_simulations=50, mc_seed=3)
        assert one == two  # solution order is normalised in the key
        stats = session.evaluation_cache.stats
        assert stats.misses == 1 and stats.hits == 1

    def test_solve_through_registry(self):
        data = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        session = SolverSession(data)
        result = session.solve("bsm-saturate", 3, 0.6)
        assert result.size == 3 and result.feasible

    def test_dynamic_instance_persists(self):
        data = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        session = SolverSession(data)
        dyn1 = session.dynamic(3)
        dyn1.insert(0)
        dyn2 = session.dynamic(3)
        assert dyn2 is dyn1
        assert 0 in dyn2.live_items

    def test_dynamic_store_is_bounded(self):
        from repro.service.session import MAX_DYNAMIC_INSTANCES

        data = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        session = SolverSession(data)
        for k in range(1, MAX_DYNAMIC_INSTANCES + 5):
            session.dynamic(k)
        assert len(session.dynamic_cache) == MAX_DYNAMIC_INSTANCES
        assert session.dynamic_cache.stats.evictions == 4

    def test_dynamic_repaired_across_graph_version(self):
        # The live maximizer survives a graph mutation: its backing
        # objective is repaired (or resampled, for wholesale rewrites)
        # and the maintained solution rebuilt — live set intact.
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        session = SolverSession(data)
        dyn1 = session.dynamic(3, im_samples=IM_SAMPLES)
        dyn1.insert(0)
        dyn1.insert(5)
        data.graph.set_edge_probabilities(0.5)  # bumps Graph.version
        dyn2 = session.dynamic(3, im_samples=IM_SAMPLES)
        assert dyn2 is dyn1  # warm instance kept
        assert dyn2.live_items == frozenset({0, 5})  # stream state intact
        assert not dyn2.stale  # rebuilt against the refreshed objective
        assert dyn2.objective.graph_version == data.graph.version
        assert session.repairs == 1

    def test_stats_shape(self):
        data = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        session = SolverSession(data)
        session.objective()
        stats = session.stats()
        assert stats["dataset"] == "rand-mc-c2"
        assert {"hits", "misses", "current_bytes", "budget_bytes"} <= set(
            stats["objective"]
        )
        json.dumps(stats)  # JSON-safe


class TestSharedSessions:
    def test_identity_keyed(self):
        reset_shared_sessions()
        a = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        b = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        assert shared_session(a) is shared_session(a)
        assert shared_session(a) is not shared_session(b)

    def test_law_keyed_but_worker_count_shared(self):
        reset_shared_sessions()
        data = load_dataset("rand-mc-c2", seed=0, num_nodes=60)
        serial = shared_session(data, workers=None)
        units2 = shared_session(data, workers=2)
        units4 = shared_session(data, workers=4)
        assert serial is not units2
        assert units2 is units4  # same decomposition law


# ---------------------------------------------------------------------------
# Coalescing: bitwise-equal to sequential solves on all five domains
# ---------------------------------------------------------------------------
class TestCoalescing:
    @pytest.mark.parametrize("dataset", FIVE_DOMAINS)
    def test_bitwise_equal_to_sequential(self, dataset):
        requests = [
            Request(op="solve", dataset=dataset, algorithm="greedy",
                    k=2, id="k2", im_samples=IM_SAMPLES),
            Request(op="solve", dataset=dataset, algorithm="greedy",
                    k=4, id="k4", im_samples=IM_SAMPLES),
            Request(op="solve", dataset=dataset, algorithm="greedy",
                    k=2, id="dup", im_samples=IM_SAMPLES),
        ]
        coalescing = ServiceEngine()
        batch = coalescing.handle_batch(list(requests))
        sequential_engine = ServiceEngine()
        sequential = [sequential_engine.handle(r) for r in requests]
        assert coalescing.coalesced_runs == 1
        assert coalescing.coalesced_requests == 3
        for got, want in zip(batch, sequential):
            assert got.ok and want.ok
            assert got.result["solution"] == want.result["solution"]
            assert got.result["utility"] == want.result["utility"]
            assert got.result["fairness"] == want.result["fairness"]
            assert got.result["group_values"] == want.result["group_values"]
            assert got.result["extra"]["coalesced"] is True
            assert got.result["extra"]["coalesced_width"] == 3

    def test_incompatible_requests_not_coalesced(self):
        engine = ServiceEngine()
        responses = engine.handle_batch([
            Request(op="solve", dataset="rand-mc-c2", algorithm="greedy",
                    k=2),
            Request(op="solve", dataset="rand-mc-c4", algorithm="greedy",
                    k=2),
            Request(op="solve", dataset="rand-mc-c2",
                    algorithm="bsm-saturate", k=2, tau=0.5),
        ])
        assert all(r.ok for r in responses)
        assert engine.coalesced_runs == 0
        assert all(
            "coalesced" not in r.result.get("extra", {}) for r in responses
        )

    def test_coalesced_error_reported_per_request(self):
        engine = ServiceEngine()
        responses = engine.handle_batch([
            Request(op="solve", dataset="rand-mc-c2", algorithm="greedy",
                    k=10_000),
            Request(op="solve", dataset="rand-mc-c2", algorithm="greedy",
                    k=20_000),
        ])
        assert all(not r.ok for r in responses)
        assert all(r.error for r in responses)


# ---------------------------------------------------------------------------
# ServiceEngine ops
# ---------------------------------------------------------------------------
class TestEngineOps:
    def test_solve_warm_flag_progression(self):
        engine = ServiceEngine()
        request = Request(op="solve", dataset="rand-im-c2",
                          algorithm="greedy", k=3, im_samples=IM_SAMPLES)
        cold = engine.handle(request)
        warm = engine.handle(request)
        assert cold.ok and warm.ok
        assert not cold.warm and warm.warm
        assert warm.result["solution"] == cold.result["solution"]
        assert warm.cache["objective"]["hits"] >= 1

    def test_warm_flag_false_for_new_sampling_config(self):
        # A warm session does not make every request warm: asking for a
        # different sample budget pays a fresh sampling pass and must
        # say so.
        engine = ServiceEngine()
        engine.handle(Request(op="solve", dataset="rand-im-c2",
                              algorithm="greedy", k=3,
                              im_samples=IM_SAMPLES))
        other = engine.handle(Request(op="solve", dataset="rand-im-c2",
                                      algorithm="greedy", k=3,
                                      im_samples=IM_SAMPLES * 2))
        assert other.ok and not other.warm

    def test_solve_with_mc_rescoring(self):
        engine = ServiceEngine()
        response = engine.handle(Request(
            op="solve", dataset="rand-im-c2", algorithm="greedy", k=3,
            im_samples=IM_SAMPLES, mc_simulations=50,
        ))
        assert response.ok
        assert 0.0 <= response.result["mc_fairness"] <= 1.0
        assert response.result["mc_utility"] >= response.result["mc_fairness"]

    def test_evaluate_matches_objective(self):
        engine = ServiceEngine()
        response = engine.handle(Request(
            op="evaluate", dataset="rand-mc-c2", items=(1, 2, 3),
        ))
        data = load_dataset("rand-mc-c2", seed=0)
        values = data.objective.evaluate((1, 2, 3))
        expected_f = float(data.objective.group_weights @ values)
        assert response.ok
        assert response.result["utility"] == pytest.approx(expected_f)
        assert response.result["fairness"] == pytest.approx(
            float(values.min())
        )

    def test_update_matches_fresh_maximizer(self):
        events = (
            ("insert", 0), ("insert", 3), ("insert", 7), ("insert", 11),
            ("delete", 3), ("insert", 5),
        )
        engine = ServiceEngine()
        response = engine.handle(Request(
            op="update", dataset="rand-mc-c2", k=3, events=events,
        ))
        data = load_dataset("rand-mc-c2", seed=0)
        reference = DynamicMaximizer(data.objective, 3)
        reference.process_events(events)
        expected = reference.best()
        assert response.ok
        assert tuple(response.result["solution"]) == expected.solution
        assert response.result["inserted"] == 5
        assert response.result["deleted"] == 1
        assert response.result["live_items"] == 4

    def test_encode_matches_asdict_bytes(self):
        # The encoder builds the top-level dict without deep-copying
        # ``result``/``cache``; the bytes must be what ``asdict`` gave.
        engine = ServiceEngine()
        requests = [
            Request(op="solve", dataset="rand-mc-c2", algorithm="greedy",
                    k=3),
            Request(op="evaluate", dataset="rand-mc-c2", items=(1, 2, 3)),
            Request(op="update", dataset="rand-mc-c2", k=3,
                    events=(("insert", 0), ("insert", 3))),
            Request(op="stats"),
            Request(op="solve", dataset="no-such-dataset", k=3),
        ]
        responses = [engine.handle(request) for request in requests]
        assert [r.ok for r in responses] == [True, True, True, True, False]
        for response in responses:
            assert encode_response(response) == json.dumps(
                asdict(response), separators=(",", ":")
            )

    def test_update_invalid_batch_applies_nothing(self):
        engine = ServiceEngine()
        bad = engine.handle(Request(
            op="update", dataset="rand-mc-c2", k=3,
            events=(("insert", 3), ("insert", 10**6)),
        ))
        assert not bad.ok and "out of range" in bad.error
        # The valid prefix must not have leaked into the live state.
        after = engine.handle(Request(
            op="update", dataset="rand-mc-c2", k=3, events=(),
        ))
        assert after.ok and after.result["live_items"] == 0

    def test_update_state_persists_across_requests(self):
        engine = ServiceEngine()
        first = engine.handle(Request(
            op="update", dataset="rand-mc-c2", k=3,
            events=(("insert", 0), ("insert", 3)),
        ))
        second = engine.handle(Request(
            op="update", dataset="rand-mc-c2", k=3,
            events=(("insert", 7),),
        ))
        assert first.ok and second.ok
        assert second.result["live_items"] == 3  # earlier inserts persist

    def test_update_edge_events_repair_warm_session(self):
        engine = ServiceEngine()
        first = engine.handle(Request(
            op="update", dataset="rand-im-c2", k=3, im_samples=IM_SAMPLES,
            events=(("insert", 0), ("insert", 5)),
        ))
        # The maximizer was built cold, so nothing was repaired in place.
        assert first.ok and not first.warm
        assert first.result["repaired"] is False
        assert first.result["edges_applied"] == 0
        # Mutate an arc that provably exists (same dataset seed as the
        # engine's session) and update again: the warm maximizer must
        # repair its sampled state instead of rebuilding.
        graph = load_dataset("rand-im-c2", seed=0).graph
        u, v, _ = next(graph.edges())
        second = engine.handle(Request(
            op="update", dataset="rand-im-c2", k=3, im_samples=IM_SAMPLES,
            events=(("insert", 7),),
            edge_events=(("set_probability", u, v, 0.9),),
        ))
        assert second.ok and second.warm
        assert second.result["repaired"] is True
        assert second.result["edges_applied"] == 1
        assert second.result["live_items"] == 3
        repair = second.cache["repair"]
        assert repair["repairs"] >= 1
        assert repair["full_resamples"] == 0
        assert repair["sets_total"] >= IM_SAMPLES

    def test_update_edge_events_cold_session_reports_unrepaired(self):
        engine = ServiceEngine()
        graph = load_dataset("rand-im-c2", seed=0).graph
        u, v, _ = next(graph.edges())
        response = engine.handle(Request(
            op="update", dataset="rand-im-c2", k=3, im_samples=IM_SAMPLES,
            events=(("insert", 2),),
            edge_events=(("set_probability", u, v, 0.5),),
        ))
        # The update succeeded and applied the mutation, but there was
        # no warm sampled state to repair — the build was paid cold and
        # `repaired` must say so.
        assert response.ok and not response.warm
        assert response.result["edges_applied"] == 1
        assert response.result["repaired"] is False
        assert response.result["live_items"] == 1

    def test_update_edge_events_all_or_nothing(self):
        engine = ServiceEngine()
        before = engine.handle(Request(
            op="update", dataset="rand-im-c2", k=3, im_samples=IM_SAMPLES,
        ))
        assert before.ok
        graph = load_dataset("rand-im-c2", seed=0).graph
        missing = next(
            v for v in range(graph.num_nodes)
            if v != 0 and v not in graph.out_neighbors(0)
        )
        bad = engine.handle(Request(
            op="update", dataset="rand-im-c2", k=3, im_samples=IM_SAMPLES,
            edge_events=(
                ("add_edge", 0, 1, 0.5),
                ("set_probability", 0, missing, 0.5),  # arc absent
            ),
        ))
        assert not bad.ok and "not present" in bad.error
        # The valid prefix must not have mutated the graph.
        after = engine.handle(Request(
            op="update", dataset="rand-im-c2", k=3, im_samples=IM_SAMPLES,
        ))
        assert after.ok and after.result["repaired"] is True
        assert after.cache["repair"]["repairs"] == 0

    def test_update_edge_events_rejected_on_static_dataset(self):
        engine = ServiceEngine()
        response = engine.handle(Request(
            op="update", dataset="rand-mc-c2", k=3,
            edge_events=(("add_edge", 0, 1, 0.5),),
        ))
        assert not response.ok
        assert "influence" in response.error

    def test_sweep_matches_direct_harness(self):
        engine = ServiceEngine()
        response = engine.handle(Request(
            op="sweep", dataset="rand-mc-c2", k=3, parameter="tau",
            values=(0.3, 0.7), algorithms=("Greedy", "BSM-Saturate"),
        ))
        from repro.experiments.harness import sweep_tau

        data = load_dataset("rand-mc-c2", seed=0)
        direct = sweep_tau(
            data, 3, (0.3, 0.7),
            algorithms=("Greedy", "BSM-Saturate"), seed=0,
        )
        assert response.ok
        got = [
            (row["algorithm"], row["value"], row["utility"], row["fairness"])
            for row in response.result["rows"]
        ]
        want = [
            (row.algorithm, row.value, row.utility, row.fairness)
            for row in direct.rows
        ]
        assert got == want

    def test_pareto_op(self):
        engine = ServiceEngine()
        response = engine.handle(Request(
            op="pareto", dataset="rand-mc-c2", k=3,
            values=(0.2, 0.8), algorithms=("BSM-Saturate",),
        ))
        assert response.ok
        frontier = response.result["frontiers"]["BSM-Saturate"]
        assert frontier["hypervolume"] >= 0
        assert all(
            {"tau", "utility", "fairness"} <= set(point)
            for point in frontier["points"]
        )

    def test_unknown_dataset_is_clean_error(self):
        engine = ServiceEngine()
        response = engine.handle(Request(op="solve", dataset="nope"))
        assert not response.ok and "unknown dataset" in response.error

    def test_unknown_op_is_clean_error(self):
        # A hand-built flat request reaches the engine as it is (only
        # the decoder lifts): an op with no handler is answered, alone
        # or inside a batch, without disturbing its neighbours.
        engine = ServiceEngine()
        response = engine.handle(Request(op="bogus", id="x"))
        assert not response.ok
        assert response.error == "ValueError: unhandled op 'bogus'"
        solve = Request(op="solve", id="s", dataset="rand-mc-c2", k=2)
        batch = engine.handle_batch([Request(op="bogus", id="x"), solve])
        assert [r.id for r in batch] == ["x", "s"]
        assert batch[0] == response
        assert batch[1].ok and batch[1].result["size"] == 2

    def test_stats_op(self):
        engine = ServiceEngine()
        engine.handle(Request(op="solve", dataset="rand-mc-c2", k=2,
                              algorithm="greedy"))
        stats = engine.handle(Request(op="stats"))
        assert stats.ok
        assert stats.result["requests_served"] >= 1
        assert stats.result["sessions"][0]["dataset"] == "rand-mc-c2"

    def test_session_registry_bounded(self):
        engine = ServiceEngine(max_sessions=2)
        for name in ("rand-mc-c2", "rand-mc-c4", "rand-fl-c2"):
            engine.handle(Request(op="solve", dataset=name, k=2,
                                  algorithm="greedy"))
        assert engine.stats()["session_registry"]["entries"] == 2
        assert engine.stats()["session_registry"]["evictions"] == 1


# ---------------------------------------------------------------------------
# Daemon loop
# ---------------------------------------------------------------------------
class TestDaemon:
    def run_script(self, lines):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        status = serve_forever(stdin, stdout)
        responses = [
            decode_response(line)
            for line in stdout.getvalue().splitlines()
        ]
        return status, responses

    def test_mixed_script_and_shutdown(self):
        status, responses = self.run_script([
            json.dumps({"op": "solve", "dataset": "rand-mc-c2", "k": 2,
                        "algorithm": "greedy", "id": "s1"}),
            "",  # blank lines are skipped
            json.dumps([
                {"op": "solve", "dataset": "rand-mc-c2", "k": 2,
                 "algorithm": "greedy", "id": "b1"},
                {"op": "solve", "dataset": "rand-mc-c2", "k": 3,
                 "algorithm": "greedy", "id": "b2"},
            ]),
            json.dumps({"op": "shutdown", "id": "bye"}),
        ])
        assert status == 0
        by_id = {r.id: r for r in responses}
        assert by_id["s1"].ok and by_id["b1"].ok and by_id["b2"].ok
        assert by_id["b1"].result["extra"]["coalesced"] is True
        assert by_id["bye"].result == {"stopping": True}

    def test_batch_responses_keep_member_order_and_ids(self):
        # A parse failure inside an array line must answer at its
        # member's position, carrying the member's id when present.
        status, responses = self.run_script([
            json.dumps([
                {"op": "teleport", "id": "bad"},
                {"op": "stats", "id": "good"},
            ]),
        ])
        assert status == 0
        assert [r.id for r in responses] == ["bad", "good"]
        assert [r.ok for r in responses] == [False, True]

    def test_malformed_lines_do_not_kill_daemon(self):
        status, responses = self.run_script([
            "this is not json",
            json.dumps({"op": "teleport"}),
            json.dumps({"op": "solve", "dataset": "rand-mc-c2", "k": 2,
                        "algorithm": "greedy", "id": "ok"}),
        ])
        assert status == 0  # EOF exit
        assert [r.ok for r in responses] == [False, False, True]

    def test_eof_without_shutdown_is_clean(self):
        status, responses = self.run_script([
            json.dumps({"op": "stats", "id": "s"}),
        ])
        assert status == 0 and responses[0].ok


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------
class TestCLI:
    def test_request_subcommand(self, capsys):
        from repro.cli import main

        status = main([
            "request",
            json.dumps({"op": "solve", "dataset": "rand-mc-c2", "k": 3,
                        "algorithm": "greedy"}),
        ])
        assert status == 0
        response = decode_response(capsys.readouterr().out.strip())
        assert response.ok and response.result["size"] == 3

    def test_request_subcommand_invalid_json(self, capsys):
        from repro.cli import main

        status = main(["request", "{broken"])
        assert status == 2
        assert "invalid request" in capsys.readouterr().err

    def test_request_subcommand_failed_op_exits_nonzero(self, capsys):
        from repro.cli import main

        status = main([
            "request", json.dumps({"op": "solve", "dataset": "rand-mc-c2",
                                   "k": 100_000}),
        ])
        assert status == 1

    def test_serve_subcommand(self, capsys, monkeypatch):
        from repro.cli import main

        script = "\n".join([
            json.dumps({"op": "solve", "dataset": "rand-mc-c2", "k": 2,
                        "algorithm": "greedy", "id": "a"}),
            json.dumps({"op": "shutdown", "id": "z"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        status = main(["serve"])
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        responses = [decode_response(line) for line in lines]
        assert [r.id for r in responses] == ["a", "z"]
        assert all(r.ok for r in responses)


# ---------------------------------------------------------------------------
# Harness cache budget regression (satellite: the old unbounded module
# caches must stay dead)
# ---------------------------------------------------------------------------
class TestHarnessCacheBudget:
    def test_harness_has_no_module_level_dict_caches(self):
        from repro.experiments import harness

        module_dicts = [
            name for name, value in vars(harness).items()
            if isinstance(value, dict) and name.isupper()
        ]
        assert module_dicts == []

    def test_fifty_point_sweep_stays_under_budget(self):
        # 50 distinct sampling configurations (the pathological long-run
        # workload: every point misses) must never push the objective
        # cache past its byte budget.
        data = load_dataset("rand-im-c2", seed=0, num_nodes=40)
        probe = SolverSession(data)
        single = estimate_nbytes(
            probe.objective(im_samples=IM_SAMPLES, sample_seed=0)
        )
        budget = int(3.5 * single)
        session = SolverSession(data, objective_budget=budget)
        for point in range(50):
            session.objective(im_samples=IM_SAMPLES, sample_seed=point)
            assert session.objective_cache.current_bytes <= budget
        stats = session.objective_cache.stats
        assert stats.misses == 50
        assert stats.evictions >= 46

    def test_sweep_tau_many_points_bounded(self):
        # A long tau sweep reuses one collection and keeps the MC bundle
        # cache bounded by construction.
        from repro.experiments.harness import sweep_tau

        reset_shared_sessions()
        data = load_dataset("rand-im-c2", seed=1, num_nodes=40)
        taus = tuple(np.linspace(0.02, 0.98, 50))
        sweep = sweep_tau(
            data, 3, taus,
            algorithms=("Greedy", "BSM-TSGreedy"),
            im_samples=IM_SAMPLES, mc_simulations=20, seed=3,
        )
        assert len(sweep.rows) == 2 * 50
        session = shared_session(data)
        assert session.objective_cache.stats.misses == 1  # one sampling pass
        eval_stats = session.evaluation_cache.stats
        assert eval_stats.current_bytes <= eval_stats.budget_bytes
        assert eval_stats.hits > 0  # repeated solutions reused bundles
