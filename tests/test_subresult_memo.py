"""The sub-result memo: BSM solves reuse Greedy and Saturate per version.

Both BSM algorithms start from ``greedy_utility`` (``S_f``) and
``saturate`` (``S_g``). ``GroupedObjective.subresult`` computes each
once per ``(solver, k, candidates)`` and objective version, and replays
the counters a recompute would advance. These tests pin that a memo hit
is bitwise a recompute, that an objective version change drops the
memo, and that top-level ``greedy`` / ``saturate`` requests stay out of
it.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import greedy_utility
from repro.core.bsm_saturate import bsm_saturate
from repro.core.functions import MAX_SUBRESULTS
from repro.core.problem import BSMProblem
from repro.core.saturate import saturate
from repro.core.tsgreedy import bsm_tsgreedy
from repro.datasets.registry import load_dataset
from repro.problems.influence import InfluenceObjective
from repro.service.engine import ServiceEngine
from repro.service.protocol import Request

IM_SAMPLES = 300
BSM_ALGORITHMS = ("bsm-tsgreedy", "bsm-saturate", "bsm-saturate-ls")
#: The serving benchmark's BSM datasets, one per domain but coverage.
DATASETS = ("rand-fl-c2", "rand-im-c2", "rec-latent-c2", "summ-blobs-c2")


def _fresh_objective(name: str):
    data = load_dataset(name, seed=0)
    if data.kind == "influence":
        return InfluenceObjective.from_graph(data.graph, IM_SAMPLES, seed=0)
    return data.objective


def _bits(objective, algorithm: str, k: int, tau: float):
    """One solve's result, every float as ``.hex()``, with the batched
    calls it advanced."""
    batch_before = objective.batch_oracle_calls
    result = BSMProblem(objective, k=k, tau=tau).solve(algorithm)
    extra = {
        key: float(value).hex() if isinstance(value, float) else value
        for key, value in result.extra.items()
    }
    return (
        result.algorithm,
        result.solution,
        [float(v).hex() for v in result.group_values],
        result.oracle_calls,
        objective.batch_oracle_calls - batch_before,
        result.feasible,
        extra,
    )


@pytest.mark.parametrize("dataset", DATASETS)
def test_repeated_bsm_solves_match_a_fresh_objective(dataset):
    warm = _fresh_objective(dataset)
    runs = [
        (algorithm, k, tau)
        for k in (3, 5)
        for tau in (0.5, 0.9)
        for algorithm in BSM_ALGORITHMS
    ]
    for algorithm, k, tau in runs + runs:
        fresh = _bits(_fresh_objective(dataset), algorithm, k, tau)
        assert _bits(warm, algorithm, k, tau) == fresh, (algorithm, k, tau)
    stats = warm.subresult_stats()
    # Two budgets, each with one S_f and one S_g computed.
    assert stats["misses"] == 4
    assert stats["hits"] > 0


def test_both_bsm_algorithms_share_one_saturate_run():
    objective = _fresh_objective("rand-fl-c2")
    saturate_runs = 0
    max_group_values = objective.max_group_values

    def counting():
        # Saturate reads the ground-set values once per run.
        nonlocal saturate_runs
        saturate_runs += 1
        return max_group_values()

    objective.max_group_values = counting
    BSMProblem(objective, k=5, tau=0.5).solve("bsm-tsgreedy")
    BSMProblem(objective, k=5, tau=0.9).solve("bsm-saturate")
    assert saturate_runs == 1
    assert objective.subresult_stats() == {"hits": 2, "misses": 2, "entries": 3}


def test_candidates_key_the_memo_as_a_set():
    objective = _fresh_objective("rand-fl-c2")
    pool = list(range(40))
    first = bsm_tsgreedy(objective, 4, 0.5, candidates=pool)
    again = bsm_tsgreedy(objective, 4, 0.5, candidates=(pool + pool)[::-1])
    assert objective.subresult_stats()["misses"] == 2
    assert again.solution == first.solution
    assert again.oracle_calls == first.oracle_calls
    bsm_tsgreedy(objective, 4, 0.5, candidates=pool[:30])
    assert objective.subresult_stats()["misses"] == 4


@pytest.mark.parametrize("solver", [bsm_tsgreedy, bsm_saturate])
def test_a_one_shot_candidate_iterator_matches_the_same_list(solver):
    # Greedy, Saturate and the covers each read the pool, so an
    # iterator used up by the first of them would starve the rest.
    pool = list(range(40))
    listed = solver(_fresh_objective("rand-fl-c2"), 4, 0.5, candidates=pool)
    streamed = solver(_fresh_objective("rand-fl-c2"), 4, 0.5, candidates=iter(pool))
    assert streamed.extra["opt_g_approx"] > 0.0
    assert streamed.solution == listed.solution
    assert streamed.group_values.tolist() == listed.group_values.tolist()
    assert streamed.extra == listed.extra


def test_memo_is_count_bounded():
    objective = _fresh_objective("rand-fl-c2")
    calls = 0

    def cheap(obj, k, candidates=None):
        nonlocal calls
        calls += 1
        return k

    for k in range(1, MAX_SUBRESULTS + 6):
        assert objective.subresult(cheap, k) == k
    assert objective.subresult_stats()["entries"] == MAX_SUBRESULTS
    # The newest entry is still there, the oldest is gone.
    objective.subresult(cheap, MAX_SUBRESULTS + 5)
    assert calls == MAX_SUBRESULTS + 5
    objective.subresult(cheap, 1)
    assert calls == MAX_SUBRESULTS + 6


def test_max_group_values_computes_once_per_version():
    objective = _fresh_objective("summ-blobs-c2")
    first = objective.max_group_values()
    calls_first = objective.oracle_calls
    first[:] = -1.0  # callers get their own copy
    again = objective.max_group_values()
    assert objective.oracle_calls == 2 * calls_first
    assert (again == _fresh_objective("summ-blobs-c2").max_group_values()).all()


def _hub_events():
    """Arcs that make one low-degree node reach a quarter of the graph,
    so ``S_f`` and ``S_g`` move when they land."""
    graph = load_dataset("rand-im-c2", seed=0).graph
    hub = min(range(graph.num_nodes), key=graph.out_degree)
    neighbors = set(graph.out_neighbors(hub))
    targets = [v for v in range(graph.num_nodes) if v != hub and v not in neighbors]
    limit = graph.num_nodes // 4
    return tuple(("add_edge", hub, v, 1.0) for v in targets[:limit])


def test_influence_refresh_drops_the_memo():
    data = load_dataset("rand-im-c2", seed=0)
    objective = InfluenceObjective.from_graph(data.graph, IM_SAMPLES, seed=0)
    BSMProblem(objective, k=5, tau=0.5).solve("bsm-saturate")
    assert objective.subresult_stats()["entries"] == 3
    for _, u, v, probability in _hub_events():
        data.graph.add_edge(u, v, probability=probability)
    epoch = objective.repair_epoch
    assert objective.refresh().sets_repaired > 0
    assert objective.repair_epoch == epoch + 1
    assert objective.subresult_stats()["entries"] == 0


# ---------------------------------------------------------------------------
# Through the service engine
# ---------------------------------------------------------------------------
def _request(op, dataset="rand-im-c2", **args):
    return Request(op=op, dataset=dataset, im_samples=IM_SAMPLES, **args)


def _solve(engine, algorithm):
    return engine.handle(_request("solve", algorithm=algorithm, k=5, tau=0.5))


def _update(engine, edge_events):
    return engine.handle(_request("update", k=5, edge_events=edge_events))


def _answer(response):
    assert response.ok, response.error
    result = dict(response.result)
    result.pop("runtime")
    return result


@pytest.mark.parametrize("store", ["ram", "mmap"])
def test_edge_update_makes_the_next_bsm_solve_miss(store):
    events = _hub_events()
    engine = ServiceEngine(store=store)
    before = _solve(engine, "bsm-saturate")
    assert _solve(engine, "bsm-tsgreedy").cache["subresults"]["hits"] == 2
    update = _update(engine, events)
    assert update.ok and update.result["edges_applied"] == len(events)
    assert update.cache["subresults"]["entries"] == 0
    after = _solve(engine, "bsm-saturate")
    memo = after.cache["subresults"]
    assert memo["misses"] == before.cache["subresults"]["misses"] + 2
    assert memo["hits"] == 2
    # A fresh engine that never solved before the update answers alike.
    replay = ServiceEngine(store=store)
    assert replay.handle(_request("evaluate", items=(0,))).ok
    assert _update(replay, events).ok
    assert _answer(after) == _answer(_solve(replay, "bsm-saturate"))
    assert _answer(after) != _answer(before)


def test_top_level_greedy_and_saturate_compute_their_answers():
    engine = ServiceEngine()
    _solve(engine, "bsm-tsgreedy")
    memo = engine.handle(Request(op="stats")).result["sessions"][0]["subresults"]
    greedy = _solve(engine, "greedy")
    sat = _solve(engine, "saturate")
    pair = engine.handle_batch(
        [_request("solve", algorithm="greedy", k=k).typed() for k in (3, 5)]
    )
    assert pair[1].result["extra"]["coalesced_width"] == 2
    for response in (greedy, sat, *pair):
        assert response.ok
        assert response.cache["subresults"]["hits"] == memo["hits"]
        assert response.cache["subresults"]["misses"] == memo["misses"]
    fresh = ServiceEngine()
    assert _answer(greedy) == _answer(_solve(fresh, "greedy"))
    assert _answer(sat) == _answer(_solve(fresh, "saturate"))


def test_stats_sum_over_static_and_influence_objectives():
    engine = ServiceEngine()
    for dataset in ("rand-fl-c2", "rand-im-c2"):
        for algorithm in ("bsm-tsgreedy", "bsm-saturate"):
            request = _request("solve", dataset, algorithm=algorithm, k=4, tau=0.5)
            assert engine.handle(request).ok
    sessions = engine.handle(Request(op="stats")).result["sessions"]
    by_name = {s["dataset"]: s["subresults"] for s in sessions}
    expected = {"hits": 2, "misses": 2, "entries": 3}
    assert by_name == {"rand-fl-c2": expected, "rand-im-c2": expected}


def test_harness_results_passed_in_bypass_the_memo():
    objective = _fresh_objective("rand-fl-c2")
    greedy_res = greedy_utility(objective, 5)
    saturate_res = saturate(objective, 5)
    bsm_tsgreedy(
        objective, 5, 0.5, greedy_result=greedy_res, saturate_result=saturate_res
    )
    stats = objective.subresult_stats()
    assert (stats["hits"], stats["misses"]) == (0, 0)
