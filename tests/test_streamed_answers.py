"""Each batch member is answered when its own engine unit finishes.

A batch runs as the units of ``ServiceEngine.plan``: every coalesced
greedy group first, then every other request alone. A shard answers
each unit as it finishes, through ``on_answer``, and the last one
through its return value. These tests pin that the plan is the grouping
the engine always used, that the streamed answers are the answers of a
whole-batch ``handle_batch`` and of a per-request replay, under one
in-process shard and under two shard processes, and that a cheap
request is answered before a slow unit planned after it finishes.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.service.engine import COALESCABLE, ServiceEngine
from repro.service.protocol import request_from_dict, response_to_dict
from repro.service.server import TCPServer
from repro.service.shards import EngineShardPool

IM_DATASET = "rand-im-c2"
IM_SAMPLES = 200


def _frozen_plan(engine, requests):
    """The grouping loop ``ServiceEngine.handle_batch`` ran before it was
    split into units, returning the order it ran the requests in."""
    order = []
    handled = [False] * len(requests)
    groups = {}
    for pos, request in enumerate(requests):
        if request.op == "solve" and request.algorithm in COALESCABLE:
            key = (
                request.algorithm,
                request.dataset,
                request.seed,
                request.im_samples,
                engine._workers(request),
                request.mc_simulations,
                request.store,
                request.memory_budget,
            )
            groups.setdefault(key, []).append(pos)
    for positions in groups.values():
        if len(positions) < 2:
            continue
        order.append(positions)
        for pos in positions:
            handled[pos] = True
    order.extend([pos] for pos in range(len(requests)) if not handled[pos])
    return order


def _member(op, dataset, seed, k, algorithm, workers, v1):
    args = {"dataset": dataset, "seed": seed}
    if op == "solve":
        args.update(algorithm=algorithm, k=k, tau=0.5)
        if workers is not None:
            args["workers"] = workers
    elif op == "evaluate":
        args["items"] = [0, k]
    elif op == "update":
        args.update(k=k, events=[["insert", k]])
    if v1:
        return request_from_dict({"op": op, **args})
    return request_from_dict({"schema": 2, "op": op, "args": args})


members = st.builds(
    _member,
    op=st.sampled_from(["solve", "solve", "solve", "evaluate", "update"]),
    dataset=st.sampled_from(["rand-mc-c2", "rand-fl-c2"]),
    seed=st.integers(0, 1),
    k=st.integers(1, 4),
    algorithm=st.sampled_from(["greedy", "greedy", "bsm-tsgreedy", "bsm-saturate"]),
    workers=st.sampled_from([None, None, 1, 2]),
    v1=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(members, max_size=12), workers=st.sampled_from([None, 2]))
def test_plan_is_the_grouping_the_engine_always_ran(batch, workers):
    engine = ServiceEngine(workers=workers)
    plan = engine.plan(batch)
    assert plan == _frozen_plan(engine, batch)
    assert sorted(pos for unit in plan for pos in unit) == list(range(len(batch)))


def _edge_events():
    graph = load_dataset(IM_DATASET, seed=0).graph
    (u, v, _), (x, y, _) = list(graph.edges())[:2]
    return [["set_probability", u, v, 0.9], ["set_probability", x, y, 0.1]]


def _im(op, request_id, **args):
    args = {"dataset": IM_DATASET, "im_samples": IM_SAMPLES, **args}
    return request_from_dict({"schema": 2, "op": op, "id": request_id, "args": args})


def _mixed_batch():
    """Coalesced greedy pairs at different budgets around an edge update
    and BSM solves; the plan runs both pairs before everything else."""
    return [
        _im("solve", "g3", k=3),
        _im("evaluate", "ev", items=[0, 1, 2]),
        _im("update", "up", k=3, events=[["insert", 4]], edge_events=_edge_events()),
        _im("solve", "g5", k=5),
        _im("solve", "ts", algorithm="bsm-tsgreedy", k=3, tau=0.5),
        _im("solve", "h2", k=2, seed=1),
        _im("solve", "sat", algorithm="bsm-saturate", k=4, tau=0.9),
        _im("solve", "h4", k=4, seed=1),
        _im("solve", "g2", k=2),
    ]


def _strip(response):
    """A response minus what a shared run or a replay may report
    differently: wall-clock, shared-run counts, warmth and cache."""
    out = response_to_dict(response)
    out.pop("cache", None)
    out.pop("warm", None)
    result = dict(out.get("result") or {})
    result.pop("runtime", None)
    result.pop("oracle_calls", None)
    if "extra" in result:
        extra = dict(result["extra"])
        extra.pop("coalesced", None)
        extra.pop("coalesced_width", None)
        result["extra"] = extra
    out["result"] = result
    return out


@pytest.mark.parametrize("shards", [1, 2])
def test_streamed_answers_equal_the_batch_and_a_replay(shards):
    batch = _mixed_batch()
    plan = ServiceEngine().plan(batch)
    assert plan[:2] == [[0, 3, 8], [5, 7]]
    streamed = []
    pool = EngineShardPool(shards, {})
    try:
        shard = pool.shard_for(IM_DATASET)
        returned = pool.handle_batch(
            shard, batch, on_answer=lambda *answer: streamed.append(answer)
        )
        telemetry = pool.telemetry()[shard]
    finally:
        pool.close()

    # Every unit but the last streamed, in plan order; every position is
    # answered exactly once, and the return value repeats the streamed
    # answers.
    assert [positions for positions, _ in streamed] == plan[:-1]
    answered = [pos for positions, _ in streamed for pos in positions] + plan[-1]
    assert sorted(answered) == list(range(len(batch)))
    for positions, responses in streamed:
        assert [returned[pos] for pos in positions] == responses
    assert [response.id for response in returned] == [r.id for r in batch]
    assert all(response.ok for response in returned), returned
    assert (telemetry["dispatches"], telemetry["units"]) == (1, len(plan))

    whole = ServiceEngine().handle_batch(batch)
    assert [_strip(r) for r in returned] == [_strip(r) for r in whole]
    replay = ServiceEngine()
    replayed = {pos: replay.handle(batch[pos]) for unit in plan for pos in unit}
    assert [_strip(r) for r in returned] == [
        _strip(replayed[pos]) for pos in range(len(batch))
    ]


class SlowUnitEngine(ServiceEngine):
    """Engine whose unit holding a request with id ``slow`` sleeps first,
    and which notes when that unit finished."""

    delay = 0.6

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.slow_done_at = float("inf")

    def handle_batch(self, requests):
        slow = any(request.id == "slow" for request in requests)
        if slow:
            time.sleep(self.delay)
        responses = super().handle_batch(requests)
        if slow:
            self.slow_done_at = time.perf_counter()
        return responses


def _line(op, request_id, **args):
    payload = {"schema": 2, "op": op, "id": request_id, "args": args}
    return (json.dumps(payload) + "\n").encode("utf-8")


def test_a_cheap_request_is_answered_before_a_slow_unit_after_it():
    async def scenario():
        engine = SlowUnitEngine()
        server = TCPServer(engine, port=0, batch_window=0.2)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(_line("evaluate", "cheap", dataset="rand-mc-c2", items=[1, 2]))
            writer.write(_line("solve", "slow", dataset="rand-mc-c2", k=3))
            await writer.drain()
            first = json.loads(await reader.readline())
            first_at = time.perf_counter()
            second = json.loads(await reader.readline())
            writer.close()
            stats = server.stats_dict()
            metrics = server.metrics_text()
            pending = server._pending
        finally:
            await server.drain()
        return engine, first, first_at, second, stats, metrics, pending

    engine, first, first_at, second, stats, metrics, pending = asyncio.run(
        asyncio.wait_for(scenario(), 120.0)
    )
    assert (first["id"], second["id"]) == ("cheap", "slow")
    assert first["ok"] and second["ok"]
    assert first_at < engine.slow_done_at
    assert stats["batches_dispatched"] == 1
    (shard,) = stats["shard_telemetry"]
    assert (shard["dispatches"], shard["units"]) == (1, 2)
    assert 'repro_shard_units_total{shard="0"} 2' in metrics.splitlines()
    assert pending == 0
