"""Fault injection on the shard tier: a batch that breaks part-way.

A shard answers a batch unit by unit. When something goes wrong after
some units have answered, those answers stand and only the rest of the
batch gets the error. Whatever breaks, every admitted request is
answered once, ``pending`` settles back to 0 and the counter identity
``requests_total == admitted + rejected + invalid`` holds.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.service import shards as shards_module
from repro.service.engine import ServiceEngine
from repro.service.protocol import request_from_dict
from repro.service.server import TCPServer
from repro.service.shards import EngineShardPool
from repro.utils.parallel import fork_available

DATASET = "rand-mc-c2"


def _request(op, request_id, **args):
    args = {"dataset": DATASET, **args}
    return {"schema": 2, "op": op, "id": request_id, "args": args}


async def _serve_line(server, members):
    """Send one array line and read its answers, in member order."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write((json.dumps(members) + "\n").encode("utf-8"))
    await writer.drain()
    answers = [json.loads(await reader.readline()) for _ in members]
    writer.close()
    return answers


def _settled(server):
    stats = server.stats
    return server._pending, stats.requests_total == (
        stats.requests_admitted + stats.requests_rejected + stats.requests_invalid
    )


class SlowOnIdEngine(ServiceEngine):
    """Engine whose unit holding a request with id ``slow`` sleeps first."""

    def handle_batch(self, requests):
        if any(request.id == "slow" for request in requests):
            time.sleep(1.0)
        return super().handle_batch(requests)


@pytest.mark.skipif(not fork_available(), reason="the shard child must fork")
def test_child_killed_after_the_first_unit_keeps_that_answer(monkeypatch):
    # Forked shard children build their engine from the patched name.
    monkeypatch.setattr(shards_module, "ServiceEngine", SlowOnIdEngine)
    killed = []

    async def scenario():
        server = TCPServer(None, port=0, shards=2, engine_config={}, batch_window=0.2)
        await server.start()
        pool = server._shard_pool
        submit = pool.submit

        def killing(shard, requests, on_unit, on_done):
            def answer(positions, responses):
                on_unit(positions, responses)
                if not killed:
                    process = pool.shards[shard]._process
                    os.kill(process.pid, signal.SIGKILL)
                    killed.append(positions)

            submit(shard, requests, answer, on_done)

        pool.submit = killing
        try:
            answers = await _serve_line(
                server,
                [
                    _request("evaluate", "first", items=[0, 1]),
                    _request("solve", "slow", k=3),
                    _request("evaluate", "last", items=[2]),
                ],
            )
            return answers, _settled(server)
        finally:
            await server.drain()

    answers, (pending, identity) = asyncio.run(asyncio.wait_for(scenario(), 120.0))
    assert killed == [[0]]
    assert [answer["id"] for answer in answers] == ["first", "slow", "last"]
    assert answers[0]["ok"] and answers[0]["result"]["items"] == [0, 1]
    for answer in answers[1:]:
        assert not answer["ok"]
        assert answer["error"].endswith("exited mid-request")
    assert pending == 0
    assert identity


class ShortUnitEngine(ServiceEngine):
    """Engine that drops the last answer of any unit holding a request
    whose id starts with ``short``."""

    def handle_batch(self, requests):
        responses = super().handle_batch(requests)
        if any(request.id.startswith("short") for request in requests):
            return responses[:-1]
        return responses


def test_a_short_second_unit_fails_alone():
    async def scenario():
        server = TCPServer(ShortUnitEngine(), port=0, batch_window=0.2)
        await server.start()
        try:
            answers = await _serve_line(
                server,
                [
                    _request("evaluate", "first", items=[0]),
                    _request("solve", "short", algorithm="bsm-tsgreedy", k=3, tau=0.5),
                    _request("evaluate", "third", items=[1]),
                ],
            )
            return answers, _settled(server), server.stats.batches_dispatched
        finally:
            await server.drain()

    answers, (pending, identity), batches = asyncio.run(
        asyncio.wait_for(scenario(), 120.0)
    )
    assert batches == 1
    first, short, third = answers
    assert first["ok"] and third["ok"]
    assert not short["ok"]
    assert short["error"] == (
        "RuntimeError: internal error: shard 0 answered 0 responses to 1 requests"
    )
    assert pending == 0
    assert identity


def test_a_short_coalesced_unit_counts_its_own_members():
    pool = EngineShardPool(1, engine=ShortUnitEngine())
    streamed = []
    batch = [
        request_from_dict(_request("evaluate", "e", items=[0])),
        request_from_dict(_request("solve", "short-a", k=2)),
        request_from_dict(_request("solve", "short-b", k=3)),
    ]
    answers = pool.handle_batch(0, batch, on_answer=lambda *a: streamed.append(a))
    assert [positions for positions, _ in streamed] == [[1, 2]]
    assert answers[0].ok
    for answer in answers[1:]:
        assert answer.error.endswith("answered 1 responses to 2 requests")
    assert streamed[0][1] == answers[1:]
    assert pool.telemetry()[0]["units"] == 2
