"""The blocking shard call, ``EngineShardPool.handle_batch``, on ``submit``.

A blocking call serves a process shard through a private event loop: it
opens a frame channel on the shard's pipe, submits the batch, and
closes the channel again. Closing that channel on purpose must leave
the shard alive, and a shard whose pipe a running server's loop already
serves refuses the blocking call. An empty batch is done at once and
leaves the channel's FIFO in step with the child's answers.
"""

import asyncio
import functools
import json

import pytest

from repro.service.protocol import Request
from repro.service.server import TCPServer
from repro.service.shards import EngineShardPool
from repro.utils.parallel import fork_available

DATASET = "rand-mc-c2"

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the shard children must fork"
)


def test_consecutive_blocking_calls_leave_the_shard_alive():
    pool = EngineShardPool(2, {})
    try:
        shard = pool.shard_for(DATASET)
        answers, alive = [], []
        for request_id in ("first", "second"):
            request = Request(op="solve", id=request_id, dataset=DATASET, k=2)
            answers += pool.handle_batch(shard, [request])
            alive.append(pool.telemetry()[shard]["alive"])
    finally:
        pool.close()
    assert [answer.id for answer in answers] == ["first", "second"]
    assert all(answer.ok for answer in answers), answers
    assert alive == [True, True]


def test_a_shard_the_loop_serves_refuses_the_blocking_call():
    async def scenario():
        server = TCPServer(None, port=0, shards=2, engine_config={})
        await server.start()
        try:
            pool = server._shard_pool
            request = Request(op="solve", id="r", dataset=DATASET, k=2)
            with pytest.raises(RuntimeError, match="served by the event loop"):
                pool.handle_batch(pool.shard_for(DATASET), [request])
            # The refusal leaves the loop's own path serving.
            reader, writer = await asyncio.open_connection(server.host, server.port)
            line = {"schema": 2, "op": "solve", "id": "a", "args": {"dataset": DATASET}}
            writer.write((json.dumps(line) + "\n").encode("utf-8"))
            answer = json.loads(await reader.readline())
            writer.close()
            return answer
        finally:
            await server.drain()

    answer = asyncio.run(asyncio.wait_for(scenario(), 120.0))
    assert answer["ok"] and answer["id"] == "a"


def test_an_empty_batch_is_done_at_once_and_the_next_one_is_answered():
    pool = EngineShardPool(2, {})
    shard = pool.shard_for(DATASET)
    answered = []

    async def scenario():
        loop = asyncio.get_running_loop()
        await pool.connect()
        try:
            request = Request(op="solve", id="r", dataset=DATASET, k=2)
            done = [loop.create_future(), loop.create_future()]
            for batch, finished in zip(([], [request]), done):
                pool.submit(
                    shard,
                    batch,
                    lambda positions, responses: answered.append(responses),
                    functools.partial(finished.set_result, None),
                )
            await asyncio.wait_for(asyncio.gather(*done), 60.0)
            return pool.telemetry()[shard]["alive"]
        finally:
            pool.close()

    assert asyncio.run(scenario())
    ((response,),) = answered
    assert response.ok and response.id == "r"
