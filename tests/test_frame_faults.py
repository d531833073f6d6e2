"""Fault injection on the shard pipe's framing.

The front-end parses a process shard's unit replies on the event loop,
frame by frame. A child that writes half a frame and exits, or a frame
that does not unpickle, must not hang or leak anything: every admitted
request is answered once, ``pending`` settles back to 0, the counter
identity ``requests_total == admitted + rejected + invalid`` holds, the
broken shard refuses later batches with ``is not running``, and the
other shard keeps answering.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import struct
import types

import pytest

from repro.service import shards as shards_module
from repro.service.engine import ServiceEngine
from repro.service.protocol import Response, request_from_dict
from repro.service.server import TCPServer
from repro.service.shards import shard_for_dataset
from repro.utils.parallel import fork_available

DATASET = "rand-mc-c2"
OTHER_DATASET = "rand-fl-c2"  # crc32 puts it on the other shard of 2
assert shard_for_dataset(DATASET, 2) != shard_for_dataset(OTHER_DATASET, 2)


def _evaluate(request_id, dataset=DATASET):
    args = {"dataset": dataset, "items": [0, 1]}
    return {"schema": 2, "op": "evaluate", "id": request_id, "args": args}


def _faulty_worker(fault):
    """A shard worker that answers normally, except that the unit of a
    request with id ``bad`` is replaced by ``fault(conn)``."""

    def main(conn, engine_kwargs):
        engine = ServiceEngine(**engine_kwargs)
        while True:
            try:
                requests = conn.recv()
            except EOFError:
                break
            if requests is None:
                break
            for positions, responses in shards_module._run_units(engine, requests):
                if any(requests[pos].id == "bad" for pos in positions):
                    fault(conn)
                else:
                    conn.send((positions, responses))
            if any(request.op == "shutdown" for request in requests):
                break
        conn.close()

    return main


def _truncated_frame_then_exit(conn):
    os.write(conn.fileno(), struct.pack("!i", 4096) + b"\x80\x05partial")
    os._exit(0)


def _bytes_that_do_not_unpickle(conn):
    conn.send_bytes(b"this is not a pickle")


async def _line(server, members):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write((json.dumps(members) + "\n").encode("utf-8"))
    await writer.drain()
    answers = [json.loads(await reader.readline()) for _ in members]
    writer.close()
    return answers


@pytest.mark.skipif(not fork_available(), reason="the shard child must fork")
@pytest.mark.parametrize(
    "fault", [_truncated_frame_then_exit, _bytes_that_do_not_unpickle]
)
def test_a_broken_frame_fails_its_shard_and_nothing_else(monkeypatch, fault):
    # Forked shard children run the patched worker.
    monkeypatch.setattr(shards_module, "_shard_worker_main", _faulty_worker(fault))

    async def scenario():
        server = TCPServer(None, port=0, shards=2, engine_config={}, batch_window=0.0)
        await server.start()
        try:
            broken = await _line(
                server, [_evaluate("first"), _evaluate("bad"), _evaluate("last")]
            )
            later = await _line(
                server, [_evaluate("again"), _evaluate("other", OTHER_DATASET)]
            )
            # A child that sent garbage is killed; none is left running.
            child = server._shard_pool.shards[shard_for_dataset(DATASET, 2)]._process
            child.join(30.0)
            stats = server.stats
            identity = stats.requests_total == (
                stats.requests_admitted
                + stats.requests_rejected
                + stats.requests_invalid
            )
            admitted = stats.requests_admitted
            return broken, later, server._pending, identity, admitted, child
        finally:
            await server.drain()

    broken, later, pending, identity, admitted, child = asyncio.run(
        asyncio.wait_for(scenario(), 120.0)
    )
    assert [answer["id"] for answer in broken] == ["first", "bad", "last"]
    assert broken[0]["ok"]
    for answer in broken[1:]:
        assert not answer["ok"]
        assert answer["error"].endswith("exited mid-request")
    again, other = later
    assert not again["ok"] and again["error"].endswith("is not running")
    assert other["ok"]
    assert admitted == 5
    assert child.exitcode is not None
    assert pending == 0
    assert identity


def test_a_frame_split_anywhere_is_parsed_whole():
    """Replies may arrive a byte at a time; each unit is handed on once
    its whole frame is in, and only then."""
    shard = types.SimpleNamespace(index=0, units=0, lost=False)
    channel = shards_module._FrameChannel(shard)
    requests = [request_from_dict(_evaluate(f"r{i}")) for i in range(2)]
    units, done = [], []
    channel.sent.append(
        shards_module._Batch(
            requests, lambda *unit: units.append(unit), lambda: done.append(True)
        )
    )
    replies = [
        ([1], [Response(op="evaluate", id="r1", result={"value": 1.0})]),
        ([0], [Response(op="evaluate", id="r0", result={"value": 0.5})]),
    ]
    stream = b""
    for reply in replies:
        data = pickle.dumps(reply)
        stream += struct.pack("!i", len(data)) + data
    first_frame = len(stream) - len(pickle.dumps(replies[1])) - 4
    for end in range(len(stream)):
        channel.data_received(stream[end : end + 1])
        assert len(units) == (end + 1 >= first_frame) + (end + 1 == len(stream))
    assert units == replies
    assert done == [True]
    assert shard.units == 2
    assert not channel.sent
