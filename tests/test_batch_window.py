"""The batch loop waits only for a partner that can still come.

A head that cannot coalesce is dispatched at once. A greedy head waits
for a partner only while it is alone in its shard's queue, at most
``min(batch_window, last measured run of its key on the shard)``. Any
request queued behind it ends the wait: the head goes with everything
queued, and a same-key partner among them coalesces. Every call that
reaches the in-process shard runs on its one engine thread; process
shards are submitted to from the event loop thread.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.service.engine import ServiceEngine
from repro.service.protocol import request_from_dict
from repro.service.server import TCPServer
from repro.utils.parallel import fork_available

DATASET = "rand-mc-c2"
OTHER_SHARD_DATASET = "rand-fl-c2"  # crc32 puts it on the other shard of 2


def run_async(coro, timeout=120.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(_bounded())


def _payload(op, request_id, **args):
    return {"schema": 2, "op": op, "id": request_id, "args": args}


def _solve(request_id, k, dataset=DATASET):
    return _payload("solve", request_id, dataset=dataset, k=k)


def _evaluate(request_id, dataset=DATASET):
    return _payload("evaluate", request_id, dataset=dataset, items=[0, 1, 2])


def _warm_engine(engine_cls=ServiceEngine):
    """An engine whose ``DATASET`` objective is already built."""
    engine = engine_cls()
    for payload in (_solve("warm", 3), _evaluate("warm-e")):
        assert engine.handle(request_from_dict(payload)).ok
    return engine


def _send(writer, payload):
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))


async def _answer(reader):
    line = await reader.readline()
    assert line, "connection closed before a response arrived"
    return json.loads(line)


async def _pair(server, ks=(2, 5)):
    """Send one greedy solve per connection at once; return both answers."""
    conns = [await asyncio.open_connection(server.host, server.port) for _ in ks]
    for (_, writer), k in zip(conns, ks):
        _send(writer, _solve(f"pair-{k}", k))
    for _, writer in conns:
        await writer.drain()
    answers = [await _answer(reader) for reader, _ in conns]
    for _, writer in conns:
        writer.close()
    return answers


def test_lone_evaluate_on_idle_shard_skips_the_window():
    engine = _warm_engine()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=0.5)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            start = time.perf_counter()
            _send(writer, _evaluate("e"))
            await writer.drain()
            answer = await _answer(reader)
            elapsed = time.perf_counter() - start
            writer.close()
        finally:
            await server.drain()
        return answer, elapsed

    answer, elapsed = run_async(scenario())
    assert answer["ok"]
    assert elapsed < 0.25, elapsed


def test_measured_greedy_head_waits_at_most_its_run():
    engine = _warm_engine()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=2.0)
        await server.start()
        try:
            # A pair coalesces at once and measures the key's run.
            pair = await _pair(server)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            start = time.perf_counter()
            _send(writer, _solve("lone", 4))
            await writer.drain()
            lone = await _answer(reader)
            elapsed = time.perf_counter() - start
            writer.close()
        finally:
            await server.drain()
        return pair, lone, elapsed

    pair, lone, elapsed = run_async(scenario())
    assert all(answer["ok"] for answer in pair)
    assert lone["ok"] and "coalesced" not in lone["result"]["extra"]
    assert elapsed < 1.0, elapsed


def test_partner_sent_at_once_still_coalesces_on_a_measured_key():
    engine = _warm_engine()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=2.0)
        await server.start()
        try:
            await _pair(server)  # measures the key
            runs_before = engine.coalesced_runs
            start = time.perf_counter()
            answers = await _pair(server, ks=(3, 4))
            elapsed = time.perf_counter() - start
            runs = engine.coalesced_runs - runs_before
        finally:
            await server.drain()
        return answers, runs, elapsed

    answers, runs, elapsed = run_async(scenario())
    assert runs == 1
    assert all(answer["result"]["extra"]["coalesced"] for answer in answers)
    assert elapsed < 1.0, elapsed


def test_a_partner_ends_the_wait_of_an_unmeasured_key():
    engine = _warm_engine()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=2.0)
        await server.start()
        try:
            conn_a = await asyncio.open_connection(server.host, server.port)
            conn_b = await asyncio.open_connection(server.host, server.port)
            start = time.perf_counter()
            _send(conn_a[1], _solve("a", 2))
            await conn_a[1].drain()
            await asyncio.sleep(0.1)
            _send(conn_b[1], _solve("b", 5))
            await conn_b[1].drain()
            answers = [await _answer(conn_a[0]), await _answer(conn_b[0])]
            elapsed = time.perf_counter() - start
            for _, writer in (conn_a, conn_b):
                writer.close()
        finally:
            await server.drain()
        return answers, elapsed

    answers, elapsed = run_async(scenario())
    assert engine.coalesced_runs == 1
    assert all(answer["result"]["extra"]["coalesced"] for answer in answers)
    assert elapsed < 1.5, elapsed


def test_a_non_partner_queued_behind_ends_the_wait():
    """In a closed loop the other client's request may be the one its
    partner waits on, so the head does not sit on it for the window."""
    engine = _warm_engine()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=2.0)
        await server.start()
        try:
            conn_a = await asyncio.open_connection(server.host, server.port)
            conn_b = await asyncio.open_connection(server.host, server.port)
            start = time.perf_counter()
            _send(conn_a[1], _solve("a", 2))
            await conn_a[1].drain()
            await asyncio.sleep(0.1)
            _send(conn_b[1], _evaluate("b"))
            await conn_b[1].drain()
            answers = [await _answer(conn_a[0]), await _answer(conn_b[0])]
            elapsed = time.perf_counter() - start
            for _, writer in (conn_a, conn_b):
                writer.close()
        finally:
            await server.drain()
        return answers, elapsed, server.stats

    answers, elapsed, stats = run_async(scenario())
    assert all(answer["ok"] for answer in answers)
    assert "coalesced" not in answers[0]["result"]["extra"]
    assert elapsed < 1.0, elapsed
    assert (stats.window_waits, stats.window_expired) == (1, 0)


def test_a_lone_heads_expiry_counts_once():
    engine = _warm_engine()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=0.2)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            start = time.perf_counter()
            _send(writer, _solve("lone", 2))
            await writer.drain()
            lone = await _answer(reader)
            elapsed = time.perf_counter() - start
            _send(writer, _payload("stats", "st"))
            await writer.drain()
            stats = await _answer(reader)
            writer.close()
            return lone, elapsed, stats, server.metrics_text()
        finally:
            await server.drain()

    lone, elapsed, stats, metrics = run_async(scenario())
    assert lone["ok"] and elapsed >= 0.2
    server = stats["result"]["server"]
    assert (server["window_waits"], server["window_expired"]) == (1, 1)
    lines = metrics.splitlines()
    assert "repro_window_waits_total 1" in lines
    assert "repro_window_expired_total 1" in lines


class ThreadRecordingEngine(ServiceEngine):
    """Engine that notes the thread of every ``handle_batch`` call, and
    takes long enough per call that the next batches form meanwhile."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.threads = []

    def handle_batch(self, requests):
        self.threads.append(threading.get_ident())
        time.sleep(0.02)
        return super().handle_batch(requests)


async def _busy_connections(server, datasets):
    """Two connections sending mixed requests in overlapping waves, plus
    ``stats`` from a third mid-way; return every answer."""
    conns = [await asyncio.open_connection(server.host, server.port) for _ in range(3)]
    sent = []
    for index in range(8):
        for conn, (_, writer) in enumerate(conns[:2]):
            dataset = datasets[(index + conn) % len(datasets)]
            if index % 3 == 0:
                payload = _solve(f"s{conn}-{index}", 2 + index % 4, dataset)
            else:
                payload = _evaluate(f"e{conn}-{index}", dataset)
            _send(writer, payload)
            await writer.drain()
            sent.append(conn)
            await asyncio.sleep(0.005)
        if index == 4:
            _send(conns[2][1], _payload("stats", "st"))
            await conns[2][1].drain()
            sent.append(2)
    answers = [await _answer(conns[conn][0]) for conn in sent]
    for _, writer in conns:
        writer.close()
    return answers


def test_one_engine_thread_serves_every_call_of_a_local_shard():
    engine = _warm_engine(ThreadRecordingEngine)
    engine.threads.clear()

    async def scenario():
        server = TCPServer(engine, port=0, batch_window=0.005)
        await server.start()
        try:
            return await _busy_connections(server, [DATASET])
        finally:
            await server.drain()

    answers = run_async(scenario())
    assert all(answer["ok"] for answer in answers)
    assert len(engine.threads) > 2
    assert len(set(engine.threads)) == 1
    assert engine.threads[0] != threading.get_ident()


@pytest.mark.skipif(not fork_available(), reason="shard children must fork")
def test_one_engine_thread_per_process_shard():
    """A process shard's engine thread is its child's: the front-end
    submits every batch, ``stats`` and drain call on the loop thread and
    runs no shard executor thread of its own."""
    calls = []

    async def scenario():
        server = TCPServer(None, port=0, shards=2, engine_config={}, batch_window=0.005)
        await server.start()
        pool = server._shard_pool
        submit = pool.submit

        def recording(shard, requests, on_unit, on_done):
            calls.append((shard, threading.get_ident()))
            submit(shard, requests, on_unit, on_done)

        pool.submit = recording
        try:
            answers = await _busy_connections(server, [DATASET, OTHER_SHARD_DATASET])
            names = [thread.name for thread in threading.enumerate()]
            return answers, threading.get_ident(), names
        finally:
            await server.drain()

    answers, loop_thread, names = run_async(scenario())
    assert all(answer["ok"] for answer in answers)
    threads = {}
    for shard, ident in calls:
        threads.setdefault(shard, set()).add(ident)
    assert sorted(threads) == [0, 1]
    assert all(idents == {loop_thread} for idents in threads.values()), threads
    assert not [name for name in names if name.startswith("repro-shard-")], names
