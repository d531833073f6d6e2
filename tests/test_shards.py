"""Sharded serving tests: routing, identity, fan-out, drain, metrics.

The shard pool forks real engine worker processes, so these tests keep
shard counts at 2 and datasets tiny. Identity is the load-bearing
property: a sharded server must answer a sequential client with
byte-identical results (modulo wall-clock ``runtime``) to the
single-engine server, because routing is dataset-affine and each shard
runs the same deterministic engine.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.service.engine import ServiceEngine
from repro.service.protocol import Request
from repro.service.server import TCPServer
from repro.service.shards import EngineShardPool, shard_for_dataset

DATASET_A = "rand-mc-c2"  # crc32 routes to shard 1 of 2
DATASET_B = "rand-fl-c2"  # crc32 routes to shard 0 of 2


def run_async(coro, timeout=120.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(_bounded())


async def started_server(**kwargs):
    server = TCPServer(None, port=0, **kwargs)
    await server.start()
    return server


async def send_sequential(host, port, payloads):
    """One connection, one request at a time — coalescing-free."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    for payload in payloads:
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        line = await reader.readline()
        assert line, "connection closed before a response arrived"
        responses.append(json.loads(line))
    writer.close()
    return responses


def normalized(response):
    """A response minus its wall-clock fields, for bitwise comparison."""
    out = dict(response)
    out.pop("cache", None)
    result = dict(out.get("result") or {})
    result.pop("runtime", None)
    out["result"] = result
    return out


def _solve(request_id, dataset, k=3):
    return {
        "schema": 2,
        "op": "solve",
        "id": request_id,
        "args": {"dataset": dataset, "k": k},
    }


class TestRouting:
    def test_same_dataset_always_same_shard(self):
        for dataset in (DATASET_A, DATASET_B, "adult-small", "rand-im-c2"):
            shards = {shard_for_dataset(dataset, 4) for _ in range(50)}
            assert len(shards) == 1
            assert 0 <= shards.pop() < 4

    def test_routing_is_crc32_not_salted_hash(self):
        # Pinned values: the key must be stable across interpreter
        # processes and front-end restarts (hash() is salted, crc32
        # is not). A change here silently re-homes every warm session.
        assert shard_for_dataset(DATASET_A, 2) == 1
        assert shard_for_dataset(DATASET_B, 2) == 0

    def test_single_shard_routes_everything_to_zero(self):
        assert shard_for_dataset(DATASET_A, 1) == 0
        assert shard_for_dataset("", 1) == 0
        assert shard_for_dataset("", 0) == 0


class TestShardPool:
    def test_round_trip_and_close(self):
        pool = EngineShardPool(2, {})
        try:
            shard = pool.shard_for(DATASET_A)
            request = Request(op="solve", id="r", dataset=DATASET_A, k=2)
            responses = pool.handle_batch(shard, [request])
            assert len(responses) == 1
            assert responses[0].ok and responses[0].id == "r"
            assert responses[0].result["solution"] == (
                ServiceEngine().handle(request).result["solution"]
            )
            telemetry = pool.telemetry()
            assert telemetry[shard]["requests"] == 1
            assert telemetry[1 - shard]["requests"] == 0
            assert all(entry["alive"] for entry in telemetry)
        finally:
            pool.close()
        pool.close()  # idempotent
        assert not any(entry["alive"] for entry in pool.telemetry())

    def test_bad_engine_config_fails_before_forking(self):
        with pytest.raises(ValueError, match="store"):
            EngineShardPool(2, {"store": "floppy"})

    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match="num_shards"):
            EngineShardPool(0)

    def test_live_engine_cannot_be_sharded(self):
        with pytest.raises(ValueError, match="engine_config"):
            TCPServer(ServiceEngine(), shards=2)


class TestShardedServer:
    def test_responses_bitwise_identical_shards_1_vs_2(self):
        script = [
            _solve("a1", DATASET_A, k=3),
            _solve("b1", DATASET_B, k=3),
            _solve("a2", DATASET_A, k=5),
            {
                "schema": 2,
                "op": "evaluate",
                "id": "e1",
                "args": {"dataset": DATASET_A, "items": [0, 1, 2]},
            },
            _solve("b2", DATASET_B, k=2),
            # v1 members cross the shard pipe as their typed lift.
            {"op": "solve", "id": "v1", "dataset": DATASET_B, "k": 4},
            {"op": "solve", "id": "v1-empty"},
        ]

        async def scenario(shards):
            server = await started_server(
                shards=shards, engine_config={}, batch_window=0.0
            )
            try:
                return await send_sequential(
                    server.host, server.port, script
                )
            finally:
                await server.drain()

        single = [normalized(r) for r in run_async(scenario(1))]
        sharded = [normalized(r) for r in run_async(scenario(2))]
        # A v1 solve with no dataset is answered by the engine's lookup
        # error (v2 would reject it at decode time), on either tier.
        assert [r["id"] for r in single if not r["ok"]] == ["v1-empty"]
        assert single[-1]["error"].startswith("KeyError: \"unknown dataset ''")
        assert single == sharded

    def test_dataset_affinity_observed_in_telemetry(self):
        async def scenario():
            server = await started_server(
                shards=2, engine_config={}, batch_window=0.0
            )
            try:
                await send_sequential(
                    server.host,
                    server.port,
                    [
                        _solve("a1", DATASET_A),
                        _solve("a2", DATASET_A),
                        _solve("b1", DATASET_B),
                    ],
                )
                return server.stats_dict()
            finally:
                await server.drain()

        stats = run_async(scenario())
        assert stats["shards"] == 2
        telemetry = {e["shard"]: e for e in stats["shard_telemetry"]}
        assert telemetry[1]["requests"] == 2  # both DATASET_A solves
        assert telemetry[0]["requests"] == 1
        assert all(e["queue_depth"] == 0 for e in telemetry.values())

    def test_stats_fanout_merges_shard_blocks(self):
        async def scenario():
            server = await started_server(
                shards=2, engine_config={}, batch_window=0.0
            )
            try:
                responses = await send_sequential(
                    server.host,
                    server.port,
                    [
                        _solve("a", DATASET_A),
                        _solve("b", DATASET_B),
                        {"schema": 2, "op": "stats", "id": "s"},
                    ],
                )
                return responses[-1]
            finally:
                await server.drain()

        stats = run_async(scenario())
        assert stats["ok"]
        block = stats["result"]
        assert len(block["shards"]) == 2
        # Scalars sum, sessions concatenate: one warm session per shard.
        per_shard_served = [s["requests_served"] for s in block["shards"]]
        assert block["requests_served"] == sum(per_shard_served)
        assert all(served >= 1 for served in per_shard_served)
        assert len(block["sessions"]) == 2
        # The front-end's own counters ride along as usual.
        assert block["server"]["requests_admitted"] == 3
        assert block["server"]["shards"] == 2

    def test_drain_answers_every_admitted_request_on_every_shard(self):
        async def scenario():
            server = await started_server(
                shards=2, engine_config={}, batch_window=0.25
            )
            conn_a = await asyncio.open_connection(server.host, server.port)
            conn_b = await asyncio.open_connection(server.host, server.port)
            conn_c = await asyncio.open_connection(server.host, server.port)
            # Four solves spread over both shards, still queued in
            # their batch windows when the shutdown lands.
            for (reader, writer), payloads in (
                (conn_a, [_solve("a1", DATASET_A), _solve("a2", DATASET_A, k=4)]),
                (conn_b, [_solve("b1", DATASET_B), _solve("b2", DATASET_B, k=4)]),
            ):
                for payload in payloads:
                    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                await writer.drain()
            await asyncio.sleep(0.05)
            conn_c[1].write(
                (json.dumps({"schema": 2, "op": "shutdown", "id": "bye"}) + "\n")
                .encode("utf-8")
            )
            await conn_c[1].drain()
            ack = json.loads(await conn_c[0].readline())
            answers = []
            for reader, _ in (conn_a, conn_a, conn_b, conn_b):
                answers.append(json.loads(await reader.readline()))
            await asyncio.wait_for(server.wait_closed(), 60.0)
            return ack, answers, server.stats

        ack, answers, stats = run_async(scenario())
        assert ack["ok"] and ack["result"]["stopping"] is True
        assert {r["id"] for r in answers} == {"a1", "a2", "b1", "b2"}
        assert all(r["ok"] for r in answers)
        assert stats.requests_admitted == 5  # 4 solves + shutdown
        assert stats.requests_total == 5


class TestDeadShard:
    def test_stats_survives_a_dead_shard(self):
        async def scenario():
            server = await started_server(
                shards=2, engine_config={}, batch_window=0.0
            )
            try:
                dead = server._shard_pool.shards[shard_for_dataset(DATASET_A, 2)]
                os.kill(dead._process.pid, signal.SIGKILL)
                dead._process.join(30.0)
                assert not dead.alive
                responses = await send_sequential(
                    server.host,
                    server.port,
                    [
                        {"schema": 2, "op": "stats", "id": "s"},
                        _solve("b", DATASET_B),
                        _solve("a", DATASET_A),
                    ],
                )
                return responses, server.stats
            finally:
                await server.drain()

        (stats, live, dead), counters = run_async(scenario())
        assert stats["ok"]
        blocks = stats["result"]["shards"]
        failed = [block for block in blocks if block.get("ok") is False]
        assert len(failed) == 1
        assert failed[0]["shard"] == shard_for_dataset(DATASET_A, 2)
        assert "not running" in failed[0]["error"]
        # Counters cover the live shard only (it has served this stats).
        assert stats["result"]["requests_served"] == 1
        assert live["ok"] and live["result"]["solution"]
        assert not dead["ok"]
        assert counters.requests_total == (
            counters.requests_admitted
            + counters.requests_rejected
            + counters.requests_invalid
        )


class TestMetricsSidecar:
    def test_metrics_scrape_matches_stats_op(self):
        async def scenario():
            server = await started_server(
                shards=2, engine_config={}, batch_window=0.0, metrics_port=0
            )
            try:
                await send_sequential(
                    server.host,
                    server.port,
                    [_solve("a", DATASET_A), _solve("b", DATASET_B)],
                )
                reader, writer = await asyncio.open_connection(
                    server.host, server.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                raw = (await reader.read()).decode("utf-8")
                writer.close()
                return raw, server.stats
            finally:
                await server.drain()

        raw, stats = run_async(scenario())
        head, body = raw.split("\r\n\r\n", 1)
        assert "200 OK" in head
        assert "text/plain; version=0.0.4" in head
        samples = {
            line.split(" ")[0]: float(line.rsplit(" ", 1)[1])
            for line in body.splitlines()
            if line and not line.startswith("#")
        }
        # Counters are the same objects the stats op reports.
        assert samples["repro_requests_total"] == stats.requests_total == 2
        assert samples["repro_requests_admitted_total"] == 2
        assert samples["repro_requests_invalid_total"] == 0
        assert samples["repro_shards"] == 2
        assert samples['repro_shard_requests_total{shard="0"}'] == 1
        assert samples['repro_shard_requests_total{shard="1"}'] == 1
        assert samples['repro_op_requests_total{op="solve"}'] == 2
        assert samples['repro_op_latency_seconds{op="solve",quantile="0.5"}'] > 0
        # Every sample is preceded by HELP/TYPE comments.
        assert body.count("# TYPE") == body.count("# HELP")

    def test_unknown_path_is_404(self):
        async def scenario():
            server = await started_server(batch_window=0.0, metrics_port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.metrics_port
                )
                writer.write(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                raw = (await reader.read()).decode("utf-8")
                writer.close()
                return raw
            finally:
                await server.drain()

        raw = run_async(scenario())
        assert raw.startswith("HTTP/1.1 404")

    def test_unsharded_server_serves_metrics_too(self):
        async def scenario():
            server = await started_server(batch_window=0.0, metrics_port=0)
            try:
                await send_sequential(
                    server.host, server.port, [_solve("a", DATASET_A)]
                )
                reader, writer = await asyncio.open_connection(
                    server.host, server.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = (await reader.read()).decode("utf-8")
                writer.close()
                return raw
            finally:
                await server.drain()

        raw = run_async(scenario())
        body = raw.split("\r\n\r\n", 1)[1]
        assert "repro_requests_total 1" in body
        assert "repro_shards 1" in body
        # Shard 0 is the in-process engine; its gauges are always there.
        assert 'repro_shard_queue_depth{shard="0"} 0' in body
