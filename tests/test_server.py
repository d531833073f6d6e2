"""TCP front-end tests: admission control, coalescing, drain, loadgen.

Everything runs in-process on one event loop per test
(``asyncio.run``): the server binds an ephemeral port, clients are
plain ``asyncio.open_connection`` streams, and slow-engine stubs make
the concurrency windows (overload, disconnect-mid-solve, drain
rejection) deterministic without real solver latency.
"""

import asyncio
import io
import json
import time

import pytest

from repro.service.daemon import serve_forever
from repro.service.engine import ServiceEngine
from repro.service.loadgen import LoadScript, parse_mix, percentile, run_load
from repro.service.protocol import (
    encode_response,
    error_response,
    request_from_dict,
)
from repro.service.server import MAX_BATCH, TCPServer
from repro.utils.parallel import WorkerPool, fork_available, get_pool

DATASET = "rand-mc-c2"
IM_DATASET = "rand-im-c2"


def run_async(coro, timeout=120.0):
    """Drive one async scenario to completion with a hard deadline."""

    async def _bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(_bounded())


async def started_server(engine=None, **kwargs):
    server = TCPServer(engine, port=0, **kwargs)
    await server.start()
    return server


async def rpc(reader, writer, payload):
    """Send one JSON line and read one JSON response line."""
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
    line = await reader.readline()
    assert line, "connection closed before a response arrived"
    return json.loads(line)


async def read_json_lines(reader, count):
    out = []
    for _ in range(count):
        line = await reader.readline()
        assert line, "connection closed early"
        out.append(json.loads(line))
    return out


class SlowEngine(ServiceEngine):
    """Engine whose batches take fixed wall-clock time.

    The sleep happens on the pool thread — exactly where a real solve
    burns CPU — so the event loop stays free to admit, reject, and
    drain while a batch is "computing"."""

    def __init__(self, delay):
        super().__init__()
        self.delay = delay

    def handle_batch(self, requests):
        time.sleep(self.delay)
        return super().handle_batch(requests)


class TestTCPBasics:
    def test_v1_and_v2_solves_match(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                v1 = await rpc(
                    reader,
                    writer,
                    {"op": "solve", "id": "a", "dataset": DATASET, "k": 3},
                )
                v2 = await rpc(
                    reader,
                    writer,
                    {
                        "schema": 2,
                        "op": "solve",
                        "id": "b",
                        "args": {"dataset": DATASET, "k": 3},
                    },
                )
                writer.close()
            finally:
                await server.drain()
            return v1, v2

        v1, v2 = run_async(scenario())
        assert v1["ok"] and v2["ok"]
        assert v1["id"] == "a" and v2["id"] == "b"
        # Same request through either protocol version: same solution.
        assert v1["result"]["solution"] == v2["result"]["solution"]
        assert v2["warm"], "second identical solve should reuse the session"

    def test_array_line_answers_in_member_order(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                line = [
                    {"op": "stats", "id": "s1"},
                    {"op": "solve", "id": "bad", "dataset": DATASET, "k": -1},
                    {"op": "solve", "id": "ok", "dataset": DATASET, "k": 2},
                    {"op": "stats", "id": "s2"},
                ]
                writer.write((json.dumps(line) + "\n").encode("utf-8"))
                await writer.drain()
                responses = await read_json_lines(reader, 4)
                writer.close()
            finally:
                await server.drain()
            return responses

        responses = run_async(scenario())
        # Member order is preserved even when a member fails validation.
        assert [r["id"] for r in responses] == ["s1", "bad", "ok", "s2"]
        assert responses[0]["ok"] and responses[2]["ok"] and responses[3]["ok"]
        assert not responses[1]["ok"]
        assert "k" in responses[1]["error"]

    def test_invalid_json_keeps_connection_usable(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                stats = await rpc(reader, writer, {"op": "stats", "id": "s"})
                writer.close()
            finally:
                await server.drain()
            return error, stats

        error, stats = run_async(scenario())
        assert not error["ok"] and "invalid JSON" in error["error"]
        assert stats["ok"]

    def test_stats_response_carries_server_counters(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                stats = await rpc(reader, writer, {"op": "stats", "id": "s"})
                writer.close()
            finally:
                await server.drain()
            return stats

        stats = run_async(scenario())
        server_block = stats["result"]["server"]
        assert server_block["connections_total"] == 1
        assert server_block["requests_admitted"] == 1
        assert server_block["config"]["max_queue_depth"] >= 1
        assert server_block["draining"] is False

    def test_stats_config_reports_the_batch_cap(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            try:
                return server.stats_dict()
            finally:
                await server.drain()

        assert run_async(scenario())["config"]["max_batch"] == MAX_BATCH

    def test_error_response_echoes_a_string_member_id(self):
        error = error_response("bad member", {"id": "m1", "op": 7})
        assert (error.op, error.id, error.ok) == ("error", "m1", False)
        assert error_response("bad member", {"id": 3}).id == ""


class TestOneServingPath:
    def test_unsharded_stats_and_shutdown_match_the_engine(self):
        """The in-process engine is shard 0: ``stats`` keeps the engine's
        key set (plus the front-end's ``server`` block), and the
        front-end acks ``shutdown`` with the engine's own bytes."""
        shutdowns = [
            {"op": "shutdown", "id": "v1"},
            {"schema": 2, "op": "shutdown", "id": "v2"},
        ]

        async def scenario():
            server = await started_server(batch_window=0.0)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            stats = await rpc(reader, writer, {"op": "stats", "id": "s"})
            writer.write((json.dumps(shutdowns) + "\n").encode("utf-8"))
            await writer.drain()
            acks = [await reader.readline() for _ in shutdowns]
            await asyncio.wait_for(server.wait_closed(), 60.0)
            writer.close()
            await writer.wait_closed()
            return stats, acks

        stats, acks = run_async(scenario())
        assert stats["ok"]
        result = dict(stats["result"])
        del result["server"]
        assert set(result) == set(ServiceEngine().stats())
        engine = ServiceEngine()
        assert acks == [
            (
                encode_response(engine.handle(request_from_dict(payload)))
                + "\n"
            ).encode("utf-8")
            for payload in shutdowns
        ]


class TestCoalescing:
    def test_cross_connection_solves_coalesce(self):
        engine = ServiceEngine()

        async def scenario():
            server = await started_server(engine, batch_window=0.3)
            try:
                conn_a = await asyncio.open_connection(server.host, server.port)
                conn_b = await asyncio.open_connection(server.host, server.port)
                for (reader, writer), request_id, k in (
                    (conn_a, "a", 2),
                    (conn_b, "b", 5),
                ):
                    payload = {
                        "schema": 2,
                        "op": "solve",
                        "id": request_id,
                        "args": {"dataset": DATASET, "k": k},
                    }
                    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                    await writer.drain()
                resp_a = json.loads(await conn_a[0].readline())
                resp_b = json.loads(await conn_b[0].readline())
                runs = engine.coalesced_runs
                shared = engine.coalesced_requests
                for _, writer in (conn_a, conn_b):
                    writer.close()
            finally:
                await server.drain()
            return resp_a, resp_b, runs, shared

        resp_a, resp_b, runs, shared = run_async(scenario())
        assert resp_a["ok"] and resp_b["ok"]
        assert runs == 1 and shared == 2
        assert resp_a["result"]["extra"]["coalesced"]
        assert resp_b["result"]["extra"]["coalesced"]
        # Prefix nesting: the k=2 solution is a prefix of the k=5 one.
        prefix = resp_b["result"]["solution"][:2]
        assert resp_a["result"]["solution"] == prefix
        # And both match a sequential solve on a fresh engine.
        sequential = ServiceEngine().handle(
            _flat_solve("seq", k=5)
        )
        assert resp_b["result"]["solution"] == sequential.result["solution"]


def _flat_solve(request_id, *, dataset=DATASET, k=3, **fields):
    from repro.service.protocol import Request

    return Request(op="solve", id=request_id, dataset=dataset, k=k, **fields)


class TestAdmissionControl:
    def test_overloaded_requests_get_fast_rejection(self):
        async def scenario():
            engine = SlowEngine(0.6)
            server = await started_server(
                engine,
                batch_window=0.0,
                max_inflight=1,
                max_queue_depth=1,
                retry_after_ms=250,
            )
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    (json.dumps(_solve_v2("first")) + "\n").encode("utf-8")
                )
                await writer.drain()
                await asyncio.sleep(0.15)  # first request now in flight
                for request_id in ("second", "third"):
                    writer.write(
                        (json.dumps(_solve_v2(request_id)) + "\n").encode(
                            "utf-8"
                        )
                    )
                await writer.drain()
                by_id = {
                    r["id"]: r for r in await read_json_lines(reader, 3)
                }
                rejected = server.stats.requests_rejected
                writer.close()
            finally:
                await server.drain()
            return by_id, rejected

        by_id, rejected = run_async(scenario())
        assert by_id["first"]["ok"]
        for request_id in ("second", "third"):
            response = by_id[request_id]
            assert not response["ok"]
            assert response["error"] == "overloaded"
            assert response["result"]["retry_after_ms"] == 250
        assert rejected == 2


def _solve_v2(request_id, *, dataset=DATASET, k=3, **args):
    return {
        "schema": 2,
        "op": "solve",
        "id": request_id,
        "args": {"dataset": dataset, "k": k, **args},
    }


class TestConnectionFailures:
    def test_disconnect_mid_solve_keeps_engine_warm(self):
        async def scenario():
            engine = SlowEngine(0.3)
            server = await started_server(engine, batch_window=0.0)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    (json.dumps(_solve_v2("gone")) + "\n").encode("utf-8")
                )
                await writer.drain()
                await asyncio.sleep(0.1)  # admitted and dispatched
                writer.close()  # client gives up before the answer
                while server._pending:
                    await asyncio.sleep(0.05)
                # The server survives and the abandoned solve's warm
                # state is banked: the same solve on a new connection
                # answers warm.
                reader2, writer2 = await asyncio.open_connection(
                    server.host, server.port
                )
                again = await rpc(reader2, writer2, _solve_v2("retry"))
                writer2.close()
            finally:
                await server.drain()
            return again, engine.requests_served

        again, served = run_async(scenario())
        assert again["ok"]
        assert again["warm"], "abandoned solve should still warm the session"
        assert served == 2

    def test_oversized_line_errors_and_closes_connection(self):
        async def scenario():
            server = await started_server(batch_window=0.0, max_line_bytes=1024)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                huge = b'{"op": "stats", "id": "' + b"x" * 4096 + b'"}\n'
                writer.write(huge)
                await writer.drain()
                error = json.loads(await reader.readline())
                eof = await reader.readline()
                oversized = server.stats.oversized_lines
                writer.close()
                # The listener is unaffected: a fresh connection works.
                reader2, writer2 = await asyncio.open_connection(
                    server.host, server.port
                )
                stats = await rpc(reader2, writer2, {"op": "stats", "id": "s"})
                writer2.close()
            finally:
                await server.drain()
            return error, eof, oversized, stats

        error, eof, oversized, stats = run_async(scenario())
        assert not error["ok"] and "exceeds 1024 bytes" in error["error"]
        assert eof == b"", "oversized line must close the connection"
        assert oversized == 1
        assert stats["ok"]

    def test_storage_tier_sessions_stay_isolated(self):
        async def scenario():
            server = await started_server(batch_window=0.25)
            try:
                conn_a = await asyncio.open_connection(server.host, server.port)
                conn_b = await asyncio.open_connection(server.host, server.port)
                for (reader, writer), request_id, store in (
                    (conn_a, "ram", "ram"),
                    (conn_b, "mm", "mmap"),
                ):
                    payload = _solve_v2(
                        request_id,
                        dataset=IM_DATASET,
                        k=3,
                        im_samples=200,
                        store=store,
                    )
                    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                    await writer.drain()
                resp_a = json.loads(await conn_a[0].readline())
                resp_b = json.loads(await conn_b[0].readline())
                stats = await rpc(*conn_a, {"op": "stats", "id": "s"})
                runs = stats["result"]["coalesced_runs"]
                for _, writer in (conn_a, conn_b):
                    writer.close()
            finally:
                await server.drain()
            return resp_a, resp_b, stats, runs

        resp_a, resp_b, stats, runs = run_async(scenario())
        assert resp_a["ok"] and resp_b["ok"]
        # Different storage tiers never share a run or a session, but
        # produce bitwise-identical solutions.
        assert runs == 0
        assert resp_a["result"]["solution"] == resp_b["result"]["solution"]
        kinds = {
            session["storage"]["store_kind"]
            for session in stats["result"]["sessions"]
        }
        assert {"ram", "mmap"} <= kinds
        assert len(stats["result"]["sessions"]) == 2


class TestDrain:
    def test_shutdown_op_drains_and_answers_inflight(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            try:
                conn_a = await asyncio.open_connection(server.host, server.port)
                conn_b = await asyncio.open_connection(server.host, server.port)
                conn_a[1].write(
                    (json.dumps(_solve_v2("work")) + "\n").encode("utf-8")
                )
                await conn_a[1].drain()
                await asyncio.sleep(0.05)
                ack = await rpc(
                    *conn_b, {"schema": 2, "op": "shutdown", "id": "bye"}
                )
                work = json.loads(await conn_a[0].readline())
                await asyncio.wait_for(server.wait_closed(), 60.0)
                host, port = server.host, server.port
            finally:
                if not server._draining:
                    await server.drain()
            refused = False
            try:
                await asyncio.open_connection(host, port)
            except OSError:
                refused = True
            return ack, work, refused

        ack, work, refused = run_async(scenario())
        assert ack["ok"] and ack["op"] == "shutdown"
        assert ack["result"]["stopping"] is True
        assert work["ok"], "in-flight work must be answered before close"
        assert refused, "the listener must be closed after the drain"

    def test_mixed_shutdown_array_answers_every_member_in_order(self):
        async def scenario():
            server = await started_server(batch_window=0.0)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            line = [
                _solve_v2("a"),
                {"schema": 2, "op": "shutdown", "id": "b"},
                {"schema": 2, "op": "stats", "id": "c"},
            ]
            writer.write((json.dumps(line) + "\n").encode("utf-8"))
            await writer.drain()
            responses = await read_json_lines(reader, 3)
            await asyncio.wait_for(server.wait_closed(), 60.0)
            return responses

        responses = run_async(scenario())
        # The shutdown member never eats its neighbours' responses.
        assert [r["id"] for r in responses] == ["a", "b", "c"]
        assert all(r["ok"] for r in responses)

    def test_draining_rejects_new_requests(self):
        async def scenario():
            engine = SlowEngine(0.5)
            server = await started_server(engine, batch_window=0.0)
            try:
                conn_work = await asyncio.open_connection(
                    server.host, server.port
                )
                conn_late = await asyncio.open_connection(
                    server.host, server.port
                )
                conn_work[1].write(
                    (json.dumps(_solve_v2("w")) + "\n").encode("utf-8")
                )
                await conn_work[1].drain()
                await asyncio.sleep(0.15)  # the solve is now in flight
                server.request_drain()  # the SIGTERM path
                await asyncio.sleep(0.05)
                late = await rpc(*conn_late, {"op": "stats", "id": "late"})
                work = json.loads(await conn_work[0].readline())
                await asyncio.wait_for(server.wait_closed(), 60.0)
            finally:
                if not server._draining:
                    await server.drain()
            return late, work

        late, work = run_async(scenario())
        assert not late["ok"] and late["error"] == "draining"
        assert "retry_after_ms" in late["result"]
        assert work["ok"], "admitted work survives the drain"


class TestDaemonShutdownBatch:
    """Regression pin for the stdio daemon's mixed shutdown batches."""

    def test_mixed_batch_answers_all_members_then_exits(self):
        lines = [
            json.dumps(
                [
                    {"op": "solve", "id": "a", "dataset": DATASET, "k": 2},
                    {"op": "shutdown", "id": "b"},
                    {"op": "stats", "id": "c"},
                ]
            ),
            # This line is after the shutdown: the loop must already
            # have exited, so it gets no response.
            json.dumps({"op": "stats", "id": "never"}),
        ]
        out = io.StringIO()
        status = serve_forever(io.StringIO("\n".join(lines) + "\n"), out)
        assert status == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == ["a", "b", "c"]
        assert all(r["ok"] for r in responses)
        assert responses[1]["result"]["stopping"] is True


class TestLoadgen:
    def test_open_loop_run_against_live_server(self):
        async def scenario():
            server = await started_server(batch_window=0.02)
            try:
                report = await run_load(
                    server.host,
                    server.port,
                    connections=4,
                    rate=400.0,
                    total=40,
                    script=LoadScript(im_samples=200, seed=1),
                )
            finally:
                await server.drain()
            return report

        report = run_async(scenario())
        assert report.sent == 40 and report.lost == 0
        assert report.completed == 40
        assert report.ok == 40 and report.failed == 0 and report.rejected == 0
        assert sum(report.per_op.values()) == 40
        assert report.p50_ms > 0 and report.p99_ms >= report.p50_ms
        assert report.throughput > 0
        as_dict = report.as_dict()
        assert as_dict["rejection_rate"] == 0.0
        assert as_dict["lost"] == 0

    def test_v1_schema_run(self):
        async def scenario():
            server = await started_server(batch_window=0.02)
            try:
                report = await run_load(
                    server.host,
                    server.port,
                    connections=2,
                    rate=400.0,
                    total=10,
                    script=LoadScript(im_samples=200, seed=3, schema=1),
                )
            finally:
                await server.drain()
            return report

        report = run_async(scenario())
        assert report.ok == 10 and report.lost == 0

    def test_script_is_deterministic(self):
        import random

        script = LoadScript(seed=7)
        first = [script.build(random.Random(7), i) for i in range(20)]
        second = [script.build(random.Random(7), i) for i in range(20)]
        assert first == second

    def test_script_validation(self):
        with pytest.raises(ValueError, match="unknown ops"):
            LoadScript(mix={"fly": 1.0})
        with pytest.raises(ValueError, match="positive total weight"):
            LoadScript(mix={"solve": 0.0})
        with pytest.raises(ValueError, match="schema"):
            LoadScript(schema=3)

    def test_parse_mix(self):
        assert parse_mix("solve=0.6, stats=0.4") == {
            "solve": 0.6,
            "stats": 0.4,
        }
        with pytest.raises(ValueError, match="bad mix entry"):
            parse_mix("solve=lots")

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([7.0], 0.99) == 7.0


class TestDrainTaskReference:
    def test_signal_path_drain_survives_gc_pressure(self):
        """Regression: the drain task must be strongly referenced.

        The event loop holds only weak references to tasks; before the
        fix, request_drain() created its task fire-and-forget, so a
        gc.collect() mid-drain could destroy it and wait_closed would
        hang forever.
        """
        import gc

        async def scenario():
            engine = SlowEngine(0.3)
            server = await started_server(engine, batch_window=0.0)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write((json.dumps(_solve_v2("w")) + "\n").encode("utf-8"))
            await writer.drain()
            await asyncio.sleep(0.1)  # the solve is now in flight
            server.request_drain()  # the SIGTERM path
            assert server._drain_task is not None
            # Collector pressure while the drain is mid-flight; only
            # the server's strong reference keeps the task alive.
            for _ in range(10):
                gc.collect()
                await asyncio.sleep(0.02)
            work = json.loads(await reader.readline())
            await asyncio.wait_for(server.wait_closed(), 60.0)
            return work

        work = run_async(scenario())
        assert work["ok"], "admitted work must be answered through the drain"


class TruncatingEngine(ServiceEngine):
    """Engine that mis-sizes its replies: answers all but the last."""

    def handle_batch(self, requests):
        return super().handle_batch(requests)[:-1]


class TestPendingAccounting:
    def test_mis_sized_engine_reply_does_not_leak_pending(self):
        """Regression: _pending must settle per admitted request.

        Before the fix, _dispatch_batch decremented once per *response*
        (zip with the engine reply), so an engine answering N-1
        responses to N requests leaked one _pending forever — with
        max_queue_depth=1 the server would then reject everything as
        "overloaded" and the starved future would never resolve.
        """

        async def scenario():
            server = await started_server(
                TruncatingEngine(),
                batch_window=0.0,
                max_queue_depth=1,
            )
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                first = await rpc(reader, writer, _solve_v2("first"))
                pending_after = server._pending
                second = await rpc(reader, writer, _solve_v2("second"))
                writer.close()
            finally:
                await server.drain()
            return first, pending_after, second

        first, pending_after, second = run_async(scenario())
        assert not first["ok"]
        assert "internal error" in first["error"]
        assert "0 responses to 1 requests" in first["error"]
        assert pending_after == 0, "_pending must not leak on short replies"
        # The leak would reject this as "overloaded"; the fix admits it.
        assert second["error"] != "overloaded"
        assert "internal error" in second["error"]


class TestCounterIdentity:
    def test_total_equals_admitted_plus_rejected_plus_invalid(self):
        """Regression: invalid members must be counted, not skipped.

        Before the fix requests_total was bumped only after a member
        passed request_from_dict, so malformed traffic made the server
        counters disagree with loadgen-side accounting.
        """

        async def scenario():
            engine = SlowEngine(0.4)
            server = await started_server(
                engine,
                batch_window=0.0,
                max_inflight=1,
                max_queue_depth=1,
            )
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    (json.dumps(_solve_v2("slow")) + "\n").encode("utf-8")
                )
                await writer.drain()
                await asyncio.sleep(0.15)  # the solve occupies the queue
                rejected = await rpc(reader, writer, _solve_v2("reject"))
                garbage = await rpc_raw(reader, writer, b"not json at all\n")
                while server._pending:  # let the slow solve clear the queue
                    await asyncio.sleep(0.05)
                # An array mixing an invalid member with a valid one.
                writer.write(
                    (
                        json.dumps(
                            [{"op": "fly", "id": "bad"}, _solve_v2("later")]
                        )
                        + "\n"
                    ).encode("utf-8")
                )
                await writer.drain()
                by_id = {
                    r["id"]: r for r in await read_json_lines(reader, 3)
                }
                stats = server.stats
                identity = (
                    stats.requests_total,
                    stats.requests_admitted,
                    stats.requests_rejected,
                    stats.requests_invalid,
                )
                writer.close()
            finally:
                await server.drain()
            return rejected, garbage, by_id, identity

        rejected, garbage, by_id, identity = run_async(scenario())
        assert rejected["error"] == "overloaded"
        assert "invalid JSON" in garbage["error"]
        assert not by_id["bad"]["ok"]
        assert by_id["slow"]["ok"] and by_id["later"]["ok"]
        total, admitted, rejected_n, invalid = identity
        # slow + reject + garbage line + bad member + later = 5 requests.
        assert total == 5
        assert (admitted, rejected_n, invalid) == (2, 1, 2)
        assert total == admitted + rejected_n + invalid


async def rpc_raw(reader, writer, data):
    writer.write(data)
    await writer.drain()
    line = await reader.readline()
    assert line, "connection closed before a response arrived"
    return json.loads(line)


class TestRequestCLITimeout:
    def test_timeout_maps_to_clean_exit_and_one_line_error(self, tmp_path):
        """Regression: `repro request --tcp` died with a raw
        socket.timeout traceback on long solves; --timeout now maps to
        exit status 3 with a one-line error."""
        import os
        import socket
        import subprocess
        import sys
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        held = []

        def hold_open():
            try:
                conn, _ = listener.accept()
                held.append(conn)  # accept, read nothing, answer nothing
            except OSError:  # pragma: no cover - teardown race
                pass

        accepter = threading.Thread(target=hold_open, daemon=True)
        accepter.start()
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "request",
                    '{"op": "stats"}',
                    "--tcp", f"127.0.0.1:{port}",
                    "--timeout", "0.5",
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
        finally:
            listener.close()
            for conn in held:
                conn.close()
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        stderr_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(stderr_lines) == 1
        assert "timed out after 0.5s" in stderr_lines[0]

    def test_zero_timeout_means_wait_forever(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["request", '{"op": "stats"}', "--tcp", "h:1", "--timeout", "0"]
        )
        assert isinstance(args, argparse.Namespace)
        assert args.timeout == 0.0


class TestRequestCLIWireVersion:
    """`repro request --tcp` sends the wire version it was given. The
    decoder lifts v1 to the typed shape, so re-encoding the decoded
    request would send a v1 input as a v2 envelope, and a v1 solve with
    no dataset would get v2's decode error instead of the engine's."""

    CANNED = '{"op":"solve","id":"w","ok":true,"result":{}}'

    def _send(self, request_json):
        import socket
        import threading

        from repro.cli import main

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        received = []

        def answer():
            conn, _ = listener.accept()
            with conn, conn.makefile("rw", encoding="utf-8") as stream:
                received.append(stream.readline())
                stream.write(self.CANNED + "\n")
                stream.flush()

        server = threading.Thread(target=answer, daemon=True)
        server.start()
        try:
            status = main([
                "request", request_json,
                "--tcp", f"127.0.0.1:{port}", "--timeout", "30",
            ])
        finally:
            server.join(timeout=30)
            listener.close()
        assert status == 0
        assert len(received) == 1 and received[0].endswith("\n")
        return json.loads(received[0])

    def test_v1_input_arrives_without_a_schema_key(self, capsys):
        sent = self._send('{"op": "solve", "id": "w"}')
        assert "schema" not in sent
        assert sent == {"op": "solve", "id": "w"}
        assert capsys.readouterr().out.strip() == self.CANNED

    def test_v2_input_arrives_as_the_envelope(self, capsys):
        envelope = {
            "schema": 2, "op": "solve", "id": "w",
            "args": {"dataset": DATASET, "k": 3},
        }
        assert self._send(json.dumps(envelope)) == envelope
        assert capsys.readouterr().out.strip() == self.CANNED


class TestWorkerPoolSubmit:
    def test_thread_pool_satisfies_executor_protocol(self):
        pool = get_pool("thread", 2)
        before = pool.tasks_run
        future = pool.submit(max, 3, 41)
        assert future.result() == 41
        assert pool.tasks_run == before + 1

    def test_process_pool_rejects_submit(self):
        if not fork_available():  # pragma: no cover - platform guard
            pytest.skip("fork not available")
        pool = WorkerPool("process", 2)
        try:
            with pytest.raises(ValueError, match="thread backend"):
                pool.submit(max, 1, 2)
        finally:
            pool.shutdown()
