"""Asyncio TCP front-end over an engine shard pool.

The stdio daemon (:mod:`repro.service.daemon`) serves one pipe; this
module serves *connections* — thousands of them — while keeping the
wire format identical: newline-delimited JSON, one request or response
per line, a JSON array per line for an explicit batch. A v1 client can
point its stdio script at a socket and see the same bytes back.

The serving path is one chain of event-loop callbacks from the client
socket to the shard and back; no task or thread hop is made per request:

* **Connections are protocols.** Each client is a :class:`_Client`
  (``asyncio.Protocol``). Its ``data_received`` splits lines, decodes
  and admits every member at once, and a line is written when its last
  member is answered, so lines on one connection may complete out of
  order (correlate by ``id``). A client that stops reading its answers
  pauses the server's reading of its requests.
* **Dataset-affine sharding.** Every engine sits behind an
  :class:`~repro.service.shards.EngineShardPool`: with ``shards == 1``
  (the default) its one shard is the in-process engine, with
  ``shards > 1`` it spawns N engine worker processes. There is one
  dispatch path for any shard count: data ops route by
  :func:`~repro.service.shards.shard_for_dataset` (``crc32(dataset) %
  shards``) so a dataset's warm session state always lives on exactly
  one shard; ``stats`` fans out to every shard and merges (a failed
  shard reports an ``ok: false`` block instead of failing the op);
  ``shutdown`` is acked by the front-end and drains the whole pool.
  Every call that reaches a shard is its ``submit``: the in-process
  engine runs it on its one engine thread, and a process shard's pipe
  is read and written on the loop itself.
* **Per-shard micro-batches that wait only for a partner.** Admitted
  requests land on their shard's FIFO queue, and each touched shard is
  kicked once per loop pass, so requests that arrive together from
  different connections batch together. A kick takes the head plus
  everything queued behind it (up to :data:`MAX_BATCH`) as one engine
  batch while the shard has fewer than ``max_inflight`` batches out
  (see :meth:`TCPServer._kick`). Only a greedy head with no same-key
  partner queued waits, on one timer, for at most the run a partner
  would save. Requests from *different connections* therefore still
  coalesce like members of one array line: many users asking for the
  same dataset's seeds collapse into one shared greedy run on that
  dataset's shard (the engine's prefix-replay guarantee keeps each
  response bitwise-identical to a sequential solve). The batch runs
  unit by unit (each coalesced group, then every other request alone;
  :meth:`~repro.service.engine.ServiceEngine.plan`), and each request
  is answered when its own unit finishes, so a cheap request never
  waits for a slow solve planned after it.
* **Admission control.** A request is admitted only while the number of
  admitted-but-unanswered requests is below ``max_queue_depth``;
  beyond that the server answers immediately with ``ok: false,
  error: "overloaded"`` and a ``retry_after_ms`` hint instead of
  letting queues grow without bound.

Shutdown is graceful either way it arrives (SIGTERM/SIGINT or a
``shutdown`` op): the listener closes, every in-flight request is
answered and written, the shard pool drains shard by shard,
then connections close and :meth:`TCPServer.wait_closed` returns.
While draining, new requests are refused with ``error: "draining"``.

A line longer than ``max_line_bytes`` cannot be resynchronised (the
tail would be parsed as garbage requests), so the server answers with
one oversized-line error and closes that connection.

An optional HTTP metrics sidecar (``metrics_port``) serves Prometheus
text (``/metrics``): every :class:`ServerStats` counter, per-op
latency quantiles over a sliding window, and per-shard queue-depth,
dispatch and unit counters. The counters are the same objects the
``stats`` op reports, so a scrape and a ``stats`` response can be
cross-checked.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time
from collections import deque
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Any, Optional

from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    ProtocolError,
    Response,
    ServiceRequest,
    ShutdownRequest,
    encode_response,
    error_response,
    request_from_dict,
)
from repro.service.shards import EngineShardPool, shard_for_dataset
from repro.utils.caching import BoundedCache
from repro.utils.stats import LatencyWindow

DEFAULT_HOST = "127.0.0.1"
DEFAULT_MAX_QUEUE_DEPTH = 256
DEFAULT_MAX_INFLIGHT = 2
DEFAULT_BATCH_WINDOW = 0.005  # seconds
DEFAULT_MAX_LINE_BYTES = 1 << 20
DEFAULT_RETRY_AFTER_MS = 100

#: Most requests one shard batch gathers before it is dispatched.
MAX_BATCH = 64

#: Coalescing keys whose last run time one shard remembers (LRU): a
#: stream of never-repeated keys, such as fresh seeds, stays bounded.
RUN_TIME_KEYS = 256

#: Content-Type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Ops that are answered by the dispatcher itself (fan-out / fabricated
#: ack) rather than routed to a dataset shard.
FANOUT_OPS = ("stats", "shutdown")


@dataclass
class ServerStats:
    """Front-end counters, surfaced inside ``stats`` op responses.

    The invariant ``requests_total == requests_admitted +
    requests_rejected + requests_invalid`` holds at every quiescent
    point: *every* member of every parsed line is counted exactly once,
    including members that fail protocol validation (a whole
    unparseable-JSON line counts as one invalid request). Oversized
    lines are torn down before parsing and tracked separately in
    ``oversized_lines``.
    """

    connections_total: int = 0
    connections_active: int = 0
    lines_total: int = 0
    requests_total: int = 0
    requests_admitted: int = 0
    requests_rejected: int = 0
    requests_invalid: int = 0
    batches_dispatched: int = 0
    oversized_lines: int = 0
    responses_discarded: int = 0


class _Line:
    """One input line: its answers in member order, and how many are open.

    ``open`` starts at 1 while the line is being admitted, so that no
    member answered during admission can write the line early.
    """

    __slots__ = ("client", "slots", "open", "shutdown")

    def __init__(self, client: _Client, size: int) -> None:
        self.client = client
        self.slots: list[Optional[Response]] = [None] * size
        self.open = 1
        self.shutdown = False


class _Member:
    """One admitted request, from its line to its shard and back."""

    __slots__ = ("request", "key", "line", "pos", "admitted")

    def __init__(
        self, request: ServiceRequest, key: Optional[tuple], line: _Line, pos: int
    ) -> None:
        self.request = request
        self.key = key
        self.line = line
        self.pos = pos
        self.admitted = time.perf_counter()


class _Client(asyncio.Protocol):
    """One client connection: split lines in, write answered lines out."""

    transport: asyncio.Transport

    def __init__(self, server: TCPServer) -> None:
        self.server = server
        self._buffer = bytearray()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.server._clients.add(self)
        self.server.stats.connections_total += 1
        self.server.stats.connections_active += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # In-flight lines of this client are still answered (the engine
        # banks the warm state); their responses are discarded.
        self.server._clients.discard(self)
        self.server.stats.connections_active -= 1

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        limit = self.server.max_line_bytes
        start = 0
        while True:
            end = buffer.find(b"\n", start)
            if end < 0:
                break
            if end - start > limit:
                self._oversized()
                return
            self.server._serve_line(self, buffer[start:end])
            start = end + 1
        del buffer[:start]
        if len(buffer) > limit:
            self._oversized()

    def _oversized(self) -> None:
        """The overlong tail is unrecoverable mid-stream: answer once, drop
        the connection."""
        self.server.stats.oversized_lines += 1
        self.write([error_response(f"line exceeds {self.server.max_line_bytes} bytes")])
        self._buffer.clear()
        self.transport.close()

    def write(self, responses: list[Response]) -> None:
        if self.transport.is_closing():
            # Client disconnected before its answer: the result is
            # dropped; the engine already banked the warm state.
            self.server.stats.responses_discarded += len(responses)
            return
        self.transport.write(
            "".join(encode_response(response) + "\n" for response in responses)
            .encode("utf-8")
        )

    # Backpressure: a client that does not read its answers stops being read.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.transport.is_closing():
            self.transport.resume_reading()


class TCPServer:
    """Newline-delimited-JSON TCP server over one or many engines.

    Lifecycle: ``await start()``, then ``await wait_closed()``; a
    ``shutdown`` op or :meth:`request_drain` (wired to SIGTERM/SIGINT by
    :func:`run_tcp_server`) triggers the drain that completes
    ``wait_closed``. Tests drive the whole lifecycle in-process on one
    event loop; ``port=0`` binds an ephemeral port exposed via
    :attr:`port`.

    Engines are built from ``engine_config``: in-process when
    ``shards == 1``, once per shard process otherwise. ``engine``
    injects a ready engine as the single shard (``shards == 1`` only).
    """

    def __init__(
        self,
        engine: Optional[ServiceEngine] = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        retry_after_ms: int = DEFAULT_RETRY_AFTER_MS,
        shards: int = 1,
        engine_config: Optional[dict[str, Any]] = None,
        metrics_port: Optional[int] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        self.host = host
        self.shards = shards
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight
        self.batch_window = batch_window
        self.max_line_bytes = max_line_bytes
        self.retry_after_ms = retry_after_ms
        self.stats = ServerStats()
        self.latency = LatencyWindow()
        self._requested_port = port
        self._requested_metrics_port = metrics_port
        self._bound_port: Optional[int] = None
        self._bound_metrics_port: Optional[int] = None
        self._shard_pool = EngineShardPool(
            shards, engine_config, engine=engine
        )
        # Per shard: the FIFO of admitted requests, the batches out, the
        # lone greedy head's wait timer, when the shard last answered a
        # unit, and the last measured run time (seconds) of each
        # coalescing key, which bounds a lone head's wait for a partner.
        self._queues: list[deque[_Member]] = [deque() for _ in range(shards)]
        self._inflight = [0] * shards
        self._timers: list[Optional[asyncio.TimerHandle]] = [None] * shards
        self._answered_at = [0.0] * shards
        self._run_seconds = [
            BoundedCache(RUN_TIME_KEYS, sizeof=lambda _: 1)
            for _ in range(shards)
        ]
        self._touched: set[int] = set()
        self._pending = 0
        self._idle: Optional[asyncio.Future] = None
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._done: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._clients: set[_Client] = set()

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._bound_port is not None
        return self._bound_port

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound metrics port (``None`` when the sidecar is off)."""
        return self._bound_metrics_port

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        await self._shard_pool.connect()
        self._server = await self._loop.create_server(
            lambda: _Client(self), self.host, self._requested_port
        )
        # Cached: the sockets list empties once the listener closes,
        # but callers still ask "which port was that?" after a drain.
        self._bound_port = self._server.sockets[0].getsockname()[1]
        if self._requested_metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics, self.host, self._requested_metrics_port
            )
            self._bound_metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )

    def install_signal_handlers(self) -> None:  # pragma: no cover — CLI path
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platform without signal support

    def request_drain(self) -> None:
        """Schedule a graceful drain (idempotent, signal-handler safe).

        The task reference is held on the server: the event loop keeps
        only weak references to tasks, so a fire-and-forget drain could
        be garbage-collected mid-drain, leaving ``wait_closed`` hanging
        forever (regression-tested under ``gc.collect()`` pressure).
        """
        if not self._draining and self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def wait_closed(self) -> None:
        assert self._done is not None
        await self._done.wait()

    async def drain(self) -> None:
        """Stop accepting, answer everything in flight, close, finish."""
        if self._draining:
            return
        self._draining = True
        assert self._server is not None and self._loop is not None
        self._server.close()
        # In-flight lines finish on their own: each is written when its
        # last member is answered. A waiting greedy head stops waiting,
        # and lines arriving *during* the drain are answered fast with
        # "draining", so this converges.
        for shard in range(self.shards):
            self._kick(shard)
        while self._pending:
            self._idle = self._loop.create_future()
            await self._idle
        if self.shards > 1:
            # Each worker answers a shutdown op and exits; the
            # in-process engine has nothing to stop.
            stopped = [self._loop.create_future() for _ in range(self.shards)]
            for shard, future in enumerate(stopped):
                self._shard_pool.submit(
                    shard,
                    [ShutdownRequest(id="__drain__")],
                    lambda _positions, _responses: None,
                    functools.partial(future.set_result, None),
                )
            await asyncio.gather(*stopped)
        self._shard_pool.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for client in list(self._clients):
            client.transport.close()
        await self._server.wait_closed()
        assert self._done is not None
        self._done.set()

    # -- lines -------------------------------------------------------------
    def _serve_line(self, client: _Client, raw: bytearray) -> None:
        """Decode and admit one input line; answer what needs no engine.

        Members bound for a shard are queued there; ``stats`` fans out
        and ``shutdown`` is acked here. The line is written when its
        last member is answered (:meth:`_settle`), in member order.
        """
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            return
        self.stats.lines_total += 1
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            # The whole line is one unparseable request: count it so the
            # requests_total identity covers malformed traffic too.
            self.stats.requests_total += 1
            self.stats.requests_invalid += 1
            client.write([error_response(f"invalid JSON: {exc}")])
            return
        batch = payload if isinstance(payload, list) else [payload]
        line = _Line(client, len(batch))
        for pos, member in enumerate(batch):
            self.stats.requests_total += 1
            try:
                request = request_from_dict(member)
            except ProtocolError as exc:
                self.stats.requests_invalid += 1
                line.slots[pos] = error_response(str(exc), member)
                continue
            refusal = self._admission_verdict()
            if refusal is not None:
                self.stats.requests_rejected += 1
                line.slots[pos] = Response(
                    op=request.op, id=request.id, ok=False, error=refusal,
                    result={"retry_after_ms": self.retry_after_ms},
                )
                continue
            self.stats.requests_admitted += 1
            self._pending += 1
            line.open += 1
            if request.op == "shutdown":
                line.shutdown = True
                self._answer(
                    _Member(request, None, line, pos),
                    Response(op=request.op, id=request.id, result={"stopping": True}),
                )
            elif request.op == "stats":
                self._fan_out(_Member(request, None, line, pos))
            else:
                shard = shard_for_dataset(request.dataset, self.shards)
                key = self._shard_pool.coalesce_key(request)
                self._queues[shard].append(_Member(request, key, line, pos))
                self._touch(shard)
        self._settle(line)

    def _answer(self, member: _Member, response: Response) -> None:
        """Resolve one admitted request; write its line if it was the last."""
        self.latency.record(member.request.op, time.perf_counter() - member.admitted)
        member.line.slots[member.pos] = response
        self._pending -= 1
        self._settle(member.line)
        if not self._pending and self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    def _settle(self, line: _Line) -> None:
        line.open -= 1
        if line.open:
            return
        responses = line.slots
        for response in responses:
            assert response is not None
            if response.op == "stats" and response.ok:
                # The engine knows nothing about transports; the
                # front-end's counters ride along in its stats payload.
                response.result["server"] = self.stats_dict()
        line.client.write(responses)
        if line.shutdown:
            self.request_drain()

    def _fan_out(self, member: _Member) -> None:
        """Answer ``stats`` from every shard, merged.

        Each shard answers past its batch queue; a shard that fails
        answers ``ok: false`` in its slot.
        """
        per_shard: list[Optional[Response]] = [None] * self.shards
        left = [self.shards]

        def on_unit(
            shard: int, _positions: list[int], responses: list[Response]
        ) -> None:
            per_shard[shard] = responses[0]

        def on_done() -> None:
            left[0] -= 1
            if not left[0]:
                merged = self._shard_pool.merge_stats(member.request, per_shard)
                self._answer(member, merged)

        for shard in range(self.shards):
            self._shard_pool.submit(
                shard, [member.request], functools.partial(on_unit, shard), on_done
            )

    def _admission_verdict(self) -> Optional[str]:
        """None to admit, else the fast-rejection error string."""
        if self._draining:
            return "draining"
        if self._pending >= self.max_queue_depth:
            return "overloaded"
        return None

    # -- batching ----------------------------------------------------------
    def _touch(self, shard: int) -> None:
        """Kick ``shard`` once this loop pass is over.

        Every read of this pass queues first, so requests that arrive
        together from several connections form one batch.
        """
        if not self._touched:
            assert self._loop is not None
            self._loop.call_soon(self._kick_touched)
        self._touched.add(shard)

    def _kick_touched(self) -> None:
        touched, self._touched = self._touched, set()
        for shard in touched:
            self._kick(shard)

    def _kick(self, shard: int) -> None:
        """Dispatch batches from the shard's queue while it has room.

        A batch is its head plus everything queued behind it, up to
        :data:`MAX_BATCH`. A head that cannot coalesce goes at once, so a
        lone request on an idle shard reaches the engine without a wait.
        A coalescable head with no same-key partner queued (keys of
        :func:`~repro.service.engine.coalesce_key`) waits for one on a
        timer, at most ``min(batch_window, last measured run of its key
        on this shard)``: never longer than the run a partner would
        save. A key not measured yet waits the whole window. Requests
        arriving while the shard has ``max_inflight`` batches out queue
        up and form the next one.
        """
        queue = self._queues[shard]
        while (
            queue
            and self._inflight[shard] < self.max_inflight
            and self._may_go(shard)
        ):
            self._dispatch(shard)

    def _may_go(self, shard: int) -> bool:
        """Whether the shard's head may go now; arms its wait if not."""
        queue = self._queues[shard]
        key = queue[0].key
        timer = self._timers[shard]
        if (
            key is None
            or self._draining
            or len(queue) >= MAX_BATCH
            or any(member.key == key for member in islice(queue, 1, MAX_BATCH))
        ):
            if timer is not None:
                timer.cancel()
                self._timers[shard] = None
            return True
        if timer is None:
            wait = min(
                self.batch_window,
                self._run_seconds[shard].get(key, self.batch_window),
            )
            if wait <= 0:
                return True
            assert self._loop is not None
            self._timers[shard] = self._loop.call_later(wait, self._expire, shard)
        return False

    def _expire(self, shard: int) -> None:
        """The lone head waited its bound: it goes with what is queued."""
        self._timers[shard] = None
        self._dispatch(shard)
        self._kick(shard)

    def _dispatch(self, shard: int) -> None:
        """Send the shard's next batch; answer each unit as it arrives.

        Each unit's run time is measured from when that unit could
        start: the later of the batch's dispatch and the shard's
        previous answer. A coalescable unit that answers ``ok`` keeps
        it as its key's wait bound for :meth:`_kick`.
        """
        queue = self._queues[shard]
        batch = [queue.popleft() for _ in range(min(len(queue), MAX_BATCH))]
        self._inflight[shard] += 1
        self.stats.batches_dispatched += 1
        sent = time.perf_counter()
        run_seconds = self._run_seconds[shard]

        def on_unit(positions: list[int], responses: list[Response]) -> None:
            now = time.perf_counter()
            seconds = now - max(sent, self._answered_at[shard])
            self._answered_at[shard] = now
            for pos, response in zip(positions, responses):
                member = batch[pos]
                if member.key is not None and response.ok:
                    run_seconds.put(member.key, seconds)
                self._answer(member, response)

        def on_done() -> None:
            self._inflight[shard] -= 1
            self._kick(shard)

        self._shard_pool.submit(
            shard, [member.request for member in batch], on_unit, on_done
        )

    # -- telemetry ---------------------------------------------------------
    def stats_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            **asdict(self.stats),
            "pending": self._pending,
            "draining": self._draining,
            "shards": self.shards,
            "op_latency": self.latency.snapshot(),
            "config": {
                "max_queue_depth": self.max_queue_depth,
                "max_inflight": self.max_inflight,
                "batch_window_ms": self.batch_window * 1000.0,
                "max_batch": MAX_BATCH,
                "max_line_bytes": self.max_line_bytes,
                "retry_after_ms": self.retry_after_ms,
            },
        }
        telemetry = self._shard_pool.telemetry()
        for entry, queue in zip(telemetry, self._queues):
            entry["queue_depth"] = len(queue)
        out["shard_telemetry"] = telemetry
        return out

    # -- metrics sidecar ---------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus text exposition for ``/metrics``."""
        lines: list[str] = []

        def emit(name: str, kind: str, help_text: str,
                 samples: list[tuple[str, float]]) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                rendered = (
                    f"{value:.9g}" if isinstance(value, float) else str(value)
                )
                lines.append(f"{name}{labels} {rendered}")

        counters = asdict(self.stats)
        for field_name, help_text in (
            ("connections_total", "Connections accepted since start."),
            ("lines_total", "Input lines parsed."),
            ("requests_total", "Requests seen (admitted+rejected+invalid)."),
            ("requests_admitted", "Requests admitted to an engine queue."),
            ("requests_rejected", "Fast rejections (overloaded/draining)."),
            ("requests_invalid", "Members failing protocol validation."),
            ("batches_dispatched", "Micro-batches handed to engines."),
            ("oversized_lines", "Connections dropped for oversized lines."),
            ("responses_discarded", "Responses dropped on dead connections."),
        ):
            suffix = "" if field_name.endswith("_total") else "_total"
            emit(
                f"repro_{field_name}{suffix}", "counter", help_text,
                [("", counters[field_name])],
            )
        emit(
            "repro_connections_active", "gauge",
            "Currently open connections.",
            [("", counters["connections_active"])],
        )
        emit(
            "repro_pending_requests", "gauge",
            "Admitted-but-unanswered requests.", [("", self._pending)],
        )
        emit(
            "repro_draining", "gauge",
            "1 while the server drains.", [("", int(self._draining))],
        )
        emit(
            "repro_shards", "gauge",
            "Engine shard count (1 = in-process engine).",
            [("", self.shards)],
        )
        latency = self.latency.snapshot()
        emit(
            "repro_op_requests_total", "counter",
            "Answered requests per op.",
            [(f'{{op="{op}"}}', stats["count"])
             for op, stats in sorted(latency.items())],
        )
        quantile_samples: list[tuple[str, float]] = []
        for op, stats in sorted(latency.items()):
            for quantile, key in (("0.5", "p50"), ("0.99", "p99")):
                quantile_samples.append(
                    (f'{{op="{op}",quantile="{quantile}"}}', stats[key])
                )
        emit(
            "repro_op_latency_seconds", "gauge",
            "Admission-to-answer latency quantiles (sliding window).",
            quantile_samples,
        )
        telemetry = self._shard_pool.telemetry()
        emit(
            "repro_shard_queue_depth", "gauge",
            "Requests queued per shard.",
            [(f'{{shard="{e["shard"]}"}}', len(queue))
             for e, queue in zip(telemetry, self._queues)],
        )
        emit(
            "repro_shard_dispatches_total", "counter",
            "Engine batches dispatched per shard.",
            [(f'{{shard="{e["shard"]}"}}', e["dispatches"])
             for e in telemetry],
        )
        emit(
            "repro_shard_requests_total", "counter",
            "Requests dispatched per shard.",
            [(f'{{shard="{e["shard"]}"}}', e["requests"])
             for e in telemetry],
        )
        emit(
            "repro_shard_units_total", "counter",
            "Engine units answered per shard (minus dispatches: early answers).",
            [(f'{{shard="{e["shard"]}"}}', e["units"])
             for e in telemetry],
        )
        return "\n".join(lines) + "\n"

    async def _on_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.x handler: ``GET /metrics`` or 404, then close."""
        try:
            request_line = await reader.readline()
            while True:  # drain headers up to the blank line
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else ""
            if path.split("?", 1)[0] == "/metrics":
                body = self.metrics_text().encode("utf-8")
                status = "200 OK"
                content_type = METRICS_CONTENT_TYPE
            else:
                body = b"not found\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()


def run_tcp_server(
    engine: Optional[ServiceEngine] = None,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    announce: bool = True,
    **kwargs: Any,
) -> int:
    """Blocking entry point for ``repro serve --tcp`` (returns 0).

    ``announce`` prints the bound address to stdout — the stdio channel
    is free in TCP mode, and drivers starting the server with ``port=0``
    need the ephemeral port (``benchmarks/bench_load.py`` parses it,
    and the metrics line when a sidecar is requested).
    """

    async def _main() -> int:
        server = TCPServer(engine, host=host, port=port, **kwargs)
        await server.start()
        server.install_signal_handlers()
        if announce:
            print(
                f"repro serve: listening on {server.host}:{server.port}",
                flush=True,
            )
            if server.metrics_port is not None:
                print(
                    "repro serve: metrics on "
                    f"{server.host}:{server.metrics_port}",
                    flush=True,
                )
        await server.wait_closed()
        if announce:
            print("repro serve: drained, exiting", flush=True)
        return 0

    return asyncio.run(_main())
