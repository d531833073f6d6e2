"""Asyncio TCP front-end over an engine shard pool.

The stdio daemon (:mod:`repro.service.daemon`) serves one pipe; this
module serves *connections* — thousands of them — while keeping the
wire format identical: newline-delimited JSON, one request or response
per line, a JSON array per line for an explicit batch. A v1 client can
point its stdio script at a socket and see the same bytes back.

Four mechanisms make the engines safe and fast under concurrency:

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
* **Per-shard micro-batch coalescing windows.** Admitted requests land
  on their shard's queue; a per-shard batcher task gathers everything
  that arrives within ``batch_window`` seconds (up to :data:`MAX_BATCH`)
  into a single engine batch. Requests from *different connections*
  therefore coalesce exactly like members of one array line — many
  users asking for the same dataset's seeds collapse into one shared
  greedy run on that dataset's shard (the engine's prefix-replay
  guarantee keeps each response bitwise-identical to a sequential
  solve). Routing affinity makes the per-shard window exactly as
  effective as the old global one: coalescable requests share a
  dataset, so they always share a queue.
* **Bounded executor hand-off.** Shard batches run on the persistent
  thread :class:`~repro.utils.parallel.WorkerPool` via
  ``loop.run_in_executor`` under a per-shard in-flight semaphore
  (``max_inflight``). The event loop never blocks on a solve or a
  shard pipe round-trip.
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
latency quantiles over a sliding window, and per-shard queue-depth and
dispatch gauges. The counters are the same objects the ``stats`` op
reports, so a scrape and a ``stats`` response can be cross-checked.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    ProtocolError,
    Response,
    ServiceRequest,
    encode_response,
    error_response,
    request_from_dict,
)
from repro.service.shards import EngineShardPool, shard_for_dataset
from repro.utils.parallel import get_pool
from repro.utils.stats import LatencyWindow

DEFAULT_HOST = "127.0.0.1"
DEFAULT_MAX_QUEUE_DEPTH = 256
DEFAULT_MAX_INFLIGHT = 2
DEFAULT_BATCH_WINDOW = 0.005  # seconds
DEFAULT_MAX_LINE_BYTES = 1 << 20
DEFAULT_RETRY_AFTER_MS = 100

#: Most requests one shard batch gathers before it is dispatched.
MAX_BATCH = 64

#: Minimum width of the persistent thread pool the server dispatches
#: shard batches onto. One thread per shard can block on a batch plus
#: one for stats fan-out, so the pool widens to ``shards + 1``.
#: ``max_inflight`` (not this) bounds concurrent batches per shard; the
#: pool is shared with every other thread-backend user.
ENGINE_POOL_WIDTH = 2

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
        # Build the pool (forking any shard processes) *before* the
        # thread pool below spawns: a forked child must never inherit
        # live executor threads (the workers call reset_pools_after_fork
        # anyway, but the less thread state crosses the fork the better).
        self._shard_pool = EngineShardPool(
            shards, engine_config, engine=engine
        )
        self._pool = get_pool("thread", max(ENGINE_POOL_WIDTH, shards + 1))
        self._pending = 0
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._queues: list[asyncio.Queue] = []
        self._inflights: list[asyncio.Semaphore] = []
        self._batcher_tasks: list[asyncio.Task] = []
        self._done: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._line_tasks: set[asyncio.Task] = set()
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

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
        self._queues = [asyncio.Queue() for _ in range(self.shards)]
        self._inflights = [
            asyncio.Semaphore(self.max_inflight) for _ in range(self.shards)
        ]
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self._requested_port,
            limit=self.max_line_bytes,
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
        self._batcher_tasks = [
            asyncio.create_task(self._batch_loop(shard))
            for shard in range(self.shards)
        ]

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
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # In-flight lines finish on their own: their futures resolve
        # when the executor returns and each line task writes its own
        # responses. Lines arriving *during* the drain are answered
        # fast with "draining", so this converges.
        while True:
            tasks = [
                task for task in self._line_tasks
                if task is not asyncio.current_task()
            ]
            if not tasks:
                break
            await asyncio.gather(*tasks, return_exceptions=True)
        for queue in self._queues:
            await queue.put(None)  # stop the batchers
        if self._batcher_tasks:
            await asyncio.gather(*self._batcher_tasks)
        if self._dispatch_tasks:
            await asyncio.gather(
                *list(self._dispatch_tasks), return_exceptions=True
            )
        # Worker shutdown round-trips the pipes; keep it off the loop.
        await asyncio.get_running_loop().run_in_executor(
            self._pool, self._shard_pool.close
        )
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        assert self._done is not None
        self._done.set()

    # -- connections -------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The overlong tail is unrecoverable mid-stream:
                    # answer once, drop the connection.
                    self.stats.oversized_lines += 1
                    await self._write_responses(
                        writer,
                        write_lock,
                        [error_response(
                            f"line exceeds {self.max_line_bytes} bytes"
                        )],
                    )
                    break
                if not line:
                    break  # EOF
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                self.stats.lines_total += 1
                task = asyncio.create_task(
                    self._serve_line(text, writer, write_lock)
                )
                self._line_tasks.add(task)
                task.add_done_callback(self._line_tasks.discard)
        except (ConnectionError, OSError):
            pass  # client went away mid-read; in-flight work is discarded
        finally:
            self.stats.connections_active -= 1
            self._writers.discard(writer)
            writer.close()

    async def _serve_line(
        self,
        text: str,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Parse, admit, await and answer one input line.

        Responses keep member order within the line; lines on one
        connection may complete out of order (correlate by ``id``),
        which is what lets a slow solve overlap a fast ``stats``.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            # The whole line is one unparseable request: count it so the
            # requests_total identity covers malformed traffic too.
            self.stats.requests_total += 1
            self.stats.requests_invalid += 1
            await self._write_responses(
                writer, write_lock,
                [error_response(f"invalid JSON: {exc}")],
            )
            return
        batch = payload if isinstance(payload, list) else [payload]
        slots: list[Optional[Response]] = [None] * len(batch)
        admitted: list[tuple[int, ServiceRequest, asyncio.Future]] = []
        shutdown_requested = False
        loop = asyncio.get_running_loop()
        for pos, member in enumerate(batch):
            self.stats.requests_total += 1
            try:
                request = request_from_dict(member)
            except ProtocolError as exc:
                self.stats.requests_invalid += 1
                slots[pos] = error_response(str(exc), member)
                continue
            refusal = self._admission_verdict()
            if refusal is not None:
                self.stats.requests_rejected += 1
                slots[pos] = Response(
                    op=request.op, id=request.id, ok=False, error=refusal,
                    result={"retry_after_ms": self.retry_after_ms},
                )
                continue
            if request.op == "shutdown":
                shutdown_requested = True
            self.stats.requests_admitted += 1
            self._pending += 1
            future: asyncio.Future = loop.create_future()
            self._observe_latency(request.op, future)
            admitted.append((pos, request, future))
            shard = self._route(request)
            if shard is None:
                fanout = asyncio.create_task(
                    self._serve_fanout(request, future)
                )
                self._dispatch_tasks.add(fanout)
                fanout.add_done_callback(self._dispatch_tasks.discard)
            else:
                await self._queues[shard].put((request, future))
        if admitted:
            await asyncio.gather(*(future for _, _, future in admitted))
            for pos, _, future in admitted:
                slots[pos] = future.result()
        responses = [slot for slot in slots if slot is not None]
        for response in responses:
            if response.op == "stats" and response.ok:
                # The engine knows nothing about transports; the
                # front-end's counters ride along in its stats payload.
                response.result["server"] = self.stats_dict()
        await self._write_responses(writer, write_lock, responses)
        if shutdown_requested:
            self.request_drain()

    def _route(self, request: ServiceRequest) -> Optional[int]:
        """Queue index for a request; ``None`` for front-end fan-out ops."""
        if request.op in FANOUT_OPS:
            return None
        return shard_for_dataset(request.dataset, self.shards)

    def _observe_latency(self, op: str, future: asyncio.Future) -> None:
        start = time.perf_counter()
        future.add_done_callback(
            lambda _fut: self.latency.record(
                op, time.perf_counter() - start
            )
        )

    async def _serve_fanout(
        self, request: ServiceRequest, future: asyncio.Future
    ) -> None:
        """Answer a ``stats``/``shutdown`` request from the dispatcher.

        ``stats`` fans out to every shard (on the executor, past the
        batch windows) and merges; ``shutdown`` is acked immediately
        with the same payload an engine would send — the shards
        themselves drain inside :meth:`drain`, *after* every admitted
        request has been answered.
        """
        if request.op == "shutdown":
            response = Response(
                op=request.op, id=request.id, result={"stopping": True}
            )
        else:
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    self._pool, self._shard_pool.merged_stats, request
                )
            except Exception as exc:  # noqa: BLE001 — service boundary
                response = Response(
                    op=request.op, id=request.id, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
        self._pending -= 1
        if not future.done():
            future.set_result(response)

    def _admission_verdict(self) -> Optional[str]:
        """None to admit, else the fast-rejection error string."""
        if self._draining:
            return "draining"
        if self._pending >= self.max_queue_depth:
            return "overloaded"
        return None

    async def _write_responses(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        responses: list[Response],
    ) -> None:
        if not responses:
            return
        data = "".join(
            encode_response(response) + "\n" for response in responses
        ).encode("utf-8")
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            # Client disconnected before its answer: the result is
            # dropped; the engine already banked the warm state.
            self.stats.responses_discarded += len(responses)

    # -- batching ----------------------------------------------------------
    async def _batch_loop(self, shard: int) -> None:
        """Gather one shard's queue into micro-batches and dispatch them.

        The window opens when the first item of a batch arrives and
        closes ``batch_window`` seconds later (or at :data:`MAX_BATCH`), so
        a busy server coalesces aggressively. The wait is paid even when
        nothing else arrives: a lone request on an idle server reaches
        the engine ``batch_window`` seconds after it was queued.
        ``None`` is the drain sentinel.
        """
        queue = self._queues[shard]
        inflight = self._inflights[shard]
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item is None:
                break
            batch = [item]
            deadline = loop.time() + self.batch_window
            stop = False
            while len(batch) < MAX_BATCH:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            await inflight.acquire()
            self.stats.batches_dispatched += 1
            task = asyncio.create_task(self._dispatch_batch(shard, batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_tasks.discard)
            if stop:
                break

    async def _dispatch_batch(
        self, shard: int, batch: list[tuple[ServiceRequest, asyncio.Future]]
    ) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _ in batch]
        try:
            # The pool raises on a reply of the wrong length, so every
            # admitted request gets exactly one response below.
            responses = await loop.run_in_executor(
                self._pool, self._shard_pool.handle_batch, shard, requests
            )
        except Exception as exc:  # noqa: BLE001 — service boundary
            responses = [
                Response(
                    op=request.op, id=request.id, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
                for request in requests
            ]
        finally:
            self._inflights[shard].release()
        for (_, future), response in zip(batch, responses):
            self._pending -= 1
            if not future.done():
                future.set_result(response)

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
            entry["queue_depth"] = queue.qsize()
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
            [(f'{{shard="{e["shard"]}"}}', queue.qsize())
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
