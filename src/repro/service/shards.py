"""The engine shards behind the TCP front-end.

An :class:`EngineShardPool` is the front-end's only way to reach an
engine, whatever the shard count. With one shard it holds a
:class:`LocalShard`: an in-process
:class:`~repro.service.engine.ServiceEngine` behind a lock. With N > 1
it spawns N :class:`EngineShard` worker *processes*, each running its
own engine behind a :class:`multiprocessing.Pipe`. Both shard kinds
answer ``handle_batch(requests)``, ``alive`` and ``close()``.

Routing is **dataset-affine**: :func:`shard_for_dataset` maps a dataset
name to ``crc32(name) % num_shards``. Warm session state (objectives,
RR collections, MC bundles, dynamic maximizers) keys on dataset
identity, so affinity guarantees every request for a dataset always
finds its warm state on the same shard — and that two shards never
hold divergent copies of one dataset's dynamic state. ``crc32`` rather
than ``hash()``: Python string hashing is salted per process, and the
routing key must be stable across front-end restarts for operators
reasoning about shard load.

Transport framing: a shard runs a batch as the units of
:meth:`~repro.service.engine.ServiceEngine.plan` (each coalesced group,
then every other request alone), one ``engine.handle_batch`` call per
unit, and answers each unit as it finishes. The front-end sends one
pipe message per batch, the list of typed requests the decoder
produced; the child sends back one ``(positions, responses)`` message
per unit, and the parent reads them until every position is answered.
Both kinds of shard hand every unit but the one that completes the
batch to the caller's ``on_answer(positions, responses)`` as it
arrives, and return the whole response list in request order. A unit
that answers the wrong count answers each of its requests with an
internal error; positions a dead child never answered get ``exited
mid-request``; answers that already arrived stand. Messages are pickled
by the pipe. That is safe because only the front-end and the shard
processes it started ever talk over a shard pipe; nothing read from a
socket is unpickled, since network input is JSON and goes through the
decoder before it reaches a shard. A batch that contains a
``shutdown`` op is answered, then the worker exits; ``None`` or EOF on
the pipe stops it too.

Determinism: each shard is a full engine with the same construction
knobs, and the engine is deterministic per request stream. Because
routing is dataset-affine and the front-end keeps per-shard FIFO
queues, the per-dataset request order equals the arrival order — so a
sharded server's responses are bitwise-identical to a single-engine
server's for any sequential client (pinned by ``tests/test_shards.py``
and the ``sharded`` phase of ``benchmarks/bench_load.py``).
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Callable, Iterable, Iterator
from multiprocessing.connection import Connection
from typing import Any, Optional

from repro.service.engine import ServiceEngine, coalesce_key
from repro.service.protocol import Response, ServiceRequest, ShutdownRequest
from repro.utils.parallel import process_context, reset_pools_after_fork

#: Seconds to wait for a shard to ack shutdown before terminating it.
SHUTDOWN_TIMEOUT = 10.0


def shard_for_dataset(dataset: str, num_shards: int) -> int:
    """Stable shard index for a dataset name (0 when unsharded).

    ``crc32`` is deliberate: ``hash(str)`` is salted per process, and
    the routing key must agree between any front-end incarnation and
    every test asserting affinity.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(dataset.encode("utf-8")) % num_shards


#: ``on_answer(positions, responses)``: one unit's answers, reported
#: from the thread that runs the batch, before the batch returns.
AnswerCallback = Callable[[list[int], list[Response]], None]


def _run_units(
    engine: ServiceEngine, requests: list[ServiceRequest]
) -> Iterator[tuple[list[int], list[Response]]]:
    """Run a batch unit by unit, yielding each unit's answers in turn."""
    for unit in engine.plan(requests):
        yield unit, engine.handle_batch([requests[pos] for pos in unit])


def _gather(
    shard: LocalShard | EngineShard,
    requests: list[ServiceRequest],
    units: Iterable[tuple[list[int], list[Response]]],
    on_answer: Optional[AnswerCallback],
) -> list[Response]:
    """Collect a batch's units into one response list in request order.

    Every unit but the one that completes the batch also goes to
    ``on_answer`` as it arrives. A unit of the wrong length answers each
    of its requests with an internal error; positions still unanswered
    when ``units`` runs out (a dead child) answer ``exited mid-request``.
    """
    if not requests:
        return []
    answers: list[Optional[Response]] = [None] * len(requests)
    left = len(requests)
    for positions, responses in units:
        shard.units += 1
        if len(responses) != len(positions):
            responses = [
                _error(
                    requests[pos],
                    f"internal error: shard {shard.index} answered "
                    f"{len(responses)} responses to {len(positions)} requests",
                )
                for pos in positions
            ]
        for pos, response in zip(positions, responses):
            answers[pos] = response
        left -= len(positions)
        if not left:
            break
        if on_answer is not None:
            on_answer(positions, responses)
    return [
        answer
        if answer is not None
        else _error(request, f"shard {shard.index} exited mid-request")
        for answer, request in zip(answers, requests)
    ]


def _error(request: ServiceRequest, message: str) -> Response:
    """An ``ok: false`` answer worded like the error a batch would raise."""
    return Response(
        op=request.op, id=request.id, ok=False, error=f"RuntimeError: {message}"
    )


def _shard_worker_main(  # pragma: no cover — runs in the child process
    conn: Connection, engine_kwargs: dict[str, Any]
) -> None:
    """Entry point of one shard process: answer typed batches over the pipe,
    one message per unit."""
    # A fork copies the parent's pool registry but none of its worker
    # threads; drop it before the engine's first parallel dispatch.
    reset_pools_after_fork()
    engine = ServiceEngine(**engine_kwargs)
    try:
        while True:
            try:
                requests = conn.recv()
            except EOFError:  # the front-end closed its end
                break
            if requests is None:
                break
            try:
                for answer in _run_units(engine, requests):
                    conn.send(answer)
            except OSError:  # the front-end is gone
                break
            if any(request.op == "shutdown" for request in requests):
                break
    finally:
        conn.close()


class LocalShard:
    """The in-process engine as shard 0 of a one-shard pool.

    The engine mutates shared session state with no internal locking,
    so batches run strictly one at a time under the lock. The TCP
    front-end calls it from one thread only, the shard's engine thread.
    """

    index = 0
    alive = True

    def __init__(self, engine: ServiceEngine) -> None:
        self.engine = engine
        self.dispatches = 0
        self.requests = 0
        self.units = 0
        self._lock = threading.Lock()

    def handle_batch(
        self,
        requests: list[ServiceRequest],
        on_answer: Optional[AnswerCallback] = None,
    ) -> list[Response]:
        with self._lock:
            self.dispatches += 1
            self.requests += len(requests)
            units = _run_units(self.engine, requests)
            return _gather(self, requests, units, on_answer)

    def close(self) -> None:
        """Nothing to stop: the engine lives and dies with the process."""


class EngineShard:
    """One engine worker process plus its parent-side transport.

    The TCP front-end calls ``handle_batch`` from the shard's engine
    thread; the per-shard lock serialises pipe traffic (one request
    message, one reply message per unit) for any other caller without
    ever blocking another shard.
    """

    def __init__(self, index: int, engine_kwargs: dict[str, Any]) -> None:
        self.index = index
        self.dispatches = 0
        self.requests = 0
        self.units = 0
        ctx = process_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._lock = threading.Lock()
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, engine_kwargs),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self._process.start()
        child_conn.close()  # the child's end lives in the child now

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def handle_batch(
        self,
        requests: list[ServiceRequest],
        on_answer: Optional[AnswerCallback] = None,
    ) -> list[Response]:
        """Round-trip one typed batch through the shard process."""
        with self._lock:
            if not self._process.is_alive():
                raise RuntimeError(f"shard {self.index} is not running")
            self.dispatches += 1
            self.requests += len(requests)
            self._conn.send(requests)
            return _gather(self, requests, self._replies(), on_answer)

    def _replies(self) -> Iterator[tuple[list[int], list[Response]]]:
        """The child's unit messages, until its end of the pipe closes."""
        while True:
            try:
                yield self._conn.recv()
            except EOFError:
                return

    def close(self) -> None:
        """Shut the worker down (graceful shutdown op, then terminate)."""
        with self._lock:
            if self._process.is_alive():
                try:
                    self._conn.send([ShutdownRequest(id="__drain__")])
                    # Drain the ack (and any straggler replies) so the
                    # child's final send never blocks on a full pipe.
                    while self._conn.poll(SHUTDOWN_TIMEOUT):
                        try:
                            self._conn.recv()
                        except EOFError:
                            break
                except (BrokenPipeError, OSError):
                    pass
            self._process.join(timeout=SHUTDOWN_TIMEOUT)
            if self._process.is_alive():  # pragma: no cover — stuck child
                self._process.terminate()
                self._process.join(timeout=SHUTDOWN_TIMEOUT)
            self._conn.close()


class EngineShardPool:
    """The engine shards of one front-end: local for one, processes for N.

    ``engine_config`` holds :class:`ServiceEngine` constructor kwargs.
    One shard runs ``engine`` (or an engine built from the config) in
    this process. N > 1 shards each build their own engine from the
    config after the fork; the config is validated first (by
    constructing a throwaway engine in the parent) so a bad knob fails
    at startup, not inside a worker.
    """

    def __init__(
        self,
        num_shards: int,
        engine_config: Optional[dict[str, Any]] = None,
        *,
        engine: Optional[ServiceEngine] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        config = dict(engine_config or {})
        self.num_shards = num_shards
        self.engine_config = config
        if num_shards == 1:
            local = engine if engine is not None else ServiceEngine(**config)
            self.shards = [LocalShard(local)]
            self._workers = local.workers
        elif engine is not None:
            raise ValueError(
                "num_shards > 1 spawns engine processes from engine_config; "
                "a live engine instance cannot cross a fork"
            )
        else:
            ServiceEngine(**config)  # validate knobs before forking anything
            self.shards = [EngineShard(i, config) for i in range(num_shards)]
            self._workers = config.get("workers")
        self._closed = False

    def shard_for(self, dataset: str) -> int:
        return shard_for_dataset(dataset, self.num_shards)

    def coalesce_key(self, request: ServiceRequest) -> Optional[tuple]:
        """The group the shards' engines coalesce ``request`` in, if any."""
        return coalesce_key(request, self._workers)

    def handle_batch(
        self,
        shard_index: int,
        requests: list[ServiceRequest],
        on_answer: Optional[AnswerCallback] = None,
    ) -> list[Response]:
        """Run a batch on one shard; see the module's transport framing."""
        return self.shards[shard_index].handle_batch(requests, on_answer)

    def merge_stats(
        self, request: ServiceRequest, per_shard: list[Response]
    ) -> Response:
        """One response merging every shard's answer to ``request``.

        ``per_shard`` holds one ``stats`` answer per shard, in shard
        order; a shard that failed (dead process, broken pipe) is an
        ``ok: false`` answer in its slot. One shard's answer is returned
        unchanged. Over N shards, scalar counters sum and sessions
        concatenate over the shards that answered, and each shard's block
        rides along under ``shards`` — a failed shard as ``{"shard": i,
        "ok": false, "error": ...}`` — so the tier stays observable when
        a shard is down.
        """
        if self.num_shards == 1:
            return per_shard[0]
        merged: dict[str, Any] = {
            "requests_served": 0,
            "coalesced_requests": 0,
            "coalesced_runs": 0,
            "sessions": [],
            "shards": [],
        }
        for index, response in enumerate(per_shard):
            if not response.ok:
                merged["shards"].append(
                    {"shard": index, "ok": False, "error": response.error}
                )
                continue
            block = response.result
            for key in ("requests_served", "coalesced_requests", "coalesced_runs"):
                merged[key] += int(block.get(key, 0))
            merged["sessions"].extend(block.get("sessions", []))
            merged["shards"].append({"shard": index, **block})
        return Response(op=request.op, id=request.id, result=merged)

    def telemetry(self) -> list[dict[str, Any]]:
        """Parent-side per-shard dispatch counters (no pipe traffic)."""
        return [
            {
                "shard": shard.index,
                "alive": shard.alive,
                "dispatches": shard.dispatches,
                "requests": shard.requests,
                "units": shard.units,
            }
            for shard in self.shards
        ]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()
