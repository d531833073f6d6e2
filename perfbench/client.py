"""Server processes and load loops of the serving benchmark.

One client process drives one server tree over at most two load
connections (the box has two cores), plus one side connection that only
carries warm-up, ``stats`` and ``shutdown`` outside the timed window.
Requests are pre-encoded lines; the loops only write them and time the
answers:

* :func:`closed_loop` — the connections send in rounds, one request each,
  and the next round waits for every answer, until the window ends;
* :func:`open_loop` — requests go out on a fixed schedule whatever the
  server does, and each is timed from its *due* time, so a stall in the
  server or in this generator shows up as latency on every request it
  delays. How late the generator itself sent is kept as ``lag``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import procstat

HOST = "127.0.0.1"
_ANNOUNCE = re.compile(rb"listening on [0-9.]+:(\d+)")

#: Seconds a server may take to announce its port, to drain, and to
#: answer the last request of a window.
SPAWN_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
ANSWER_TIMEOUT = 30.0


@dataclass
class Req:
    """One request line of a schedule."""

    rid: str
    payload: dict[str, Any]
    conn: int = 0
    #: Open loop: seconds after the window start at which it is due.
    due: float = 0.0
    line: bytes = b""

    def __post_init__(self) -> None:
        self.payload["id"] = self.rid
        self.line = (json.dumps(self.payload, separators=(",", ":")) + "\n").encode()

    @property
    def op(self) -> str:
        return self.payload["op"]


@dataclass
class Outcome:
    """What happened to one request in a timed window."""

    req: Req
    due: float
    sent: float
    #: When the generator could first have sent it: the due time in an
    #: open loop, the previous answer on the connection in a closed one.
    ready: float
    done: Optional[float] = None
    response: Optional[dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Seconds from due time to answer (due == sent in a closed loop)."""
        assert self.done is not None
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent late."""
        return self.sent - self.ready


@dataclass
class Server:
    """A running ``repro serve --tcp`` process tree."""

    proc: asyncio.subprocess.Process
    port: int
    spawned: float
    stats_conn: Optional[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = None
    counter: int = 0

    @property
    def pid(self) -> int:
        return self.proc.pid


async def spawn(
    root: Path, work: Path, *, shards: int, trace_dir: Optional[Path]
) -> Server:
    """Start an untraced ``repro serve --tcp`` or the traced entry script."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # The mmap store writes its segments under the temp dir; keep them
    # inside the checkout.
    env["TMPDIR"] = str(work)
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro.cli", "serve", "--tcp", f"{HOST}:0"]
    else:
        argv = [sys.executable, str(root / "perfbench" / "traced_server.py"),
                "--trace-dir", str(trace_dir)]
    if shards > 1:
        argv += ["--shards", str(shards)]
    log = work / f"server-{time.monotonic_ns()}.log"
    spawned = time.perf_counter()
    with open(log, "wb") as stderr:
        proc = await asyncio.create_subprocess_exec(
            *argv, cwd=str(root), env=env,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE, stderr=stderr,
        )
    assert proc.stdout is not None
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), SPAWN_TIMEOUT)
    except asyncio.TimeoutError:
        line = b""
    match = _ANNOUNCE.search(line)
    if match is None:
        await _kill_tree(proc)
        raise RuntimeError(
            f"server did not announce a port: {line!r}; "
            f"log: {log.read_text(errors='replace')[-2000:]}"
        )
    return Server(proc, int(match.group(1)), spawned)


async def connect(port: int) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection(HOST, port, limit=1 << 24)


async def call(server: Server, payload: dict[str, Any]) -> dict[str, Any]:
    """One request on the server's side connection; returns the answer."""
    if server.stats_conn is None:
        server.stats_conn = await connect(server.port)
    reader, writer = server.stats_conn
    server.counter += 1
    body = dict(payload, id=payload.get("id") or f"x:{server.counter}")
    writer.write((json.dumps(body) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), ANSWER_TIMEOUT)
    return json.loads(line)


async def stop(server: Server) -> int:
    """Graceful ``shutdown`` op; kill on timeout. Returns the exit code."""
    try:
        await asyncio.wait_for(
            call(server, {"schema": 2, "op": "shutdown", "id": "x:stop"}),
            STOP_TIMEOUT,
        )
    except (OSError, asyncio.TimeoutError, json.JSONDecodeError):
        pass
    if server.stats_conn is not None:
        server.stats_conn[1].close()
    try:
        code = await asyncio.wait_for(server.proc.wait(), STOP_TIMEOUT)
    except asyncio.TimeoutError:
        await _kill_tree(server.proc)
        code = -9
    return code


async def _kill_tree(proc: asyncio.subprocess.Process) -> None:
    """SIGKILL a server and its shard workers, which would outlive it."""
    for pid in reversed(procstat.process_tree(proc.pid)):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    await proc.wait()


async def closed_loop(
    port: int, scripts: list[list[Req]], seconds: float
) -> tuple[list[Outcome], float]:
    """One connection per script, in lock-step rounds.

    In each round every connection sends its next request at once, and
    the next round starts when every answer is in, so each round's
    requests share one micro-batch on a single-engine server.
    Free-running connections drifted in and out of that pairing with the
    host's scheduling: the same ``influence-churn`` seed measured a median
    of 20 ms in step and 32-38 ms out of step.

    Returns the outcomes and the window start. A round starts only while
    the window is open; its answers are still awaited.
    """
    conns = [await connect(port) for _ in scripts]
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    deadline = start + seconds

    async def answer(index: int, outcome: Outcome) -> None:
        line = await asyncio.wait_for(conns[index][0].readline(), ANSWER_TIMEOUT)
        outcome.done = time.perf_counter()
        outcome.response = json.loads(line) if line else None

    async def rounds() -> None:
        ready = start
        for reqs in zip(*scripts):
            if time.perf_counter() >= deadline:
                return
            sent = []
            for index, req in enumerate(reqs):
                now = time.perf_counter()
                sent.append(Outcome(req, now, now, ready))
                conns[index][1].write(req.line)
            outcomes.extend(sent)
            for _, writer in conns:
                await writer.drain()
            await asyncio.gather(*(answer(i, o) for i, o in enumerate(sent)))
            if any(o.response is None for o in sent):
                return
            ready = max(o.done for o in sent)

    try:
        await rounds()
    finally:
        for _, writer in conns:
            writer.close()
    return outcomes, start


async def open_loop(
    port: int, schedule: list[Req], connections: int
) -> tuple[list[Outcome], float]:
    """Send ``schedule`` at its due times over ``connections`` sockets."""
    conns = [await connect(port) for _ in range(connections)]
    waiting: dict[str, Outcome] = {}
    outcomes: list[Outcome] = []
    all_sent = asyncio.Event()
    all_answered = asyncio.Event()

    async def read(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            response = json.loads(line)
            outcome = waiting.pop(response.get("id", ""), None)
            if outcome is None:
                continue
            outcome.done = now
            outcome.response = response
            if all_sent.is_set() and not waiting:
                all_answered.set()

    readers = [asyncio.create_task(read(reader)) for reader, _ in conns]
    start = time.perf_counter()
    try:
        for req in schedule:
            due = start + req.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(req, due, time.perf_counter(), due)
            waiting[req.rid] = outcome
            outcomes.append(outcome)
            conns[req.conn % connections][1].write(req.line)
        for _, writer in conns:
            await writer.drain()
        all_sent.set()
        if waiting:
            try:
                await asyncio.wait_for(all_answered.wait(), ANSWER_TIMEOUT)
            except asyncio.TimeoutError:
                pass  # what is still waiting counts as lost
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
    return outcomes, start
