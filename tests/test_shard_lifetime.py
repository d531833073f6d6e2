"""Shard children never outlive the process that owns their pipes.

A child exits when it reads EOF on its pipe. It holds no copy of any
parent-side pipe end, so the EOF comes as soon as the front-end is gone,
even when it dies by SIGKILL. ``EngineShardPool.close()`` reaches every
child too, also after the event loop that connected the pool has
closed.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.service.shards import EngineShardPool
from repro.utils.parallel import fork_available

pytestmark = pytest.mark.skipif(not fork_available(), reason="shard children must fork")

#: A front-end on two shard processes that prints its children's pids.
FRONT_END = textwrap.dedent(
    """
    import asyncio

    from repro.service.server import TCPServer


    async def main():
        server = TCPServer(None, port=0, shards=2, engine_config={})
        await server.start()
        pids = [shard._process.pid for shard in server._shard_pool.shards]
        print(*pids, flush=True)
        await server.wait_closed()


    asyncio.run(main())
    """
)


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_children_exit_when_the_front_end_is_killed():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    front_end = subprocess.Popen(
        [sys.executable, "-c", FRONT_END], stdout=subprocess.PIPE, text=True, env=env
    )
    pids = []
    try:
        pids = [int(pid) for pid in front_end.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        front_end.send_signal(signal.SIGKILL)
        front_end.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(_running(pid) for pid in pids):
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        front_end.kill()
        front_end.wait(timeout=10)
        front_end.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_close_after_the_connecting_loop_is_gone():
    pool = EngineShardPool(2, {})
    asyncio.run(pool.connect())
    processes = [shard._process for shard in pool.shards]
    pool.close()
    assert not [process.pid for process in processes if process.is_alive()]
