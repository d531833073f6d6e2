"""Persistent worker pools: thread, process, and serial backends.

Every hot path of the library — RR-set generation, Monte-Carlo cascade
evaluation, GreeDi shard solves — decomposes into independent work units
over read-only arrays. This module runs those units over a *persistent*
pool while keeping three guarantees:

* **One pool per (backend, width), warm across calls.** The first
  dispatch spawns the pool; every later dispatch reuses it. Pool spawn
  (fork + interpreter warm-up for processes, thread creation for
  threads) is paid once per session, not once per sampling call —
  :func:`pool_stats` counts spawns vs. warm dispatches and the
  ``pool_reuse`` benchmark metric gates the ratio.
* **Deterministic decomposition.** The work-unit partition and the
  per-unit RNG streams (:func:`spawn_seed_sequences`, backed by
  ``SeedSequence.spawn``) depend only on the problem inputs — never on
  the worker count or the backend — so a fixed seed yields
  bitwise-identical results whether the units run serially, on threads,
  or on eight processes.
* **Copy semantics are backend-invariant.** ``payload`` reaches unit
  functions as a per-worker pickled *copy* on both pool backends
  (threads round-trip it through ``pickle`` exactly so that worker-side
  mutation behaves like a process copy); the serial fallback passes the
  caller's original, unchanged from the pre-pool behaviour.

Backends (every pool entry point takes an explicit ``backend``;
``None`` means the process pin set by :func:`set_default_backend`,
else ``"thread"``):

* ``"thread"`` (default) — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The shared arrays are passed to workers directly (zero-copy, no
  export); the kernels release the GIL inside NumPy ufuncs and compiled
  ``nogil`` loops, which is where all the time goes.
* ``"process"`` — a long-lived ``fork``-start
  :class:`~concurrent.futures.ProcessPoolExecutor`. Bulk arrays travel
  through :mod:`multiprocessing.shared_memory` (exported once per call,
  attached once per worker via a small bounded cache); ``payload``
  rides a pickled shared-memory blob. Falls back to serial where
  ``fork`` is unavailable.
* ``"serial"`` — the in-process loop: same unit functions, same order,
  no pool.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.utils.rng import spawn_seed_sequences

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_UNITS",
    "SharedArrays",
    "WorkerContext",
    "WorkerPool",
    "attach_shared",
    "available_cpus",
    "fork_available",
    "get_pool",
    "parallel_imap",
    "parallel_map",
    "pool_stats",
    "pool_width",
    "process_context",
    "reset_pools_after_fork",
    "resolve_backend",
    "resolve_workers",
    "set_default_backend",
    "shutdown_pools",
    "spawn_seed_sequences",  # canonical impl lives in repro.utils.rng
    "split_ranges",
    "unit_size_for",
]

WorkerFn = Callable[["WorkerContext", Any], Any]

#: Target number of work units per parallel call. Fixed (never derived
#: from the worker count) so the decomposition — and therefore every
#: per-unit RNG stream — is identical no matter how many workers
#: execute it. 16 units keep a 4-worker pool load-balanced (4 units per
#: worker) without fragmenting the NumPy batches that make each unit fast.
DEFAULT_UNITS = 16

#: Recognised execution backends, in documentation order.
BACKENDS = ("serial", "thread", "process")

#: Backend used when callers pass ``None`` and nothing is pinned:
#: threads share the CSR arrays zero-copy and the kernels drop the GIL
#: inside NumPy/compiled loops, so this is the right default on every
#: platform (including those without ``fork``).
DEFAULT_BACKEND = "thread"

_BACKEND_OVERRIDE: Optional[str] = None


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in mp.get_all_start_methods()


def process_context() -> mp.context.BaseContext:
    """The multiprocessing context long-lived service children use.

    ``fork`` where available (cheap, inherits the imported interpreter);
    ``spawn`` elsewhere. Callers that fork *must* call
    :func:`reset_pools_after_fork` first thing in the child — inherited
    executor threads do not survive a fork.
    """
    return mp.get_context("fork" if fork_available() else "spawn")


def reset_pools_after_fork() -> None:
    """Discard inherited pool state in a freshly forked child.

    A fork copies the registry dict and its lock but none of the worker
    threads behind the pooled executors, so any inherited
    :class:`WorkerPool` would hang on first dispatch (and the inherited
    lock may have been held mid-``get_pool`` at fork time). Replace the
    lock, drop the registry *without* shutdown (the executors' threads
    belong to the parent), and zero the counters so the child's
    telemetry starts clean.
    """
    global _POOLS_LOCK, _POOL_SPAWNS, _SERIAL_DISPATCHES
    _POOLS_LOCK = threading.Lock()
    _POOLS.clear()
    _POOL_SPAWNS = 0
    _SERIAL_DISPATCHES = 0


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``sched_getaffinity`` respects cgroup/affinity limits (a container
    pinned to 2 of 64 cores reports 2); ``os.cpu_count`` is the fallback
    where affinity masks do not exist.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a user-facing ``workers`` knob to a positive int.

    ``None`` and ``0`` mean serial (1); negative values request one
    worker per available CPU (:func:`available_cpus`).
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return available_cpus()
    return int(workers)


def resolve_backend(backend: Optional[str]) -> str:
    """Normalise a user-facing backend name.

    ``None`` → the :func:`set_default_backend` pin, else
    :data:`DEFAULT_BACKEND`.
    """
    if backend is None:
        return _BACKEND_OVERRIDE or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    return backend


def set_default_backend(name: Optional[str]) -> None:
    """Pin the process-wide pool flavour (``None`` restores the default).

    Like the kernel pin (:func:`repro.kernels.set_default_kernel`) this
    is a pure speed knob: every backend yields the same bits.
    """
    if name is not None:
        resolve_backend(name)  # validate before touching the pin
    global _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = name


def pool_width(
    workers: Optional[int], num_tasks: int, backend: Optional[str] = None
) -> int:
    """Workers :func:`parallel_map` will actually use for a task list.

    The single source of truth for the serial-fallback rule: capped at
    the task count; 1 for the serial backend and for the process backend
    on platforms without ``fork``. Callers that need to know whether
    work ran on pool copies (e.g. GreeDi's oracle-counter fold-back)
    must consult this rather than re-deriving it.
    """
    resolved = resolve_backend(backend)
    count = min(resolve_workers(workers), num_tasks)
    if count <= 1 or resolved == "serial":
        return 1
    if resolved == "process" and not fork_available():
        return 1
    return count


def split_ranges(total: int, unit_size: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``[lo, hi)`` units of ``unit_size``."""
    if unit_size <= 0:
        raise ValueError(f"unit_size must be positive, got {unit_size}")
    return [(lo, min(lo + unit_size, total)) for lo in range(0, total, unit_size)]


def unit_size_for(total: int, *, cap: Optional[int] = None) -> int:
    """Deterministic work-unit size for ``total`` independent instances.

    Targets :data:`DEFAULT_UNITS` units, additionally honouring ``cap``
    (a memory ceiling such as the sampling engine's visited-buffer
    budget). Depends only on the inputs, never on the worker count.
    """
    if total <= 0:
        return 1
    size = -(-total // DEFAULT_UNITS)  # ceil division
    if cap is not None:
        size = min(size, max(int(cap), 1))
    return max(size, 1)


@dataclass
class WorkerContext:
    """What a unit function sees besides its task.

    ``arrays`` is the tuple of shared read-only ndarrays (the CSR triple
    in the sampling engine), ``payload`` an arbitrary picklable object
    delivered once per worker and call (the objective in GreeDi, the
    kernel name in the sampling engine). On both pool backends the
    payload is a pickled copy; in the serial fallback both fields are
    simply the caller's originals.
    """

    arrays: Optional[tuple[np.ndarray, ...]] = None
    payload: Any = None


class SharedArrays:
    """Export a tuple of ndarrays into named shared-memory segments.

    Use as a context manager in the parent::

        with SharedArrays(arrays) as shared:
            pool.map(fn, tasks, ...)

    Workers rebuild zero-copy views via :func:`attach_shared`. The parent
    owns the segments: ``__exit__`` closes and unlinks them.
    """

    def __init__(self, arrays: Sequence[np.ndarray]) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._specs: list[tuple[str, str, tuple[int, ...]]] = []
        try:
            for array in arrays:
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(array.nbytes, 1)
                )
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                self._segments.append(segment)
                self._specs.append((segment.name, array.dtype.str, array.shape))
        except BaseException:
            self.close(unlink=True)
            raise

    def descriptor(self) -> list[tuple[str, str, tuple[int, ...]]]:
        """Picklable ``(name, dtype, shape)`` list for :func:`attach_shared`."""
        return list(self._specs)

    def close(self, *, unlink: bool = True) -> None:
        for segment in self._segments:
            try:
                segment.close()
                if unlink:
                    segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._specs = []

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(unlink=True)


def attach_shared(
    descriptor: Sequence[tuple[str, str, tuple[int, ...]]],
) -> tuple[tuple[np.ndarray, ...], list[shared_memory.SharedMemory]]:
    """Attach to exported segments; returns (views, open segments).

    The segment handles must stay referenced as long as the views are in
    use — dropping them invalidates the buffers.
    """
    segments = []
    views = []
    for name, dtype, shape in descriptor:
        segment = shared_memory.SharedMemory(name=name)
        segments.append(segment)
        views.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf))
    return tuple(views), segments


class _PayloadBlob:
    """A pickled payload in one shared-memory segment (process backend)."""

    def __init__(self, payload: Any) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._segment = shared_memory.SharedMemory(
            create=True, size=max(len(blob), 1)
        )
        self._segment.buf[: len(blob)] = blob
        self.spec = (self._segment.name, len(blob))

    def close(self) -> None:
        try:
            self._segment.close()
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


#: Process-worker-side context cache. One entry per (descriptor,
#: payload-blob) pair — in steady state that is "the current call", so
#: segments attach and the payload unpickles once per worker per call,
#: mirroring the old pool-initializer semantics without respawning the
#: pool. Bounded so interleaved calls cannot pin arbitrary segments.
_WORKER_CACHE: "OrderedDict[Any, tuple[WorkerContext, list]]" = OrderedDict()
_WORKER_CACHE_SIZE = 4


def _pool_context(  # pragma: no cover - process-worker-side
    descriptor: Optional[Sequence[tuple[str, str, tuple[int, ...]]]],
    payload_spec: Optional[tuple[str, int]],
) -> WorkerContext:
    key = (
        tuple(name for name, _, _ in descriptor) if descriptor is not None else None,
        payload_spec[0] if payload_spec is not None else None,
    )
    hit = _WORKER_CACHE.get(key)
    if hit is not None:
        _WORKER_CACHE.move_to_end(key)
        return hit[0]
    arrays: Optional[tuple[np.ndarray, ...]] = None
    segments: list[shared_memory.SharedMemory] = []
    if descriptor is not None:
        arrays, segments = attach_shared(descriptor)
    payload = None
    if payload_spec is not None:
        name, size = payload_spec
        blob = shared_memory.SharedMemory(name=name)
        try:
            payload = pickle.loads(bytes(blob.buf[:size]))
        finally:
            blob.close()
    context = WorkerContext(arrays=arrays, payload=payload)
    _WORKER_CACHE[key] = (context, segments)
    while len(_WORKER_CACHE) > _WORKER_CACHE_SIZE:
        _, (_, stale) = _WORKER_CACHE.popitem(last=False)
        for segment in stale:
            try:
                segment.close()
            except Exception:
                pass
    return context


def _drop_worker_cache() -> None:  # pragma: no cover - process-worker-side
    while _WORKER_CACHE:
        _, (_, stale) = _WORKER_CACHE.popitem(last=False)
        for segment in stale:
            try:
                segment.close()
            except Exception:
                pass


def _init_process_worker() -> None:  # pragma: no cover - process-worker-side
    atexit.register(_drop_worker_cache)


def _run_pool_task(  # pragma: no cover - process-worker-side
    packed: tuple[WorkerFn, Any, Any, Any],
) -> Any:
    fn, task, descriptor, payload_spec = packed
    return fn(_pool_context(descriptor, payload_spec), task)


class WorkerPool:
    """A persistent executor of one backend and width.

    Obtain instances through :func:`get_pool` — the registry guarantees
    one live pool per (backend, width) and hooks shutdown at exit.
    ``dispatches``/``tasks_run`` count warm usage for telemetry.
    """

    def __init__(self, backend: str, width: int) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(f"WorkerPool backend must be thread|process, got {backend!r}")
        if width < 2:
            raise ValueError(f"WorkerPool width must be >= 2, got {width}")
        self.backend = backend
        self.width = width
        self.dispatches = 0
        self.tasks_run = 0
        if backend == "thread":
            self._executor: Any = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-pool"
            )
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=width,
                mp_context=mp.get_context("fork"),
                initializer=_init_process_worker,
            )

    # -- dispatch -----------------------------------------------------

    def _thread_runner(
        self,
        fn: WorkerFn,
        shared: Optional[Sequence[np.ndarray]],
        payload: Any,
    ) -> Callable[[Any], Any]:
        arrays = tuple(shared) if shared is not None else None
        blob = (
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            if payload is not None
            else None
        )
        local = threading.local()

        def run(task: Any) -> Any:
            context = getattr(local, "context", None)
            if context is None:
                # One pickled copy per thread per call — worker-side
                # payload mutation behaves exactly like a process copy.
                local.context = context = WorkerContext(
                    arrays=arrays,
                    payload=pickle.loads(blob) if blob is not None else None,
                )
            return fn(context, task)

        return run

    def map(
        self,
        fn: WorkerFn,
        tasks: Sequence[Any],
        *,
        shared: Optional[Sequence[np.ndarray]] = None,
        payload: Any = None,
    ) -> list[Any]:
        """Run ``fn(context, task)`` for every task, results in task order."""
        return list(self.imap(fn, tasks, shared=shared, payload=payload))

    def imap(
        self,
        fn: WorkerFn,
        tasks: Sequence[Any],
        *,
        shared: Optional[Sequence[np.ndarray]] = None,
        payload: Any = None,
    ) -> Iterator[Any]:
        """Lazily yield results in task order, bounding in-flight tasks.

        At most ``2 * width`` tasks are submitted ahead of the consumer —
        the streaming appender of the out-of-core tier bounds its
        resident packed chunks this way.
        """
        tasks = list(tasks)
        self.dispatches += 1
        self.tasks_run += len(tasks)
        window = 2 * self.width
        if self.backend == "thread":
            run = self._thread_runner(fn, shared, payload)
            return self._window_iter(
                [(run, (task,)) for task in tasks], window, cleanup=None
            )
        exported = SharedArrays(shared) if shared is not None else None
        blob = _PayloadBlob(payload) if payload is not None else None
        descriptor = exported.descriptor() if exported is not None else None
        spec = blob.spec if blob is not None else None

        def cleanup() -> None:
            if exported is not None:
                exported.close(unlink=True)
            if blob is not None:
                blob.close()

        return self._window_iter(
            [
                (_run_pool_task, ((fn, task, descriptor, spec),))
                for task in tasks
            ],
            window,
            cleanup=cleanup,
        )

    def _window_iter(
        self,
        calls: list[tuple[Callable, tuple]],
        window: int,
        cleanup: Optional[Callable[[], None]],
    ) -> Iterator[Any]:
        try:
            pending = []
            next_submit = 0
            while next_submit < len(calls) or pending:
                while next_submit < len(calls) and len(pending) < window:
                    call, args = calls[next_submit]
                    pending.append(self._executor.submit(call, *args))
                    next_submit += 1
                future = pending.pop(0)
                yield future.result()
        finally:
            if cleanup is not None:
                cleanup()

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)


# -- pool registry ----------------------------------------------------

_POOLS: dict[tuple[str, int], WorkerPool] = {}
_POOLS_LOCK = threading.Lock()
_POOL_SPAWNS = 0
_SERIAL_DISPATCHES = 0
_ATEXIT_HOOKED = False


def get_pool(backend: str, width: int) -> WorkerPool:
    """The persistent pool for (backend, width); spawned on first use."""
    backend = resolve_backend(backend)
    if backend == "serial":
        raise ValueError("the serial backend has no pool")
    key = (backend, int(width))
    global _POOL_SPAWNS, _ATEXIT_HOOKED
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = WorkerPool(backend, int(width))
            _POOLS[key] = pool
            _POOL_SPAWNS += 1
            if not _ATEXIT_HOOKED:
                atexit.register(shutdown_pools)
                _ATEXIT_HOOKED = True
        return pool


def shutdown_pools() -> None:
    """Shut down every registry pool (idempotent; re-spawn on next use)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


def pool_stats() -> dict:
    """Registry telemetry for the service ``stats`` op and benchmarks."""
    with _POOLS_LOCK:
        active = [
            {
                "backend": pool.backend,
                "width": pool.width,
                "dispatches": pool.dispatches,
                "tasks_run": pool.tasks_run,
            }
            for pool in _POOLS.values()
        ]
    return {
        "pool_spawns": _POOL_SPAWNS,
        "serial_dispatches": _SERIAL_DISPATCHES,
        "active_pools": active,
    }


def _serial_results(
    fn: WorkerFn,
    tasks: Sequence[Any],
    shared: Optional[Sequence[np.ndarray]],
    payload: Any,
) -> Iterator[Any]:
    global _SERIAL_DISPATCHES
    _SERIAL_DISPATCHES += 1
    context = WorkerContext(
        arrays=tuple(shared) if shared is not None else None,
        payload=payload,
    )
    return (fn(context, task) for task in tasks)


def parallel_map(
    fn: WorkerFn,
    tasks: Sequence[Any],
    *,
    workers: Optional[int] = None,
    shared: Optional[Sequence[np.ndarray]] = None,
    payload: Any = None,
    backend: Optional[str] = None,
) -> list[Any]:
    """Run ``fn(context, task)`` for every task, results in task order.

    ``fn`` must be a module-level function (pickled by reference on the
    process backend). ``shared`` arrays reach workers zero-copy on the
    thread backend and through shared memory on the process backend;
    ``payload`` arrives as one pickled copy per worker per call. Falls
    back to an in-process loop — same functions, same order, no pool —
    whenever :func:`pool_width` resolves to 1.
    """
    tasks = list(tasks)
    resolved = resolve_backend(backend)
    count = pool_width(workers, len(tasks), backend=resolved)
    if count <= 1:
        return list(_serial_results(fn, tasks, shared, payload))
    return get_pool(resolved, count).map(fn, tasks, shared=shared, payload=payload)


def parallel_imap(
    fn: WorkerFn,
    tasks: Sequence[Any],
    *,
    workers: Optional[int] = None,
    shared: Optional[Sequence[np.ndarray]] = None,
    payload: Any = None,
    backend: Optional[str] = None,
) -> Iterator[Any]:
    """Streaming :func:`parallel_map`: yield results lazily in task order.

    At most twice the pool width of tasks are in flight ahead of the
    consumer, so a byte-budgeted appender — the
    out-of-core RR store — bounds its resident results. The serial
    fallback evaluates one task per ``next()``.
    """
    tasks = list(tasks)
    resolved = resolve_backend(backend)
    count = pool_width(workers, len(tasks), backend=resolved)
    if count <= 1:
        return _serial_results(fn, tasks, shared, payload)
    return get_pool(resolved, count).imap(
        fn, tasks, shared=shared, payload=payload
    )
