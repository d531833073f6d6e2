"""Timing and counting wrappers around the service's layer entry points.

:func:`install` replaces each entry point named in :data:`SPANS` and
:data:`HOT` with a wrapper that times the call on a per-thread stack, so
every span knows its parent and its *self* time (its duration minus the
time its child spans cover). Spans carry the id of the request they
serve: request-level entry points take it from their argument, inner
calls inherit it from the enclosing span.

Spans stay in memory and are written out as JSON lines when the process
ends (the traced server calls :meth:`Recorder.dump`; a forked shard
worker registers the same dump as a multiprocessing finaliser, which
runs when the worker's loop returns). Calls in :data:`HOT` (the gains
oracles and ``get_kernel``) run thousands of times per solve, so they
are folded into per-name ``[calls, ns]`` counters on their parent span
instead of being written one by one.

Only the benchmark imports this module; nothing under ``src`` knows it
exists.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Optional

#: (span name, module, qualified attribute, how to read the request id).
SPANS = (
    ("protocol.decode", "repro.service.protocol", "request_from_dict", "payload"),
    ("protocol.encode", "repro.service.protocol", "encode_response", "response"),
    ("engine.handle_batch", "repro.service.engine", "ServiceEngine.handle_batch", "batch"),
    ("engine.handle", "repro.service.engine", "ServiceEngine.handle", "request"),
    ("shards.handle_batch", "repro.service.shards", "EngineShardPool.handle_batch", "batch"),
    ("session.objective", "repro.service.session", "SolverSession.objective", None),
    ("session.solve", "repro.service.session", "SolverSession.solve", None),
    ("session.dynamic", "repro.service.session", "SolverSession.dynamic", None),
    ("influence.from_graph", "repro.problems.influence", "InfluenceObjective.from_graph", None),
    ("influence.refresh", "repro.problems.influence", "InfluenceObjective.refresh", None),
    ("core.solve", "repro.core.problem", "BSMProblem.solve", None),
)

#: Hot entry points: counted on the parent span, never recorded alone.
HOT = (
    ("core.gains", "repro.core.functions", "GroupedObjective.gains"),
    ("core.gains_batch", "repro.core.functions", "GroupedObjective.gains_batch"),
)

#: ``get_kernel`` is bound by name into each module that calls it, so it
#: is wrapped at those import sites rather than at its definition.
KERNEL_SITES = (
    "repro.problems.influence",
    "repro.problems.coverage",
    "repro.influence.engine",
)

#: Modules that bind the protocol codec functions by name.
CODEC_SITES = ("repro.service.server", "repro.service.daemon")


class _Frame:
    __slots__ = ("name", "rid", "start", "child_ns", "hot", "extra")

    def __init__(self, name: str, rid: str, start: int) -> None:
        self.name = name
        self.rid = rid
        self.start = start
        self.child_ns = 0
        self.hot: dict[str, list[int]] = {}
        self.extra: dict[str, Any] = {}


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list[_Frame], frame: _Frame) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_ns += duration
            for name, (calls, ns) in frame.hot.items():
                slot = parent.hot.setdefault(name, [0, 0])
                slot[0] += calls
                slot[1] += ns
        record = {
            "name": frame.name,
            "rid": frame.rid,
            "pid": os.getpid(),
            "start": frame.start,
            "dur": duration,
            "self": duration - frame.child_ns,
            "hot": frame.hot,
            **frame.extra,
        }
        with self._lock:
            self.spans.append(record)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        rid_of: Optional[Callable[[tuple], str]] = None,
        *,
        enter: Optional[Callable[[_Frame, tuple], Any]] = None,
        leave: Optional[Callable[[_Frame, tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """A span around ``fn``. ``rid_of(args)`` names the request (else
        the enclosing span's is inherited); ``enter(frame, args)`` runs
        before the call and its result is handed to ``leave(frame, args,
        state)`` after it, to attach extras to the span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if rid_of is not None:
                rid = rid_of(args)
            else:
                rid = stack[-1].rid if stack else ""
            frame = _Frame(name, rid, time.perf_counter_ns())
            stack.append(frame)
            state = enter(frame, args) if enter is not None else None
            try:
                return fn(*args, **kwargs)
            finally:
                if leave is not None:
                    leave(frame, args, state)
                self._close(stack, frame)

        return wrapper

    def wrap_hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls and time of ``fn`` on the enclosing span.

        No frame is pushed, which keeps the cost per call low. A hot call
        made inside another (``get_kernel`` inside ``gains_batch``) is
        counted under its own name but leaves the enclosing span's child
        time alone, so the span's self time subtracts it once.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(self._local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            outer = not getattr(self._local, "in_hot", False)
            self._local.in_hot = True
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                if outer:
                    self._local.in_hot = False
                    parent.child_ns += duration
                slot = parent.hot.get(name)
                if slot is None:
                    slot = parent.hot[name] = [0, 0]
                slot[0] += 1
                slot[1] += duration

        return wrapper

    # -- process lifecycle ---------------------------------------------------
    def after_fork_in_child(self) -> None:
        """Start a forked child (a shard worker) with an empty store."""
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        mp_util.Finalize(None, self.dump, exitpriority=10)

    def dump(self) -> None:
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- request ids and per-span extras -------------------------------------------
def _payload_id(args: tuple) -> str:
    rid = args[0].get("id", "") if isinstance(args[0], dict) else ""
    return rid if isinstance(rid, str) else ""


#: How each request-level entry point's positional args name its request.
_RID_READERS: dict[str, Callable[[tuple], str]] = {
    "payload": _payload_id,
    "response": lambda args: args[0].id,
    "request": lambda args: args[1].id,
    "batch": lambda args: ",".join(request.id for request in args[-1]),
}


def _solve_enter(frame: _Frame, args: tuple) -> int:
    """Note the algorithm; return the objective's oracle count so far."""
    algorithm = args[1] if len(args) > 1 else "bsm-saturate"
    frame.extra["algorithm"] = str(algorithm).lower()
    return args[0].objective.oracle_calls


def _solve_leave(frame: _Frame, args: tuple, calls_before: int) -> None:
    frame.extra["oracle_calls"] = args[0].objective.oracle_calls - calls_before


def _batch_enter(frame: _Frame, args: tuple) -> None:
    frame.extra["batch_size"] = len(args[-1])


def install(out_dir: Path) -> Recorder:
    """Wrap every entry point and return the process's recorder."""
    recorder = Recorder(out_dir)
    hooks = {
        "core.solve": (_solve_enter, _solve_leave),
        "engine.handle_batch": (_batch_enter, None),
        "shards.handle_batch": (_batch_enter, None),
    }
    for name, module_name, attr, rid_kind in SPANS:
        rid_of = _RID_READERS[rid_kind] if rid_kind else None
        enter, leave = hooks.get(name, (None, None))
        _patch(module_name, attr, lambda fn, name=name, rid_of=rid_of,
               enter=enter, leave=leave: recorder.wrap(
                   name, fn, rid_of, enter=enter, leave=leave))
    for name, module_name, attr in HOT:
        _patch(module_name, attr,
               lambda fn, name=name: recorder.wrap_hot(name, fn))
    kernels = importlib.import_module("repro.kernels")
    wrapped_kernel = recorder.wrap_hot("kernels.get_kernel", kernels.get_kernel)
    for module_name in KERNEL_SITES:
        setattr(importlib.import_module(module_name), "get_kernel",
                wrapped_kernel)
    protocol = importlib.import_module("repro.service.protocol")
    for module_name in CODEC_SITES:
        module = importlib.import_module(module_name)
        for attr in ("request_from_dict", "encode_response"):
            setattr(module, attr, getattr(protocol, attr))
    # multiprocessing clears its finaliser registry in a new child before
    # it runs these hooks, so the dump is registered from one of them.
    mp_util.register_after_fork(recorder, Recorder.after_fork_in_child)
    return recorder


def _patch(
    module_name: str, attr: str, wrap: Callable[[Callable[..., Any]], Any]
) -> None:
    """Replace ``module.attr`` (``attr`` may be ``Class.method``)."""
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = owner.__dict__[method] if owner_name else getattr(module, method)
    if isinstance(raw, classmethod):
        setattr(owner, method, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, method, wrap(raw))
