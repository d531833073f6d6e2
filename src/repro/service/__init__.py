"""Persistent in-process solver service.

The batch oracle (PR 1), sampling engine (PR 3) and parallel backend
(PR 4) made each *call* fast; this package makes calls *cheap to repeat*
by keeping derived state warm across requests:

* :class:`repro.service.session.SolverSession` — per-dataset warm state
  (materialised objectives, RR collections, Monte-Carlo evaluation
  bundles, dynamic maximizers) behind byte-budgeted LRU caches;
* :class:`repro.service.engine.ServiceEngine` — typed request dispatch
  (``solve`` / ``sweep`` / ``evaluate`` / ``update`` / ``pareto`` /
  ``stats``) over a bounded session registry, with coalescing of
  compatible concurrent ``solve`` requests into one batched greedy run;
* :mod:`repro.service.protocol` — the versioned JSON-lines
  request/response schema (v1 flat requests plus the v2 per-op typed
  envelope) used by ``repro serve`` and ``repro request``;
* :func:`repro.service.daemon.serve_forever` — the stdin/stdout loop;
* :class:`repro.service.server.TCPServer` — the asyncio TCP front-end
  (micro-batch coalescing across connections, admission control,
  graceful drain, optional Prometheus metrics sidecar) behind
  ``repro serve --tcp``;
* :class:`repro.service.shards.EngineShardPool` — the front-end's
  engine shards with dataset-affine routing: the in-process engine as
  the single shard, or N engine worker processes behind ``--shards``;
* :mod:`repro.service.loadgen` — the open-loop load generator behind
  ``repro loadgen`` and ``benchmarks/bench_load.py``.
"""

from repro.service.daemon import serve_forever
from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    EvaluateRequest,
    ParetoRequest,
    ProtocolError,
    Request,
    Response,
    ShutdownRequest,
    SolveRequest,
    StatsRequest,
    SweepRequest,
    UpdateRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.session import SolverSession

__all__ = [
    "EvaluateRequest",
    "ParetoRequest",
    "ProtocolError",
    "Request",
    "Response",
    "ServiceEngine",
    "ShutdownRequest",
    "SolveRequest",
    "SolverSession",
    "StatsRequest",
    "SweepRequest",
    "UpdateRequest",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "serve_forever",
]
