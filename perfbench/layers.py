"""Per-layer metrics of a traced window, from spans and ``stats`` counters.

Spans come from :mod:`spans` (one JSON-lines file per server process);
only spans serving a timed request (id prefix ``t:``) count. Counters
the service already keeps (coalescing, cache hits, repairs, storage,
rejections) are read from outside through the ``stats`` op before and
after the window and reported as deltas.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable

from client import Outcome
from quantile import median, percentile
from spans import HOT, SPANS

SPAN_NAMES = [name for name, *_ in SPANS]
HOT_NAMES = [name for name, *_ in HOT] + ["kernels.get_kernel"]

ALGORITHMS = ("greedy", "bsm-tsgreedy", "bsm-saturate")

#: Every per-layer metric with its unit, in report order.
UNITS = {
    **{f"core.solve_ms.{a}": "ms" for a in ALGORITHMS},
    "core.oracle_calls_per_solve": "count",
    "core.gains_calls_per_solve": "count",
    "core.gains_batch_calls_per_solve": "count",
    "kernels.get_kernel_calls_per_solve": "count",
    "influence.sample_ms": "ms",
    "influence.samples_built": "count",
    "influence.repair_ms": "ms",
    "influence.repair_ratio": "ratio",
    "session.objective_ms": "ms",
    "session.objective_hit_ratio": "ratio",
    "session.evictions": "count",
    "storage.resident_mib": "MiB",
    "storage.on_disk_mib": "MiB",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "server.queue_wait_ms": "ms",
    "server.batch_size": "count",
    "server.rejected": "count",
    "shards.pipe_ms": "ms",
    "engine.batch_ms": "ms",
    "engine.coalesce_width": "count",
    "server.unattributed_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    **{f"self_ms_per_req.{name}": "ms" for name in SPAN_NAMES},
    **{f"time_ms_per_req.{name}": "ms" for name in HOT_NAMES},
    "tracing.overhead.latency_p50_ms": "ms",
    "tracing.overhead.throughput_rps": "1/s",
    "tracing.overhead.cpu_ms_per_req": "ms",
}

_MS = 1e-6  # ns -> ms


def load_spans(trace_dir: Path) -> list[dict[str, Any]]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle)
    return [span for span in spans if span["rid"].startswith("t:")]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _engine_blocks(stats: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-engine stats blocks of a ``stats`` answer (sharded or not)."""
    result = stats["result"]
    return result["shards"] if "shards" in result and isinstance(
        result["shards"], list) else [result]


def _sessions(stats: dict[str, Any]) -> Iterable[dict[str, Any]]:
    for block in _engine_blocks(stats):
        yield from block.get("sessions", [])


def _counter_deltas(before: dict, after: dict) -> dict[str, float]:
    def total(stats: dict, path: tuple[str, ...], sessions: bool) -> float:
        blocks = _sessions(stats) if sessions else _engine_blocks(stats)
        out = 0.0
        for block in blocks:
            value: Any = block
            for key in path:
                value = value.get(key, {}) if isinstance(value, dict) else 0
            out += float(value or 0)
        return out

    def delta(path: tuple[str, ...], sessions: bool = False) -> float:
        return total(after, path, sessions) - total(before, path, sessions)

    hits = delta(("objective", "hits"), True)
    misses = delta(("objective", "misses"), True)
    repaired = delta(("repair", "sets_repaired"), True)
    sets = delta(("repair", "sets_total"), True)
    runs = delta(("coalesced_runs",))
    storage = list(_sessions(after))
    return {
        "influence.repair_ratio": repaired / sets if sets else 0.0,
        "session.objective_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "session.evictions": delta(("session_registry", "evictions")),
        "storage.resident_mib": sum(
            s["storage"]["resident_bytes"] for s in storage) / 2**20,
        "storage.on_disk_mib": sum(
            s["storage"]["on_disk_bytes"] for s in storage) / 2**20,
        "server.rejected": (after["result"]["server"]["requests_rejected"]
                            - before["result"]["server"]["requests_rejected"]),
        "engine.coalesce_width": delta(("coalesced_requests",)) / runs if runs else 0.0,
    }


def breakdown(
    spans: list[dict[str, Any]],
    outcomes: list[Outcome],
    server_pid: int,
    before: dict[str, Any],
    after: dict[str, Any],
) -> dict[str, float]:
    """Every metric of :data:`UNITS` except the tracing overheads."""
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durations(name: str) -> list[float]:
        return [span["dur"] * _MS for span in by_name[name]]

    out: dict[str, float] = {}
    solves = by_name["core.solve"]
    for algorithm in ALGORITHMS:
        out[f"core.solve_ms.{algorithm}"] = median(
            [s["dur"] * _MS for s in solves if s.get("algorithm") == algorithm]
        )

    def per_solve(hot: str) -> float:
        return _mean([s["hot"].get(hot, [0, 0])[0] for s in solves])

    out["core.oracle_calls_per_solve"] = _mean(
        [s.get("oracle_calls", 0) for s in solves])
    out["core.gains_calls_per_solve"] = per_solve("core.gains")
    out["core.gains_batch_calls_per_solve"] = per_solve("core.gains_batch")
    out["kernels.get_kernel_calls_per_solve"] = per_solve("kernels.get_kernel")
    out["influence.sample_ms"] = median(durations("influence.from_graph"))
    out["influence.samples_built"] = float(len(by_name["influence.from_graph"]))
    out["influence.repair_ms"] = median(durations("influence.refresh"))
    out["session.objective_ms"] = median(durations("session.objective"))
    out["protocol.decode_us"] = median(
        [d * 1e3 for d in durations("protocol.decode")])
    out["protocol.encode_us"] = median(
        [d * 1e3 for d in durations("protocol.encode")])

    # The front-end's own hand-off to the engine tier: the in-process
    # engine, or the shard pool when sharded.
    front_name = ("shards.handle_batch" if by_name["shards.handle_batch"]
                  else "engine.handle_batch")
    front_batches = [s for s in by_name[front_name] if s["pid"] == server_pid]
    out["server.batch_size"] = _mean([s["batch_size"] for s in front_batches])
    out["engine.batch_ms"] = median(durations("engine.handle_batch"))
    engine_by_rid = {
        s["rid"]: s for s in by_name["engine.handle_batch"] if s["pid"] != server_pid
    }
    out["shards.pipe_ms"] = median([
        (s["dur"] - engine_by_rid[s["rid"]]["dur"]) * _MS
        for s in by_name["shards.handle_batch"] if s["rid"] in engine_by_rid
    ])

    decoded = {s["rid"]: s for s in by_name["protocol.decode"] if s["pid"] == server_pid}
    encoded = {s["rid"]: s for s in by_name["protocol.encode"] if s["pid"] == server_pid}
    batch_of: dict[str, dict[str, Any]] = {}
    for span in front_batches:
        for rid in span["rid"].split(","):
            batch_of[rid] = span
    waits, unattributed = [], []
    for outcome in outcomes:
        rid = outcome.req.rid
        if outcome.done is None or rid not in batch_of or rid not in decoded:
            continue
        decode, batch = decoded[rid], batch_of[rid]
        wait = batch["start"] - (decode["start"] + decode["dur"])
        waits.append(wait * _MS)
        attributed = decode["dur"] + wait + batch["dur"]
        if rid in encoded:
            attributed += encoded[rid]["dur"]
        unattributed.append((outcome.done - outcome.sent) * 1e3 - attributed * _MS)
    out["server.queue_wait_ms"] = median(waits)
    out["server.unattributed_ms"] = median(unattributed)
    # Self time (a span minus its child spans) per answered request; the
    # hot calls are folded into their callers' spans, so their total
    # time is read from the outermost engine spans, where nothing is
    # counted twice.
    answered = max(1, sum(1 for o in outcomes if o.done is not None))
    for name in SPAN_NAMES:
        out[f"self_ms_per_req.{name}"] = sum(
            s["self"] for s in by_name[name]) * _MS / answered
    for name in HOT_NAMES:
        out[f"time_ms_per_req.{name}"] = sum(
            s["hot"].get(name, [0, 0])[1] for s in by_name["engine.handle_batch"]
        ) * _MS / answered
    out["loadgen.lag_p99_ms"] = percentile(
        [o.lag * 1e3 for o in outcomes], 0.99)
    out.update(_counter_deltas(before, after))
    return out
