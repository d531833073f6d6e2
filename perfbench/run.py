"""Serving benchmark: real ``repro serve --tcp`` trees driven from one client.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``PREDICTIONS.md``): ``warm-mix``,
``influence-churn``, ``fanin-sharded``; ``--workload all`` runs the
three in turn.

``--trace 0`` measures the end-to-end metrics with no tracing: the
server is set up :data:`SETUPS` times (``setup_s`` is the median), the
last set-up server serves a ``--seconds`` window, and every answer is
checked against an in-process reference. ``--trace 1`` runs an
untraced and a traced server for half the window each and reports the
per-layer metrics of the traced half, plus the tracing overhead
(traced minus untraced end-to-end figures).

Human-readable lines go first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 1 when any request failed, was rejected or lost, or answered wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import layers  # noqa: E402
import pins  # noqa: E402
import procstat  # noqa: E402
from quantile import MIN_BEYOND, median, percentile  # noqa: E402

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: End-to-end metrics and units, in report order. ``error_rate`` is
#: printed with them but kept out of the JSON metrics, which must never
#: read 0; the JSON's ``attempted``/``failed`` carry it instead.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mib": "MiB",
}


@dataclass
class Window:
    """One timed window on one server, with what it needs for metrics."""

    setup_times: list[float]
    outcomes: list[client.Outcome]
    start: float
    cpu_s: float
    rss_mib: float
    before: dict[str, Any]
    after: dict[str, Any]
    exit_code: int
    server_pid: int
    trace_dir: Optional[Path] = None
    errors: list[str] = field(default_factory=list)

    def failures(self) -> list[str]:
        out = list(self.errors)
        for outcome in self.outcomes:
            if outcome.response is None:
                out.append(f"{outcome.req.rid}: lost")
            elif not outcome.response.get("ok"):
                out.append(f"{outcome.req.rid}: {outcome.response.get('error')}")
        if self.exit_code != 0:
            out.append(f"server exited {self.exit_code}")
        return out


async def run_window(
    workload: Any, seed: int, seconds: float, work: Path, *,
    setups: int, traced: bool,
) -> Window:
    setup = workload.setup_requests()
    setup_times: list[float] = []
    trace_dir = work / f"trace-{time.monotonic_ns()}" if traced else None
    for attempt in range(setups):
        server = await client.spawn(ROOT, work, shards=workload.shards,
                                    trace_dir=trace_dir)
        try:
            answers = [
                await client.call(server, dict(payload, id=f"s:{index}"))
                for index, payload in enumerate(setup)
            ]
        except BaseException:
            await client.stop(server)
            raise
        setup_times.append(time.perf_counter() - server.spawned)
        if attempt < setups - 1:
            await client.stop(server)
    # Schedules are built after set-up so that their cost is never
    # mistaken for set-up time; they do not depend on the server.
    if workload.open_loop:
        schedule = workload.schedule(seed, seconds)
    else:
        scripts = workload.scripts(seed, seconds)
    stats = {"schema": 2, "op": "stats"}
    try:
        before = await client.call(server, stats)
        cpu0 = procstat.cpu_seconds(server.pid)
        if workload.open_loop:
            outcomes, start = await client.open_loop(
                server.port, schedule, workload.connections)
        else:
            outcomes, start = await client.closed_loop(
                server.port, scripts, seconds)
        cpu_s = procstat.cpu_seconds(server.pid) - cpu0
        rss = procstat.peak_rss_mib(server.pid)
        after = await client.call(server, stats)
    finally:
        code = await client.stop(server)
    window = Window(setup_times, outcomes, start, cpu_s, rss, before, after,
                    code, server.pid, trace_dir)
    window.errors = pins.check(workload.name, answers) + workload.check(outcomes)
    return window


def end_to_end(window: Window, workload: Any) -> tuple[dict[str, float], dict[str, Any]]:
    """The metrics of :data:`END_TO_END` plus details for the printout."""
    answered = [o for o in window.outcomes if o.done is not None and o.response]
    ok = [o for o in answered if o.response.get("ok")]
    latencies = [o.latency * 1e3 for o in answered]
    elapsed = max((o.done for o in answered), default=window.start) - window.start
    failures = window.failures()
    metrics = {
        "setup_s": median(window.setup_times),
        "throughput_rps": len(ok) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": percentile(latencies, workload.tail_q),
        "cpu_ms_per_req": window.cpu_s * 1e3 / len(ok) if ok else 0.0,
        "peak_rss_mib": window.rss_mib,
    }
    attempted = len(window.outcomes)
    details = {
        "attempted": attempted,
        "ok": len(ok),
        "rejected": sum(1 for o in answered if str(o.response.get("error", "")
                        ).startswith(("overloaded", "draining"))),
        "lost": attempted - len(answered),
        "mismatched": len(window.errors),
        "failed": len(failures),
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "n": len(latencies),
        "failures": failures,
    }
    return metrics, details


def print_window(label: str, workload: Any, metrics: dict[str, float],
                 details: dict[str, Any], setup_times: list[float]) -> None:
    n = details["n"]
    beyond = n - math.ceil(n * workload.tail_q)
    print(f"[{label}] requests: {details['attempted']} sent, {details['ok']} ok, "
          f"{details['rejected']} rejected, {details['lost']} lost, "
          f"{details['mismatched']} mismatched")
    for name, unit in END_TO_END.items():
        if name == "setup_s" and len(setup_times) == 1:
            note = "(1 set-up)"
        elif name == "setup_s":
            note = f"(median of {', '.join(f'{t:.3f}' for t in setup_times)})"
        elif name == "latency_p50_ms":
            note = f"(n={n})"
        elif name == "latency_tail_ms":
            note = (f"(p{workload.tail_q * 100:g}, n={n}, {beyond} beyond"
                    f"{'' if beyond >= MIN_BEYOND else ' - TOO FEW'})")
        else:
            note = ""
        print(f"[{label}]   {name} = {metrics[name]:.4f} {unit} {note}".rstrip())
    print(f"[{label}]   error_rate = {details['error_rate']:.4f} ratio")
    for failure in details["failures"][:10]:
        print(f"[{label}]   FAIL {failure}")


async def run_workload(name: str, seed: int, seconds: float, trace: bool,
                       work: Path) -> dict[str, Any]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if not trace:
        window = await run_window(workload, seed, seconds, work,
                                  setups=SETUPS, traced=False)
        metrics, details = end_to_end(window, workload)
        print_window(name, workload, metrics, details, window.setup_times)
        return {
            "correct": details["failed"] == 0,
            "attempted": details["attempted"],
            "failed": details["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in END_TO_END.items()},
        }
    half = seconds / 2.0
    plain = await run_window(workload, seed, half, work, setups=1, traced=False)
    traced = await run_window(workload, seed, half, work, setups=1, traced=True)
    plain_metrics, plain_details = end_to_end(plain, workload)
    traced_metrics, traced_details = end_to_end(traced, workload)
    print_window(f"{name} untraced", workload, plain_metrics, plain_details,
                 plain.setup_times)
    print_window(f"{name} traced", workload, traced_metrics, traced_details,
                 traced.setup_times)
    assert traced.trace_dir is not None
    per_layer = layers.breakdown(
        layers.load_spans(traced.trace_dir), traced.outcomes,
        traced.server_pid, traced.before, traced.after,
    )
    for metric in ("latency_p50_ms", "throughput_rps", "cpu_ms_per_req"):
        per_layer[f"tracing.overhead.{metric}"] = (
            traced_metrics[metric] - plain_metrics[metric])
    for metric, unit in layers.UNITS.items():
        print(f"[{name} layers]   {metric} = {per_layer[metric]:.4f} {unit}")
    failed = plain_details["failed"] + traced_details["failed"]
    return {
        "correct": failed == 0,
        "attempted": plain_details["attempted"] + traced_details["attempted"],
        "failed": failed,
        "metrics": {k: {"value": per_layer[k], "unit": u}
                    for k, u in layers.UNITS.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "service" / "server.py").is_file():
        print(f"perfbench: no service sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {unknown} or bad --seconds")
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)  # in-process reference mmap stores
    results = []
    try:
        for name in names:
            results.append(asyncio.run(
                run_workload(name, args.seed, args.seconds, bool(args.trace), work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass  # another run still uses it
    result = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
