"""Bench regression gate — compare fresh BENCH_*.json against baselines.

Every ``bench_*`` module emits a ``benchmarks/results/BENCH_<name>.json``
payload; the numbers committed under ``benchmarks/baselines/`` are the
reference. This script fails (exit 1) when any *speedup* metric of a
fresh run falls more than :data:`TOLERANCE` below its baseline.

Only relative metrics are gated: raw wall times vary wildly across
machines, but the speedup ratios measure an algorithmic property
(vectorization win, pool scaling) that should survive a hardware change.
The comparison is one-sided — faster than baseline is never a failure.

A payload may opt out of the speedup comparison by carrying a top-level
``"speedup_gate": false`` (the parallel bench does this on boxes with
fewer than 4 CPUs, where pool speedups are meaningless). A gate-disabled
*fresh* run is reported as SKIP; a gate-disabled *baseline* under a
gate-enabled fresh run falls back to the fresh payload's own
``min_speedup`` as an absolute floor, so the gate still arms on capable
machines until a multi-core baseline is committed. A missing fresh
result for a committed baseline is always a failure — it means a bench
silently stopped running.

Metrics listed in a payload's ``"always_gated_metrics"`` are exempt
from the ``speedup_gate`` opt-out: they measure single-thread
properties (e.g. the parallel bench's ``kernel_serial.speedup``) that
hold on any machine, so they are compared — against the baseline where
available, and never below the payload's ``"always_gated_floor"`` —
even when the multicore gate is off.

Wall times get an absolute ceiling instead of a relative comparison. A
payload's ``"wall_time_bounds"`` maps a dotted metric path to the most
seconds it may take (the out-of-core bench bounds
``oocore.solve_wall_time_s``). Where the baseline carries a bound for
the same path, the smaller of the two applies, so raising the constant
in a bench does not loosen the gate until the baseline is regenerated.
These bounds hold whatever the ``speedup_gate`` says.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --tolerance 0.5
    PYTHONPATH=src python benchmarks/check_regression.py --only BENCH_load.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator

BASE_DIR = Path(__file__).parent
BASELINES_DIR = BASE_DIR / "baselines"
RESULTS_DIR = BASE_DIR / "results"

#: Allowed relative shortfall vs baseline before a metric fails.
TOLERANCE = 0.30


def iter_speedups(payload: object, prefix: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric speedup leaf."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if "speedup" in str(key).lower() and key != "min_speedup":
                    yield path, float(value)
            else:
                yield from iter_speedups(value, path)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from iter_speedups(value, f"{prefix}[{index}]")


def lookup(payload: object, path: str) -> object:
    """Value at a dotted ``path`` of nested dicts, or None if absent."""
    for key in path.split("."):
        if not isinstance(payload, dict):
            return None
        payload = payload.get(key)
    return payload


def check_wall_time_bounds(
    name: str, baseline: dict, fresh: dict
) -> tuple[list[str], list[str]]:
    """Hold every bounded wall time of ``fresh`` under its ceiling."""
    lines: list[str] = []
    failures: list[str] = []
    bounds = dict(fresh.get("wall_time_bounds") or {})
    for path, bound in (baseline.get("wall_time_bounds") or {}).items():
        bounds[path] = min(float(bound), float(bounds.get(path, bound)))
    for path, bound in sorted(bounds.items()):
        value = lookup(fresh, path)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failures.append(f"{name}: bounded metric {path} missing from fresh run")
            continue
        status = "ok" if value <= bound else "REGRESSION"
        lines.append(
            f"  {name}: {path} = {value:.2f}s (bound {bound:.2f}s) {status}"
        )
        if value > bound:
            failures.append(
                f"{name}: {path} took {value:.2f}s, over its {bound:.2f}s bound"
            )
    return lines, failures


def compare_file(
    baseline_path: Path, results_dir: Path, tolerance: float
) -> tuple[list[str], list[str]]:
    """Compare one baseline file; returns (report lines, failures)."""
    name = baseline_path.name
    fresh_path = results_dir / name
    if not fresh_path.exists():
        return [], [f"{name}: no fresh result at {fresh_path}"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    lines, failures = check_wall_time_bounds(name, baseline, fresh)
    always = list(fresh.get("always_gated_metrics") or [])
    always_floor = float(fresh.get("always_gated_floor", 1.0))
    if fresh.get("speedup_gate") is False:
        # Multicore scaling ratios are noise on this machine, but the
        # always-gated (single-thread) metrics still hold.
        base_values = dict(iter_speedups(baseline))
        fresh_values = dict(iter_speedups(fresh))
        for path in always:
            fresh_value = fresh_values.get(path)
            if fresh_value is None:
                failures.append(f"{name}: metric {path} missing from fresh run")
                continue
            base_value = base_values.get(path)
            floor = always_floor
            if base_value is not None:
                floor = max(floor, base_value * (1.0 - tolerance))
            status = "ok" if fresh_value >= floor else "REGRESSION"
            lines.append(
                f"  {name}: {path} = {fresh_value:.2f} "
                f"(always-gated, floor {floor:.2f}) {status}"
            )
            if fresh_value < floor:
                failures.append(
                    f"{name}: always-gated {path} at {fresh_value:.2f} "
                    f"below its floor {floor:.2f}"
                )
        lines.append(
            f"  {name}: multicore metrics SKIP "
            "(speedup gate disabled on this machine)"
        )
        return lines, failures
    if baseline.get("speedup_gate") is False:
        # The committed baseline was measured on a machine that could not
        # exercise parallel speedups (its ratios are noise), but *this*
        # machine can: hold the bench's own gated metrics to its absolute
        # floor instead of a relative one, so the gate still arms until a
        # multi-core baseline is committed. Ungated metrics (the bench
        # reports some speedups informationally) are left alone.
        floor = float(fresh.get("min_speedup", 1.0))
        gated = fresh.get("gated_metrics")
        for path, fresh_value in iter_speedups(fresh):
            if path in always:
                path_floor = always_floor
            elif gated is not None and path not in gated:
                continue
            else:
                path_floor = floor
            status = "ok" if fresh_value >= path_floor else "REGRESSION"
            lines.append(
                f"  {name}: {path} = {fresh_value:.2f} "
                f"(baseline unusable, absolute floor {path_floor:.2f}) "
                f"{status}"
            )
            if fresh_value < path_floor:
                failures.append(
                    f"{name}: {path} at {fresh_value:.2f} below the "
                    f"absolute floor {path_floor:.2f} (baseline was "
                    "recorded on a machine without enough cores — "
                    "regenerate it on this one)"
                )
        return lines, failures
    fresh_values = dict(iter_speedups(fresh))
    for path, base_value in iter_speedups(baseline):
        fresh_value = fresh_values.get(path)
        if fresh_value is None:
            failures.append(f"{name}: metric {path} missing from fresh run")
            continue
        floor = base_value * (1.0 - tolerance)
        if path in always:
            floor = max(floor, always_floor)
        status = "ok" if fresh_value >= floor else "REGRESSION"
        lines.append(
            f"  {name}: {path} = {fresh_value:.2f} "
            f"(baseline {base_value:.2f}, floor {floor:.2f}) {status}"
        )
        if fresh_value < floor:
            failures.append(
                f"{name}: {path} regressed to {fresh_value:.2f} "
                f"(baseline {base_value:.2f}, tolerance {tolerance:.0%})"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed relative shortfall vs baseline (default 0.30)",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=BASELINES_DIR,
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=RESULTS_DIR,
        help="directory of freshly emitted BENCH_*.json files",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="BENCH_name.json",
        help="gate only these baseline files (repeatable); lets a CI job "
        "that runs a single bench check it without demanding fresh "
        "results for every committed baseline",
    )
    args = parser.parse_args(argv)
    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if args.only:
        wanted = set(args.only)
        baseline_files = [p for p in baseline_files if p.name in wanted]
        missing = wanted - {p.name for p in baseline_files}
        if missing:
            print(
                f"no baselines named {sorted(missing)} under "
                f"{args.baselines}",
                file=sys.stderr,
            )
            return 1
    if not baseline_files:
        print(f"no baselines found under {args.baselines}", file=sys.stderr)
        return 1
    all_failures: list[str] = []
    print(f"bench regression gate (tolerance {args.tolerance:.0%}):")
    for baseline_path in baseline_files:
        lines, failures = compare_file(baseline_path, args.results, args.tolerance)
        print("\n".join(lines) if lines else f"  {baseline_path.name}: -")
        all_failures.extend(failures)
    if all_failures:
        print("\nFAILURES:")
        for failure in all_failures:
            print(f"  {failure}")
        return 1
    print("all benches within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
