"""Micro-bench — incremental RR-set repair vs full resampling.

Replays a 100-event edge stream (arc probability moves plus edge
insertions) against a warm :class:`InfluenceObjective` on an n = 4096
SBM graph and times two maintenance policies:

* **repair** — ``objective.refresh()`` after every event: only the RR
  sets whose membership touches a changed arc's target are regenerated
  and spliced in (DESIGN.md §9);
* **full resample** — the pre-PR-6 policy of rebuilding the sampled
  state from scratch, measured on a few representative rebuilds and
  amortized per event (100 actual rebuilds would dominate CI time
  without adding information; the per-rebuild cost is stable).

The amortized speedup is gated (``min_speedup`` = 5x) and the per-event
repair ratio must stay under :data:`MAX_EVENT_REPAIR_RATIO` — the
workload-level claim behind the service's warm ``update`` path. The
repair gate measures an algorithmic property (touched-set locality), not
pool scaling, so it stays armed on single-core machines too.
Correctness is pinned separately: the bitwise no-op-delta and
splice-consistency tests live in ``tests/test_repair.py``, and this
bench re-checks that the patched inverted index matches a from-scratch
rebuild after the full stream.

Emits ``benchmarks/results/BENCH_dynamic_repair.json``. Run standalone
(``PYTHONPATH=src python benchmarks/bench_dynamic_repair.py``) or
through pytest-benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_dynamic_repair.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks._common import RESULTS_DIR, SEED, record, run_once
from repro.graphs.generators import stochastic_block_model
from repro.problems.influence import InfluenceObjective
from repro.utils.csr import invert_csr

#: Same instance family as bench_parallel: n = 4096, sub-critical
#: cascades, so RR sets are small-to-medium and repair locality is the
#: paper-regime case rather than a degenerate one.
NUM_BLOCK = 2048
P_INTRA = 0.01
P_INTER = 0.002
EDGE_PROB = 0.045
NUM_RR_SAMPLES = 20_000

NUM_EVENTS = 100
#: Fraction of events that move an existing arc's probability; the rest
#: insert a fresh edge.
SET_PROBABILITY_EVENTS = 70
#: Full rebuilds actually timed for the amortized comparison.
FULL_RESAMPLE_MEASUREMENTS = 3

MIN_SPEEDUP = 5.0
MAX_EVENT_REPAIR_RATIO = 0.2
GATED_METRICS = ("repair.amortized_speedup",)


def _instance():
    graph = stochastic_block_model([NUM_BLOCK, NUM_BLOCK], P_INTRA, P_INTER, seed=SEED)
    graph.set_edge_probabilities(EDGE_PROB)
    return graph


def _event_stream(graph, rng):
    """Deterministic 100-event mix of probability moves and insertions."""
    arcs = []
    seen = set()
    for u, v, _ in graph.edges():
        if (u, v) in seen or (v, u) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v))
    moved = rng.choice(len(arcs), size=SET_PROBABILITY_EVENTS, replace=False)
    events = [
        ("set_probability", *arcs[i], float(rng.uniform(0.0, 2 * EDGE_PROB)))
        for i in moved
    ]
    for _ in range(NUM_EVENTS - SET_PROBABILITY_EVENTS):
        u, v = rng.integers(0, graph.num_nodes, size=2)
        events.append(("add_edge", int(u), int(v), EDGE_PROB))
    rng.shuffle(events)
    return events


def _index_consistent(objective) -> bool:
    collection = objective.collection
    indptr, indices, _ = invert_csr(
        collection.set_indptr, collection.set_indices, collection.num_nodes
    )
    return bool(
        np.array_equal(collection._mem_indptr, indptr)
        and np.array_equal(collection._mem_indices, indices)
    )


def _measure() -> dict:
    graph = _instance()
    objective = InfluenceObjective.from_graph(graph, NUM_RR_SAMPLES, seed=SEED)

    # -- full-resample reference (the pre-repair maintenance policy) ----
    full_times = []
    for i in range(FULL_RESAMPLE_MEASUREMENTS):
        start = time.perf_counter()
        InfluenceObjective.from_graph(graph, NUM_RR_SAMPLES, seed=SEED + 1 + i)
        full_times.append(time.perf_counter() - start)
    full_mean_s = float(np.mean(full_times))

    # -- repair over the event stream -----------------------------------
    events = _event_stream(graph, np.random.default_rng(SEED + 100))
    repair_times = []
    ratios = []
    sets_repaired = 0
    full_resample_events = 0
    for action, u, v, probability in events:
        if action == "add_edge":
            graph.add_edge(u, v, probability=probability)
        else:
            graph.set_arc_probability(u, v, probability)
        start = time.perf_counter()
        result = objective.refresh()
        repair_times.append(time.perf_counter() - start)
        ratios.append(result.repair_ratio)
        sets_repaired += result.sets_repaired
        full_resample_events += int(result.full_resample)

    repair_mean_s = float(np.mean(repair_times))
    return {
        "bench": "dynamic_repair",
        "seed": SEED,
        "speedup_gate": True,
        "min_speedup": MIN_SPEEDUP,
        "gated_metrics": list(GATED_METRICS),
        "instance": {
            "problem": "dynamic-influence",
            "num_nodes": graph.num_nodes,
            "num_arcs": graph.num_arcs,
            "edge_probability": EDGE_PROB,
            "num_rr_samples": NUM_RR_SAMPLES,
            "num_events": NUM_EVENTS,
            "set_probability_events": SET_PROBABILITY_EVENTS,
            "full_resample_measurements": FULL_RESAMPLE_MEASUREMENTS,
        },
        "full_resample": {
            "mean_wall_time_s": full_mean_s,
            "amortized_stream_s": full_mean_s * NUM_EVENTS,
        },
        "repair": {
            "stream_wall_time_s": float(np.sum(repair_times)),
            "mean_event_wall_time_s": repair_mean_s,
            "amortized_speedup": (
                full_mean_s / repair_mean_s if repair_mean_s > 0 else float("inf")
            ),
            "sets_repaired": int(sets_repaired),
            "sets_total_per_event": NUM_RR_SAMPLES,
            "mean_repair_ratio": float(np.mean(ratios)),
            "max_repair_ratio": float(np.max(ratios)),
            "full_resample_events": int(full_resample_events),
            "index_consistent": _index_consistent(objective),
        },
    }


def _check(payload: dict) -> list[str]:
    failures = []
    repair = payload["repair"]
    if repair["full_resample_events"]:
        failures.append(
            f"{repair['full_resample_events']} events fell back to a full "
            "resample (the mutation log must replay a per-arc stream)"
        )
    if not repair["index_consistent"]:
        failures.append(
            "patched inverted index diverged from a from-scratch rebuild"
        )
    if repair["max_repair_ratio"] >= MAX_EVENT_REPAIR_RATIO:
        failures.append(
            f"repair ratio hit {repair['max_repair_ratio']:.3f} on one "
            f"event (bar: < {MAX_EVENT_REPAIR_RATIO})"
        )
    if repair["amortized_speedup"] < MIN_SPEEDUP:
        failures.append(
            f"amortized speedup {repair['amortized_speedup']:.2f}x below "
            f"{MIN_SPEEDUP}x (full resample "
            f"{payload['full_resample']['mean_wall_time_s']:.3f}s/event vs "
            f"repair {repair['mean_event_wall_time_s']:.3f}s/event)"
        )
    return failures


def _report(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_dynamic_repair.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    inst = payload["instance"]
    repair = payload["repair"]
    lines = [
        f"Dynamic repair vs full resample (SBM n={inst['num_nodes']}, "
        f"arcs={inst['num_arcs']}, {inst['num_rr_samples']} RR sets, "
        f"{inst['num_events']}-event stream)",
        f"  full resample: {payload['full_resample']['mean_wall_time_s']:.3f}"
        "s/event",
        f"  repair:        {repair['mean_event_wall_time_s']:.4f}s/event "
        f"({repair['sets_repaired']} sets across the stream, "
        f"mean ratio {repair['mean_repair_ratio']:.4f}, "
        f"max {repair['max_repair_ratio']:.4f})",
        f"  amortized speedup: {repair['amortized_speedup']:.1f}x "
        f"(index consistent: {repair['index_consistent']})",
        f"  [json written to {json_path}]",
    ]
    record("dynamic_repair", "\n".join(lines))


def bench_dynamic_repair(benchmark) -> None:
    payload = run_once(benchmark, _measure)
    _report(payload)
    failures = _check(payload)
    assert not failures, "; ".join(failures)


def main() -> int:
    payload = _measure()
    _report(payload)
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
