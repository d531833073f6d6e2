"""Macro-bench — out-of-core influence maximisation under a memory budget.

End-to-end proof of the storage tier: a synthetic n = 1,000,000-node
directed graph (out-degree 3, sub-critical cascade probabilities) is
written to the binary RCSR format, then a **child process** memory-maps
it, streams 1.8 million RR sets into byte-budgeted memory-mapped
segments, and solves lazy greedy at k = 50 — while its peak resident
set size is required to stay under :data:`MEMORY_BUDGET`, which is
itself required to be at most half the analytic footprint the flat
in-RAM path would pin for the same state.

The budgeted phase runs in a child process because ``ru_maxrss`` is a
process-lifetime high-water mark: the parent's graph *generation*
(dense numpy arrays, ~120 MB) must not pollute the measurement of the
solve. The parent only generates arrays, writes the RCSR file and
checks the child's JSON report.

Correctness at this scale is not re-derived here (the segmented path's
bitwise identity to the flat path is pinned by ``tests/test_oocore.py``
on the CLI datasets); the bench checks scale claims instead —
node/sample floors, the budget-vs-flat-footprint ratio, the RSS
ceiling — and gates ``oocore.footprint_speedup`` (flat bytes over
measured peak RSS) against the committed baseline and
``oocore.solve_wall_time_s`` against :data:`SOLVE_WALL_TIME_BOUND_S`.

Emits ``benchmarks/results/BENCH_oocore.json``. Run standalone
(``PYTHONPATH=src python benchmarks/bench_oocore.py``) or through
pytest-benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_oocore.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks._common import RESULTS_DIR, SEED, record, run_once

NUM_NODES = 1_000_000
OUT_DEGREE = 3
#: Transpose branching factor = in-degree (3 on average) x probability
#: = 0.93: sub-critical, mean RR-set size ~ 1 / (1 - 0.93) ~ 14.
EDGE_PROB = 0.31
NUM_RR_SAMPLES = 1_800_000
K = 50
NUM_GROUPS = 2

#: Resident-byte budget of the child's solve. The flat in-RAM footprint
#: of the same state is ~560 MB (checked analytically per run), so the
#: budget sits well under the required 0.5x bar.
MEMORY_BUDGET = 256 * 1024 * 1024
#: The budget is a hard ceiling for the child's peak RSS (tolerance 1.0
#: — "solves under the budget" is the claim, not "close to it").
RSS_TOLERANCE = 1.0
#: Floors behind the scale claim.
MIN_NODES = 1_000_000
MIN_RR_SAMPLES = 200_000
#: flat footprint / budget must be at least this.
MIN_FOOTPRINT_RATIO = 2.0

#: Ceiling on the k = 50 greedy solve over the segmented RR store.
#: It took 2.7 s on a 2-vCPU box (93.6 s before the block-lazy greedy
#: loop); the bound leaves room for slower machines and still fails a
#: return to per-item scoring.
SOLVE_WALL_TIME_BOUND_S = 10.0

GATED_METRICS = ("oocore.footprint_speedup", "oocore.solve_wall_time_s")


def _generate_rcsr(path: Path) -> dict:
    """Write the synthetic graph as an RCSR file; return its shape."""
    from repro.graphs.io import write_csr_arrays
    from repro.utils.csr import invert_csr

    rng = np.random.default_rng(SEED)
    n = NUM_NODES
    # Every node gets OUT_DEGREE arcs to uniform non-self targets, so the
    # forward CSR needs no sort: sources arrive already grouped.
    fwd_indptr = np.arange(n + 1, dtype=np.int64) * OUT_DEGREE
    src = np.repeat(np.arange(n, dtype=np.int64), OUT_DEGREE)
    offsets = rng.integers(1, n, size=n * OUT_DEGREE, dtype=np.int64)
    fwd_indices = (src + offsets) % n
    fwd_probs = np.full(n * OUT_DEGREE, EDGE_PROB, dtype=np.float64)
    t_indptr, t_indices, order = invert_csr(fwd_indptr, fwd_indices, n)
    t_probs = fwd_probs[order]
    groups = (np.arange(n, dtype=np.int64) % NUM_GROUPS).astype(np.int64)
    write_csr_arrays(
        path,
        num_nodes=n,
        forward=(fwd_indptr, fwd_indices, fwd_probs),
        transpose=(t_indptr, t_indices, t_probs),
        directed=True,
        num_input_edges=n * OUT_DEGREE,
        groups=groups,
    )
    return {
        "num_nodes": n,
        "num_arcs": int(n * OUT_DEGREE),
        "edge_probability": EDGE_PROB,
        "rcsr_bytes": path.stat().st_size,
    }


def _flat_footprint_bytes(num_sets: int, total_entries: int) -> int:
    """Bytes the ram-store path would hold resident for the same state.

    Graph CSR (both directions: indptr + indices + probabilities), the
    packed RR sets, their inverted index, and both indptr arrays — all
    at the dtypes the flat path allocates (int64 / float64).
    """
    n, m = NUM_NODES, NUM_NODES * OUT_DEGREE
    graph = 2 * ((n + 1) * 8 + m * 8 + m * 8)
    rr_sets = (num_sets + 1) * 8 + total_entries * 8
    inverted = (n + 1) * 8 + total_entries * 8
    return graph + rr_sets + inverted


def _child_solve(rcsr_path: str) -> dict:
    """Budgeted phase: mmap-load, sample segmented, solve greedy k=50.

    The solve takes the default block-lazy loop: round 0 folds the whole
    1M-candidate pool across every segment once, and later rounds
    rescore only the few items whose stale bounds still reach the top.
    """
    from benchmarks._common import peak_rss_bytes
    from repro.core.baselines import greedy_utility
    from repro.graphs.io import read_csr_graph
    from repro.problems.influence import InfluenceObjective

    graph = read_csr_graph(rcsr_path, store="mmap")
    t0 = time.perf_counter()
    objective = InfluenceObjective.from_graph(
        graph,
        NUM_RR_SAMPLES,
        seed=SEED,
        store="mmap",
        memory_budget=MEMORY_BUDGET,
    )
    sample_s = time.perf_counter() - t0
    # Sampling is done with the transpose: drop its resident pages so
    # the greedy phase runs against the RR segments alone.
    graph.release()
    t0 = time.perf_counter()
    result = greedy_utility(objective, K)
    solve_s = time.perf_counter() - t0
    storage = objective.storage_info()
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "num_sets": int(objective.collection.num_sets),
        "total_entries": int(storage["total_entries"]),
        "segments": int(storage["segments"]),
        "segment_bytes": int(storage["segment_bytes"]),
        "resident_bytes": int(storage["resident_bytes"]),
        "on_disk_bytes": int(storage["on_disk_bytes"]),
        "sample_wall_time_s": sample_s,
        "solve_wall_time_s": solve_s,
        "solution_size": int(result.size),
        "solution_head": [int(v) for v in result.solution[:8]],
        "utility": float(result.utility),
        "fairness": float(result.fairness),
    }


def _measure() -> dict:
    with tempfile.TemporaryDirectory(prefix="oocore-") as tmp:
        rcsr_path = Path(tmp) / "graph.rcsr"
        t0 = time.perf_counter()
        instance = _generate_rcsr(rcsr_path)
        generate_s = time.perf_counter() - t0
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(rcsr_path)],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"oocore child failed (rc={proc.returncode}):\n"
                f"{proc.stdout}\n{proc.stderr}"
            )
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    flat_bytes = _flat_footprint_bytes(child["num_sets"], child["total_entries"])
    return {
        "bench": "oocore",
        "seed": SEED,
        "speedup_gate": True,
        "gated_metrics": list(GATED_METRICS),
        "wall_time_bounds": {
            "oocore.solve_wall_time_s": SOLVE_WALL_TIME_BOUND_S,
        },
        "instance": {
            **instance,
            "num_rr_samples": NUM_RR_SAMPLES,
            "k": K,
            "generate_wall_time_s": generate_s,
        },
        "oocore": {
            "memory_budget_bytes": MEMORY_BUDGET,
            "rss_tolerance": RSS_TOLERANCE,
            "flat_footprint_bytes": flat_bytes,
            "footprint_ratio": flat_bytes / MEMORY_BUDGET,
            "footprint_speedup": flat_bytes / child["peak_rss_bytes"],
            **child,
        },
    }


def _check(payload: dict) -> list[str]:
    failures = []
    inst = payload["instance"]
    oo = payload["oocore"]
    if inst["num_nodes"] < MIN_NODES:
        failures.append(f"{inst['num_nodes']} nodes below the {MIN_NODES} floor")
    if oo["num_sets"] < MIN_RR_SAMPLES:
        failures.append(f"{oo['num_sets']} RR sets below the {MIN_RR_SAMPLES} floor")
    if oo["solution_size"] != K:
        failures.append(f"greedy returned {oo['solution_size']} seeds, wanted {K}")
    if oo["footprint_ratio"] < MIN_FOOTPRINT_RATIO:
        failures.append(
            f"budget is only {oo['footprint_ratio']:.2f}x under the flat "
            f"footprint (bar: >= {MIN_FOOTPRINT_RATIO}x — "
            f"flat {oo['flat_footprint_bytes'] / 2**20:.0f} MiB vs budget "
            f"{oo['memory_budget_bytes'] / 2**20:.0f} MiB)"
        )
    rss_ceiling = oo["memory_budget_bytes"] * RSS_TOLERANCE
    if oo["peak_rss_bytes"] > rss_ceiling:
        failures.append(
            f"peak RSS {oo['peak_rss_bytes'] / 2**20:.0f} MiB exceeded the "
            f"budget ceiling {rss_ceiling / 2**20:.0f} MiB"
        )
    if oo["segments"] < 2:
        failures.append(
            f"{oo['segments']} segment(s) — the out-of-core path was not "
            "actually exercised"
        )
    return failures


def _report(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_oocore.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    inst = payload["instance"]
    oo = payload["oocore"]
    lines = [
        f"Out-of-core influence maximisation "
        f"(n={inst['num_nodes']:,}, arcs={inst['num_arcs']:,}, "
        f"{oo['num_sets']:,} RR sets / {oo['total_entries']:,} entries, "
        f"k={inst['k']})",
        f"  flat footprint: {oo['flat_footprint_bytes'] / 2**20:.0f} MiB; "
        f"budget: {oo['memory_budget_bytes'] / 2**20:.0f} MiB "
        f"({oo['footprint_ratio']:.2f}x under)",
        f"  peak RSS: {oo['peak_rss_bytes'] / 2**20:.0f} MiB "
        f"({oo['footprint_speedup']:.2f}x below flat) across "
        f"{oo['segments']} segments of "
        f"{oo['segment_bytes'] / 2**20:.0f} MiB "
        f"({oo['on_disk_bytes'] / 2**20:.0f} MiB on disk)",
        f"  sample: {oo['sample_wall_time_s']:.1f}s  "
        f"solve: {oo['solve_wall_time_s']:.1f}s  "
        f"f(S)={oo['utility']:.5f}  g(S)={oo['fairness']:.5f}",
        f"  [json written to {json_path}]",
    ]
    record("oocore", "\n".join(lines))


def bench_oocore(benchmark) -> None:
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
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        print(json.dumps(_child_solve(sys.argv[2])))
        raise SystemExit(0)
    raise SystemExit(main())
