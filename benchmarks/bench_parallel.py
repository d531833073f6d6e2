"""Micro-bench — worker pools, execution backends and sampling kernels.

Four measurement groups on one n >= 4096 SBM graph:

* ``kernel_serial`` — the tightened kernel set vs the PR 3 "baseline"
  kernels, both at ``workers=1``. This is a pure single-thread
  algorithmic win, so its >= 1.3x floor is **armed on every machine**
  (``always_gated_metrics`` in the JSON; ``check_regression.py`` honours
  it even when the multicore gate is off).
* ``backend_matrix`` — every (backend, kernel, workers) combination must
  reproduce the serial/baseline reference stream bit for bit. Identity
  is the contract; wall times are recorded for information only.
* ``rr_sampling`` / ``mc_evaluation`` / ``greedi`` — serial
  (``workers=1``) vs a pool of :data:`WORKERS`, as in PR 4. The >= 2x
  scaling gate only makes sense with cores to spare: it is enforced when
  at least :data:`MIN_CPUS_FOR_GATE` CPUs are *available* (affinity
  mask, not machine core count) and otherwise recorded as unenforced
  (``speedup_gate: false``).
* ``pool_reuse`` — warm dispatch on the persistent pool vs a cold
  spawn-then-dispatch (the pool-per-call cost PR 8 removed). Warm must
  be >= :data:`MIN_POOL_REUSE`x cheaper; armed everywhere (spawn cost is
  a property of the OS, not of core count).

Emits ``benchmarks/results/BENCH_parallel.json``. Run standalone
(``PYTHONPATH=src python benchmarks/bench_parallel.py``) or through
pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_parallel.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks._common import RESULTS_DIR, SEED, record, run_once
from repro.core.distributed import greedi
from repro.graphs.generators import stochastic_block_model
from repro.influence.engine import sample_rr_sets_batch
from repro.influence.ic_model import simulate_cascades_batch
from repro.kernels import (
    available_kernels,
    default_kernel_name,
    set_default_kernel,
)
from repro.problems.influence import InfluenceObjective
from repro.utils.parallel import (
    WorkerContext,
    available_cpus,
    fork_available,
    parallel_map,
    resolve_backend,
    set_default_backend,
    shutdown_pools,
)

#: Instance size (the acceptance bar is n >= 4096 nodes). The edge
#: probability keeps cascades sub-critical (branching factor ~ 1.1 at
#: average degree ~ 24) — the paper's IM regime, where samples are
#: plentiful and small-to-medium rather than graph-spanning.
NUM_BLOCK = 2048
P_INTRA = 0.01
P_INTER = 0.002
EDGE_PROB = 0.045
NUM_RR_SAMPLES = 30_000
#: Sample count for the bitwise (backend, kernel, workers) matrix —
#: identity does not need the full timing workload.
NUM_MATRIX_SAMPLES = 8_000
NUM_CASCADES = 12_000
NUM_SEEDS = 10
GREEDI_K = 40
GREEDI_MACHINES = 4
#: GreeDi runs its shards with plain (non-lazy) greedy here: each
#: machine sweeps its full shard every round — the canonical
#: independent-worker workload GreeDi's analysis assumes, and one whose
#: wall-clock is dominated by shard work rather than by shipping the
#: objective to the pool. Solutions are identical either way.
GREEDI_LAZY = False

#: Pool width under test and the wall-clock bar it must clear.
WORKERS = 4
MIN_SPEEDUP = 2.0
#: Cores needed for the multicore speedup gate to be meaningful.
MIN_CPUS_FOR_GATE = 4
#: Single-thread kernel floor — armed on every machine.
MIN_KERNEL_SPEEDUP = 1.3
#: Warm-dispatch floor over cold spawn+dispatch — armed everywhere.
MIN_POOL_REUSE = 5.0
#: Metrics held to MIN_SPEEDUP (the acceptance bar names RR sampling and
#: GreeDi; MC evaluation is memory-bound bincount work and is reported
#: but not gated). check_regression.py reads this list when it falls
#: back to the absolute floor.
GATED_METRICS = ("rr_sampling.speedup", "greedi.speedup")
#: Metrics compared even when the multicore gate is off.
ALWAYS_GATED_METRICS = ("kernel_serial.speedup",)


def _instance():
    graph = stochastic_block_model([NUM_BLOCK, NUM_BLOCK], P_INTRA, P_INTER, seed=SEED)
    graph.set_edge_probabilities(EDGE_PROB)
    return graph


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _sample(transpose, roots, *, workers, backend=None, kernel=None):
    """One timed-workload draw under the given process pins.

    The kernel set and the pool backend are process settings; the pins
    are restored to auto-resolution afterwards.
    """
    set_default_backend(backend)
    set_default_kernel(kernel)
    try:
        return sample_rr_sets_batch(
            transpose, roots, np.random.default_rng(SEED + 1), workers=workers
        )
    finally:
        set_default_backend(None)
        set_default_kernel(None)


def _kernel_serial(transpose, roots) -> dict:
    """Single-thread kernel win: baseline vs the active kernel set."""
    active = default_kernel_name()
    # Warm both paths once (allocator, page faults) before timing, then
    # take the best of three runs per path — the ratio is gated hard, so
    # a stray scheduler hiccup must not fail the bench.
    _sample(transpose, roots[:2_000], workers=1, kernel=active)
    base_pack, base_s = _timed(
        _sample, transpose, roots, workers=1, kernel="baseline"
    )
    kern_pack, kern_s = _timed(
        _sample, transpose, roots, workers=1, kernel=active
    )
    for _ in range(2):
        base_s = min(
            base_s,
            _timed(_sample, transpose, roots, workers=1, kernel="baseline")[1],
        )
        kern_s = min(
            kern_s,
            _timed(_sample, transpose, roots, workers=1, kernel=active)[1],
        )
    identical = bool(
        np.array_equal(base_pack[0], kern_pack[0])
        and np.array_equal(base_pack[1], kern_pack[1])
    )
    return {
        "kernel": active,
        "baseline_wall_time_s": base_s,
        "kernel_wall_time_s": kern_s,
        "speedup": base_s / kern_s if kern_s > 0 else float("inf"),
        "bitwise_identical": identical,
    }


def _backend_matrix(transpose, roots) -> list[dict]:
    """Bitwise identity of every (backend, kernel, workers) combination."""
    reference = _sample(
        transpose, roots, workers=1, backend="serial", kernel="baseline"
    )
    backends = ["serial", "thread"] + (["process"] if fork_available() else [])
    kernels = [k for k in available_kernels()]
    rows = []
    for backend in backends:
        for kernel in kernels:
            for workers in (1, WORKERS):
                pack, wall = _timed(
                    _sample, transpose, roots,
                    workers=workers, backend=backend, kernel=kernel,
                )
                rows.append(
                    {
                        "backend": backend,
                        "kernel": kernel,
                        "workers": workers,
                        "wall_time_s": wall,
                        "bitwise_identical": bool(
                            np.array_equal(reference[0], pack[0])
                            and np.array_equal(reference[1], pack[1])
                        ),
                    }
                )
    return rows


def _reuse_task(ctx: WorkerContext, task):
    lo, hi = task
    return float(ctx.arrays[0][lo:hi].sum())


def _pool_reuse() -> dict:
    """Cold spawn+dispatch vs warm dispatch on the persistent pool."""
    backend = "process" if fork_available() else "thread"
    data = np.arange(10_000, dtype=np.float64)
    tasks = [(i * 1_250, (i + 1) * 1_250) for i in range(8)]

    def dispatch():
        return parallel_map(
            _reuse_task, tasks, workers=WORKERS, backend=backend,
            shared=(data,),
        )

    shutdown_pools()
    expected, cold_s = _timed(dispatch)
    warm_s = min(_timed(dispatch)[1] for _ in range(5))
    shutdown_pools()
    ratio = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "backend": backend,
        "workers": WORKERS,
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm_s * 1e3,
        "cold_over_warm": ratio,
        "min_ratio": MIN_POOL_REUSE,
        "meets_floor": bool(ratio >= MIN_POOL_REUSE),
        "results_consistent": dispatch() == expected,
    }


def _measure() -> dict:
    graph = _instance()
    transpose = graph.transpose_adjacency()
    roots = np.random.default_rng(SEED).integers(
        0, graph.num_nodes, size=NUM_RR_SAMPLES
    )

    # -- single-thread kernel win + identity matrix ------------------------
    kernel_serial = _kernel_serial(transpose, roots)
    matrix = _backend_matrix(transpose, roots[:NUM_MATRIX_SAMPLES])

    # -- RR-set generation (multicore scaling, default backend/kernel) ----
    serial_pack, rr_serial_s = _timed(
        _sample, transpose, roots, workers=1
    )
    pool_pack, rr_pool_s = _timed(
        _sample, transpose, roots, workers=WORKERS
    )
    rr_identical = bool(
        np.array_equal(serial_pack[0], pool_pack[0])
        and np.array_equal(serial_pack[1], pool_pack[1])
    )

    # -- Monte-Carlo cascade evaluation ------------------------------------
    seeds = np.random.default_rng(SEED + 2).choice(
        graph.num_nodes, size=NUM_SEEDS, replace=False
    )
    serial_counts, mc_serial_s = _timed(
        simulate_cascades_batch,
        graph,
        seeds,
        NUM_CASCADES,
        np.random.default_rng(SEED + 3),
        workers=1,
    )
    pool_counts, mc_pool_s = _timed(
        simulate_cascades_batch,
        graph,
        seeds,
        NUM_CASCADES,
        np.random.default_rng(SEED + 3),
        workers=WORKERS,
    )
    mc_identical = bool(np.array_equal(serial_counts, pool_counts))

    # -- GreeDi shard solves -----------------------------------------------
    objective = InfluenceObjective.from_collection(
        _collection_from_pack(graph, serial_pack, roots),
        graph.group_sizes(),
    )
    serial_greedi, gd_serial_s = _timed(
        greedi,
        objective,
        GREEDI_K,
        num_machines=GREEDI_MACHINES,
        seed=SEED,
        lazy=GREEDI_LAZY,
        workers=1,
    )
    pool_greedi, gd_pool_s = _timed(
        greedi,
        objective,
        GREEDI_K,
        num_machines=GREEDI_MACHINES,
        seed=SEED,
        lazy=GREEDI_LAZY,
        workers=WORKERS,
    )
    greedi_identical = bool(
        serial_greedi.solution == pool_greedi.solution
        and serial_greedi.extra["machine_calls"] == pool_greedi.extra["machine_calls"]
    )

    # -- pool spawn amortisation -------------------------------------------
    pool_reuse = _pool_reuse()

    cpus = available_cpus()
    return {
        "bench": "parallel",
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": cpus,
        "speedup_gate": cpus >= MIN_CPUS_FOR_GATE,
        "min_speedup": MIN_SPEEDUP,
        "gated_metrics": list(GATED_METRICS),
        "always_gated_metrics": list(ALWAYS_GATED_METRICS),
        "always_gated_floor": MIN_KERNEL_SPEEDUP,
        "workers": WORKERS,
        "backend": resolve_backend(None),
        "kernel": default_kernel_name(),
        "instance": {
            "problem": "parallel-backend",
            "num_nodes": graph.num_nodes,
            "num_arcs": graph.num_arcs,
            "edge_probability": EDGE_PROB,
            "num_rr_samples": NUM_RR_SAMPLES,
            "num_matrix_samples": NUM_MATRIX_SAMPLES,
            "num_cascades": NUM_CASCADES,
            "num_seeds": NUM_SEEDS,
            "greedi_k": GREEDI_K,
            "greedi_machines": GREEDI_MACHINES,
        },
        "kernel_serial": kernel_serial,
        "backend_matrix": matrix,
        "rr_sampling": {
            "serial_wall_time_s": rr_serial_s,
            "parallel_wall_time_s": rr_pool_s,
            "speedup": rr_serial_s / rr_pool_s if rr_pool_s > 0 else float("inf"),
            "faster_path": "pool" if rr_pool_s < rr_serial_s else "serial",
            "bitwise_identical": rr_identical,
        },
        "mc_evaluation": {
            "serial_wall_time_s": mc_serial_s,
            "parallel_wall_time_s": mc_pool_s,
            "speedup": mc_serial_s / mc_pool_s if mc_pool_s > 0 else float("inf"),
            "faster_path": "pool" if mc_pool_s < mc_serial_s else "serial",
            "bitwise_identical": mc_identical,
        },
        "greedi": {
            "serial_wall_time_s": gd_serial_s,
            "parallel_wall_time_s": gd_pool_s,
            "speedup": gd_serial_s / gd_pool_s if gd_pool_s > 0 else float("inf"),
            "faster_path": "pool" if gd_pool_s < gd_serial_s else "serial",
            "bitwise_identical": greedi_identical,
            "winner": serial_greedi.extra["winner"],
        },
        "pool_reuse": pool_reuse,
    }


def _collection_from_pack(graph, pack, roots):
    from repro.influence.ris import RRCollection

    return RRCollection.from_packed(
        pack[0],
        pack[1],
        graph.groups[roots],
        graph.num_nodes,
        graph.num_groups,
    )


def _check(payload: dict) -> list[str]:
    """Hard failures: divergence always, scaling speedups only when gated."""
    failures = []
    for half in ("rr_sampling", "mc_evaluation", "greedi"):
        if not payload[half]["bitwise_identical"]:
            failures.append(f"{half}: serial and parallel outputs diverged")
    for row in payload["backend_matrix"]:
        if not row["bitwise_identical"]:
            failures.append(
                f"backend_matrix: ({row['backend']}, {row['kernel']}, "
                f"workers={row['workers']}) diverged from the "
                "serial/baseline reference"
            )
    kernel_serial = payload["kernel_serial"]
    if not kernel_serial["bitwise_identical"]:
        failures.append("kernel_serial: optimized kernel diverged")
    if kernel_serial["speedup"] < MIN_KERNEL_SPEEDUP:
        failures.append(
            f"kernel_serial: {kernel_serial['kernel']} at "
            f"{kernel_serial['speedup']:.2f}x below the "
            f"{MIN_KERNEL_SPEEDUP}x single-thread floor"
        )
    reuse = payload["pool_reuse"]
    if not reuse["results_consistent"]:
        failures.append("pool_reuse: warm dispatch returned different results")
    if reuse["cold_over_warm"] < MIN_POOL_REUSE:
        failures.append(
            f"pool_reuse: warm dispatch only {reuse['cold_over_warm']:.1f}x "
            f"cheaper than cold spawn (floor {MIN_POOL_REUSE}x, "
            f"{reuse['backend']} backend)"
        )
    if payload["speedup_gate"]:
        for metric in GATED_METRICS:
            half = metric.split(".")[0]
            stats = payload[half]
            if stats["speedup"] < MIN_SPEEDUP:
                failures.append(
                    f"{half}: speedup {stats['speedup']:.2f}x below "
                    f"{MIN_SPEEDUP}x at {payload['workers']} workers "
                    f"(the {stats['faster_path']} path won: "
                    f"serial {stats['serial_wall_time_s']:.3f}s vs "
                    f"pool {stats['parallel_wall_time_s']:.3f}s)"
                )
    return failures


def _report(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_parallel.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    inst = payload["instance"]
    greedi_label = f"GreeDi (k={inst['greedi_k']}, {inst['greedi_machines']} machines)"
    kernel_serial = payload["kernel_serial"]
    reuse = payload["pool_reuse"]
    matrix_ok = all(row["bitwise_identical"] for row in payload["backend_matrix"])
    lines = [
        f"Worker pools ({payload['backend']} default) vs serial, "
        f"kernel set '{payload['kernel']}' "
        f"(SBM n={inst['num_nodes']}, arcs={inst['num_arcs']}, "
        f"cpus={payload['available_cpus']}, "
        f"multicore gate {'ON' if payload['speedup_gate'] else 'OFF'})",
        f"  kernel_serial ({kernel_serial['kernel']} vs baseline, workers=1):",
        f"    baseline: {kernel_serial['baseline_wall_time_s']:.3f}s",
        f"    kernel:   {kernel_serial['kernel_wall_time_s']:.3f}s",
        f"    speedup:  {kernel_serial['speedup']:.2f}x  "
        f"(floor {MIN_KERNEL_SPEEDUP}x, armed everywhere; bitwise "
        f"identical: {kernel_serial['bitwise_identical']})",
        f"  backend matrix: {len(payload['backend_matrix'])} combinations, "
        f"all bitwise identical: {matrix_ok}",
    ]
    for half, label in (
        ("rr_sampling", f"RR sets ({inst['num_rr_samples']} samples)"),
        ("mc_evaluation", f"MC cascades ({inst['num_cascades']} cascades)"),
        ("greedi", greedi_label),
    ):
        stats = payload[half]
        lines += [
            f"  {label}:",
            f"    serial:   {stats['serial_wall_time_s']:.3f}s",
            f"    parallel: {stats['parallel_wall_time_s']:.3f}s",
            f"    speedup:  {stats['speedup']:.2f}x  "
            f"({stats['faster_path']} path won, "
            f"bitwise identical: {stats['bitwise_identical']})",
        ]
    lines += [
        f"  pool reuse ({reuse['backend']} backend, {reuse['workers']} workers):",
        f"    cold spawn+dispatch: {reuse['cold_ms']:.2f}ms",
        f"    warm dispatch:       {reuse['warm_ms']:.2f}ms",
        f"    ratio:               {reuse['cold_over_warm']:.1f}x "
        f"(floor {MIN_POOL_REUSE}x)",
        f"  [json written to {json_path}]",
    ]
    record("parallel", "\n".join(lines))


def bench_parallel(benchmark) -> None:
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
