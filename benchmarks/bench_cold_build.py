"""Micro-bench — cold builds of the SBM-based influence datasets.

A cold influence session builds its dataset from scratch: the SBM draw
(``graphs/generators._sbm_edges``), the bulk ``Graph.add_edges``, the
uniform ``set_edge_probabilities`` and both CSR directions the RR
sampler reads. This bench times that build for ``facebook-im-c2`` and
``dblp-im`` over distinct seeds (median and interquartile range) and
records the tracemalloc peak of one build.

Only the peak is gated (:data:`MAX_PEAK_MIB` per dataset): for a fixed
seed it is a deterministic count of the bytes the build holds at once,
where wall time swings with the machine. The SBM draws come in chunks of
``SBM_CHUNK_DOUBLES`` uniforms, so the peak is the built graph plus a
few chunks, not the largest block pair's dense Bernoulli matrix (about
37 MiB for ``dblp-im``).

Emits ``benchmarks/results/BENCH_cold_build.json``. Run standalone
(``PYTHONPATH=src python benchmarks/bench_cold_build.py``) or through
pytest-benchmark.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_cold_build.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks._common import RESULTS_DIR, record, run_once
from repro.datasets.registry import load_dataset
from repro.utils.stats import percentile

DATASETS = ("facebook-im-c2", "dblp-im")
#: Timed builds per dataset, each on its own seed.
REPEATS = 15
#: Seed of the build whose tracemalloc peak is recorded and gated.
PEAK_SEED = 0
#: Most MiB one build may hold at once, per dataset.
MAX_PEAK_MIB = 10.0


def _build(name: str, seed: int) -> None:
    graph = load_dataset(name, seed=seed).graph
    graph.transpose_adjacency()


def _peak_mib(name: str) -> float:
    tracemalloc.start()
    try:
        _build(name, PEAK_SEED)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _measure() -> dict:
    payload: dict = {"repeats": REPEATS, "max_peak_mib": MAX_PEAK_MIB}
    for name in DATASETS:
        _build(name, PEAK_SEED)  # imports and first-call costs
        times = []
        for seed in range(1, REPEATS + 1):
            start = time.perf_counter()
            _build(name, seed)
            times.append((time.perf_counter() - start) * 1e3)
        payload[name] = {
            "build_ms_median": percentile(times, 0.5),
            "build_ms_iqr": percentile(times, 0.75) - percentile(times, 0.25),
            "peak_mib": _peak_mib(name),
        }
    return payload


def _check(payload: dict) -> list[str]:
    return [
        f"{name}: one build peaks at {payload[name]['peak_mib']:.1f} MiB "
        f"> {MAX_PEAK_MIB} MiB"
        for name in DATASETS
        if payload[name]["peak_mib"] > MAX_PEAK_MIB
    ]


def _report(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_cold_build.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    lines = ["Cold influence-dataset builds (SBM draw + Graph + both CSRs)"]
    for name in DATASETS:
        row = payload[name]
        lines.append(
            f"  {name:<16} median {row['build_ms_median']:7.1f} ms  "
            f"IQR {row['build_ms_iqr']:5.1f} ms  "
            f"peak {row['peak_mib']:5.1f} MiB (gate {MAX_PEAK_MIB} MiB)"
        )
    lines.append(f"  [json written to {json_path}]")
    record("cold_build", "\n".join(lines))


def bench_cold_build(benchmark) -> None:
    payload = run_once(benchmark, _measure)
    _report(payload)
    assert not _check(payload), _check(payload)


def main() -> int:
    payload = _measure()
    _report(payload)
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
