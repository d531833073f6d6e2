"""Tests for the bench regression gate's wall-time bounds."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(solve_s, bound=None, speedup=2.0, gate_on=True):
    payload = {
        "speedup_gate": gate_on,
        "gated_metrics": ["oocore.footprint_speedup", "oocore.solve_wall_time_s"],
        "oocore": {"footprint_speedup": speedup, "solve_wall_time_s": solve_s},
    }
    if bound is not None:
        payload["wall_time_bounds"] = {"oocore.solve_wall_time_s": bound}
    return payload


def _run(gate, tmp_path, baseline, fresh):
    (tmp_path / "base").mkdir()
    (tmp_path / "fresh").mkdir()
    (tmp_path / "base" / "BENCH_x.json").write_text(json.dumps(baseline))
    (tmp_path / "fresh" / "BENCH_x.json").write_text(json.dumps(fresh))
    return gate.main([
        "--baselines", str(tmp_path / "base"),
        "--results", str(tmp_path / "fresh"),
    ])


def test_wall_time_under_bound_passes(gate, tmp_path):
    assert _run(gate, tmp_path, _payload(2.7, 10.0), _payload(4.0, 10.0)) == 0


def test_wall_time_over_bound_fails(gate, tmp_path, capsys):
    assert _run(gate, tmp_path, _payload(2.7, 10.0), _payload(93.6, 10.0)) == 1
    assert "over its 10.00s bound" in capsys.readouterr().out


def test_bench_cannot_loosen_the_baseline_bound(gate, tmp_path):
    assert _run(gate, tmp_path, _payload(2.7, 10.0), _payload(12.0, 50.0)) == 1


def test_bound_holds_with_the_speedup_gate_off(gate, tmp_path):
    fresh = _payload(93.6, 10.0, gate_on=False)
    assert _run(gate, tmp_path, _payload(2.7, 10.0), fresh) == 1


def test_missing_bounded_metric_fails(gate, tmp_path, capsys):
    fresh = _payload(2.0, 10.0)
    del fresh["oocore"]["solve_wall_time_s"]
    assert _run(gate, tmp_path, _payload(2.7, 10.0), fresh) == 1
    assert "missing from fresh run" in capsys.readouterr().out


def test_speedup_gate_still_applies(gate, tmp_path):
    fresh = _payload(2.0, 10.0, speedup=1.0)
    assert _run(gate, tmp_path, _payload(2.7, 10.0, speedup=2.0), fresh) == 1
