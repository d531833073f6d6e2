"""Frozen answers to each workload's warm-up requests.

The timed answers are checked against an in-process engine built from
the same sources, which catches a serving path that garbles answers but
not a solver that changed them. The warm-up requests do not depend on
``--seed``, so their answers are frozen in ``pins.json``: selections
must match exactly and objective values to :data:`REL_TOL` (the
repository promises bitwise identity; the tolerance only forgives a
changed summation order).

Regenerate after a deliberate change of answers, from the repository
root::

    PYTHONPATH=src python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
REL_TOL = 1e-9


def pin_of(answer: dict[str, Any]) -> Optional[dict[str, Any]]:
    """The part of an answer that is frozen (None: nothing to pin)."""
    result = answer.get("result") or {}
    if answer.get("op") == "solve":
        keys = ("solution", "utility", "fairness", "group_values")
    elif answer.get("op") == "evaluate":
        keys = ("utility", "fairness")
    elif answer.get("op") == "update":
        keys = ("solution", "value", "live_items")
    else:
        return None
    return {"ok": answer.get("ok"), **{key: result.get(key) for key in keys}}


def _same(pinned: Any, actual: Any) -> bool:
    if isinstance(pinned, float) and isinstance(actual, (int, float)):
        return math.isclose(pinned, actual, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(pinned, list) and isinstance(actual, list):
        return len(pinned) == len(actual) and all(
            _same(p, a) for p, a in zip(pinned, actual))
    return pinned == actual


def check(workload: str, answers: list[dict[str, Any]]) -> list[str]:
    """One message per warm-up answer that differs from its pin."""
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))[workload]
    if len(pins) != len(answers):
        return [f"{workload}: {len(answers)} warm-up answers, {len(pins)} pins"]
    errors = []
    for index, (pinned, answer) in enumerate(zip(pins, answers)):
        if pinned is not None and not _same(pinned, pin_of(answer)):
            errors.append(f"s:{index}: warm-up answer differs from pins.json")
    return errors


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, engine_answer, reference_engine

    pins = {}
    for name, workload in WORKLOADS.items():
        engine = reference_engine()
        pins[name] = [
            pin_of(engine_answer(engine, payload))
            for payload in workload.setup_requests()
        ]
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
