"""Replication statistics for randomized solvers and estimators.

The paper reports single-run numbers; with synthetic substitutes for its
datasets, run-to-run variation matters more here, so the harness offers
seed-replication aggregates:

* :func:`aggregate` — mean / std / min / max over replicate values;
* :func:`bootstrap_ci` — percentile bootstrap confidence interval for
  any statistic (default: the mean) — distribution-free, appropriate
  for the skewed runtimes and spread estimates involved;
* :func:`paired_sign_test` — a quick nonparametric check that one
  algorithm beats another across seeds (used by EXPERIMENTS.md claims
  such as "BSM-Saturate dominates BSM-TSGreedy on f(S)").

:func:`percentile` is the one latency quantile of the service, and
:class:`LatencyWindow` its one per-op latency window: the engine and the
TCP front-end each keep one, and the load generator's report uses the
same quantile.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

#: Latency samples retained per op (a sliding window, so a long-lived
#: server reports recent behaviour; the ``count`` field stays cumulative).
LATENCY_WINDOW = 512


@dataclass(frozen=True)
class Aggregate:
    """Summary statistics of one metric over replicates."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} ± {self.std:.4f} "
            f"[{self.minimum:.4f}, {self.maximum:.4f}] (n={self.count})"
        )


def aggregate(values: Sequence[float]) -> Aggregate:
    """Mean/std/min/max of replicate values (std is the sample std).

    A single replicate yields ``std = 0`` rather than NaN so reports
    stay printable when an experiment is run once.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value to aggregate")
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    return Aggregate(
        count=int(data.size),
        mean=float(data.mean()),
        std=std,
        minimum=float(data.min()),
        maximum=float(data.max()),
    )


def percentile(
    samples: Iterable[float], q: float, *, presorted: bool = False
) -> float:
    """Nearest-rank percentile (``q`` in ``[0, 1]``); 0.0 when empty.

    The sample at 1-based rank ``ceil(n * q)`` of the sorted samples —
    what ``numpy.quantile(samples, q, method="inverted_cdf")`` returns.
    The median of three samples is the middle one, and any ``q > 1 -
    1/n`` reports the maximum. ``presorted=True`` promises a list
    already in ascending order, so several quantiles of one window
    share one sort.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = samples if presorted else sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q)))
    return ordered[rank - 1]


class LatencyWindow:
    """Per-op latency: cumulative counts plus a sliding sample window."""

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        self._window = window
        self._counts: dict[str, int] = {}
        self._samples: dict[str, deque] = {}

    def record(self, op: str, seconds: float) -> None:
        self._counts[op] = self._counts.get(op, 0) + 1
        samples = self._samples.get(op)
        if samples is None:
            samples = self._samples[op] = deque(maxlen=self._window)
        samples.append(seconds)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-op ``{count, mean, p50, p99}``.

        ``count`` is cumulative; ``mean`` and the nearest-rank quantiles
        (seconds) cover the last ``window`` samples of the op, sorted
        once per op.
        """
        out = {}
        for op, samples in self._samples.items():
            ordered = sorted(samples)
            out[op] = {
                "count": self._counts[op],
                "mean": sum(samples) / len(samples),
                "p50": percentile(ordered, 0.50, presorted=True),
                "p99": percentile(ordered, 0.99, presorted=True),
            }
        return out


def bootstrap_ci(
    values: Sequence[float],
    *,
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: SeedLike = None,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for ``statistic``.

    Returns ``(low, high)``. With a single value the interval collapses
    to that value (nothing to resample).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    check_positive_int(resamples, "resamples")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value for a bootstrap CI")
    if data.size == 1:
        only = float(data[0])
        return only, only
    rng = as_generator(seed)
    stats = np.empty(resamples, dtype=float)
    for b in range(resamples):
        sample = data[rng.integers(0, data.size, size=data.size)]
        stats[b] = float(statistic(sample))
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )


def paired_sign_test(
    first: Sequence[float],
    second: Sequence[float],
    *,
    atol: float = 1e-12,
) -> float:
    """One-sided sign-test p-value for "first > second" across pairs.

    Ties (|difference| <= atol) are dropped, per the standard sign test.
    Small p supports the claim that ``first`` systematically exceeds
    ``second``. Exact binomial tail — no normal approximation — since
    replicate counts here are small (5-20 seeds).
    """
    a = np.asarray(list(first), dtype=float)
    b = np.asarray(list(second), dtype=float)
    if a.shape != b.shape:
        raise ValueError(
            f"paired samples must have equal length, got {a.size} vs {b.size}"
        )
    diffs = a - b
    informative = np.abs(diffs) > atol
    n = int(informative.sum())
    if n == 0:
        return 1.0
    wins = int((diffs[informative] > 0).sum())
    # P[X >= wins] for X ~ Binomial(n, 1/2).
    tail = sum(math.comb(n, j) for j in range(wins, n + 1)) / 2.0**n
    return float(tail)


def replicate(
    runner: Callable[[int], float],
    seeds: Sequence[int],
) -> list[float]:
    """Run ``runner(seed)`` for every seed and collect the metric values.

    Thin helper that keeps harness call-sites declarative::

        values = replicate(lambda s: solve(data, seed=s).utility, range(5))
    """
    if not seeds:
        raise ValueError("need at least one seed")
    return [float(runner(int(seed))) for seed in seeds]
