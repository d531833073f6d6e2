"""Pin the benchmark's percentile helper against NumPy's inverted CDF.

``numpy.quantile`` takes the quantile as a fraction, so it sees the
same ``q`` the helper does; ``numpy.percentile`` rescales ``q * 100``
back by 100, which moves a few float boundaries (``1000 * 0.999``).

Runs under pytest or standalone (``python3 perfbench/test_perfbench_quantile.py``).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quantile import percentile  # noqa: E402

QUANTILES = (0.0, 0.01, 0.07, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)


def test_matches_numpy_inverted_cdf() -> None:
    rng = random.Random(7)
    for n in list(range(1, 130)) + [500, 999, 1000, 1001, 2500]:
        samples = [rng.random() for _ in range(n)]
        for q in QUANTILES:
            expected = float(
                np.quantile(samples, q, method="inverted_cdf")
            )
            assert percentile(samples, q) == expected, (n, q)


def test_small_windows_are_not_one_rank_low() -> None:
    # The int(n*q)-1 rank reports the minimum as the median of three
    # and never reaches the maximum below 100 samples.
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile(list(range(50)), 0.99) == 49


if __name__ == "__main__":
    test_matches_numpy_inverted_cdf()
    test_small_windows_are_not_one_rank_low()
    print("ok")
