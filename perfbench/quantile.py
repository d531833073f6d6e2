"""Nearest-rank percentiles for the serving benchmark.

The percentile of ``n`` samples at quantile ``q`` is the sample at
1-based rank ``ceil(n * q)`` of the sorted list, which is what
``numpy.quantile(..., method="inverted_cdf")`` (the percentile method
of the same name) computes; ``test_perfbench_quantile.py`` pins it.
The service's own windows and ``repro.service.loadgen.percentile`` use
rank ``int(n * q) - 1``, one rank low, so they are deliberately not
reused here.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is only reported with at least this many samples
#: strictly above its rank.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``[0, 1]``); 0.0 when empty."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)
