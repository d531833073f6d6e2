"""Exemplar-based data summarization as a grouped submodular objective.

The paper's introduction motivates submodular maximisation with *data
summarization* [Badanidiyuru et al. 2014; Lindgren et al. 2016]; this
module adds that fourth application domain on top of the three
evaluated ones. The standard exemplar (k-medoid) formulation measures
how much a summary ``S`` reduces each user's representation loss
relative to a phantom exemplar ``v_0``:

    f_u(S) = d(p_u, v_0) - min_{v in S + v_0} d(p_u, p_v)

which is normalised (``f_u(∅) = 0``), monotone, and submodular — the
"loss reduction" trick of Krause & Golovin (2014). Grouped, it yields a
BSM instance: summarise a corpus so that *every* demographic group finds
its content well represented, not just the majority.

The phantom exemplar defaults to the corpus centroid pushed to twice the
data radius, guaranteeing strictly positive loss reduction for any
actual exemplar choice.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.functions import GroupedObjective, partition_sizes


def _distances(points: np.ndarray, exemplars: np.ndarray) -> np.ndarray:
    sq = (
        np.sum(points**2, axis=1)[:, None]
        + np.sum(exemplars**2, axis=1)[None, :]
        - 2.0 * points @ exemplars.T
    )
    return np.sqrt(np.maximum(sq, 0.0))


class _SummaryPayload:
    """Per-user minimum distance to the current summary (or phantom)."""

    __slots__ = ("best",)

    def __init__(self, phantom: np.ndarray) -> None:
        self.best = phantom.copy()

    def copy(self) -> "_SummaryPayload":
        fresh = _SummaryPayload(self.best)
        return fresh


class SummarizationObjective(GroupedObjective):
    """Grouped exemplar summarization over a point cloud.

    Parameters
    ----------
    points:
        Data matrix, one row per user record; rows double as candidate
        exemplars unless ``exemplars`` narrows the pool.
    user_groups:
        Group label in ``[0, c)`` per record.
    exemplars:
        Optional indices of rows eligible as summary items (defaults to
        all records). Items are indexed *within this pool*.
    phantom_scale:
        Distance of the phantom exemplar from the centroid, as a
        multiple of the data radius (must keep the phantom no closer
        than any candidate for monotonicity; 2.0 is comfortably safe).
    """

    def __init__(
        self,
        points: np.ndarray,
        user_groups: Sequence[int],
        *,
        exemplars: Optional[Sequence[int]] = None,
        phantom_scale: float = 2.0,
    ) -> None:
        data = np.asarray(points, dtype=float)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(
                f"points must be a non-empty 2-d array, got shape {data.shape}"
            )
        labels = np.asarray(user_groups, dtype=np.int64)
        sizes = partition_sizes(labels, data.shape[0])
        if phantom_scale < 1.0:
            raise ValueError(
                f"phantom_scale must be >= 1 for monotone loss reduction, "
                f"got {phantom_scale}"
            )
        pool = (
            np.arange(data.shape[0], dtype=np.int64)
            if exemplars is None
            else np.asarray(sorted(set(int(e) for e in exemplars)), dtype=np.int64)
        )
        if pool.size == 0:
            raise ValueError("exemplar pool must be non-empty")
        if pool.min() < 0 or pool.max() >= data.shape[0]:
            raise IndexError("exemplar indices out of range")
        super().__init__(int(pool.size), sizes)
        centroid = data.mean(axis=0)
        radius = float(np.linalg.norm(data - centroid, axis=1).max())
        direction = np.zeros(data.shape[1])
        direction[0] = 1.0
        phantom_point = centroid + phantom_scale * max(radius, 1.0) * direction
        self._phantom = np.linalg.norm(data - phantom_point, axis=1)
        # Item-major (one contiguous row of user distances per item), so
        # the oracles gather whole rows. Computed (users, items) and then
        # transposed: the (items, users) matmul may round differently.
        self._dist_t = np.ascontiguousarray(_distances(data, data[pool]).T)
        self._labels = labels
        self._pool = pool
        self._points = data

    @property
    def exemplar_pool(self) -> np.ndarray:
        """Record index of each item (item ``j`` = record ``pool[j]``)."""
        return self._pool

    @property
    def user_groups(self) -> np.ndarray:
        return self._labels

    def as_facility(self) -> "FacilityLocationObjective":
        """The equivalent facility-location objective.

        ``f_u(S) = phantom_u - min(phantom_u, min_{v in S} d(u, v))``
        rewrites as ``max_{v in S} max(0, phantom_u - d(u, v))`` — a
        max-benefit objective with matrix ``b_uj = (phantom_u -
        d(u, pool_j))^+``. Item indices coincide, so the paper's
        Appendix-A facility ILPs (and hence BSM-Optimal) apply to
        summarization instances verbatim.
        """
        from repro.problems.facility import FacilityLocationObjective

        benefits = np.maximum(self._phantom[:, None] - self._dist_t.T, 0.0)
        return FacilityLocationObjective(benefits, self._labels)

    def loss(self, items: Sequence[int]) -> float:
        """Average k-medoid loss of a summary (what ``f`` reduces)."""
        if len(list(items)) == 0:
            return float(self._phantom.mean())
        rows = self._dist_t[np.asarray(list(items), dtype=np.int64)]
        best = np.minimum(rows.min(axis=0), self._phantom)
        return float(best.mean())

    # -- GroupedObjective hooks ------------------------------------------
    def _new_payload(self) -> _SummaryPayload:
        return _SummaryPayload(self._phantom)

    def _copy_payload(self, payload: _SummaryPayload) -> _SummaryPayload:
        return payload.copy()

    def _gains(self, payload: _SummaryPayload, item: int) -> np.ndarray:
        improved = np.maximum(payload.best - self._dist_t[item], 0.0)
        totals = np.bincount(
            self._labels, weights=improved, minlength=self.num_groups
        )
        return totals / self._group_sizes

    def _gains_batch(
        self, payload: _SummaryPayload, items: np.ndarray
    ) -> np.ndarray:
        # (N, m) improvements, built in place on the row gather.
        improved = self._dist_t[items]
        np.subtract(payload.best, improved, out=improved)
        np.maximum(improved, 0.0, out=improved)
        return self._group_means(improved, self._labels)

    def _apply(self, payload: _SummaryPayload, item: int) -> np.ndarray:
        gains = self._gains(payload, item)
        payload.best = np.minimum(payload.best, self._dist_t[item])
        return gains
