"""Facility location as a grouped submodular objective.

For users ``U`` (size ``m``), facilities ``V`` (size ``n``) and a
non-negative benefit matrix ``B`` with ``b_uv`` the benefit of facility
``v`` to user ``u``, the per-user utility is ``f_u(S) = max_{v in S}
b_uv`` (Section 5.3). The paper computes benefits two ways:

* k-median: ``b_uv = max(0, d_norm - dist(p_u, p_v))``;
* RBF kernel: ``b_uv = exp(-dist(p_u, p_v))``.

Both helpers are exported; any other non-negative matrix works too.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.functions import GroupedObjective, partition_sizes


def _pairwise_distances(users: np.ndarray, facilities: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape ``(m, n)``."""
    users = np.asarray(users, dtype=float)
    facilities = np.asarray(facilities, dtype=float)
    if users.ndim != 2 or facilities.ndim != 2:
        raise ValueError("points must be 2-d arrays (rows are vectors)")
    if users.shape[1] != facilities.shape[1]:
        raise ValueError(
            f"dimension mismatch: users d={users.shape[1]}, "
            f"facilities d={facilities.shape[1]}"
        )
    sq = (
        np.sum(users**2, axis=1)[:, None]
        + np.sum(facilities**2, axis=1)[None, :]
        - 2.0 * users @ facilities.T
    )
    return np.sqrt(np.maximum(sq, 0.0))


def rbf_benefits(
    user_points: np.ndarray, facility_points: np.ndarray
) -> np.ndarray:
    """RBF-kernel benefits ``b_uv = exp(-dist(p_u, p_v))`` [Lindgren et al.]."""
    return np.exp(-_pairwise_distances(user_points, facility_points))


def kmedian_benefits(
    user_points: np.ndarray,
    facility_points: np.ndarray,
    normalization: Optional[float] = None,
) -> np.ndarray:
    """k-median benefits ``b_uv = max(0, d - dist(p_u, p_v))``.

    ``normalization`` defaults to the maximum pairwise distance so that
    every benefit is non-negative and the closest facility is worth most.
    """
    dist = _pairwise_distances(user_points, facility_points)
    if normalization is None:
        normalization = float(dist.max()) if dist.size else 1.0
    if normalization <= 0:
        raise ValueError(f"normalization must be positive, got {normalization}")
    return np.maximum(0.0, normalization - dist)


class _FacilityPayload:
    """Bookkeeping: each user's best benefit under the current solution."""

    __slots__ = ("best",)

    def __init__(self, num_users: int) -> None:
        self.best = np.zeros(num_users, dtype=float)

    def copy(self) -> "_FacilityPayload":
        fresh = _FacilityPayload(self.best.size)
        fresh.best = self.best.copy()
        return fresh


class FacilityLocationObjective(GroupedObjective):
    """Grouped facility-location oracle over a benefit matrix.

    Parameters
    ----------
    benefits:
        Non-negative matrix of shape ``(m, n)``; column ``v`` holds the
        benefit of facility ``v`` for every user.
    user_groups:
        Group label in ``[0, c)`` for each user.
    """

    def __init__(
        self,
        benefits: np.ndarray,
        user_groups: Sequence[int],
    ) -> None:
        # Own an immutable copy: the batch oracle keeps a transposed
        # view of the matrix, and a caller mutating a shared buffer
        # would silently desynchronize the two.
        matrix = np.array(benefits, dtype=float)
        matrix.setflags(write=False)
        if matrix.ndim != 2:
            raise ValueError(f"benefits must be 2-d, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("benefits must be finite (no NaN/inf)")
        if np.any(matrix < 0):
            raise ValueError("benefits must be non-negative")
        labels = np.asarray(user_groups, dtype=np.int64)
        super().__init__(matrix.shape[1], partition_sizes(labels, matrix.shape[0]))
        self._benefits = matrix
        self._labels = labels
        # Batch-oracle precomputation: a transposed contiguous copy so a
        # candidate pool gathers whole rows (one memcpy each, instead of
        # strided column picks), and a one-hot (m, c) group-membership
        # matrix reducing the multi-state per-user deltas to group sums
        # in a single BLAS matmul.
        self._benefits_t = np.ascontiguousarray(matrix.T)
        self._benefits_t.setflags(write=False)
        onehot = np.zeros((labels.size, self.num_groups), dtype=float)
        onehot[np.arange(labels.size), labels] = 1.0
        self._group_onehot = onehot

    @property
    def benefits(self) -> np.ndarray:
        """The benefit matrix (an immutable copy of the input)."""
        return self._benefits

    @property
    def user_groups(self) -> np.ndarray:
        return self._labels

    # -- GroupedObjective hooks ------------------------------------------
    def _new_payload(self) -> _FacilityPayload:
        return _FacilityPayload(self.num_users)

    def _copy_payload(self, payload: _FacilityPayload) -> _FacilityPayload:
        return payload.copy()

    def _gains(self, payload: _FacilityPayload, item: int) -> np.ndarray:
        delta = np.maximum(0.0, self._benefits[:, item] - payload.best)
        sums = np.bincount(self._labels, weights=delta, minlength=self.num_groups)
        return sums / self._group_sizes

    def _gains_batch(
        self, payload: _FacilityPayload, items: np.ndarray
    ) -> np.ndarray:
        # (N, m) improvement each candidate offers every user (built
        # in place on the row gather), reduced to (N, c) group means in
        # one flat bincount: each row is bitwise the per-item _gains, so
        # it does not depend on which other items share the batch.
        delta = self._benefits_t[items]
        np.subtract(delta, payload.best, out=delta)
        np.maximum(delta, 0.0, out=delta)
        return self._group_means(delta, self._labels)

    def _gains_states(
        self, payloads: Sequence[_FacilityPayload], item: int
    ) -> np.ndarray:
        # One facility vs many solution states: stack the per-state
        # per-user bests into an (S, m) matrix, subtract them from the
        # facility's (contiguous) benefit row in one pass, and reduce to
        # (S, c) group sums with one matmul. BLAS orders the sums its own
        # way, so rows match _gains to the last ulp; unlike the pool
        # batch, no table reuses them.
        if not payloads:
            return np.zeros((0, self.num_groups), dtype=float)
        # Row-assignment fill (one memcpy per state) beats np.stack's
        # per-call shape analysis on the ~log-many states of the online
        # solvers' per-arrival hot path.
        delta = np.empty((len(payloads), self.num_users), dtype=float)
        for r, payload in enumerate(payloads):
            delta[r] = payload.best
        np.subtract(self._benefits_t[item][None, :], delta, out=delta)
        np.maximum(delta, 0.0, out=delta)
        return (delta @ self._group_onehot) / self._group_sizes

    def _apply(self, payload: _FacilityPayload, item: int) -> np.ndarray:
        gains = self._gains(payload, item)
        np.maximum(payload.best, self._benefits[:, item], out=payload.best)
        return gains
