"""Probabilistic-coverage recommendation as a grouped objective.

The introduction's third motivating application is *recommendation*
[Parambath et al. 2018; Serbos et al. 2017]. The standard submodular
formulation scores a slate ``S`` of items for user ``u`` by the
probability that at least one item is relevant:

    f_u(S) = 1 - prod_{v in S} (1 - p_uv)

with per-user-item relevance probabilities ``p_uv in [0, 1]``. The
function is normalised, monotone and submodular (probabilistic
coverage); grouped over user demographics it gives a BSM instance —
build one shared slate (e.g. a front-page carousel) that serves the
whole population while no demographic group is starved of relevant
content.

:func:`latent_relevance` synthesises a relevance matrix from latent
user/item factors the way matrix-factorisation recommenders do, so the
examples and tests run without a real interaction log.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.functions import GroupedObjective, partition_sizes
from repro.errors import GroupPartitionError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


def latent_relevance(
    num_users: int,
    num_items: int,
    *,
    dim: int = 8,
    group_labels: Sequence[int] | None = None,
    affinity: float = 0.35,
    seed: SeedLike = None,
) -> np.ndarray:
    """Relevance probabilities from random latent factors.

    Users and items get unit-norm latent vectors; relevance is the
    clipped, rescaled cosine ``p_uv = affinity * max(0, <x_u, y_v>)``.
    When ``group_labels`` is given, each group receives a shared bias
    vector so that item relevance is *correlated within groups* — the
    regime where utility-only slates starve minority groups and BSM has
    something to balance.
    """
    check_positive_int(num_users, "num_users")
    check_positive_int(num_items, "num_items")
    check_positive_int(dim, "dim")
    if not 0.0 < affinity <= 1.0:
        raise ValueError(f"affinity must be in (0, 1], got {affinity}")
    rng = as_generator(seed)
    users = rng.normal(size=(num_users, dim))
    if group_labels is not None:
        labels = np.asarray(group_labels, dtype=np.int64)
        if labels.shape != (num_users,):
            raise GroupPartitionError(
                f"group_labels must have length {num_users}, got {labels.shape}"
            )
        anchors = rng.normal(size=(int(labels.max()) + 1, dim)) * 2.0
        users = users + anchors[labels]
    users /= np.linalg.norm(users, axis=1, keepdims=True)
    items = rng.normal(size=(num_items, dim))
    items /= np.linalg.norm(items, axis=1, keepdims=True)
    return affinity * np.maximum(users @ items.T, 0.0)


class _SlatePayload:
    """Per-user probability that *no* selected item is relevant."""

    __slots__ = ("miss",)

    def __init__(self, num_users: int) -> None:
        self.miss = np.ones(num_users, dtype=float)

    def copy(self) -> "_SlatePayload":
        fresh = _SlatePayload(self.miss.size)
        fresh.miss = self.miss.copy()
        return fresh


class RecommendationObjective(GroupedObjective):
    """Grouped probabilistic-coverage oracle over a relevance matrix.

    Parameters
    ----------
    relevance:
        Matrix of shape ``(m, n)`` with entries in ``[0, 1]``;
        ``relevance[u, v]`` is the probability item ``v`` satisfies
        user ``u``.
    user_groups:
        Group label in ``[0, c)`` per user.
    """

    def __init__(
        self,
        relevance: np.ndarray,
        user_groups: Sequence[int],
    ) -> None:
        matrix = np.asarray(relevance, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(
                f"relevance must be 2-d, got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("relevance must be finite (no NaN/inf)")
        if np.any(matrix < 0.0) or np.any(matrix > 1.0):
            raise ValueError("relevance entries must lie in [0, 1]")
        labels = np.asarray(user_groups, dtype=np.int64)
        super().__init__(matrix.shape[1], partition_sizes(labels, matrix.shape[0]))
        # Item-major copy (one contiguous row of user probabilities per
        # item), so the oracles gather whole rows.
        self._relevance_t = np.ascontiguousarray(matrix.T)
        self._relevance_t.setflags(write=False)
        self._labels = labels

    @property
    def relevance(self) -> np.ndarray:
        """The ``(m, n)`` relevance matrix (a read-only view)."""
        return self._relevance_t.T

    @property
    def user_groups(self) -> np.ndarray:
        return self._labels

    def hit_probabilities(self, items: Sequence[int]) -> np.ndarray:
        """Per-user ``f_u(S)`` for an arbitrary slate (no caching)."""
        slate = np.asarray(list(items), dtype=np.int64)
        if slate.size == 0:
            return np.zeros(self.num_users)
        return 1.0 - np.prod(1.0 - self.relevance[:, slate], axis=1)

    # -- GroupedObjective hooks ------------------------------------------
    def _new_payload(self) -> _SlatePayload:
        return _SlatePayload(self.num_users)

    def _copy_payload(self, payload: _SlatePayload) -> _SlatePayload:
        return payload.copy()

    def _gains(self, payload: _SlatePayload, item: int) -> np.ndarray:
        # Adding v multiplies each user's miss probability by (1 - p_uv),
        # so the per-user gain is miss_u * p_uv.
        per_user = payload.miss * self._relevance_t[item]
        totals = np.bincount(
            self._labels, weights=per_user, minlength=self.num_groups
        )
        return totals / self._group_sizes

    def _gains_batch(
        self, payload: _SlatePayload, items: np.ndarray
    ) -> np.ndarray:
        per_user = self._relevance_t[items]
        np.multiply(payload.miss, per_user, out=per_user)
        return self._group_means(per_user, self._labels)

    def _apply(self, payload: _SlatePayload, item: int) -> np.ndarray:
        gains = self._gains(payload, item)
        payload.miss = payload.miss * (1.0 - self._relevance_t[item])
        return gains
