"""Maximum coverage as a grouped submodular objective.

For a universe ``U`` of ``m`` users and a collection ``V`` of ``n`` sets,
``f_u(S) = 1`` iff user ``u`` lies in the union of the sets in ``S``. Then
``f(S)`` is the average coverage of the population and ``g(S)`` the
minimum average coverage over the groups (Section 5.1).

The paper builds the set system from a social graph via the dominating-set
construction: ``S(v) = N_out(v) + {v}``; :meth:`CoverageObjective.from_graph`
implements exactly that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.functions import GroupedObjective
from repro.errors import GroupPartitionError
from repro.graphs.graph import Graph
from repro.kernels import get_kernel
from repro.utils.csr import build_csr


class _CoveragePayload:
    """Bookkeeping: which users the current solution covers."""

    __slots__ = ("covered",)

    def __init__(self, num_users: int) -> None:
        self.covered = np.zeros(num_users, dtype=bool)

    def copy(self) -> "_CoveragePayload":
        fresh = _CoveragePayload(self.covered.size)
        fresh.covered = self.covered.copy()
        return fresh


class CoverageObjective(GroupedObjective):
    """Grouped maximum-coverage oracle.

    Parameters
    ----------
    sets:
        ``sets[j]`` is the array of user ids covered by item ``j``.
    user_groups:
        Group label in ``[0, c)`` for each user.
    """

    def __init__(
        self,
        sets: Sequence[np.ndarray | Sequence[int]],
        user_groups: Sequence[int],
    ) -> None:
        labels = np.asarray(user_groups, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise GroupPartitionError("user_groups must be non-empty and 1-d")
        if labels.min() < 0:
            raise GroupPartitionError("group labels must be non-negative")
        sizes = np.bincount(labels)
        if np.any(sizes == 0):
            raise GroupPartitionError("group labels must be contiguous 0..c-1")
        if not sets:
            raise ValueError("sets must be non-empty")
        self._sets = [np.unique(np.asarray(s, dtype=np.int64)) for s in sets]
        num_users = labels.size
        for j, members in enumerate(self._sets):
            if members.size and (members[0] < 0 or members[-1] >= num_users):
                raise ValueError(
                    f"set {j} references users outside [0, {num_users})"
                )
        super().__init__(len(self._sets), sizes)
        self._labels = labels
        # CSR-style item -> user incidence: set j occupies the slice
        # [_set_indptr[j], _set_indptr[j+1]) of _set_indices. Lets the
        # batch oracle gather whole candidate pools without Python loops.
        self._set_indptr, self._set_indices = build_csr(self._sets)
        # Resolved once: the oracles below run thousands of times a solve.
        self._kernel_set = get_kernel()

    @classmethod
    def from_graph(cls, graph: Graph) -> "CoverageObjective":
        """Dominating-set construction: item ``v`` covers ``N_out(v) + v``."""
        sets = [
            np.asarray(graph.out_neighbors(v) + [v], dtype=np.int64)
            for v in range(graph.num_nodes)
        ]
        return cls(sets, graph.groups)

    @property
    def sets(self) -> list[np.ndarray]:
        """The set system (copies are not made; treat as read-only)."""
        return self._sets

    @property
    def user_groups(self) -> np.ndarray:
        return self._labels

    def coverage_counts(self, items: Sequence[int]) -> np.ndarray:
        """Per-group counts of covered users for an explicit solution."""
        covered = np.zeros(self.num_users, dtype=bool)
        for j in items:
            covered[self._sets[int(j)]] = True
        return np.bincount(
            self._labels[covered], minlength=self.num_groups
        ).astype(float)

    # -- GroupedObjective hooks ------------------------------------------
    def _new_payload(self) -> _CoveragePayload:
        return _CoveragePayload(self.num_users)

    def _copy_payload(self, payload: _CoveragePayload) -> _CoveragePayload:
        return payload.copy()

    def _gains(self, payload: _CoveragePayload, item: int) -> np.ndarray:
        members = self._sets[item]
        counts = self._kernel_set.gains_rescore(
            members, payload.covered, self._labels, self.num_groups
        )
        return counts / self._group_sizes

    def _gains_batch(
        self, payload: _CoveragePayload, items: np.ndarray
    ) -> np.ndarray:
        counts = self._kernel_set.group_counts(
            self._set_indptr,
            self._set_indices,
            items,
            payload.covered,
            self._labels,
            self.num_groups,
        )
        return counts / self._group_sizes

    def _gains_states(
        self, payloads: Sequence[_CoveragePayload], item: int
    ) -> np.ndarray:
        # One arrival vs many solution states: gather the item's member
        # list once, stack the per-state covered flags on those members
        # only ((S, |set|), not (S, m)), and count the fresh entries per
        # (state, group) cell with a single flat bincount.
        members = self._sets[item]
        num_states = len(payloads)
        if members.size == 0 or num_states == 0:
            return np.zeros((num_states, self.num_groups), dtype=float)
        fresh = np.empty((num_states, members.size), dtype=bool)
        for r, payload in enumerate(payloads):
            np.take(payload.covered, members, out=fresh[r])
        np.logical_not(fresh, out=fresh)
        member_labels = self._labels[members]
        bins = (
            np.arange(num_states)[:, None] * self.num_groups
            + member_labels[None, :]
        )
        counts = np.bincount(
            bins[fresh], minlength=num_states * self.num_groups
        ).reshape(num_states, self.num_groups)
        return counts / self._group_sizes

    def _apply(self, payload: _CoveragePayload, item: int) -> np.ndarray:
        gains = self._gains(payload, item)
        payload.covered[self._sets[item]] = True
        return gains
