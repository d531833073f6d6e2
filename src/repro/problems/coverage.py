"""Maximum coverage as a grouped submodular objective.

For a universe ``U`` of ``m`` users and a collection ``V`` of ``n`` sets,
``f_u(S) = 1`` iff user ``u`` lies in the union of the sets in ``S``. Then
``f(S)`` is the average coverage of the population and ``g(S)`` the
minimum average coverage over the groups (Section 5.1).

The paper builds the set system from a social graph via the dominating-set
construction: ``S(v) = N_out(v) + {v}``; :meth:`CoverageObjective.from_graph`
implements exactly that.

Influence maximization is the same objective over another incidence:
RIS estimates ``f_i(S)`` as the fraction of group-``i`` RR sets that
``S`` covers (:mod:`repro.problems.influence`). Both domains therefore
share :class:`CoveredElementsObjective`, whose payload is one boolean
covered-element mask and whose gains are per-group counts of fresh
elements, taken through the kernel set resolved when it is built.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.functions import GroupedObjective, partition_sizes
from repro.graphs.graph import Graph
from repro.kernels import get_kernel
from repro.utils.csr import build_csr


class CoveredElementsObjective(GroupedObjective):
    """Grouped oracle counting the labelled elements a solution covers.

    ``f_i(S)`` is the number of group-``i`` elements covered by some item
    of ``S``, divided by ``denominators[i]``. The payload is the boolean
    covered-element mask; every gain is an integer count through the
    same kernel call on the same arrays, whatever the incidence.

    ``incidence`` answers ``member_ids(item)`` (the sorted ids of the
    elements ``item`` covers) and ``fold_group_counts(items, covered)``
    (the ``(len(items), c)`` int64 counts, per element group, of each
    item's elements that the ``covered`` mask does not flag).
    """

    def __init__(
        self,
        num_items: int,
        group_sizes: Sequence[int],
        incidence: Any,
        labels: np.ndarray,
        denominators: np.ndarray,
    ) -> None:
        super().__init__(num_items, group_sizes)
        # Resolved once: the oracles below run thousands of times a solve.
        self._kernel_set = get_kernel()
        self._bind_incidence(incidence, labels, denominators)

    def _bind_incidence(
        self, incidence: Any, labels: np.ndarray, denominators: np.ndarray
    ) -> None:
        """Read gains from ``incidence``, whose element ``e`` is in group
        ``labels[e]``."""
        self._incidence = incidence
        # Bound once, so the single-item path is one call per lookup.
        self._member_ids = incidence.member_ids
        self._labels = labels
        self._denominators = denominators

    # -- GroupedObjective hooks ------------------------------------------
    def _new_payload(self) -> np.ndarray:
        return np.zeros(self._labels.size, dtype=bool)

    def _copy_payload(self, payload: np.ndarray) -> np.ndarray:
        return payload.copy()

    def _gains(self, payload: np.ndarray, item: int) -> np.ndarray:
        counts = self._kernel_set.gains_rescore(
            self._member_ids(item), payload, self._labels, self.num_groups
        )
        return counts / self._denominators

    def _gains_batch(self, payload: np.ndarray, items: np.ndarray) -> np.ndarray:
        return self._incidence.fold_group_counts(items, payload) / self._denominators

    def _gains_states(
        self, payloads: Sequence[np.ndarray], item: int
    ) -> np.ndarray:
        # One item vs many solution states: gather the item's element
        # ids once, stack the per-state covered flags on those ids only
        # ((S, |ids|), not (S, elements)), and count the fresh entries
        # per (state, group) cell with a single flat bincount.
        ids = self._member_ids(item)
        num_states = len(payloads)
        if ids.size == 0 or num_states == 0:
            return np.zeros((num_states, self.num_groups), dtype=float)
        fresh = np.empty((num_states, ids.size), dtype=bool)
        for r, payload in enumerate(payloads):
            np.take(payload, ids, out=fresh[r])
        np.logical_not(fresh, out=fresh)
        bins = (
            np.arange(num_states)[:, None] * self.num_groups
            + self._labels[ids][None, :]
        )
        counts = np.bincount(
            bins[fresh], minlength=num_states * self.num_groups
        ).reshape(num_states, self.num_groups)
        return counts / self._denominators

    def _apply(self, payload: np.ndarray, item: int) -> np.ndarray:
        ids = self._member_ids(item)
        counts = self._kernel_set.gains_rescore(
            ids, payload, self._labels, self.num_groups
        )
        payload[ids] = True
        return counts / self._denominators


class _SetIncidence:
    """A set system as the covered-elements oracle reads it."""

    def __init__(
        self, sets: list[np.ndarray], labels: np.ndarray, num_groups: int
    ) -> None:
        self._sets = sets
        # CSR-style item -> user incidence: set j occupies the slice
        # [_indptr[j], _indptr[j+1]) of _indices. Lets the batch oracle
        # gather whole candidate pools without Python loops.
        self._indptr, self._indices = build_csr(sets)
        self._labels = labels
        self._num_groups = num_groups
        self._kernel_set = get_kernel()

    def member_ids(self, item: int) -> np.ndarray:
        return self._sets[item]

    def fold_group_counts(
        self, items: np.ndarray, covered: np.ndarray
    ) -> np.ndarray:
        return self._kernel_set.group_counts(
            self._indptr, self._indices, items, covered, self._labels,
            self._num_groups,
        )


class CoverageObjective(CoveredElementsObjective):
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
        sizes = partition_sizes(labels)
        if not sets:
            raise ValueError("sets must be non-empty")
        self._sets = [np.unique(np.asarray(s, dtype=np.int64)) for s in sets]
        num_users = labels.size
        for j, members in enumerate(self._sets):
            if members.size and (members[0] < 0 or members[-1] >= num_users):
                raise ValueError(
                    f"set {j} references users outside [0, {num_users})"
                )
        incidence = _SetIncidence(self._sets, labels, sizes.size)
        super().__init__(len(self._sets), sizes, incidence, labels, sizes)

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
