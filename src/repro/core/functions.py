"""Grouped submodular objectives and their scalarizations.

The paper's objectives are all built from the *group-average utilities*

    f_i(S) = (1/m_i) * sum_{u in U_i} f_u(S)          (one per group i)

from which both the utility objective ``f(S) = sum_i (m_i/m) f_i(S)`` and
the fairness objective ``g(S) = min_i f_i(S)`` derive, as well as the
truncated surrogates used by the algorithms:

* ``g'_tau(S)   = (1/c) * sum_i min(1, f_i(S) / (tau*OPT'_g))``   (Alg. 1)
* ``F'_alpha(S) = min(1, f(S)/(alpha*OPT'_f))
                 + (1/c) * sum_i min(1, f_i(S)/(tau*OPT'_g))``     (Alg. 2)

Because every surrogate is a concave, non-decreasing transform of monotone
submodular ``f_i``'s (truncation ``min(t, .)`` + non-negative linear
combination), it is itself monotone submodular [Krause & Golovin 2014], so
the greedy machinery applies uniformly.

Design: a :class:`GroupedObjective` exposes per-group *marginal gain
vectors*; a :class:`Scalarizer` folds a group-value vector into a scalar.
Solvers combine the two, which keeps each concrete problem (coverage,
facility location, RIS-based influence) to three small hooks and lets the
lazy-forward greedy work unchanged across problems and surrogates.

Batch oracle: :meth:`GroupedObjective.gains_batch` scores a whole
candidate pool against one state in a single call and returns a
``(len(items), num_groups)`` gain matrix. The generic implementation
loops over :meth:`_gains`; dense backends override :meth:`_gains_batch`
with a vectorized pass so a greedy round costs one NumPy kernel instead
of ``n`` Python round-trips. Scalarizers mirror this with
:meth:`Scalarizer.gain_batch`, which folds the gain matrix into a vector
of scalar marginal gains. Both paths compute the same quantities —
solvers that switch between them select identical solutions (ties break
toward the lowest item id either way). ``oracle_calls`` counts *items
scored* on both paths, so per-item/batch comparisons stay meaningful;
``batch_oracle_calls`` additionally counts the batched invocations.

Multi-state batch oracle: :meth:`GroupedObjective.gains_states` is the
transpose of :meth:`gains_batch` — one arriving item scored against
*many* solution states at once, returning a
``(len(states), num_groups)`` gain matrix. This is the hot path of the
multi-instance online solvers (sieve streaming keeps one state per
optimum guess, the sliding-window maximizer one per checkpoint, dynamic
maintenance an empty anchor plus the live solution): each stream
arrival costs one vectorized call instead of one Python round-trip per
state. The generic implementation loops :meth:`_gains` over the state
payloads; dense backends override :meth:`_gains_states` by stacking the
per-state bookkeeping (covered-user masks, per-user bests, hit RR-set
masks) into a single bincount / maximum / matmul pass over the item's
incidence data. :meth:`Scalarizer.gain_states` is the matching fold —
row-wise marginal gains against a matrix of per-state group values —
and both counters advance exactly as for :meth:`gains_batch`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import GroupPartitionError


# ---------------------------------------------------------------------------
# Objective state
# ---------------------------------------------------------------------------
@dataclass
class ObjectiveState:
    """Mutable evaluation state for one solution ``S``.

    ``group_values`` caches ``(f_1(S), ..., f_c(S))`` and is updated
    incrementally on every :meth:`GroupedObjective.add`.
    """

    selected: list[int] = field(default_factory=list)
    in_solution: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    group_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    payload: Any = None

    @property
    def solution(self) -> tuple[int, ...]:
        return tuple(self.selected)

    @property
    def size(self) -> int:
        return len(self.selected)


class GroupedObjective(abc.ABC):
    """A family ``(f_1, ..., f_c)`` of monotone submodular group utilities.

    Subclasses implement three hooks on an opaque *payload* object:

    * :meth:`_new_payload` — empty-solution bookkeeping structure;
    * :meth:`_gains` — the marginal group-gain vector of one item;
    * :meth:`_apply` — commit one item to the payload and return its gains.

    All conversions to scalar objectives (``f``, ``g``, surrogates) happen
    through :class:`Scalarizer` instances, never in subclasses.
    """

    def __init__(self, num_items: int, group_sizes: Sequence[int]) -> None:
        if num_items <= 0:
            raise ValueError(f"num_items must be positive, got {num_items}")
        sizes = np.asarray(group_sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise GroupPartitionError("group_sizes must be a non-empty 1-d sequence")
        if np.any(sizes <= 0):
            raise GroupPartitionError(f"all groups must be non-empty, got {sizes}")
        self._num_items = int(num_items)
        self._group_sizes = sizes
        self._group_weights = sizes / sizes.sum()
        self.oracle_calls = 0
        self.batch_oracle_calls = 0

    # -- public read-only properties ------------------------------------
    @property
    def num_items(self) -> int:
        return self._num_items

    @property
    def num_groups(self) -> int:
        return int(self._group_sizes.size)

    @property
    def num_users(self) -> int:
        return int(self._group_sizes.sum())

    @property
    def group_sizes(self) -> np.ndarray:
        return self._group_sizes

    @property
    def group_weights(self) -> np.ndarray:
        """``m_i / m`` — weights tying ``f`` to the ``f_i``."""
        return self._group_weights

    def reset_counter(self) -> None:
        """Zero the oracle-call counters (used between harness runs)."""
        self.oracle_calls = 0
        self.batch_oracle_calls = 0

    # -- state management -------------------------------------------------
    def new_state(self) -> ObjectiveState:
        """Fresh state representing the empty solution (``f_i = 0``)."""
        return ObjectiveState(
            selected=[],
            in_solution=np.zeros(self.num_items, dtype=bool),
            group_values=np.zeros(self.num_groups, dtype=float),
            payload=self._new_payload(),
        )

    def copy_state(self, state: ObjectiveState) -> ObjectiveState:
        """Deep-enough copy: mutating the copy never affects the original."""
        return ObjectiveState(
            selected=list(state.selected),
            in_solution=state.in_solution.copy(),
            group_values=state.group_values.copy(),
            payload=self._copy_payload(state.payload),
        )

    def gains(self, state: ObjectiveState, item: int) -> np.ndarray:
        """Marginal group-gain vector ``f_i(S + v) - f_i(S)`` (no mutation)."""
        self._check_item(item)
        self.oracle_calls += 1
        if state.in_solution[item]:
            return np.zeros(self.num_groups, dtype=float)
        return self._gains(state.payload, item)

    def gains_batch(
        self, state: ObjectiveState, items: Sequence[int]
    ) -> np.ndarray:
        """Marginal group-gain matrix for a whole candidate pool.

        Returns an array of shape ``(len(items), num_groups)`` whose row
        ``r`` equals ``self.gains(state, items[r])`` (items already in the
        solution get zero rows) — bitwise on every backend except
        facility location, whose one-hot matmul matches to the last ulp
        (``GAIN_EPS`` absorbs it). One call scores the entire pool, so dense
        backends can amortise the evaluation into a single vectorized
        pass; ``oracle_calls`` still advances by ``len(items)`` to keep
        per-item/batch comparisons apples-to-apples.
        """
        idx = np.asarray(items, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_items):
            raise IndexError(
                f"items out of range [0, {self.num_items}): {idx}"
            )
        self.oracle_calls += int(idx.size)
        self.batch_oracle_calls += 1
        out = np.zeros((idx.size, self.num_groups), dtype=float)
        if idx.size == 0:
            return out
        novel = ~state.in_solution[idx]
        if novel.any():
            out[novel] = self._gains_batch(state.payload, idx[novel])
        return out

    def gains_states(
        self, states: Sequence[ObjectiveState], item: int
    ) -> np.ndarray:
        """Marginal group-gain matrix of one item against many states.

        Returns an array of shape ``(len(states), num_groups)`` whose row
        ``r`` equals ``self.gains(states[r], item)`` (states that already
        contain the item get zero rows) — bitwise except on facility
        location, as in :meth:`gains_batch`. One call scores the arrival
        against every live solution state — the per-arrival hot path of
        the sieve/sliding-window/dynamic solvers — so dense backends can
        amortise the evaluation into a single stacked pass.
        ``oracle_calls`` still advances by ``len(states)`` to keep
        per-item/batch comparisons apples-to-apples.
        """
        self._check_item(item)
        states = list(states)
        self.oracle_calls += len(states)
        self.batch_oracle_calls += 1
        if not states:
            return np.zeros((0, self.num_groups), dtype=float)
        novel = [not s.in_solution[item] for s in states]
        if all(novel):
            # Hot path (per-arrival scoring filters taken states first).
            return self._gains_states([s.payload for s in states], item)
        out = np.zeros((len(states), self.num_groups), dtype=float)
        if any(novel):
            payloads = [s.payload for s, nv in zip(states, novel) if nv]
            out[np.asarray(novel)] = self._gains_states(payloads, item)
        return out

    def add(self, state: ObjectiveState, item: int) -> np.ndarray:
        """Commit ``item`` to the solution; returns its group-gain vector."""
        self._check_item(item)
        if state.in_solution[item]:
            return np.zeros(self.num_groups, dtype=float)
        self.oracle_calls += 1
        gains = self._apply(state.payload, item)
        state.selected.append(item)
        state.in_solution[item] = True
        state.group_values = state.group_values + gains
        return gains

    def state_of(self, items: Iterable[int]) -> ObjectiveState:
        """A fresh state with ``items`` added in the given order."""
        state = self.new_state()
        for item in items:
            self.add(state, item)
        return state

    def evaluate(self, items: Iterable[int]) -> np.ndarray:
        """Group values of an arbitrary solution built from scratch."""
        return self.state_of(items).group_values

    def max_group_values(self) -> np.ndarray:
        """``(f_1(V), ..., f_c(V))`` — utilities of the full ground set.

        Upper-bounds every ``f_i`` by monotonicity; used by Saturate to
        initialise its bisection interval.
        """
        return self.evaluate(range(self.num_items))

    # -- scalar conveniences ----------------------------------------------
    def utility(self, state: ObjectiveState) -> float:
        """``f(S)`` — population-average utility."""
        return float(self._group_weights @ state.group_values)

    def fairness(self, state: ObjectiveState) -> float:
        """``g(S)`` — minimum group-average utility."""
        return float(state.group_values.min())

    # -- subclass hooks -----------------------------------------------------
    @abc.abstractmethod
    def _new_payload(self) -> Any:
        """Bookkeeping structure for the empty solution."""

    @abc.abstractmethod
    def _copy_payload(self, payload: Any) -> Any:
        """Independent copy of ``payload``."""

    @abc.abstractmethod
    def _gains(self, payload: Any, item: int) -> np.ndarray:
        """Group-gain vector of ``item`` against ``payload`` (pure)."""

    def _gains_batch(self, payload: Any, items: np.ndarray) -> np.ndarray:
        """Gain matrix for ``items`` (all valid, none in the solution).

        Generic fallback loops :meth:`_gains`; dense backends override
        this with one vectorized pass. Must be pure (no payload mutation)
        and produce the rows :meth:`_gains` would: bitwise, except that
        facility location's one-hot matmul reorders the group sums and
        matches to the last ulp.
        """
        out = np.zeros((items.size, self.num_groups), dtype=float)
        for r, item in enumerate(items):
            out[r] = self._gains(payload, int(item))
        return out

    def _gains_states(
        self, payloads: Sequence[Any], item: int
    ) -> np.ndarray:
        """Gain rows of ``item`` against many payloads (item in none).

        Generic fallback loops :meth:`_gains`; dense backends override
        this with one stacked vectorized pass. Must be pure (no payload
        mutation) and produce the rows :meth:`_gains` would, with the
        same facility-location exception as :meth:`_gains_batch`.
        """
        out = np.zeros((len(payloads), self.num_groups), dtype=float)
        for r, payload in enumerate(payloads):
            out[r] = self._gains(payload, item)
        return out

    def _group_means(
        self, per_user: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Group means of every row of an ``(N, m)`` per-user matrix.

        One flat weighted ``bincount`` over bins ``row * c + label``.
        ``bincount`` adds each bin's weights in input order, so row ``r``
        is bitwise the ``bincount(labels, weights=per_user[r]) /
        group_sizes`` of a per-item :meth:`_gains`. (A one-hot matmul is
        not: BLAS reorders the sums.)
        """
        rows, c = per_user.shape[0], self.num_groups
        bins = labels + (np.arange(rows) * c)[:, None]
        sums = np.bincount(
            bins.ravel(), weights=per_user.ravel(), minlength=rows * c
        )
        return sums.reshape(rows, c) / self._group_sizes

    def _apply(self, payload: Any, item: int) -> np.ndarray:
        """Commit ``item``; default recomputes gains then delegates."""
        gains = self._gains(payload, item)
        self._commit(payload, item)
        return gains

    def _commit(self, payload: Any, item: int) -> None:
        """Mutate ``payload`` to include ``item`` (when :meth:`_apply` is
        not overridden)."""
        raise NotImplementedError(
            "subclasses must override either _apply or _commit"
        )

    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.num_items:
            raise IndexError(f"item {item} out of range [0, {self.num_items})")


# ---------------------------------------------------------------------------
# Generic objective built from arbitrary per-user set functions
# ---------------------------------------------------------------------------
class PerUserObjective(GroupedObjective):
    """Grouped objective over explicit per-user set functions.

    ``utility_fn(user, frozenset) -> float`` must be normalised, monotone
    and submodular for the solver guarantees to hold (property-based tests
    check user-supplied instances). Evaluation is O(m) per oracle call, so
    this class targets small instances: the paper's Figure-1 running
    example, the Lemma-3.2 inapproximability gadget, and unit tests.
    """

    def __init__(
        self,
        num_items: int,
        user_groups: Sequence[int],
        utility_fn: Callable[[int, frozenset[int]], float],
    ) -> None:
        labels = np.asarray(user_groups, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise GroupPartitionError("user_groups must be non-empty and 1-d")
        if labels.min() < 0:
            raise GroupPartitionError("group labels must be non-negative")
        sizes = np.bincount(labels)
        if np.any(sizes == 0):
            raise GroupPartitionError("group labels must be contiguous 0..c-1")
        super().__init__(num_items, sizes)
        self._labels = labels
        self._fn = utility_fn

    def _per_group(self, solution: frozenset[int]) -> np.ndarray:
        totals = np.zeros(self.num_groups, dtype=float)
        for user, label in enumerate(self._labels):
            totals[label] += float(self._fn(user, solution))
        return totals / self._group_sizes

    def _new_payload(self) -> set[int]:
        return set()

    def _copy_payload(self, payload: set[int]) -> set[int]:
        return set(payload)

    def _gains(self, payload: set[int], item: int) -> np.ndarray:
        before = self._per_group(frozenset(payload))
        after = self._per_group(frozenset(payload) | {item})
        return np.maximum(after - before, 0.0)

    def _commit(self, payload: set[int], item: int) -> None:
        payload.add(item)


def fold_states(
    objective: "GroupedObjective",
    scalarizer: "Scalarizer",
    states: Sequence[ObjectiveState],
    item: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Score ``item`` against ``states`` and fold to scalars in one pass.

    The shared per-arrival kernel of the multi-instance online solvers:
    one :meth:`GroupedObjective.gains_states` call, one row-stack of the
    per-state group values, and one :meth:`Scalarizer.value_batch` /
    :meth:`Scalarizer.gain_states` fold (the "before" values are reused
    for both). Returns ``(values, gains)`` where ``values[r]`` is the
    scalar objective of ``states[r]`` and ``gains[r]`` the scalar
    marginal gain of ``item`` against it.
    """
    gains_matrix = objective.gains_states(states, item)
    group_values = np.empty(
        (len(states), objective.num_groups), dtype=float
    )
    for pos, state in enumerate(states):
        group_values[pos] = state.group_values
    weights = objective.group_weights
    values = scalarizer.value_batch(group_values, weights)
    gains = scalarizer.gain_states(
        group_values, gains_matrix, weights, values=values
    )
    return values, gains


# ---------------------------------------------------------------------------
# Scalarizers
# ---------------------------------------------------------------------------
class Scalarizer(abc.ABC):
    """Fold a group-value vector into the scalar a solver maximises.

    Implementations must be non-decreasing and concave in each coordinate,
    which preserves monotonicity and submodularity of the composition with
    the ``f_i`` (see module docstring).
    """

    @abc.abstractmethod
    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        """Scalar objective at ``group_values`` (weights are ``m_i/m``)."""

    def value_batch(
        self, group_values_matrix: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Row-wise :meth:`value` over a ``(N, num_groups)`` matrix.

        Generic fallback loops :meth:`value`; the concrete scalarizers
        override it with one vectorized expression mirroring the scalar
        formula term by term, so each row equals the scalar evaluation.
        """
        return np.asarray(
            [self.value(row, weights) for row in group_values_matrix],
            dtype=float,
        )

    def gain(
        self,
        group_values: np.ndarray,
        gains: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        """Marginal scalar gain of moving to ``group_values + gains``."""
        return self.value(group_values + gains, weights) - self.value(
            group_values, weights
        )

    def gain_batch(
        self,
        group_values: np.ndarray,
        gains_matrix: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`gain`: one scalar gain per gain-matrix row.

        ``gains_matrix`` is the ``(N, num_groups)`` output of
        :meth:`GroupedObjective.gains_batch`; the result's entry ``r``
        equals ``self.gain(group_values, gains_matrix[r], weights)``
        (same after-minus-before form, shared "before" term).
        """
        after = self.value_batch(group_values[None, :] + gains_matrix, weights)
        return after - self.value(group_values, weights)

    def gain_states(
        self,
        group_values_matrix: np.ndarray,
        gains_matrix: np.ndarray,
        weights: np.ndarray,
        *,
        values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Row-wise marginal gain against many states at once.

        ``group_values_matrix`` stacks each state's group values and
        ``gains_matrix`` is the matching
        :meth:`GroupedObjective.gains_states` output; the result's entry
        ``r`` equals
        ``self.gain(group_values_matrix[r], gains_matrix[r], weights)``.
        Rides on :meth:`value_batch`, so every concrete scalarizer's
        vectorized row formula applies to both terms. Callers that
        already hold ``value_batch(group_values_matrix, weights)`` (the
        threshold solvers need it anyway) pass it as ``values`` to skip
        recomputing the "before" term.
        """
        after = self.value_batch(group_values_matrix + gains_matrix, weights)
        before = (
            self.value_batch(group_values_matrix, weights)
            if values is None
            else values
        )
        return after - before

    @property
    def target(self) -> Optional[float]:
        """Saturation value, if the scalarizer has one (else ``None``)."""
        return None


class AverageUtility(Scalarizer):
    """``f(S) = sum_i (m_i/m) f_i(S)`` — the paper's utility objective."""

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        return float(weights @ group_values)

    def value_batch(
        self, group_values_matrix: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return group_values_matrix @ weights


class MinUtility(Scalarizer):
    """``g(S) = min_i f_i(S)`` — the paper's maximin fairness objective.

    Not submodular for ``c > 1``; only used for *evaluating* solutions and
    inside Saturate's feasibility checks, never fed to plain greedy.
    """

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        return float(group_values.min())

    def value_batch(
        self, group_values_matrix: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return group_values_matrix.min(axis=1)


class TruncatedFairness(Scalarizer):
    """``g'_t(S) = (1/c) * sum_i min(1, f_i(S)/t)`` with threshold ``t > 0``.

    Saturates at 1 exactly when every group reaches ``t``; this is the
    surrogate of Algorithm 1 (with ``t = tau * OPT'_g``) and the inner
    function of Saturate's greedy partial cover.
    """

    def __init__(self, threshold: float) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = float(threshold)

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        clipped = np.minimum(1.0, group_values / self.threshold)
        return float(clipped.mean())

    def value_batch(
        self, group_values_matrix: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        clipped = np.minimum(1.0, group_values_matrix / self.threshold)
        return clipped.mean(axis=1)

    @property
    def target(self) -> Optional[float]:
        return 1.0


class BSMCombined(Scalarizer):
    """``F'_alpha`` of Lemma 4.4: truncated utility + truncated fairness.

    ``value`` saturates at 2 when both ``f(S) >= utility_threshold`` and
    every ``f_i(S) >= fairness_threshold``.
    """

    def __init__(self, utility_threshold: float, fairness_threshold: float) -> None:
        if utility_threshold <= 0 or fairness_threshold <= 0:
            raise ValueError("thresholds must be positive")
        self.utility_threshold = float(utility_threshold)
        self.fairness_threshold = float(fairness_threshold)

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        f_val = float(weights @ group_values)
        utility_part = min(1.0, f_val / self.utility_threshold)
        fairness_part = float(
            np.minimum(1.0, group_values / self.fairness_threshold).mean()
        )
        return utility_part + fairness_part

    def value_batch(
        self, group_values_matrix: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        f_vals = group_values_matrix @ weights
        utility_part = np.minimum(1.0, f_vals / self.utility_threshold)
        fairness_part = np.minimum(
            1.0, group_values_matrix / self.fairness_threshold
        ).mean(axis=1)
        return utility_part + fairness_part

    @property
    def target(self) -> Optional[float]:
        return 2.0


class WeightedCombination(Scalarizer):
    """Generic non-negative combination of scalarizers (extension hook).

    Used by the ablation benches to reproduce the linear utility+fairness
    mix of Wei et al. [66] that the related-work section contrasts with BSM.
    """

    def __init__(self, parts: Sequence[tuple[float, Scalarizer]]) -> None:
        if not parts:
            raise ValueError("parts must be non-empty")
        for coef, _ in parts:
            if coef < 0:
                raise ValueError("coefficients must be non-negative")
        self.parts = list(parts)

    def value(self, group_values: np.ndarray, weights: np.ndarray) -> float:
        return float(
            sum(coef * s.value(group_values, weights) for coef, s in self.parts)
        )

    def value_batch(
        self, group_values_matrix: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        total = np.zeros(group_values_matrix.shape[0], dtype=float)
        for coef, s in self.parts:
            total += coef * s.value_batch(group_values_matrix, weights)
        return total
