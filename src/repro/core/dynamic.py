"""Dynamic submodular maximisation under insertions and deletions.

The related-work section cites the dynamic model [Monemizadeh 2020]:
maintain a good size-``k`` solution while the ground set changes by
single-item insertions *and deletions*. This module implements the
practical two-level scheme those algorithms refine:

* **Insertions** are absorbed by a threshold rule à la Sieve-Streaming:
  an arriving item joins the maintained solution when its marginal gain
  clears ``(v/2 - value) / (k - |S|)`` for the current optimum guess
  ``v`` (tracked from the best singleton seen among live items).
* **Deletions** of non-solution items are O(1) (drop from the live
  set). Deleting a *solution* item invalidates the greedy chain after
  it, so the maintained state is rebuilt by re-running the threshold
  pass over the live set — but only when the number of dirty deletions
  crosses ``rebuild_factor * k``, which amortises the rebuild cost over
  many updates (the standard lazy-rebuild argument).

The structure intentionally trades the elaborate bucket hierarchies of
the published dynamic algorithms for auditability: every state it can
reach is also reachable by a plain threshold pass over the live set,
which is what the tests assert. ``quality_vs_offline`` in the tests
pins the empirical gap to offline greedy.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.functions import (
    AverageUtility,
    GroupedObjective,
    ObjectiveState,
    Scalarizer,
    fold_states,
)
from repro.core.greedy import greedy_max
from repro.utils.validation import check_positive_int


class DynamicMaximizer:
    """Maintain ``max_{|S| <= k} f(S)`` over an evolving ground set.

    Items are identified by their index in the backing
    :class:`GroupedObjective` (the universe of *possible* items); the
    dynamic structure tracks which of them are currently *live*.

    Parameters
    ----------
    objective:
        Oracle over the full universe.
    k:
        Cardinality budget.
    rebuild_factor:
        Rebuild the maintained solution once
        ``dirty_deletions > rebuild_factor * k`` solution items have
        been deleted since the last rebuild. Lower = fresher solution,
        higher = cheaper amortised updates.
    """

    def __init__(
        self,
        objective: GroupedObjective,
        k: int,
        *,
        scalarizer: Optional[Scalarizer] = None,
        rebuild_factor: float = 0.5,
    ) -> None:
        check_positive_int(k, "k")
        if rebuild_factor <= 0:
            raise ValueError(
                f"rebuild_factor must be positive, got {rebuild_factor}"
            )
        self._objective = objective
        self._scal = scalarizer or AverageUtility()
        self._k = k
        self._rebuild_after = max(1, int(np.ceil(rebuild_factor * k)))
        self._live: set[int] = set()
        self._state = objective.new_state()
        # Persistent empty state anchoring the singleton probes of
        # _offer/_rebuild (gains against it are pure, so one allocation
        # serves the structure's whole lifetime).
        self._empty = objective.new_state()
        self._max_singleton = 0.0
        self._dirty = 0
        self.rebuilds = 0
        # Epoch of the objective's sampled state this maximizer's
        # solution was computed against (influence objectives bump it on
        # refresh(); static objectives never change, so 0 stays valid).
        self._objective_epoch = getattr(objective, "repair_epoch", 0)

    # -- public API ---------------------------------------------------------
    @property
    def live_items(self) -> frozenset[int]:
        return frozenset(self._live)

    @property
    def solution(self) -> tuple[int, ...]:
        return self._state.solution

    def value(self) -> float:
        """Current scalar objective of the maintained solution."""
        return self._scal.value(
            self._state.group_values, self._objective.group_weights
        )

    def insert(self, item: int) -> None:
        """Add an item to the live set (idempotent)."""
        self._check(item)
        if item in self._live:
            return
        self._live.add(item)
        self._offer(item)

    def delete(self, item: int) -> None:
        """Remove an item from the live set (idempotent).

        Deleting a solution item marks the state dirty; the rebuild is
        deferred until enough damage accumulates.
        """
        self._check(item)
        if item not in self._live:
            return
        self._live.discard(item)
        if self._state.in_solution[item]:
            self._dirty += 1
            if self._dirty > self._rebuild_after:
                self._rebuild()

    def process_events(
        self, events: Iterable[tuple[str, int]]
    ) -> dict[str, int]:
        """Apply an ``(action, item)`` event stream in order.

        ``action`` is ``"insert"`` or ``"delete"``; the service's
        ``update`` op feeds request events through here. The whole
        stream is validated *before* anything is applied, so a bad
        action or out-of-range item rejects the batch without mutating
        the maintained state — a caller whose batch errors can retry it
        verbatim. Returns the applied counts plus the lifetime rebuild
        total.
        """
        validated: list[tuple[str, int]] = []
        for action, item in events:
            if action not in ("insert", "delete"):
                raise ValueError(
                    f"unknown event action {action!r} "
                    "(expected 'insert' or 'delete')"
                )
            item = int(item)
            self._check(item)
            validated.append((action, item))
        inserted = deleted = 0
        for action, item in validated:
            if action == "insert":
                self.insert(item)
                inserted += 1
            else:
                self.delete(item)
                deleted += 1
        return {
            "inserted": inserted,
            "deleted": deleted,
            "rebuilds": self.rebuilds,
        }

    @property
    def objective(self) -> GroupedObjective:
        return self._objective

    @property
    def stale(self) -> bool:
        """Whether the backing objective repaired past this solution."""
        return (
            getattr(self._objective, "repair_epoch", 0)
            != self._objective_epoch
        )

    def refresh(self, graph=None):
        """Repair the backing objective, then rebuild if anything moved.

        The repair-then-rebuild path for dynamic graphs: the influence
        objective splices regenerated RR sets for the changed arcs
        (:meth:`repro.problems.influence.InfluenceObjective.refresh`),
        and only when that actually altered the sampled state does the
        maintained solution get recomputed — a cold rebuild becomes
        amortized O(affected sets) + one threshold pass. Objectives
        without a ``refresh`` hook (static kinds) are a no-op. Returns
        the objective's repair result, or ``None`` for static objectives.
        The repair runs under the objective's own sampling law.
        """
        repair = getattr(self._objective, "refresh", None)
        result = None
        if repair is not None:
            result = repair(graph)
        if self.stale:
            # The sampled universe changed shape-compatibly (repair) or
            # entirely (full resample); refresh the persistent empty
            # probe state before recomputing the solution against it.
            self._empty = self._objective.new_state()
            self._rebuild()
            self._objective_epoch = getattr(
                self._objective, "repair_epoch", 0
            )
        return result

    def best(self) -> ObjectiveState:
        """A state whose solution contains only live items.

        Forces the deferred rebuild if the maintained solution still
        references deleted items, and greedily tops the solution up to
        ``k`` from the live set when the threshold rule has underfilled
        it (the same practical augmentation
        :func:`repro.core.sliding_window.sliding_window_utility` uses —
        it can only improve the solution). The returned state is always
        valid for the current live set.
        """
        if any(not self._in_live(v) for v in self._state.selected):
            self._rebuild()
        if self._state.size < self._k:
            fresh = [
                v for v in sorted(self._live)
                if not self._state.in_solution[v]
            ]
            if fresh:
                self._state, _ = greedy_max(
                    self._objective,
                    self._scal,
                    self._k - self._state.size,
                    state=self._state,
                    candidates=fresh,
                )
        return self._state

    # -- internals ------------------------------------------------------
    def _in_live(self, item: int) -> bool:
        return item in self._live

    def _check(self, item: int) -> None:
        if not 0 <= item < self._objective.num_items:
            raise IndexError(
                f"item {item} out of range "
                f"[0, {self._objective.num_items})"
            )

    def _offer(self, item: int) -> None:
        """Threshold-insert one item into the maintained solution.

        The optimum guess is anchored on the best true *singleton* value
        ``f({v})`` among offered items — the documented sieve rule —
        while admission uses the item's marginal gain against the
        current solution, so both the empty-state and current-state
        gains are needed: one multi-state oracle call scores the item
        against both at once. (Anchoring on marginal gains instead would
        understate the optimum guess and loosen the admission
        threshold.)
        """
        state_open = (
            self._state.size < self._k
            and not self._state.in_solution[item]
        )
        states = (
            [self._empty, self._state] if state_open else [self._empty]
        )
        values, folded = fold_states(self._objective, self._scal, states, item)
        singleton = float(folded[0])
        if singleton > self._max_singleton:
            self._max_singleton = singleton
        if not state_open:
            return
        gain = float(folded[1])
        guess = 2.0 * self._max_singleton * self._k
        threshold = max(
            (guess / 2.0 - float(values[1]))
            / (self._k - self._state.size),
            0.0,
        )
        if gain >= threshold and gain > 0.0:
            self._objective.add(self._state, item)

    def _rebuild(self) -> None:
        """Recompute the solution from the live set (lazy greedy)."""
        self.rebuilds += 1
        self._dirty = 0
        self._max_singleton = 0.0
        if not self._live:
            self._state = self._objective.new_state()
            return
        self._state, _ = greedy_max(
            self._objective,
            self._scal,
            self._k,
            candidates=sorted(self._live),
        )
        if self._state.selected:
            # Re-anchor the guess on the kept items' true singleton
            # values — one pool-batched call instead of a per-item loop.
            weights = self._objective.group_weights
            singles = self._objective.gains_batch(
                self._empty, self._state.selected
            )
            folded = self._scal.gain_batch(
                self._empty.group_values, singles, weights
            )
            self._max_singleton = max(0.0, float(folded.max()))
