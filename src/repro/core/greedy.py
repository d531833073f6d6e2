"""Greedy maximisation of scalarized grouped objectives.

Implements the three greedy variants the paper relies on:

* plain greedy [Nemhauser et al. 1978] — ``(1 - 1/e)``-approximation for
  monotone submodular maximisation under a cardinality constraint;
* lazy-forward / CELF greedy [Leskovec et al. 2007] — identical output,
  far fewer oracle calls (the paper uses it for *all* algorithms);
* stochastic greedy [Mirzasoleiman et al. 2015] — ``(1 - 1/e - eps)`` in
  expectation with ``O(n log(1/eps))`` total oracle calls (offered as the
  subsampling acceleration the related-work section mentions).

All variants also serve as the *greedy submodular cover* inner loop: pass
``stop_value`` to halt as soon as the scalar objective reaches a target
(Wolsey's greedy for submodular cover — see :mod:`repro.core.cover`).

Every loop drives the oracle through the *batch* API
(:meth:`GroupedObjective.gains_batch` + :meth:`Scalarizer.gain_batch`)
and never calls the single-item :meth:`GroupedObjective.gains`.

Plain and lazy greedy are one *block-lazy* loop (:func:`greedy_max`).
It keeps three arrays over the candidate pool: ``ub``, an upper bound
on each item's marginal gain; ``fresh``, whether the item has been
rescored this round; and ``alive``, whether it is still unselected.
Each round rescores, in one batched call, the top ``block`` (by bound)
of the alive stale items whose bound exceeds the best fresh gain minus
:data:`GAIN_EPS`, then doubles ``block`` and repeats until no stale
item is left in that band. Every item that could still tie the best is
then fresh, and the round selects by the *band rule*: the sequential
``gain > best + GAIN_EPS`` scan (:func:`_scan_best`) over the band's
items in ascending id order. This is the fixed point the per-item CELF
heap reached with its epsilon-band tie replay, so Saturate, greedy
cover and both BSM algorithms keep their solutions. ``lazy=False`` is
the same loop with the whole pool rescored every round. Round 0 scores
the whole pool, round 1 opens with a block of ``isqrt(n)`` items, and
every later round opens with a block as large as the number of items
the previous round had to rescore.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.functions import GroupedObjective, ObjectiveState, Scalarizer
from repro.core.result import GreedyStep
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

#: Gains below this are treated as zero (guards against float jitter
#: re-ordering items whose true marginal gain is identical).
GAIN_EPS = 1e-12


def greedy_max(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    state: Optional[ObjectiveState] = None,
    candidates: Optional[Iterable[int]] = None,
    stop_value: Optional[float] = None,
    lazy: bool = True,
    tolerance: float = 1e-12,
) -> tuple[ObjectiveState, list[GreedyStep]]:
    """Greedily add up to ``budget`` items maximising ``scalarizer``.

    Parameters
    ----------
    objective, scalarizer:
        The grouped oracle and the scalar view being maximised.
    budget:
        Maximum number of items to *add* (on top of any items already in
        ``state``).
    state:
        Optional warm-start state; mutated in place when given.
    candidates:
        Ground-set restriction (defaults to all items).
    stop_value:
        Stop as soon as the scalar value reaches this target (submodular
        cover mode). ``None`` runs to the budget.
    lazy:
        Trust stale upper bounds between rounds (lazy-forward / CELF).
        Correct for submodular scalarizations because stale bounds only
        overestimate gains. ``False`` rescores the whole pool every
        round; both settings select the same items.

    Returns
    -------
    (state, steps):
        The final state and the per-iteration trace.
    """
    check_positive_int(budget, "budget")
    if state is None:
        state = objective.new_state()
    steps: list[GreedyStep] = []
    weights = objective.group_weights
    value = scalarizer.value(state.group_values, weights)
    if stop_value is not None and value >= stop_value - tolerance:
        return state, steps
    items = _candidate_items(objective, candidates, state)
    ub = np.full(items.size, np.inf)  # upper bound on each item's gain
    alive = np.ones(items.size, dtype=bool)  # not selected yet
    fresh = np.zeros(items.size, dtype=bool)  # rescored this round
    block = items.size  # round 0 has no bounds: score the whole pool
    while len(steps) < budget:
        if not lazy:
            block = items.size
        fresh[:] = False
        best = -np.inf
        replaced = []  # the bounds this round's rescoring overwrote
        while True:
            stale = np.flatnonzero(alive & ~fresh & (ub > best - GAIN_EPS))
            if stale.size == 0:
                break
            if stale.size > block:
                top = np.argpartition(ub[stale], stale.size - block)
                stale = np.sort(stale[top[stale.size - block:]])
            gains = _pool_gains(objective, scalarizer, state, items[stale], weights)
            replaced.append(ub[stale])
            ub[stale] = gains
            fresh[stale] = True
            best = max(best, float(gains.max()))
            block *= 2
        band = np.flatnonzero(alive & (ub > best - GAIN_EPS))
        pos, gain = _scan_best(band, ub[band])
        if pos < 0:
            break  # no item improves the objective: greedy is saturated
        alive[pos] = False
        objective.add(state, int(items[pos]))
        value = scalarizer.value(state.group_values, weights)
        steps.append(GreedyStep(int(items[pos]), gain, value))
        if stop_value is not None and value >= stop_value - tolerance:
            break
        if len(steps) == 1:
            # Round 0's bounds say nothing about how many items round 1
            # must rescore: open at the geometric middle of 1 and n.
            block = math.isqrt(items.size)
        else:
            # Open with the number of items this round had to rescore
            # (their old bounds reached into its band); the next round
            # likely needs about as many.
            old = np.concatenate(replaced)
            block = max(1, int(np.count_nonzero(old > best - GAIN_EPS)))
    return state, steps


def _candidate_items(
    objective: GroupedObjective,
    candidates: Optional[Iterable[int]],
    state: ObjectiveState,
) -> np.ndarray:
    """Unselected candidates as a sorted, duplicate-free int64 array."""
    if candidates is None:
        pool = np.arange(objective.num_items, dtype=np.int64)
    else:
        pool = np.unique(np.fromiter(candidates, dtype=np.int64))
    return pool[~state.in_solution[pool]]


def _pool_gains(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    state: ObjectiveState,
    items: Sequence[int],
    weights: np.ndarray,
) -> np.ndarray:
    """Scalar marginal gain of every item in ``items`` — one batched call."""
    gains_matrix = objective.gains_batch(state, items)
    return scalarizer.gain_batch(state.group_values, gains_matrix, weights)


#: Vectorized record-chain jumps before _scan_best falls back to the
#: per-entry loop. Random-order gains need ~ln(n) jumps, so the cap only
#: triggers on adversarially sorted pools.
_SCAN_MAX_JUMPS = 64


def _scan_best(items: Sequence[int], gains: np.ndarray) -> tuple[int, float]:
    """Best (item, gain) under the per-item loops' selection rule.

    Replays the sequential ``gain > best + GAIN_EPS`` scan over the
    batched gains so ties (and near-ties inside the epsilon band) break
    toward the earliest item exactly as the per-item loops did.

    The replay is a vectorized *record chain*: the sequential scan only
    changes state at indices where the gain beats the current record by
    more than ``GAIN_EPS``, and the next such index is by definition the
    first position after the current record with
    ``gain > best + GAIN_EPS`` — one ``argmax`` over the tail per jump.
    A uniformly shuffled pool sets ``O(log n)`` records, so the expected
    cost is ``O(n log n)`` flat NumPy passes instead of ``n`` Python
    iterations; a pathologically ascending pool falls back to the exact
    per-entry loop after :data:`_SCAN_MAX_JUMPS` jumps.
    """
    gains = np.asarray(gains)
    best_idx, best_gain = -1, 0.0
    pos = 0
    for _ in range(_SCAN_MAX_JUMPS):
        if pos >= gains.size:
            break
        rel = int(np.argmax(gains[pos:] > best_gain + GAIN_EPS))
        if not gains[pos + rel] > best_gain + GAIN_EPS:
            pos = gains.size
            break
        best_idx = pos + rel
        best_gain = float(gains[best_idx])
        pos = best_idx + 1
    else:
        # Jump cap hit: finish the remaining tail sequentially (exact
        # same rule, bounded Python work).
        for idx in np.nonzero(gains[pos:] > best_gain + GAIN_EPS)[0] + pos:
            gain = float(gains[idx])
            if gain > best_gain + GAIN_EPS:
                best_idx, best_gain = int(idx), gain
    if best_idx < 0:
        return -1, 0.0
    return int(items[best_idx]), best_gain


def stochastic_greedy_max(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    epsilon: float = 0.1,
    candidates: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
) -> tuple[ObjectiveState, list[GreedyStep]]:
    """Stochastic ("lazier than lazy") greedy.

    Each round evaluates a uniform random subset of ``(n/k) ln(1/eps)``
    candidates only. Offered as the subsampling accelerator from the
    related-work discussion; the paper's headline experiments use CELF.
    """
    check_positive_int(budget, "budget")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    rng = as_generator(seed)
    state = objective.new_state()
    pool = list(range(objective.num_items)) if candidates is None else [
        int(v) for v in candidates
    ]
    weights = objective.group_weights
    sample_size = max(
        1, int(np.ceil(len(pool) / budget * np.log(1.0 / epsilon)))
    )
    steps: list[GreedyStep] = []
    for _ in range(budget):
        available = [v for v in pool if not state.in_solution[v]]
        if not available:
            break
        size = min(sample_size, len(available))
        sample_idx = rng.choice(len(available), size=size, replace=False)
        # Keep the draw order: the per-item loop scanned the sample as
        # drawn, and _scan_best preserves that tie-breaking.
        sample = [available[int(idx)] for idx in sample_idx]
        gains = _pool_gains(objective, scalarizer, state, sample, weights)
        best_item, best_gain = _scan_best(sample, gains)
        if best_item < 0:
            continue  # the whole sample was worthless; resample next round
        objective.add(state, best_item)
        steps.append(
            GreedyStep(
                best_item,
                best_gain,
                scalarizer.value(state.group_values, weights),
            )
        )
    return state, steps


def threshold_greedy_max(
    objective: GroupedObjective,
    scalarizer: Scalarizer,
    budget: int,
    *,
    epsilon: float = 0.1,
    candidates: Optional[Iterable[int]] = None,
) -> tuple[ObjectiveState, list[GreedyStep]]:
    """Descending-thresholds greedy [Badanidiyuru & Vondrák 2014].

    Sweeps thresholds ``d, d(1-eps), d(1-eps)^2, ...`` (``d`` = best
    singleton value) and adds any item whose current marginal gain meets
    the threshold. Each item is touched ``O(log(n/eps)/eps)`` times in
    total — independent of ``k`` — for a ``(1 - 1/e - eps)`` guarantee,
    making it the preferred accelerator when ``k`` is large and lazy
    greedy still degenerates to many re-evaluations.

    Like lazy greedy, the batched sweep requires a *submodular* scalarization:
    after an add, items whose stale gain already missed the threshold are
    dropped for the rest of the sweep on the grounds that gains only
    decrease. Feeding a non-submodular scalarizer (e.g. ``MinUtility``)
    voids both the guarantee and the per-item-sweep equivalence.
    """
    check_positive_int(budget, "budget")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    state = objective.new_state()
    pool = list(range(objective.num_items)) if candidates is None else [
        int(v) for v in candidates
    ]
    weights = objective.group_weights
    best_singleton = 0.0
    if pool:
        empty = objective.new_state()
        singleton_gains = _pool_gains(
            objective, scalarizer, empty, pool, weights
        )
        best_singleton = max(0.0, float(singleton_gains.max()))
    steps: list[GreedyStep] = []
    if best_singleton <= 0:
        return state, steps
    threshold = best_singleton
    floor = epsilon / len(pool) * best_singleton
    while threshold >= floor and state.size < budget:
        # One batched scoring of the remaining pool per sweep. After an
        # add, submodularity says stale gains only overestimate: items
        # already below the threshold stay below (drop them without a
        # fresh call), while stale *hits* are rescored in the next batch
        # before being trusted — the adds are exactly those the per-item
        # sweep would have made.
        current = [v for v in pool if not state.in_solution[v]]
        while current and state.size < budget:
            gains = _pool_gains(objective, scalarizer, state, current, weights)
            hit_pos = np.nonzero(gains >= threshold)[0]
            if hit_pos.size == 0:
                break
            first = int(hit_pos[0])
            item = current[first]
            objective.add(state, item)
            steps.append(
                GreedyStep(
                    item,
                    float(gains[first]),
                    scalarizer.value(state.group_values, weights),
                )
            )
            current = [current[i] for i in hit_pos[1:]]
        threshold *= 1.0 - epsilon
    return state, steps
