"""Multi-state batch oracle: parity with the per-item oracle across the
online solver family.

Mirrors :mod:`tests.test_batch_oracle` for the *transposed* batch shape —
one arriving item scored against many solution states:

* **oracle parity** — ``gains_states`` returns exactly the rows that
  stacking per-item ``gains`` calls over the states would, for every
  concrete backend and the generic fallback;
* **scalarizer parity** — ``gain_states`` equals row-wise ``gain`` for
  all five scalarizers;
* **solver parity** — sieve streaming, the sliding-window maximizer,
  streaming BSM-TSGreedy and dynamic maintenance pick *identical*
  solutions to frozen per-item references of the same (fixed)
  algorithms, on all five problem domains.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pytest

from repro.core.dynamic import DynamicMaximizer
from repro.core.functions import (
    AverageUtility,
    BSMCombined,
    GroupedObjective,
    MinUtility,
    ObjectiveState,
    Scalarizer,
    TruncatedFairness,
    WeightedCombination,
)
from repro.core.result import SolverResult, make_result
from repro.core.sliding_window import SlidingWindowMaximizer
from repro.core.streaming import (
    ObjectiveStateBox,
    _level_indices,
    _prune_levels,
    sieve_streaming,
)
from repro.core.streaming_bsm import streaming_tsgreedy
from tests.test_batch_oracle import DOMAINS, _partial_state, _per_user


def _states_for(objective: GroupedObjective) -> list[ObjectiveState]:
    """A spread of states: empty, singleton, pair, larger prefix."""
    prefixes = [
        [],
        [0],
        [0, min(3, objective.num_items - 1)],
        list(range(min(5, objective.num_items))),
    ]
    states = []
    for prefix in prefixes:
        state = objective.new_state()
        for item in prefix:
            objective.add(state, item)
        states.append(state)
    return states


def _assert_rows_match(domain: str, batch, per_item) -> None:
    if domain == "facility":
        # The facility multi-state path reduces per-user deltas with one
        # BLAS matmul whose accumulation order differs from the per-item
        # bincount, so agreement is to the last ulp rather than bitwise
        # (same caveat as the pool batch; solutions stay identical — see
        # TestOnlineSolverParity).
        np.testing.assert_allclose(batch, per_item, rtol=1e-12, atol=1e-14)
    else:
        np.testing.assert_array_equal(batch, per_item)


# ---------------------------------------------------------------------------
# Oracle parity
# ---------------------------------------------------------------------------
class TestGainsStatesParity:
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_matches_stacked_gains(self, domain):
        objective = DOMAINS[domain]()
        states = _states_for(objective)
        for item in range(objective.num_items):
            batch = objective.gains_states(states, item)
            per_item = np.stack([objective.gains(s, item) for s in states])
            assert batch.shape == (len(states), objective.num_groups)
            _assert_rows_match(domain, batch, per_item)

    def test_per_user_fallback_matches(self):
        objective = _per_user()
        states = _states_for(objective)
        for item in range(objective.num_items):
            batch = objective.gains_states(states, item)
            per_item = np.stack([objective.gains(s, item) for s in states])
            np.testing.assert_array_equal(batch, per_item)

    def test_states_containing_item_get_zero_rows(self):
        objective = DOMAINS["coverage"]()
        state = _partial_state(objective)
        item = state.selected[0]
        batch = objective.gains_states(
            [state, objective.new_state()], item
        )
        np.testing.assert_array_equal(
            batch[0], np.zeros(objective.num_groups)
        )
        assert batch[1].sum() >= 0.0

    def test_empty_state_list(self):
        objective = DOMAINS["coverage"]()
        batch = objective.gains_states([], 0)
        assert batch.shape == (0, objective.num_groups)

    def test_out_of_range_raises(self):
        objective = DOMAINS["coverage"]()
        with pytest.raises(IndexError):
            objective.gains_states([objective.new_state()], objective.num_items)

    def test_counters(self):
        objective = DOMAINS["coverage"]()
        states = _states_for(objective)
        objective.reset_counter()
        objective.gains_states(states, 0)
        assert objective.oracle_calls == len(states)
        assert objective.batch_oracle_calls == 1

    def test_gains_states_is_pure(self):
        objective = DOMAINS["coverage"]()
        states = _states_for(objective)
        before_values = [s.group_values.copy() for s in states]
        before_covered = [s.payload.copy() for s in states]
        objective.gains_states(states, objective.num_items - 1)
        for state, values, covered in zip(
            states, before_values, before_covered
        ):
            np.testing.assert_array_equal(state.group_values, values)
            np.testing.assert_array_equal(state.payload, covered)

    def test_duplicate_states_allowed(self):
        objective = DOMAINS["facility"]()
        state = _partial_state(objective)
        batch = objective.gains_states([state, state, state], 5)
        np.testing.assert_array_equal(batch[0], batch[1])
        np.testing.assert_array_equal(batch[1], batch[2])


# ---------------------------------------------------------------------------
# Scalarizer parity
# ---------------------------------------------------------------------------
SCALARIZERS = {
    "average": AverageUtility(),
    "min": MinUtility(),
    "truncated": TruncatedFairness(0.4),
    "bsm": BSMCombined(utility_threshold=0.5, fairness_threshold=0.3),
    "weighted": WeightedCombination(
        [(0.7, AverageUtility()), (0.3, TruncatedFairness(0.4))]
    ),
}


class TestScalarizerGainStates:
    @pytest.mark.parametrize("name", sorted(SCALARIZERS))
    def test_matches_rowwise_gain(self, name):
        scalarizer = SCALARIZERS[name]
        rng = np.random.default_rng(41)
        weights = rng.dirichlet(np.ones(4))
        group_values = rng.uniform(0.0, 0.6, size=(9, 4))
        gains_matrix = rng.uniform(0.0, 0.3, size=(9, 4))
        batch = scalarizer.gain_states(group_values, gains_matrix, weights)
        per_state = np.asarray(
            [
                scalarizer.gain(group_values[r], gains_matrix[r], weights)
                for r in range(group_values.shape[0])
            ]
        )
        np.testing.assert_allclose(batch, per_state, rtol=0, atol=1e-15)

    def test_generic_fallback_used_by_custom_scalarizer(self):
        class Quadratic(Scalarizer):
            def value(self, group_values, weights):
                return float((group_values**2) @ weights)

        rng = np.random.default_rng(43)
        weights = rng.dirichlet(np.ones(3))
        group_values = rng.uniform(size=(5, 3))
        gains_matrix = rng.uniform(size=(5, 3))
        s = Quadratic()
        batch = s.gain_states(group_values, gains_matrix, weights)
        per_state = [
            s.gain(group_values[r], gains_matrix[r], weights)
            for r in range(5)
        ]
        np.testing.assert_array_equal(batch, np.asarray(per_state))


# ---------------------------------------------------------------------------
# Frozen per-item references (the pre-batch arrival loops, with the
# satellite fixes applied, driving the oracle one state at a time)
# ---------------------------------------------------------------------------
def per_item_sieve_streaming(
    objective: GroupedObjective,
    k: int,
    *,
    epsilon: float = 0.1,
    stream: Optional[Iterable[int]] = None,
    scalarizer: Optional[Scalarizer] = None,
) -> SolverResult:
    """Per-item Sieve-Streaming, verbatim from the seed implementation."""
    scal = scalarizer or AverageUtility()
    weights = objective.group_weights
    items = list(range(objective.num_items)) if stream is None else [
        int(v) for v in stream
    ]
    max_singleton = 0.0
    sieves: dict[int, ObjectiveStateBox] = {}
    for item in items:
        empty = objective.new_state()
        singleton_gain = scal.gain(
            empty.group_values, objective.gains(empty, item), weights
        )
        if singleton_gain > max_singleton:
            max_singleton = singleton_gain
            sieves = _prune_levels(sieves, max_singleton, k, epsilon)
        if max_singleton <= 0:
            continue
        for j in _level_indices(max_singleton, k, epsilon):
            box = sieves.get(j)
            if box is None:
                box = ObjectiveStateBox(objective.new_state())
                sieves[j] = box
            state = box.state
            if state.size >= k or state.in_solution[item]:
                continue
            v = (1.0 + epsilon) ** j
            value = scal.value(state.group_values, weights)
            threshold = (v / 2.0 - value) / (k - state.size)
            gain = scal.gain(
                state.group_values, objective.gains(state, item), weights
            )
            if gain >= threshold and gain > 0:
                objective.add(state, item)
    best_state = objective.new_state()
    best_value = 0.0
    for box in sieves.values():
        value = scal.value(box.state.group_values, weights)
        if value > best_value:
            best_value = value
            best_state = box.state
    return make_result(
        "SieveStreaming",
        objective,
        best_state,
        extra={
            "epsilon": epsilon,
            "levels": len(sieves),
            "max_singleton": max_singleton,
        },
    )


class PerItemSlidingWindow(SlidingWindowMaximizer):
    """The fixed sliding-window maximizer with the per-item arrival loop."""

    def process(self, item: int) -> None:
        if not 0 <= item < self._objective.num_items:
            raise IndexError(item)
        self._expire()
        self._maybe_spawn()
        self._last_seen[item] = self._clock
        weights = self._objective.group_weights
        singleton = self._scal.gain(
            self._empty.group_values,
            self._objective.gains(self._empty, item),
            weights,
        )
        for ckpt in self._checkpoints:
            if singleton > ckpt.max_singleton:
                ckpt.max_singleton = singleton
            state = ckpt.state
            if state.in_solution[item] or state.size >= self._k:
                continue
            gains = self._objective.gains(state, item)
            gain = self._scal.gain(state.group_values, gains, weights)
            guess = 2.0 * ckpt.max_singleton * self._k
            value = self._scal.value(state.group_values, weights)
            threshold = max(
                (guess / 2.0 - value) / (self._k - state.size), 0.0
            )
            if gain >= threshold and gain > 0.0:
                self._objective.add(state, item)
        self._clock += 1


class PerItemDynamic(DynamicMaximizer):
    """The fixed dynamic maximizer with per-item _offer/_rebuild loops."""

    def _offer(self, item: int) -> None:
        weights = self._objective.group_weights
        singleton = self._scal.gain(
            self._empty.group_values,
            self._objective.gains(self._empty, item),
            weights,
        )
        if singleton > self._max_singleton:
            self._max_singleton = singleton
        if self._state.size >= self._k or self._state.in_solution[item]:
            return
        gain = self._scal.gain(
            self._state.group_values,
            self._objective.gains(self._state, item),
            weights,
        )
        guess = 2.0 * self._max_singleton * self._k
        value = self._scal.value(self._state.group_values, weights)
        threshold = max(
            (guess / 2.0 - value) / (self._k - self._state.size), 0.0
        )
        if gain >= threshold and gain > 0.0:
            self._objective.add(self._state, item)

    def _rebuild(self) -> None:
        from repro.core.greedy import greedy_max

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
        weights = self._objective.group_weights
        for item in self._state.selected:
            single = self._scal.gain(
                self._empty.group_values,
                self._objective.gains(self._empty, item),
                weights,
            )
            self._max_singleton = max(self._max_singleton, single)


def _stream_for(objective: GroupedObjective, seed: int = 7) -> list[int]:
    """Two shuffled passes plus a tail of repeats."""
    rng = np.random.default_rng(seed)
    n = objective.num_items
    stream = list(rng.permutation(n)) + list(rng.permutation(n))
    stream += [int(v) for v in rng.integers(0, n, size=n // 2)]
    return [int(v) for v in stream]


# ---------------------------------------------------------------------------
# Solver parity
# ---------------------------------------------------------------------------
class TestOnlineSolverParity:
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_sieve_streaming_matches_per_item(self, domain):
        objective = DOMAINS[domain]()
        stream = _stream_for(objective)
        reference = per_item_sieve_streaming(
            objective, 4, epsilon=0.15, stream=stream
        )
        result = sieve_streaming(objective, 4, epsilon=0.15, stream=stream)
        assert result.solution == reference.solution, domain
        np.testing.assert_array_equal(
            result.group_values, reference.group_values
        )
        assert result.extra["levels"] == reference.extra["levels"]

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_sieve_streaming_fairness_scalarizer_matches(self, domain):
        objective = DOMAINS[domain]()
        stream = _stream_for(objective, seed=11)
        scal = TruncatedFairness(0.3)
        reference = per_item_sieve_streaming(
            objective, 3, epsilon=0.2, stream=stream, scalarizer=scal
        )
        result = sieve_streaming(
            objective, 3, epsilon=0.2, stream=stream, scalarizer=scal
        )
        assert result.solution == reference.solution, domain

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_sliding_window_matches_per_item(self, domain):
        objective = DOMAINS[domain]()
        stream = _stream_for(objective, seed=13)
        window = max(4, objective.num_items // 2)
        batch = SlidingWindowMaximizer(objective, 3, window)
        ref = PerItemSlidingWindow(objective, 3, window)
        for item in stream:
            batch.process(item)
            ref.process(item)
            assert batch.num_checkpoints == ref.num_checkpoints
        batch_ckpts = [
            (c.start, c.state.solution) for c in batch._checkpoints
        ]
        ref_ckpts = [(c.start, c.state.solution) for c in ref._checkpoints]
        assert batch_ckpts == ref_ckpts, domain
        assert batch.best().solution == ref.best().solution, domain

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_streaming_bsm_matches_per_item(self, domain, monkeypatch):
        objective = DOMAINS[domain]()
        stream = _stream_for(objective, seed=17)
        result = streaming_tsgreedy(
            objective, 4, 0.5, stream=stream, seed=23
        )
        monkeypatch.setattr(
            "repro.core.streaming_bsm.sieve_streaming",
            per_item_sieve_streaming,
        )
        reference = streaming_tsgreedy(
            objective, 4, 0.5, stream=stream, seed=23
        )
        assert result.solution == reference.solution, domain
        np.testing.assert_array_equal(
            result.group_values, reference.group_values
        )
        assert result.extra["stage1_size"] == reference.extra["stage1_size"]

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_dynamic_matches_per_item(self, domain):
        objective = DOMAINS[domain]()
        rng = np.random.default_rng(29)
        batch = DynamicMaximizer(objective, 3, rebuild_factor=0.5)
        ref = PerItemDynamic(objective, 3, rebuild_factor=0.5)
        n = objective.num_items
        live: set[int] = set()
        for _ in range(4 * n):
            if live and rng.random() < 0.35:
                victim = int(rng.choice(sorted(live)))
                batch.delete(victim)
                ref.delete(victim)
                live.discard(victim)
            else:
                item = int(rng.integers(0, n))
                batch.insert(item)
                ref.insert(item)
                live.add(item)
            assert batch.solution == ref.solution, domain
            # The threshold anchor is folded by gain_states (one BLAS
            # gemv) vs per-row scalar dots in the reference; accumulation
            # order may differ in the last ulp even when the gain rows
            # are bitwise identical. Solutions stay pinned bitwise above.
            np.testing.assert_allclose(
                batch._max_singleton, ref._max_singleton, rtol=1e-12
            )
        assert batch.rebuilds == ref.rebuilds
        assert batch.best().solution == ref.best().solution, domain

    def test_sieve_streaming_uses_multi_state_batches(self):
        objective = DOMAINS["coverage"]()
        objective.reset_counter()
        sieve_streaming(objective, 4, epsilon=0.2)
        assert objective.batch_oracle_calls >= 1

    def test_sliding_window_uses_multi_state_batches(self):
        objective = DOMAINS["coverage"]()
        objective.reset_counter()
        sw = SlidingWindowMaximizer(objective, 3, window=6)
        for item in range(objective.num_items):
            sw.process(item)
        assert objective.batch_oracle_calls >= objective.num_items
