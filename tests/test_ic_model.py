"""Tests for repro.influence.ic_model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.influence.ic_model import (
    exact_group_spread,
    monte_carlo_group_spread,
    monte_carlo_spread,
    simulate_cascade,
)


def _path_graph(p: float = 0.5) -> Graph:
    """0 -> 1 -> 2 with probability p on each arc, two groups."""
    g = Graph(3, [(0, 1, p), (1, 2, p)], directed=True, groups=[0, 0, 1])
    return g


class TestSimulateCascade:
    def test_seeds_always_active(self):
        g = _path_graph(0.0)
        active = simulate_cascade(g, [0], np.random.default_rng(0))
        assert active[0]
        assert not active[1] and not active[2]

    def test_full_probability_reaches_everyone(self):
        g = _path_graph(1.0)
        active = simulate_cascade(g, [0], np.random.default_rng(0))
        assert active.all()

    def test_bad_seed_rejected(self):
        g = _path_graph()
        with pytest.raises(IndexError):
            simulate_cascade(g, [7], np.random.default_rng(0))

    def test_duplicate_seeds_ok(self):
        g = _path_graph(1.0)
        active = simulate_cascade(g, [0, 0], np.random.default_rng(0))
        assert active.all()


class TestExactGroupSpread:
    def test_path_graph_probabilities(self):
        g = _path_graph(0.5)
        values = exact_group_spread(g, [0])
        # P[u0]=1, P[u1]=0.5, P[u2]=0.25.
        assert values[0] == pytest.approx((1.0 + 0.5) / 2)
        assert values[1] == pytest.approx(0.25)

    def test_refuses_large_instances(self):
        g = Graph(30, [(i, i + 1) for i in range(29)], directed=True,
                  groups=[0] * 30)
        with pytest.raises(ValueError):
            exact_group_spread(g, [0])

    @pytest.mark.parametrize("num_nodes,arcs", [(4, 21), (21, 1)])
    def test_guard_refuses_before_listing_arcs(
        self, monkeypatch, num_nodes, arcs
    ):
        # Parallel arcs push the count past 20 on a graph small enough in
        # nodes; the guard must refuse from the counts alone.
        g = Graph(num_nodes, [(0, 1, 0.5)] * arcs, directed=True,
                  groups=[0] * num_nodes)

        def no_listing():
            raise AssertionError("edges() listed before the size guard")

        monkeypatch.setattr(g, "edges", no_listing)
        with pytest.raises(ValueError, match="instance too large"):
            exact_group_spread(g, [0])

    def test_seed_in_group(self):
        g = _path_graph(0.0)
        values = exact_group_spread(g, [2])
        assert values[1] == pytest.approx(1.0)
        assert values[0] == pytest.approx(0.0)


class TestMonteCarloEstimates:
    def test_matches_exact_on_path(self):
        g = _path_graph(0.5)
        exact = exact_group_spread(g, [0])
        mc = monte_carlo_group_spread(g, [0], 4000, seed=1)
        np.testing.assert_allclose(mc, exact, atol=0.05)

    def test_spread_scalar(self):
        g = _path_graph(1.0)
        assert monte_carlo_spread(g, [0], 10, seed=0) == pytest.approx(1.0)

    def test_zero_probability_only_seeds(self):
        g = _path_graph(0.0)
        assert monte_carlo_spread(g, [0], 10, seed=0) == pytest.approx(1 / 3)

    def test_seed_determinism(self):
        g = _path_graph(0.5)
        a = monte_carlo_group_spread(g, [0], 100, seed=5)
        b = monte_carlo_group_spread(g, [0], 100, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_num_simulations_validated(self):
        g = _path_graph()
        with pytest.raises(ValueError):
            monte_carlo_spread(g, [0], 0)

    def test_monotone_in_seeds(self):
        g = _path_graph(0.3)
        one = monte_carlo_group_spread(g, [0], 2000, seed=2)
        two = monte_carlo_group_spread(g, [0, 2], 2000, seed=2)
        assert np.all(two >= one - 1e-9)
