"""Tests for repro.graphs.graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GroupPartitionError, StorageError
from repro.graphs import graph as graph_module
from repro.graphs.graph import CSRGraph, Graph, GraphDelta


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert not g.directed

    def test_edges_in_constructor(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert sorted(g.out_neighbors(1)) == [0, 2]

    def test_weighted_edges(self):
        g = Graph(2, [(0, 1, 0.3)], directed=True)
        assert list(g.edges()) == [(0, 1, 0.3)]

    def test_undirected_stores_both_arcs(self):
        g = Graph(2, [(0, 1)])
        assert g.num_arcs == 2
        assert g.num_edges == 1

    def test_directed_stores_one_arc(self):
        g = Graph(2, [(0, 1)], directed=True)
        assert g.num_arcs == 1
        assert g.out_neighbors(1) == []

    def test_self_loop_undirected_single_arc(self):
        g = Graph(2, [(1, 1)])
        assert g.out_neighbors(1) == [1]
        assert g.num_arcs == 1

    def test_invalid_node_rejected(self):
        g = Graph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5)

    def test_invalid_probability_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, probability=1.5)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Graph(0)


class TestGroups:
    def test_set_and_get(self):
        g = Graph(4, groups=[0, 0, 1, 1])
        assert g.num_groups == 2
        np.testing.assert_array_equal(g.group_members(1), [2, 3])
        assert g.group_sizes().tolist() == [2, 2]

    def test_missing_groups_raise(self):
        g = Graph(3)
        assert not g.has_groups
        with pytest.raises(GroupPartitionError):
            _ = g.groups
        with pytest.raises(GroupPartitionError):
            _ = g.num_groups

    def test_wrong_length_rejected(self):
        g = Graph(3)
        with pytest.raises(GroupPartitionError):
            g.set_groups([0, 1])

    def test_empty_group_label_rejected(self):
        g = Graph(3)
        with pytest.raises(GroupPartitionError, match="empty group"):
            g.set_groups([0, 0, 2])  # label 1 missing

    def test_negative_label_rejected(self):
        g = Graph(2)
        with pytest.raises(GroupPartitionError):
            g.set_groups([-1, 0])


class TestQueries:
    def test_out_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)], directed=True)
        assert g.out_degree(0) == 3
        assert g.out_degree(1) == 0

    def test_edges_iteration_undirected(self):
        g = Graph(3, [(0, 1, 0.5)])
        arcs = sorted((u, v) for u, v, _ in g.edges())
        assert arcs == [(0, 1), (1, 0)]

    def test_csr_layout(self):
        g = Graph(3, [(0, 1), (0, 2)], directed=True)
        indptr, indices, probs = g.out_adjacency()
        assert indptr.tolist() == [0, 2, 2, 2]
        assert sorted(indices.tolist()) == [1, 2]
        assert probs.tolist() == [1.0, 1.0]

    def test_csr_cache_invalidated_on_add(self):
        g = Graph(3, [(0, 1)], directed=True)
        g.out_adjacency()
        g.add_edge(1, 2)
        indptr, _, _ = g.out_adjacency()
        assert indptr[-1] == 2

    def test_set_edge_probabilities(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        g.set_edge_probabilities(0.25)
        assert all(p == 0.25 for _, _, p in g.edges())

    def test_set_edge_probabilities_validates(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.set_edge_probabilities(-0.1)


class TestTranspose:
    def test_directed_transpose_flips(self):
        g = Graph(3, [(0, 1, 0.7)], directed=True)
        t = g.transpose()
        assert list(t.edges()) == [(1, 0, 0.7)]
        assert t.directed

    def test_groups_carried_over(self):
        g = Graph(2, [(0, 1)], directed=True, groups=[0, 1])
        t = g.transpose()
        assert t.num_groups == 2

    def test_undirected_transpose_same_arcs(self):
        g = Graph(3, [(0, 1), (1, 2)])
        t = g.transpose()
        assert sorted((u, v) for u, v, _ in t.edges()) == sorted(
            (u, v) for u, v, _ in g.edges()
        )


class TestCsrCacheInvalidation:
    """Every mutator must drop BOTH cached CSR views (PR 6 audit)."""

    @staticmethod
    def _arc_probability(adjacency, u, v):
        indptr, indices, probs = adjacency
        for i in range(int(indptr[u]), int(indptr[u + 1])):
            if int(indices[i]) == v:
                return float(probs[i])
        return None

    def test_add_edge_invalidates_both_caches(self):
        g = Graph(3, [(0, 1)], directed=True)
        g.out_adjacency()
        g.transpose_adjacency()
        g.add_edge(1, 2, probability=0.5)
        assert self._arc_probability(g.out_adjacency(), 1, 2) == 0.5
        # Transpose holds the reversed arc 2 -> 1.
        assert self._arc_probability(g.transpose_adjacency(), 2, 1) == 0.5

    def test_set_arc_probability_invalidates_both_caches(self):
        g = Graph(3, [(0, 1, 0.9)], directed=True)
        g.out_adjacency()
        g.transpose_adjacency()
        g.set_arc_probability(0, 1, 0.25)
        assert self._arc_probability(g.out_adjacency(), 0, 1) == 0.25
        assert self._arc_probability(g.transpose_adjacency(), 1, 0) == 0.25

    def test_set_edge_probabilities_invalidates_both_caches(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        g.out_adjacency()
        g.transpose_adjacency()
        g.set_edge_probabilities(0.125)
        assert self._arc_probability(g.out_adjacency(), 0, 1) == 0.125
        assert self._arc_probability(g.transpose_adjacency(), 2, 1) == 0.125

    def test_cache_rebuild_does_not_touch_mutation_log(self):
        g = Graph(3, [(0, 1, 0.9)], directed=True)
        v0 = g.version
        g.set_arc_probability(0, 1, 0.3)
        # Rebuilding both CSR caches must not lose or duplicate the log.
        g.out_adjacency()
        g.transpose_adjacency()
        g.out_adjacency()
        delta = g.mutations_since(v0)
        assert delta is not None and delta.num_arcs == 1
        assert delta.sources.tolist() == [0]
        assert delta.targets.tolist() == [1]
        assert delta.old_probabilities.tolist() == [0.9]
        assert delta.new_probabilities.tolist() == [0.3]


_PROBS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def _edit_scripts(draw):
    """A small graph (parallel arcs and self-loops are frequent at this
    size) plus a script of reads, arc edits and cache-dropping adds."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 4))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, _PROBS), min_size=1,
                          max_size=10))
    step = st.one_of(
        st.tuples(st.just("read_out")),
        st.tuples(st.just("read_transpose")),
        st.tuples(st.just("set"), st.integers(0, 10**6), _PROBS),
        st.tuples(st.just("add"), node, node, _PROBS),
    )
    return directed, n, edges, draw(st.lists(step, max_size=20))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def _check_against_fresh(g):
    """Every warm cache equals, bit for bit, a from-scratch build, whose
    forward triple in turn equals a per-arc loop over ``edges()``."""
    arcs = list(g.edges())
    fresh = Graph(g.num_nodes, arcs, directed=True)
    looped = (
        np.cumsum([0] + [g.out_degree(u) for u in range(g.num_nodes)],
                  dtype=np.int64),
        np.array([v for _, v, _ in arcs], dtype=np.int64),
        np.array([p for _, _, p in arcs], dtype=np.float64),
    )
    assert all(_same_bits(a, b)
               for a, b in zip(fresh.out_adjacency(), looped))
    for cached, build in ((g._csr_cache, fresh.out_adjacency),
                          (g._transpose_cache, fresh.transpose_adjacency)):
        if cached is not None:
            assert all(_same_bits(a, b) for a, b in zip(cached, build()))


class TestArcEditsPatchCaches:
    """``set_arc_probability`` patches warm CSR caches copy-on-write."""

    @settings(max_examples=150, deadline=None)
    @given(script=_edit_scripts())
    def test_patched_caches_match_fresh_build(self, script):
        directed, n, edges, steps = script
        g = Graph(n, edges, directed=directed)
        for step in steps:
            if step[0] == "read_out":
                g.out_adjacency()
            elif step[0] == "read_transpose":
                g.transpose_adjacency()
            elif step[0] == "add":
                _, u, v, p = step
                g.add_edge(u, v, probability=p)
                assert g._csr_cache is None and g._transpose_cache is None
            else:
                _, pick, p = step
                arcs = list(g.edges())
                u, v, _ = arcs[pick % len(arcs)]
                held = [g._csr_cache, g._transpose_cache]
                frozen = [None if t is None else tuple(a.copy() for a in t)
                          for t in held]
                g.set_arc_probability(u, v, p)
                for before, snapshot, after in zip(
                    held, frozen, (g._csr_cache, g._transpose_cache)
                ):
                    if before is None:
                        assert after is None
                        continue
                    assert after[0] is before[0] and after[1] is before[1]
                    assert after[2] is not before[2]
                    assert all(_same_bits(a, b)
                               for a, b in zip(before, snapshot))
            _check_against_fresh(g)
        g.transpose_adjacency()
        _check_against_fresh(g)

    @pytest.mark.parametrize("directed", [True, False])
    def test_parallel_arcs_and_self_loops_patched(self, directed):
        g = Graph(3, [(0, 1, 0.2), (1, 1, 0.3), (0, 1, 0.4), (2, 0, 0.5)],
                  directed=directed)
        g.transpose_adjacency()
        g.set_arc_probability(0, 1, 0.75)
        g.set_arc_probability(1, 1, 0.125)
        _check_against_fresh(g)
        out = dict(((u, v), p) for u, v, p in g.edges())
        assert out[0, 1] == 0.75 and out[1, 1] == 0.125
        if not directed:
            assert out[1, 0] == 0.75


class TestMutationLog:
    def test_add_edge_records_move_from_zero(self):
        g = Graph(3, directed=True)
        v0 = g.version
        g.add_edge(0, 2, probability=0.7)
        delta = g.mutations_since(v0)
        assert delta.num_arcs == 1
        assert delta.old_probabilities.tolist() == [0.0]
        assert delta.new_probabilities.tolist() == [0.7]

    def test_undirected_mutations_record_both_directions(self):
        g = Graph(3, [(0, 1, 0.4)])
        v0 = g.version
        g.set_arc_probability(0, 1, 0.8)
        delta = g.mutations_since(v0)
        assert delta.num_arcs == 2
        arcs = sorted(zip(delta.sources.tolist(), delta.targets.tolist()))
        assert arcs == [(0, 1), (1, 0)]
        assert delta.new_probabilities.tolist() == [0.8, 0.8]

    def test_successive_changes_collapse_to_one_record(self):
        g = Graph(2, [(0, 1, 0.9)], directed=True)
        v0 = g.version
        g.set_arc_probability(0, 1, 0.5)
        g.set_arc_probability(0, 1, 0.2)
        delta = g.mutations_since(v0)
        assert delta.num_arcs == 1
        assert delta.old_probabilities.tolist() == [0.9]
        assert delta.new_probabilities.tolist() == [0.2]

    def test_round_trip_change_drops_out_of_delta(self):
        g = Graph(2, [(0, 1, 0.9)], directed=True)
        v0 = g.version
        g.set_arc_probability(0, 1, 0.5)
        g.set_arc_probability(0, 1, 0.9)
        delta = g.mutations_since(v0)
        assert isinstance(delta, GraphDelta)
        assert delta.num_arcs == 0

    def test_intermediate_version_sees_only_later_changes(self):
        g = Graph(3, [(0, 1, 0.9), (1, 2, 0.9)], directed=True)
        g.set_arc_probability(0, 1, 0.5)
        mid = g.version
        g.set_arc_probability(1, 2, 0.4)
        delta = g.mutations_since(mid)
        assert delta.num_arcs == 1
        assert (delta.sources[0], delta.targets[0]) == (1, 2)

    def test_future_version_raises(self):
        g = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            g.mutations_since(g.version + 1)

    def test_wholesale_rewrite_floors_log(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        v0 = g.version
        g.set_edge_probabilities(0.3)
        assert g.mutations_since(v0) is None
        # From the rewrite onward the log replays again.
        v1 = g.version
        g.set_arc_probability(0, 1, 0.6)
        delta = g.mutations_since(v1)
        assert delta is not None and delta.num_arcs == 1

    def test_log_overflow_floors(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MUTATION_LOG_LIMIT", 4)
        g = Graph(2, [(0, 1, 0.5)], directed=True)
        v0 = g.version
        for i in range(6):
            g.set_arc_probability(0, 1, 0.1 + 0.1 * i)
        assert g.mutations_since(v0) is None
        # Post-overflow mutations replay from the new floor.
        v1 = g.version
        g.set_arc_probability(0, 1, 0.9)
        delta = g.mutations_since(v1)
        assert delta is not None and delta.num_arcs == 1

    def test_set_arc_probability_missing_arc_raises(self):
        g = Graph(3, [(0, 1)], directed=True)
        v0 = g.version
        with pytest.raises(KeyError):
            g.set_arc_probability(1, 0, 0.5)
        # A failed mutation leaves version and log untouched.
        assert g.version == v0
        assert g.mutations_since(v0).num_arcs == 0

    def test_set_arc_probability_validates(self):
        g = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            g.set_arc_probability(0, 1, 1.5)
        with pytest.raises(IndexError):
            g.set_arc_probability(0, 5, 0.5)

    def test_parallel_arcs_all_updated(self):
        g = Graph(2, [(0, 1, 0.3), (0, 1, 0.6)], directed=True)
        g.set_arc_probability(0, 1, 0.9)
        probs = [p for u, v, p in g.edges() if (u, v) == (0, 1)]
        assert probs == [0.9, 0.9]

    def test_empty_delta_arrays_are_typed(self):
        g = Graph(2, [(0, 1)], directed=True)
        delta = g.mutations_since(g.version)
        assert delta.sources.dtype == np.int64
        assert delta.old_probabilities.dtype == np.float64
        assert delta.num_arcs == 0

    def test_log_overflow_keeps_newer_half(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MUTATION_LOG_LIMIT", 4)
        g = Graph(2, [(0, 1, 0.5)], directed=True)
        v0 = g.version
        versions = []
        for i in range(5):
            g.set_arc_probability(0, 1, 0.1 + 0.1 * i)
            versions.append(g.version)
        # The fifth record overflowed the log: the oldest half (the
        # build's record and the first edit's) went, so only a consumer
        # at v0 falls back to a rebuild.
        assert g.mutations_since(v0) is None
        for version in versions:
            assert g.mutations_since(version) is not None
        delta = g.mutations_since(versions[0])
        assert delta.old_probabilities.tolist() == [0.1]
        assert delta.new_probabilities.tolist() == [pytest.approx(0.5)]

    @settings(max_examples=60, deadline=None)
    @given(
        limit=st.integers(1, 12),
        directed=st.booleans(),
        edits=st.lists(
            st.tuples(
                st.integers(0, 3), st.sampled_from([0.1, 0.25, 0.5, 0.9])
            ),
            max_size=40,
        ),
    )
    def test_replay_matches_full_history_scan(self, limit, directed, edits):
        """Every replayable version gives the delta of the whole history.

        The graph has a parallel arc and a self-loop, so one edit logs
        one to four records; small limits overflow the log mid-stream.
        """
        history: list[tuple[int, int, int, float, float]] = []
        record = Graph._record_mutation

        def spy(self, u, v, old_p, new_p):
            history.append((self._version, u, v, old_p, new_p))
            record(self, u, v, old_p, new_p)

        arcs = [(0, 1), (1, 2), (2, 0), (2, 2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "MUTATION_LOG_LIMIT", limit)
            mp.setattr(Graph, "_record_mutation", spy)
            g = Graph(
                3,
                [(0, 1, 0.3), (1, 2, 0.3), (2, 0, 0.3), (0, 1, 0.6), (2, 2, 0.5)],
                directed=directed,
            )
            for arc, probability in edits:
                g.set_arc_probability(*arcs[arc], probability)
                for version in range(g.version + 1):
                    delta = g.mutations_since(version)
                    if version < g._log_floor:
                        assert delta is None
                        continue
                    expected = _linear_scan(history, version)
                    assert list(
                        zip(
                            delta.sources.tolist(),
                            delta.targets.tolist(),
                            delta.old_probabilities.tolist(),
                            delta.new_probabilities.tolist(),
                        )
                    ) == expected


def _linear_scan(log, version):
    """Frozen reference: the full-log scan ``mutations_since`` used to run."""
    first: dict[tuple[int, int], float] = {}
    last: dict[tuple[int, int], float] = {}
    for ver, u, v, old_p, new_p in log:
        if ver <= version:
            continue
        key = (u, v)
        if key not in first:
            first[key] = old_p
        last[key] = new_p
    return [
        (u, v, first[u, v], last[u, v])
        for (u, v) in first
        if first[u, v] != last[u, v]
    ]


class TestAddEdges:
    """``add_edges`` leaves what the same ``add_edge`` loop leaves."""

    EDGE_SETS = {
        "plain": [(0, 1), (2, 3), (1, 2), (0, 4)],
        "self-loops": [(1, 1), (0, 2), (2, 2), (2, 0)],
        "parallel": [(0, 1), (1, 0), (0, 1), (3, 4), (0, 1)],
        "empty": [],
    }
    BASE = [(4, 0, 0.5), (1, 3, 0.25)]

    @staticmethod
    def _pair(directed, base):
        return (Graph(5, base, directed=directed),
                Graph(5, base, directed=directed))

    @staticmethod
    def _assert_same(a, b):
        assert list(a.edges()) == list(b.edges())
        for x, y in zip(a.out_adjacency(), b.out_adjacency()):
            np.testing.assert_array_equal(x, y)
        assert a.version == b.version
        assert a.num_edges == b.num_edges

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("edge_set", sorted(EDGE_SETS))
    @pytest.mark.parametrize("probs", ["default", "scalar", "per-edge"])
    @pytest.mark.parametrize("on_existing", [False, True])
    def test_matches_add_edge_loop(self, directed, edge_set, probs, on_existing):
        edges = self.EDGE_SETS[edge_set]
        looped, bulk = self._pair(directed, self.BASE if on_existing else ())
        if probs == "default":
            per_edge, arg = [1.0] * len(edges), None
        elif probs == "scalar":
            per_edge, arg = [0.3] * len(edges), 0.3
        else:
            per_edge = [0.1 * (i + 1) for i in range(len(edges))]
            arg = np.asarray(per_edge)
        for (u, v), p in zip(edges, per_edge):
            looped.add_edge(u, v, probability=p)
        bulk.add_edges([u for u, _ in edges], [v for _, v in edges], arg)
        self._assert_same(looped, bulk)
        if not looped.num_edges:
            return
        # A later single-arc update replays the same delta on both.
        u, v, _ = next(looped.edges())
        v0 = looped.version
        looped.set_arc_probability(u, v, 0.9)
        bulk.set_arc_probability(u, v, 0.9)
        self._assert_same(looped, bulk)
        d_loop, d_bulk = looped.mutations_since(v0), bulk.mutations_since(v0)
        for field in ("sources", "targets", "old_probabilities",
                      "new_probabilities"):
            np.testing.assert_array_equal(
                getattr(d_loop, field), getattr(d_bulk, field)
            )

    def test_bulk_build_floors_the_log(self):
        g = Graph(3, [(0, 1)], directed=True)
        v0 = g.version
        g.add_edges([1, 2], [2, 0], 0.5)
        assert g.version == v0 + 2
        assert g.mutations_since(v0) is None
        assert g.mutations_since(g.version).num_arcs == 0

    def test_empty_call_changes_nothing(self):
        g = Graph(3, [(0, 1)], directed=True)
        v0 = g.version
        g.add_edges([], [])
        assert g.version == v0
        assert g.mutations_since(0).num_arcs == 1

    @pytest.mark.parametrize(
        "sources,targets,probs,error",
        [
            ([0, -1], [1, 2], None, IndexError),
            ([0, 1], [1, 5], None, IndexError),
            ([0, 1], [1, 2], [0.5, 1.5], ValueError),
            ([0, 1], [1, 2], -0.1, ValueError),
            ([0, 1], [1, 2], [0.5, float("nan")], ValueError),
            ([0, 1], [1, 2, 3], None, ValueError),
            ([0, 1], [1, 2], [0.5], ValueError),
        ],
    )
    @pytest.mark.parametrize("directed", [True, False])
    def test_rejected_input_leaves_graph_unchanged(
        self, sources, targets, probs, error, directed
    ):
        g = Graph(5, self.BASE, directed=directed)
        before = list(g.edges()), g.version, g.num_edges
        with pytest.raises(error):
            g.add_edges(sources, targets, probs)
        assert (list(g.edges()), g.version, g.num_edges) == before
        assert g.mutations_since(0).num_arcs == g.num_arcs

    def test_bad_node_error_names_the_node(self):
        g = Graph(3, directed=True)
        with pytest.raises(IndexError, match=r"node 7 out of range \[0, 3\)"):
            g.add_edges([0, 7], [1, 1])

    def test_csr_graph_rejects_bulk_edges(self):
        g = Graph(3, [(0, 1)], directed=True)
        csr = CSRGraph(3, g.out_adjacency(), g.transpose_adjacency())
        with pytest.raises(StorageError):
            csr.add_edges([1], [2])
