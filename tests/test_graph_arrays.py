"""Differential tests: the array-backed ``Graph`` against a frozen copy of
the adjacency-list ``Graph`` it replaced.

Hypothesis scripts of arc edits run on both; after every step every
query, the version counter and every replayable mutation delta must be
bitwise identical. The read-only ``CSRGraph`` loaded from an ``RCSR``
file is held to the same copy.
"""

from __future__ import annotations

import tempfile
from bisect import bisect_right
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.graphs.io import read_csr_graph, write_csr_graph
from repro.utils.csr import stable_order

_record_version = itemgetter(0)


class ListGraph:
    """Frozen adjacency-list ``Graph``: per-node ``_succ`` / ``_succ_p``
    lists, CSR flattened with ``np.fromiter``, transpose by argsort."""

    LOG_LIMIT = 65_536

    def __init__(self, num_nodes, *, directed):
        self.num_nodes = num_nodes
        self.directed = directed
        self._succ = [[] for _ in range(num_nodes)]
        self._succ_p = [[] for _ in range(num_nodes)]
        self._num_input_edges = 0
        self._version = 0
        self._mutation_log = []
        self._log_floor = 0

    def add_edge(self, u, v, *, probability=1.0):
        self._succ[u].append(v)
        self._succ_p[u].append(probability)
        if not self.directed and u != v:
            self._succ[v].append(u)
            self._succ_p[v].append(probability)
        self._num_input_edges += 1
        self._version += 1
        self._record_mutation(u, v, 0.0, probability)
        if not self.directed and u != v:
            self._record_mutation(v, u, 0.0, probability)

    def add_edges(self, sources, targets, probabilities=None):
        u = np.asarray(sources, dtype=np.int64)
        v = np.asarray(targets, dtype=np.int64)
        p = np.asarray(
            1.0 if probabilities is None else probabilities, dtype=np.float64
        )
        if p.ndim == 0:
            p = np.full(u.shape, float(p))
        if not u.size:
            return
        if self.directed:
            src, dst, prob = u, v, p
        else:
            keep = np.ones(2 * u.size, dtype=bool)
            keep[1::2] = u != v
            src = np.column_stack((u, v)).ravel()[keep]
            dst = np.column_stack((v, u)).ravel()[keep]
            prob = np.repeat(p, 2)[keep]
        order = np.argsort(src, kind="stable")
        dst_list = dst[order].tolist()
        prob_list = prob[order].tolist()
        counts = np.bincount(src, minlength=self.num_nodes)
        ends = np.cumsum(counts)
        nodes = np.flatnonzero(counts)
        for w, lo, hi in zip(
            nodes.tolist(), (ends - counts)[nodes].tolist(), ends[nodes].tolist()
        ):
            self._succ[w].extend(dst_list[lo:hi])
            self._succ_p[w].extend(prob_list[lo:hi])
        self._num_input_edges += int(u.size)
        self._version += int(u.size)
        self._mutation_log.clear()
        self._log_floor = self._version

    def set_edge_probabilities(self, probability):
        self._succ_p = [[probability] * len(lst) for lst in self._succ]
        self._version += 1
        self._mutation_log.clear()
        self._log_floor = self._version

    def set_arc_probability(self, u, v, probability):
        if all(w != v for w in self._succ[u]):
            raise KeyError(f"arc {u} -> {v} not present")
        self._version += 1
        arcs = [(u, v)]
        if not self.directed and u != v:
            arcs.append((v, u))
        for a, b in arcs:
            for i, w in enumerate(self._succ[a]):
                if w == b:
                    old = self._succ_p[a][i]
                    self._succ_p[a][i] = probability
                    self._record_mutation(a, b, old, probability)

    def _record_mutation(self, u, v, old_p, new_p):
        log = self._mutation_log
        log.append((self._version, u, v, old_p, new_p))
        if len(log) > self.LOG_LIMIT:
            dropped = log[len(log) // 2 - 1][0]
            del log[: bisect_right(log, dropped, key=_record_version)]
            self._log_floor = dropped

    def mutations_since(self, version):
        if version < self._log_floor:
            return None
        first, last = {}, {}
        start = bisect_right(self._mutation_log, version, key=_record_version)
        for _, u, v, old_p, new_p in islice(self._mutation_log, start, None):
            first.setdefault((u, v), old_p)
            last[u, v] = new_p
        return [
            (u, v, first[u, v], last[u, v])
            for (u, v) in first
            if first[u, v] != last[u, v]
        ]

    @property
    def num_edges(self):
        return self._num_input_edges

    @property
    def num_arcs(self):
        return sum(len(lst) for lst in self._succ)

    @property
    def version(self):
        return self._version

    def out_neighbors(self, u):
        return list(self._succ[u])

    def out_degree(self, u):
        return len(self._succ[u])

    def edges(self):
        for u, (nbrs, probs) in enumerate(zip(self._succ, self._succ_p)):
            for v, p in zip(nbrs, probs):
                yield u, v, p

    def out_adjacency(self):
        n = self.num_nodes
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, self._succ), dtype=np.int64, count=n),
            out=indptr[1:],
        )
        m = int(indptr[-1])
        indices = np.fromiter(chain.from_iterable(self._succ), dtype=np.int64, count=m)
        probs = np.fromiter(
            chain.from_iterable(self._succ_p), dtype=np.float64, count=m
        )
        return indptr, indices, probs

    def transpose_adjacency(self):
        n = self.num_nodes
        indptr, indices, probs = self.out_adjacency()
        order = np.argsort(indices, kind="stable")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        t_indptr = np.zeros(n + 1, dtype=np.int64)
        t_indptr[1:] = np.cumsum(np.bincount(indices, minlength=n))
        return t_indptr, rows[order], probs[order]


class TestStableOrder:
    """The counting sort behind both CSR directions is the stable sort."""

    @pytest.mark.parametrize(
        "num_keys", [1, 7, 1 << 16, (1 << 16) + 1, 1 << 33, 1 << 62]
    )
    def test_equals_stable_argsort(self, num_keys):
        rng = np.random.default_rng(num_keys % 997)
        keys = rng.integers(0, num_keys, size=4000)
        keys = np.concatenate([keys, keys[:1500], keys[::-3]])
        np.testing.assert_array_equal(
            stable_order(keys, num_keys), np.argsort(keys, kind="stable")
        )

    def test_empty(self):
        assert stable_order(np.empty(0, dtype=np.int64), 5).size == 0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_queries(g, ref):
    """Every read query of ``g`` equals the frozen copy's, bit for bit."""
    for got, want in (
        (g.out_adjacency(), ref.out_adjacency()),
        (g.transpose_adjacency(), ref.transpose_adjacency()),
    ):
        assert all(_same_bits(a, b) for a, b in zip(got, want))
    got_edges, want_edges = list(g.edges()), list(ref.edges())
    assert got_edges == want_edges
    assert _same_bits(
        np.array([p for *_, p in got_edges]), np.array([p for *_, p in want_edges])
    )
    for u in range(ref.num_nodes):
        assert g.out_neighbors(u) == ref.out_neighbors(u)
        assert g.out_degree(u) == ref.out_degree(u)
    assert g.num_arcs == ref.num_arcs
    assert g.num_edges == ref.num_edges


def _assert_same_history(g, ref):
    assert g.version == ref.version
    for version in range(ref.version + 1):
        want = ref.mutations_since(version)
        delta = g.mutations_since(version)
        if want is None:
            assert delta is None
            continue
        got = zip(
            delta.sources.tolist(),
            delta.targets.tolist(),
            delta.old_probabilities.tolist(),
            delta.new_probabilities.tolist(),
        )
        assert list(got) == want


_PROBS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def _scripts(draw):
    """A tiny graph (parallel arcs and self-loops are frequent at this
    size) and a script over all four mutators."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 4))
    node = st.integers(0, n - 1)
    bulk = st.lists(st.tuples(node, node, _PROBS), max_size=6)
    step = st.one_of(
        st.tuples(st.just("add_edge"), node, node, _PROBS),
        st.tuples(
            st.just("add_edges"),
            bulk,
            st.sampled_from(["default", "scalar", "per-edge"]),
        ),
        st.tuples(st.just("set_edge_probabilities"), _PROBS),
        st.tuples(st.just("set_arc_probability"), node, node, _PROBS),
    )
    return directed, n, draw(st.lists(step, min_size=1, max_size=15))


def _apply(graph, step):
    kind = step[0]
    if kind == "add_edge":
        _, u, v, p = step
        graph.add_edge(u, v, probability=p)
    elif kind == "add_edges":
        _, edges, probs = step
        per_edge = [p for *_, p in edges]
        arg = {"default": None, "scalar": 0.3, "per-edge": per_edge}[probs]
        graph.add_edges([u for u, _, _ in edges], [v for _, v, _ in edges], arg)
    elif kind == "set_edge_probabilities":
        graph.set_edge_probabilities(step[1])
    else:
        _, u, v, p = step
        try:
            graph.set_arc_probability(u, v, p)
        except KeyError:
            return "missing"
    return "ok"


class TestArrayGraphMatchesListGraph:
    @settings(max_examples=200, deadline=None)
    @given(script=_scripts())
    def test_every_step_matches(self, script):
        directed, n, steps = script
        ref = ListGraph(n, directed=directed)
        checked = Graph(n, directed=directed)
        # Read only at the end, so its arc edits find cold caches.
        unread = Graph(n, directed=directed)
        for step in steps:
            # Copy-on-write: no mutator writes an array handed out before.
            held = (*checked.out_adjacency(), *checked.transpose_adjacency())
            frozen = [a.copy() for a in held]
            outcome = _apply(ref, step)
            assert _apply(checked, step) == outcome
            assert _apply(unread, step) == outcome
            assert all(_same_bits(a, b) for a, b in zip(held, frozen))
            _assert_same_queries(checked, ref)
            _assert_same_history(checked, ref)
        _assert_same_queries(unread, ref)
        _assert_same_history(unread, ref)

    @settings(max_examples=40, deadline=None)
    @given(script=_scripts())
    def test_read_only_rcsr_graph_matches(self, script):
        directed, n, steps = script
        ref = ListGraph(n, directed=directed)
        g = Graph(n, directed=directed)
        for step in steps:
            _apply(ref, step)
            _apply(g, step)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.rcsr"
            write_csr_graph(g, path)
            loaded = read_csr_graph(path, store="mmap")
            assert loaded.read_only and loaded.version == 0
            _assert_same_queries(loaded, ref)
            del loaded
