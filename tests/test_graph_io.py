"""Tests for repro.graphs.io round-tripping."""

from __future__ import annotations

import pytest

from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list


class TestRoundTrip:
    def test_undirected_with_groups(self, tmp_path):
        g = Graph(4, [(0, 1), (1, 2), (2, 3, 0.5)], groups=[0, 0, 1, 1])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.num_nodes == 4
        assert not loaded.directed
        assert loaded.num_edges == 3
        assert loaded.groups.tolist() == [0, 0, 1, 1]
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_directed_no_groups(self, tmp_path):
        g = Graph(3, [(0, 1), (2, 0)], directed=True)
        path = tmp_path / "d.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.directed
        assert not loaded.has_groups
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_probabilities_preserved(self, tmp_path):
        g = Graph(2, [(0, 1, 0.123456789)], directed=True)
        path = tmp_path / "p.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        (_, _, p) = next(iter(loaded.edges()))
        assert p == pytest.approx(0.123456789)

    @pytest.mark.parametrize("directed", [False, True])
    def test_parallel_edges_and_self_loops_survive(self, tmp_path, directed):
        edges = [
            (0, 1, 0.2),
            (0, 1, 0.4),
            (1, 0, 0.7),
            (1, 2, 0.5),
            (2, 2, 0.3),
            (2, 2, 0.6),
        ]
        g = Graph(3, edges, directed=directed)
        path = tmp_path / "m.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.num_edges == len(edges)
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header comment\n\nn 2 directed\ne 0 1\n")
        loaded = read_edge_list(path)
        assert loaded.num_edges == 1


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("e 0 1\n")
        with pytest.raises(ValueError, match="edge before header"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="missing header"):
            read_edge_list(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("n 2 directed\nn 2 directed\n")
        with pytest.raises(ValueError, match="duplicate header"):
            read_edge_list(path)

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "tag.txt"
        path.write_text("n 2 directed\nz 1\n")
        with pytest.raises(ValueError, match="unknown record tag"):
            read_edge_list(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "mh.txt"
        path.write_text("n 2 sideways\n")
        with pytest.raises(ValueError, match="malformed header"):
            read_edge_list(path)

    def test_malformed_edge(self, tmp_path):
        path = tmp_path / "me.txt"
        path.write_text("n 2 directed\ne 0 1 0.5 extra\n")
        with pytest.raises(ValueError, match="malformed edge"):
            read_edge_list(path)

    def test_groups_before_header(self, tmp_path):
        path = tmp_path / "gb.txt"
        path.write_text("g 0 1\n")
        with pytest.raises(ValueError, match="groups before header"):
            read_edge_list(path)


# ---------------------------------------------------------------------------
# Binary RCSR format (out-of-core storage tier)
# ---------------------------------------------------------------------------
class TestCSRRoundTrip:
    #: The five influence datasets the CLI exposes.
    DATASETS = [
        ("rand-im-c2", {}),
        ("rand-im-c4", {}),
        ("facebook-im-c2", {"num_nodes": 400}),
        ("facebook-im-c4", {"num_nodes": 400}),
        ("dblp-im", {"num_nodes": 600}),
    ]

    @pytest.mark.parametrize("name,overrides", DATASETS)
    @pytest.mark.parametrize("store", ["mmap", "ram"])
    def test_round_trip_bitwise(self, tmp_path, name, overrides, store):
        import numpy as np

        from repro.datasets.registry import load_dataset
        from repro.graphs.io import read_csr_graph, write_csr_graph

        graph = load_dataset(name, seed=0, **overrides).graph
        path = tmp_path / "g.rcsr"
        write_csr_graph(graph, path)
        loaded = read_csr_graph(path, store=store)
        assert loaded.num_nodes == graph.num_nodes
        assert loaded.num_edges == graph.num_edges
        assert loaded.directed == graph.directed
        assert loaded.has_groups == graph.has_groups
        if graph.has_groups:
            assert np.array_equal(np.asarray(loaded.groups), graph.groups)
        for got, want in zip(
            loaded.out_adjacency() + loaded.transpose_adjacency(),
            graph.out_adjacency() + graph.transpose_adjacency(),
        ):
            assert np.array_equal(np.asarray(got), np.asarray(want))

    def test_mmap_load_is_resident_zero(self, tmp_path):
        from repro.datasets.registry import load_dataset
        from repro.graphs.io import read_csr_graph, write_csr_graph
        from repro.utils.caching import estimate_nbytes

        graph = load_dataset("rand-im-c2", seed=0).graph
        path = tmp_path / "g.rcsr"
        write_csr_graph(graph, path)
        loaded = read_csr_graph(path, store="mmap")
        indptr, indices, probs = loaded.out_adjacency()
        assert estimate_nbytes(indptr) == 0
        assert estimate_nbytes(indices) == 0
        assert estimate_nbytes(probs) == 0
        loaded.release()  # must not raise; pages stay readable
        assert int(indptr[-1]) == graph.num_arcs

    def test_header_fields(self, tmp_path):
        from repro.datasets.registry import load_dataset
        from repro.graphs.io import read_csr_header, write_csr_graph

        graph = load_dataset("rand-im-c2", seed=0).graph
        path = tmp_path / "g.rcsr"
        write_csr_graph(graph, path)
        header = read_csr_header(path)
        assert header["num_nodes"] == graph.num_nodes
        assert header["num_arcs"] == graph.num_arcs
        assert header["num_input_edges"] == graph.num_edges
        assert header["directed"] == int(graph.directed)
        assert header["has_groups"] == int(graph.has_groups)

    def test_csr_graph_is_immutable(self, tmp_path):
        from repro.datasets.registry import load_dataset
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_graph, write_csr_graph

        graph = load_dataset("rand-im-c2", seed=0).graph
        path = tmp_path / "g.rcsr"
        write_csr_graph(graph, path)
        loaded = read_csr_graph(path)
        with pytest.raises(StorageError):
            loaded.add_edge(0, 1)
        with pytest.raises(StorageError):
            loaded.set_arc_probability(0, 1, 0.5)
        with pytest.raises(StorageError):
            loaded.set_edge_probabilities(0.5)


class TestCSRErrors:
    def _valid_file(self, tmp_path):
        from repro.datasets.registry import load_dataset
        from repro.graphs.io import write_csr_graph

        graph = load_dataset("rand-im-c2", seed=0).graph
        path = tmp_path / "g.rcsr"
        write_csr_graph(graph, path)
        return path

    def test_truncated_header(self, tmp_path):
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_header

        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(StorageError, match="truncated"):
            read_csr_header(path)

    def test_bad_magic(self, tmp_path):
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_header

        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="bad magic"):
            read_csr_header(path)

    def test_bad_version(self, tmp_path):
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_header

        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="version"):
            read_csr_header(path)

    def test_size_mismatch(self, tmp_path):
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_graph

        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(StorageError, match="bytes but the header"):
            read_csr_graph(path)

    def test_missing_file(self, tmp_path):
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_header

        with pytest.raises(StorageError, match="cannot read"):
            read_csr_header(tmp_path / "absent.rcsr")

    def test_unknown_store_kind(self, tmp_path):
        from repro.errors import StorageError
        from repro.graphs.io import read_csr_graph

        path = self._valid_file(tmp_path)
        with pytest.raises(StorageError, match="store kind"):
            read_csr_graph(path, store="tape")

    def test_write_rejects_mismatched_arrays(self, tmp_path):
        import numpy as np

        from repro.errors import StorageError
        from repro.graphs.io import write_csr_arrays

        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        probs = np.array([0.5, 0.5], dtype=np.float64)
        with pytest.raises(StorageError, match="indptr"):
            write_csr_arrays(
                tmp_path / "bad.rcsr",
                num_nodes=3,
                forward=(indptr, indices, probs),
                transpose=(indptr, indices, probs),
                directed=True,
                num_input_edges=2,
            )
        with pytest.raises(StorageError, match="arc count"):
            write_csr_arrays(
                tmp_path / "bad.rcsr",
                num_nodes=2,
                forward=(indptr, indices[:1], probs),
                transpose=(indptr, indices, probs),
                directed=True,
                num_input_edges=2,
            )
        with pytest.raises(StorageError, match="groups"):
            write_csr_arrays(
                tmp_path / "bad.rcsr",
                num_nodes=2,
                forward=(indptr, indices, probs),
                transpose=(indptr, indices, probs),
                directed=True,
                num_input_edges=2,
                groups=[0],
            )
