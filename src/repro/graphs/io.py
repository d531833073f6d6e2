"""Persistence for graphs: text edge lists and binary CSR files.

Two formats:

**Text edge list** (one record per line, ``#`` comments allowed) —
human-readable interchange, mirrors common SNAP-style dumps:

* header line: ``n <num_nodes> <directed|undirected>``
* optional group line: ``g <label_0> <label_1> ... <label_{n-1}>``
* edge lines: ``e <u> <v> [probability]``

**Binary CSR** (``RCSR`` magic) — the out-of-core representation. The
file stores *both* the forward and the transposed adjacency (built once
at write time) so that :func:`read_csr_graph` can memory-map either
direction without an O(arcs log arcs) inversion at load, plus optional
group labels. Layout, all little-endian, 8-byte aligned:

===========  =======================  =====================================
offset       field                    contents
===========  =======================  =====================================
0            magic                    ``b"RCSR"``
4            format version           ``uint32`` (currently 1)
8            num_nodes ``n``          ``uint64``
16           num_arcs ``m``           ``uint64``
24           num_input_edges          ``uint64``
32           flags                    ``uint64`` (bit0 directed, bit1 groups)
40           fwd_indptr               ``int64[n + 1]``
…            fwd_indices              ``int64[m]``
…            fwd_probs                ``float64[m]``
…            t_indptr                 ``int64[n + 1]``
…            t_indices                ``int64[m]``
…            t_probs                  ``float64[m]``
…            groups (if flagged)      ``int64[n]``
===========  =======================  =====================================

Corrupt headers (bad magic, unknown version, size mismatch) raise the
typed :class:`repro.errors.StorageError` so callers can distinguish
storage corruption from argument errors.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import StorageError
from repro.graphs.graph import CSRGraph, Graph

PathLike = Union[str, Path]

CSR_MAGIC = b"RCSR"
CSR_FORMAT_VERSION = 1
_CSR_HEADER = struct.Struct("<4sI4Q")  # magic, version, n, m, edges, flags
_FLAG_DIRECTED = 1
_FLAG_GROUPS = 2


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Serialise ``graph`` (including groups, if any) to ``path``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        kind = "directed" if graph.directed else "undirected"
        fh.write(f"n {graph.num_nodes} {kind}\n")
        if graph.has_groups:
            fh.write("g " + " ".join(str(int(x)) for x in graph.groups) + "\n")
        for u, v, p in graph.edges():
            # An undirected graph stores both arcs of an edge (a
            # self-loop once): write each input edge once, parallel
            # edges included.
            if not graph.directed and v < u:
                continue
            fh.write(f"e {u} {v} {p:.10g}\n")


def read_edge_list(path: PathLike) -> Graph:
    """Parse a graph previously written by :func:`write_edge_list`."""
    path = Path(path)
    graph: Graph | None = None
    groups: list[int] | None = None
    sources: list[int] = []
    targets: list[int] = []
    probabilities: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "n":
                if graph is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate header line")
                if len(parts) != 3 or parts[2] not in ("directed", "undirected"):
                    raise ValueError(f"{path}:{lineno}: malformed header {line!r}")
                graph = Graph(int(parts[1]), directed=parts[2] == "directed")
            elif tag == "g":
                if graph is None:
                    raise ValueError(f"{path}:{lineno}: groups before header")
                groups = [int(x) for x in parts[1:]]
            elif tag == "e":
                if graph is None:
                    raise ValueError(f"{path}:{lineno}: edge before header")
                if len(parts) not in (3, 4):
                    raise ValueError(f"{path}:{lineno}: malformed edge {line!r}")
                sources.append(int(parts[1]))
                targets.append(int(parts[2]))
                probabilities.append(float(parts[3]) if len(parts) == 4 else 1.0)
            else:
                raise ValueError(f"{path}:{lineno}: unknown record tag {tag!r}")
    if graph is None:
        raise ValueError(f"{path}: missing header line")
    graph.add_edges(sources, targets, probabilities)
    if groups is not None:
        graph.set_groups(groups)
    return graph


# ---------------------------------------------------------------------------
# Binary CSR format
# ---------------------------------------------------------------------------
def write_csr_arrays(
    path: PathLike,
    *,
    num_nodes: int,
    forward: tuple[np.ndarray, np.ndarray, np.ndarray],
    transpose: tuple[np.ndarray, np.ndarray, np.ndarray],
    directed: bool,
    num_input_edges: int,
    groups: Optional[Sequence[int]] = None,
) -> None:
    """Write pre-built forward + transpose CSR arrays as one ``RCSR`` file.

    Low-level entry point for generators that build adjacency directly
    in NumPy (the out-of-core benchmark); :func:`write_csr_graph` is the
    :class:`Graph` convenience wrapper.
    """
    path = Path(path)
    fwd_indptr = np.ascontiguousarray(forward[0], dtype=np.int64)
    fwd_indices = np.ascontiguousarray(forward[1], dtype=np.int64)
    fwd_probs = np.ascontiguousarray(forward[2], dtype=np.float64)
    t_indptr = np.ascontiguousarray(transpose[0], dtype=np.int64)
    t_indices = np.ascontiguousarray(transpose[1], dtype=np.int64)
    t_probs = np.ascontiguousarray(transpose[2], dtype=np.float64)
    n = int(num_nodes)
    m = int(fwd_indptr[-1])
    if fwd_indptr.size != n + 1 or t_indptr.size != n + 1:
        raise StorageError(
            f"indptr arrays must have {n + 1} entries, got "
            f"{fwd_indptr.size} / {t_indptr.size}"
        )
    if (
        fwd_indices.size != m
        or fwd_probs.size != m
        or t_indices.size != m
        or t_probs.size != m
        or int(t_indptr[-1]) != m
    ):
        raise StorageError("CSR arrays disagree on the arc count")
    flags = (_FLAG_DIRECTED if directed else 0)
    groups_arr: Optional[np.ndarray] = None
    if groups is not None:
        groups_arr = np.ascontiguousarray(groups, dtype=np.int64)
        if groups_arr.size != n:
            raise StorageError(
                f"groups must have {n} entries, got {groups_arr.size}"
            )
        flags |= _FLAG_GROUPS
    with path.open("wb") as fh:
        fh.write(
            _CSR_HEADER.pack(
                CSR_MAGIC, CSR_FORMAT_VERSION, n, m, int(num_input_edges),
                flags,
            )
        )
        for arr in (fwd_indptr, fwd_indices, fwd_probs,
                    t_indptr, t_indices, t_probs):
            fh.write(memoryview(arr).cast("B"))
        if groups_arr is not None:
            fh.write(memoryview(groups_arr).cast("B"))


def write_csr_graph(graph: Graph, path: PathLike) -> None:
    """Serialise ``graph`` (groups included) to the binary CSR format."""
    write_csr_arrays(
        path,
        num_nodes=graph.num_nodes,
        forward=graph.out_adjacency(),
        transpose=graph.transpose_adjacency(),
        directed=graph.directed,
        num_input_edges=graph.num_edges,
        groups=graph.groups if graph.has_groups else None,
    )


def _csr_layout(n: int, m: int, has_groups: bool) -> list[tuple[int, int]]:
    """``(offset, length)`` of each array section, in file order."""
    sections = [n + 1, m, m, n + 1, m, m] + ([n] if has_groups else [])
    layout = []
    offset = _CSR_HEADER.size
    for length in sections:
        layout.append((offset, length))
        offset += 8 * length
    return layout


def read_csr_header(path: PathLike) -> dict[str, int]:
    """Validate the ``RCSR`` header of ``path`` and return its fields."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with path.open("rb") as fh:
            raw = fh.read(_CSR_HEADER.size)
    except OSError as exc:
        raise StorageError(f"cannot read CSR graph {path}: {exc}") from exc
    if len(raw) < _CSR_HEADER.size:
        raise StorageError(
            f"{path}: truncated CSR header ({len(raw)} bytes, "
            f"need {_CSR_HEADER.size})"
        )
    magic, version, n, m, num_input_edges, flags = _CSR_HEADER.unpack(raw)
    if magic != CSR_MAGIC:
        raise StorageError(
            f"{path}: bad magic {magic!r}, expected {CSR_MAGIC!r}"
        )
    if version != CSR_FORMAT_VERSION:
        raise StorageError(
            f"{path}: unsupported CSR format version {version}, "
            f"expected {CSR_FORMAT_VERSION}"
        )
    has_groups = bool(flags & _FLAG_GROUPS)
    expected = _csr_layout(n, m, has_groups)[-1]
    expected_size = expected[0] + 8 * expected[1]
    if size != expected_size:
        raise StorageError(
            f"{path}: file is {size} bytes but the header implies "
            f"{expected_size} (n={n}, m={m}, groups={has_groups})"
        )
    return {
        "num_nodes": int(n),
        "num_arcs": int(m),
        "num_input_edges": int(num_input_edges),
        "directed": int(bool(flags & _FLAG_DIRECTED)),
        "has_groups": int(has_groups),
    }


def read_csr_graph(path: PathLike, *, store: str = "mmap") -> CSRGraph:
    """Load an ``RCSR`` file as a :class:`CSRGraph`.

    ``store="mmap"`` (the default) returns read-only ``np.memmap`` views
    — nothing is materialised in RAM and the arrays are resident-zero
    for cache accounting. ``store="ram"`` copies the arrays onto the
    heap (useful for bitwise comparison tests and small graphs).
    """
    path = Path(path)
    header = read_csr_header(path)
    if store not in ("ram", "mmap"):
        raise StorageError(
            f"unknown store kind {store!r}, expected 'ram' or 'mmap'"
        )
    n = header["num_nodes"]
    m = header["num_arcs"]
    has_groups = bool(header["has_groups"])
    layout = _csr_layout(n, m, has_groups)
    dtypes = [np.int64, np.int64, np.float64, np.int64, np.int64, np.float64]
    if has_groups:
        dtypes.append(np.int64)
    arrays: list[np.ndarray] = []
    for (offset, length), dtype in zip(layout, dtypes):
        if length == 0:
            arrays.append(np.zeros(0, dtype=dtype))
        elif store == "mmap":
            arrays.append(
                np.memmap(path, dtype=dtype, mode="r", offset=offset,
                          shape=(length,))
            )
        else:
            with path.open("rb") as fh:
                fh.seek(offset)
                arrays.append(np.fromfile(fh, dtype=dtype, count=length))
    groups = arrays[6] if has_groups else None
    return CSRGraph(
        n,
        (arrays[0], arrays[1], arrays[2]),
        (arrays[3], arrays[4], arrays[5]),
        directed=bool(header["directed"]),
        groups=groups,
        num_input_edges=header["num_input_edges"],
        store_kind=store,
    )
