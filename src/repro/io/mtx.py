"""The paper's MTX-derived dual-file graph format (§3.2).

The format splits a belief network across two Matrix-Market-style files:

* the **node file** lists every node as a self-cycling entry —
  ``<id> <id> <p_0> … <p_{b−1}>`` — after a standard MTX header and a
  dimension line;
* the **edge file** lists every undirected edge —
  ``<u> <v> <j_00> … <j_{b·b−1}>`` (row-major joint probability matrix).

"This format is simple enough that it can be read line-by-line first by
nodes and then edges without loading either fully into memory … parsing it
is trivial, requiring a handful of simple regular expressions rather than
complex grammars."  We honour both properties: one regular expression per
header line, and a body read in bounded chunks of :data:`CHUNK_LINES`
lines.  Each chunk is parsed in one C call (``np.loadtxt``: integer ids,
float64 values) and checked whole-array; a chunk the bulk parse rejects,
or that fails a check, is re-read by the one line-by-line loop, which
raises the precise :class:`MtxFormatError` (message and line number) or
accepts the unusual-but-valid spellings the bulk parse does not (``1_0``,
non-ASCII digits, ``%`` comment lines inside the body).  Both paths give
bit-identical arrays.  The batch reader, the streaming loader
(:mod:`repro.stream.loader`) and the metadata scan (:mod:`repro.io.scan`)
all read bodies through :func:`_read_nodes` and :func:`_edge_chunks`.

One extension over the paper's description: when the graph uses the shared
joint-probability-matrix refinement (§2.2), the edge file may carry the
matrix once in a ``%credo shared-potential: …`` comment and list bare
``<u> <v>`` pairs, shrinking edge files by ~10× for binary beliefs.  The
reader also auto-collapses per-edge matrices that are all identical.

Ids in the files are 1-based, as in Matrix Market.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.core.graph import BeliefGraph

__all__ = ["read_mtx_graph", "write_mtx_graph", "MtxFormatError", "CHUNK_LINES"]

_HEADER_RE = re.compile(
    r"^%%MatrixMarket\s+matrix\s+coordinate\s+real\s+general\s*$", re.IGNORECASE
)
_SHARED_RE = re.compile(r"^%credo\s+shared-potential:(?P<vals>.*)$")
_BELIEFS_RE = re.compile(r"^%credo\s+beliefs:\s*(?P<b>\d+)$")

#: body lines read and parsed per bulk call
CHUNK_LINES = 65536


class MtxFormatError(ValueError):
    """Raised on malformed node/edge files."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _read_header(handle: IO[str], path: str) -> tuple[list[str], tuple[int, ...], int]:
    """Consume the header: the MTX banner, comments, and the dimension line.

    Returns (directive comments, dimension tuple, line number of dims).
    """
    directives: list[str] = []
    line_no = 0
    saw_banner = False
    for raw in handle:
        line_no += 1
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            if _HEADER_RE.match(stripped):
                saw_banner = True
            else:
                directives.append(stripped)
            continue
        if not saw_banner:
            raise MtxFormatError(
                f"{path}: missing '%%MatrixMarket matrix coordinate real general' banner"
            )
        parts = stripped.split()
        try:
            dims = tuple(int(p) for p in parts)
        except ValueError:
            raise MtxFormatError(f"{path}: malformed dimension line {stripped!r}", line_no) from None
        if len(dims) != 3:
            raise MtxFormatError(f"{path}: dimension line needs 3 integers", line_no)
        return directives, dims, line_no
    raise MtxFormatError(f"{path}: no dimension line found")


def _chunks(handle: IO[str], line_no: int, size: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number before the chunk, lines)`` for ``size``-line chunks."""
    while lines := list(islice(handle, size)):
        yield line_no, lines
        line_no += len(lines)


def _data_lines(lines: Iterable[str], line_no: int) -> Iterator[tuple[int, list[str]]]:
    """The format's line-by-line loop: ``(line number, fields)`` of every
    entry line, skipping blank lines and ``%`` comments."""
    for raw in lines:
        line_no += 1
        stripped = raw.strip()
        if stripped and not stripped.startswith("%"):
            yield line_no, stripped.split()


def _bulk_parse(
    lines: list[str], n_values: int | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse a chunk of ``<int> <int> <n_values floats>`` lines in one C call.

    Returns ``(ids, values)`` — ``(k, 2)`` int64 and ``(k, n_values)``
    float64 — or None when the chunk holds no entry or any line is
    anything else.  ``n_values=None`` takes the width from the first
    entry.  What this accepts is a subset of what :func:`_data_lines` with
    ``int``/``float`` accepts, with identical values; ``comments=None``
    keeps it so (``1 2 % x`` must fail here, as it does line by line).
    """
    first = next((ln.split() for ln in lines if ln.strip()), None)
    if first is None:
        return None
    if n_values is None:
        n_values = len(first) - 2
    if n_values < 0:
        return None
    dtype = [("ids", np.int64, (2,)), ("values", np.float64, (n_values,))]
    try:
        table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    return table["ids"], table["values"]


def _node_lines(
    lines: list[str], line_no: int, path: Path, n: int, b: int | None, seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Check a chunk of node lines one by one, marking ``seen``.

    Raises the line's :class:`MtxFormatError`; returns 0-based ids and the
    ``(k, b)`` float64 probabilities of a valid chunk.
    """
    ids: list[int] = []
    rows: list[list[float]] = []
    for line_no, parts in _data_lines(lines, line_no):
        if len(parts) < 3:
            raise MtxFormatError(f"{path}: node entry needs id, id and probabilities", line_no)
        try:
            i, j = int(parts[0]), int(parts[1])
            values = [float(p) for p in parts[2:]]
        except ValueError:
            raise MtxFormatError(f"{path}: malformed node entry", line_no) from None
        if i != j:
            raise MtxFormatError(
                f"{path}: node entries must be self-cycling (got {i} {j})", line_no
            )
        if not 1 <= i <= n:
            raise MtxFormatError(f"{path}: node id {i} out of range 1..{n}", line_no)
        if b is None:
            b = len(values)
        if len(values) != b:
            raise MtxFormatError(f"{path}: expected {b} probabilities, got {len(values)}", line_no)
        if seen[i - 1]:
            raise MtxFormatError(f"{path}: duplicate node id {i}", line_no)
        seen[i - 1] = True
        ids.append(i - 1)
        rows.append(values)
    return np.array(ids, dtype=np.int64), np.array(rows, dtype=np.float64).reshape(len(rows), b or 0)


def _read_nodes(node_path: Path) -> tuple[np.ndarray, int]:
    """Read the node file into an ``(n, b)`` float32 prior matrix."""
    with open(node_path, "r", encoding="utf-8") as handle:
        directives, (rows, cols, entries), line_no = _read_header(handle, str(node_path))
        if rows != cols:
            raise MtxFormatError(f"{node_path}: node file must be square ({rows}x{cols})")
        n = rows
        b: int | None = None
        for d in directives:
            match = _BELIEFS_RE.match(d)
            if match:
                b = int(match.group("b"))
        priors: np.ndarray | None = None
        seen = np.zeros(n, dtype=bool)
        count = 0
        for start, lines in _chunks(handle, line_no, CHUNK_LINES):
            parsed = _bulk_parse(lines, b)
            if parsed is not None and _nodes_ok(*parsed, n, seen):
                ids, values = parsed[0][:, 0] - 1, parsed[1]
                seen[ids] = True
            else:
                ids, values = _node_lines(lines, start, node_path, n, b, seen)
            if not len(ids):
                continue
            b = values.shape[1]
            if priors is None:
                priors = np.empty((n, b), dtype=np.float32)
            priors[ids] = values
            count += len(ids)
        if count != entries:
            raise MtxFormatError(
                f"{node_path}: header declared {entries} entries but file holds {count}"
            )
        if priors is None:
            raise MtxFormatError(f"{node_path}: node file holds no entries")
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0]) + 1
            raise MtxFormatError(f"{node_path}: node {missing} has no entry")
        return priors, priors.shape[1]


def _nodes_ok(ids: np.ndarray, values: np.ndarray, n: int, seen: np.ndarray) -> bool:
    """The node-line checks over a bulk-parsed chunk, whole-array."""
    i = ids[:, 0]
    return bool(
        len(i)
        and values.shape[1] > 0
        and (i == ids[:, 1]).all()
        and i.min() >= 1
        and i.max() <= n
        and (np.bincount(i - 1, minlength=n) + seen).max() <= 1
    )


def _edge_lines(
    lines: list[str], line_no: int, path: Path, n: int, width: int, m: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Check a chunk of edge lines one by one after ``count`` earlier entries.

    ``width`` is ``b·b``, or 0 in shared-potential mode.  Raises the line's
    :class:`MtxFormatError`; returns the 1-based ``(k, 2)`` endpoints and
    ``(k, width)`` float64 values of a valid chunk.
    """
    pairs: list[tuple[int, int]] = []
    rows: list[list[float]] = []
    for line_no, parts in _data_lines(lines, line_no):
        if count >= m:
            raise MtxFormatError(f"{path}: more entries than the declared {m}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
            values = [float(p) for p in parts[2:]]
        except (ValueError, IndexError):
            raise MtxFormatError(f"{path}: malformed edge entry", line_no) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise MtxFormatError(f"{path}: edge endpoint out of range", line_no)
        if not width:
            if values:
                raise MtxFormatError(
                    f"{path}: shared-potential file must not carry per-edge matrices", line_no
                )
        elif len(values) != width:
            raise MtxFormatError(
                f"{path}: expected {width} matrix entries, got {len(values)}", line_no
            )
        pairs.append((u, v))
        rows.append(values)
        count += 1
    return (
        np.array(pairs, dtype=np.int64).reshape(len(pairs), 2),
        np.array(rows, dtype=np.float64).reshape(len(rows), width),
    )


def _edge_chunks(
    edge_path: Path, n: int, b: int, chunk_lines: int = CHUNK_LINES
) -> Iterator[tuple]:
    """Read the edge file ``chunk_lines`` lines at a time.

    First yields ``(shared, m)``: the shared-potential matrix (None in
    per-edge mode) and the declared entry count.  Then yields
    ``(pairs, matrices)`` for every chunk holding entries: 0-based
    ``(k, 2)`` int64 endpoints and ``(k, b, b)`` float32 matrices (None in
    shared mode).  Raises :class:`MtxFormatError` at the first bad line.
    """
    with open(edge_path, "r", encoding="utf-8") as handle:
        directives, (rows, cols, m), line_no = _read_header(handle, str(edge_path))
        if rows != n or cols != n:
            raise MtxFormatError(
                f"{edge_path}: edge file dimensions {rows}x{cols} disagree with node count {n}"
            )
        shared: np.ndarray | None = None
        for d in directives:
            match = _SHARED_RE.match(d)
            if match:
                try:
                    vals = np.array([float(v) for v in match.group("vals").split()], np.float32)
                    finite = bool(np.isfinite(vals).all())
                except ValueError:
                    finite = False
                if not finite:
                    raise MtxFormatError(
                        f"{edge_path}: shared-potential values must be finite numbers"
                    )
                if len(vals) != b * b:
                    raise MtxFormatError(
                        f"{edge_path}: shared-potential needs {b * b} values, got {len(vals)}"
                    )
                shared = vals.reshape(b, b)
        yield shared, m
        width = 0 if shared is not None else b * b
        count = 0
        for start, lines in _chunks(handle, line_no, chunk_lines):
            parsed = _bulk_parse(lines, width)
            if parsed is not None and _edges_ok(parsed[0], n, m - count):
                ids, values = parsed
            else:
                ids, values = _edge_lines(lines, start, edge_path, n, width, m, count)
            if not len(ids):
                continue
            count += len(ids)
            mats = None if shared is not None else values.astype(np.float32).reshape(-1, b, b)
            yield ids - 1, mats
        if count != m:
            raise MtxFormatError(
                f"{edge_path}: header declared {m} entries but file holds {count}"
            )


def _edges_ok(ids: np.ndarray, n: int, room: int) -> bool:
    """The edge-line checks over a bulk-parsed chunk, whole-array."""
    return bool(0 < len(ids) <= room and ids.min() >= 1 and ids.max() <= n)


def read_mtx_graph(
    node_path: str | Path,
    edge_path: str | Path,
    *,
    layout: str = "aos",
    collapse_identical: bool = True,
) -> BeliefGraph:
    """Load a belief graph from the dual-file format.

    The node file is read first, then the edge file ("first by nodes and
    then edges", §3.2), each in bounded chunks.  When every per-edge matrix
    is identical and ``collapse_identical`` is set, the result uses the
    shared store (§2.2), cutting the in-memory footprint.
    """
    node_path, edge_path = Path(node_path), Path(edge_path)
    priors, b = _read_nodes(node_path)
    chunks = _edge_chunks(edge_path, len(priors), b)
    shared, m = next(chunks)
    edges = np.empty((m, 2), dtype=np.int64)
    mats = None if shared is not None else np.empty((m, b, b), dtype=np.float32)
    count = 0
    for pairs, chunk_mats in chunks:
        edges[count : count + len(pairs)] = pairs
        if mats is not None:
            mats[count : count + len(pairs)] = chunk_mats
        count += len(pairs)
    if shared is not None:
        return BeliefGraph.from_undirected(
            priors, edges, potential=shared, layout=layout, dedupe=False
        )
    assert mats is not None
    if collapse_identical and len(mats) and bool((mats == mats[0]).all()):
        return BeliefGraph.from_undirected(
            priors, edges, potential=mats[0], layout=layout, dedupe=False
        )
    return BeliefGraph.from_undirected(
        priors, edges, per_edge_potentials=mats, layout=layout, dedupe=False
    )


def _write_rows(out: IO[str], ids: tuple[np.ndarray, ...], values: np.ndarray) -> None:
    """Write one line ``<id> … <v_0> …`` per row, :data:`CHUNK_LINES`
    rows per ``%`` format.

    ``%d`` of an exact float64 id prints the integer, and ``%.8g`` of a
    float prints what ``f"{v:.8g}"`` does (a float32 value formats as its
    exact float64), so the bytes equal a per-line writer's.
    """
    width = len(ids) + values.shape[1]
    row = " ".join(["%d"] * len(ids) + ["%.8g"] * values.shape[1]) + "\n"
    for lo in range(0, len(values), CHUNK_LINES):
        hi = min(lo + CHUNK_LINES, len(values))
        table = np.empty((hi - lo, width), dtype=np.float64)
        for j, col in enumerate(ids):
            table[:, j] = col[lo:hi]
        table[:, len(ids):] = values[lo:hi]
        out.write((row * (hi - lo)) % tuple(table.ravel().tolist()))


def write_mtx_graph(
    graph: BeliefGraph,
    node_path: str | Path,
    edge_path: str | Path,
    *,
    inline_shared: bool = True,
) -> None:
    """Write ``graph`` to the dual-file format.

    ``inline_shared`` controls whether a shared potential is emitted as the
    compact directive (our extension) or expanded onto every edge line (the
    paper's plain format).
    """
    if not graph.uniform:
        raise ValueError("the MTX dual-file format requires constant-width beliefs")
    node_path, edge_path = Path(node_path), Path(edge_path)
    n, b = graph.n_nodes, graph.n_states

    with open(node_path, "w", encoding="utf-8") as out:
        out.write("%%MatrixMarket matrix coordinate real general\n")
        out.write(f"%credo beliefs: {b}\n")
        out.write(f"{n} {n} {n}\n")
        ids = np.arange(1, n + 1)
        _write_rows(out, (ids, ids), graph.priors.dense())

    # Undirected edges: one line per directed pair's lower-id member.
    rev = graph.reverse_edge
    undirected = np.flatnonzero((rev == -1) | (np.arange(graph.n_edges) < rev))
    with open(edge_path, "w", encoding="utf-8") as out:
        out.write("%%MatrixMarket matrix coordinate real general\n")
        shared_inline = graph.potentials.shared and inline_shared and graph.n_edges > 0
        if shared_inline:
            flat = " ".join(f"{v:.8g}" for v in graph.potentials.matrix(0).reshape(-1))
            out.write(f"%credo shared-potential: {flat}\n")
        out.write(f"{n} {n} {len(undirected)}\n")
        ends = (graph.src[undirected] + 1, graph.dst[undirected] + 1)
        if shared_inline or not len(undirected):
            mats = np.empty((len(undirected), 0), dtype=np.float32)
        elif graph.potentials.shared:
            flat = np.asarray(graph.potentials.matrix(0)).reshape(1, -1)
            mats = np.broadcast_to(flat, (len(undirected), flat.shape[1]))
        else:
            mats = graph.potentials.stacked(undirected).reshape(len(undirected), b * b)
        _write_rows(out, ends, mats)
