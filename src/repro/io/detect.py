"""Format sniffing and one-call graph loading.

Credo "chooses the best from these implementations before executing BP" —
the first step is getting the graph in, whatever its format.  This module
inspects extensions and leading bytes to dispatch to the right parser.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.graph import BeliefGraph
from repro.io.bif import parse_bif_file
from repro.io.mtx import read_mtx_graph
from repro.io.network import network_to_belief_graph
from repro.io.xmlbif import parse_xmlbif_file

__all__ = ["detect_format", "load_graph"]


def detect_format(path: str | Path) -> str:
    """Return ``"bif"``, ``"xmlbif"`` or ``"mtx"`` for ``path``.

    Extension is authoritative when recognized; otherwise the first
    non-blank line decides.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".bif":
        return "bif"
    if suffix in (".xml", ".xbif", ".xmlbif"):
        return "xmlbif"
    if suffix in (".mtx", ".nodes", ".edges"):
        return "mtx"
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("%%MatrixMarket") or stripped.startswith("%"):
                return "mtx"
            if stripped.startswith("<?xml") or stripped.startswith("<BIF"):
                return "xmlbif"
            if stripped.startswith("network"):
                return "bif"
            break
    raise ValueError(f"cannot determine the format of {path}")


def load_graph(
    path: str | Path,
    edge_path: str | Path | None = None,
    *,
    stream: bool = False,
    chunk_edges: int = 65536,
) -> BeliefGraph:
    """Load a belief graph from any supported format.

    For the MTX dual-file format pass the node file as ``path`` and the
    edge file as ``edge_path`` (defaulting to the node path with an
    ``.edges`` suffix).  ``stream=True`` routes MTX input through the
    bounded-memory streaming loader (:mod:`repro.stream.loader`),
    buffering at most ``chunk_edges`` edge lines at a time — the path
    for graphs too large to parse through intermediate edge lists.
    """
    path = Path(path)
    fmt = detect_format(path)
    if fmt in ("bif", "xmlbif"):
        if stream:
            raise ValueError(
                f"streaming is only supported for the MTX dual-file format, not {fmt!r}"
            )
        if fmt == "bif":
            return network_to_belief_graph(parse_bif_file(path))
        return network_to_belief_graph(parse_xmlbif_file(path))
    if edge_path is None:
        edge_path = path.with_suffix(".edges")
        if not Path(edge_path).exists():
            raise ValueError(
                f"MTX input needs an edge file: {edge_path} not found "
                "(pass edge_path explicitly)"
            )
    if stream:
        from repro.stream.loader import load_graph_stream  # deferred: io ← stream cycle

        return load_graph_stream(path, edge_path, chunk_edges=chunk_edges)
    return read_mtx_graph(path, edge_path)
