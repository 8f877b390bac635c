"""Streaming metadata extraction from MTX dual files (paper §3.7).

Credo chooses its implementation "based solely on [the graph's] metadata"
"obtained during input parsing".  For the MTX dual-file format that
metadata is computable in one streaming pass over the two files — node
count, edge count, belief width, in/out-degree extremes — without ever
materializing the graph, which is what lets the selector answer *before*
deciding how much memory the chosen backend should commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.io.mtx import _edge_chunks, _read_nodes

__all__ = ["MtxStats", "scan_mtx_stats"]


@dataclass(frozen=True)
class MtxStats:
    """Metadata recovered from one streaming pass."""

    n_nodes: int
    n_edges: int  # undirected, as listed in the edge file
    n_beliefs: int
    max_in_degree: int
    max_out_degree: int
    avg_in_degree: float

    def features(self) -> np.ndarray:
        """The §3.7 five-feature vector (canonical orientation)."""
        return np.array(
            [
                float(self.n_nodes),
                self.n_nodes / self.n_edges if self.n_edges else 0.0,
                float(self.n_beliefs),
                self.max_in_degree / self.max_out_degree
                if self.max_out_degree
                else 0.0,
                self.avg_in_degree / self.max_in_degree
                if self.max_in_degree
                else 0.0,
            ]
        )


def scan_mtx_stats(node_path: str | Path, edge_path: str | Path) -> MtxStats:
    """Stream both files once and return the selector's metadata.

    Both files go through the readers' shared body parser, so a file is
    accepted, and rejected with the same :class:`MtxFormatError`, exactly
    as by :func:`repro.io.mtx.read_mtx_graph`.  Beyond the ``(n, b)``
    priors, memory use is two ``n``-length degree counters and one chunk
    of edges; the graph is never built.
    """
    priors, n_beliefs = _read_nodes(Path(node_path))
    n = len(priors)
    in_deg = np.zeros(n, dtype=np.int64)
    out_deg = np.zeros(n, dtype=np.int64)
    m = 0
    chunks = _edge_chunks(Path(edge_path), n, n_beliefs)
    next(chunks)
    for pairs, _ in chunks:
        out_deg += np.bincount(pairs[:, 0], minlength=n)
        in_deg += np.bincount(pairs[:, 1], minlength=n)
        m += len(pairs)

    return MtxStats(
        n_nodes=n,
        n_edges=m,
        n_beliefs=n_beliefs,
        max_in_degree=int(in_deg.max(initial=0)),
        max_out_degree=int(out_deg.max(initial=0)),
        avg_in_degree=float(in_deg.mean()) if n else 0.0,
    )
