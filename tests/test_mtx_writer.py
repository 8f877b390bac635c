"""``write_mtx_graph`` output is pinned byte for byte.

The golden files under ``tests/fixtures/mtx_golden`` were written by the
per-line writer this module's vectorised one replaced; every case must
reproduce them exactly: a shared potential as the inline directive and
expanded onto every edge line, per-edge potentials (with a zero entry),
and directed edges with and without a reverse partner.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.graph import BeliefGraph
from repro.io.mtx import read_mtx_graph, write_mtx_graph

GOLDEN = Path(__file__).parent / "fixtures" / "mtx_golden"


def golden_cases() -> dict:
    """name -> (graph, inline_shared)"""
    rng = np.random.default_rng(7)
    priors = rng.dirichlet(np.ones(3), size=9)
    priors[0] = (1.0, 0.0, 0.0)
    priors[1] = (1e-9, 0.5, 0.5 - 1e-9)
    pairs = np.array(
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [8, 0], [2, 6]]
    )
    shared = rng.dirichlet(np.ones(3), size=3).astype(np.float32)
    shared = shared + shared.T  # symmetric, so from_undirected keeps it shared
    g_shared = BeliefGraph.from_undirected(priors, pairs, shared)
    stack = rng.dirichlet(np.ones(3), size=(len(pairs), 3)).astype(np.float32)
    stack[0, 0, 0] = 0.0
    g_edge = BeliefGraph.from_undirected(priors, pairs, per_edge_potentials=stack)
    # 0<->1, 3<->5 and 7<->8 are paired; 2->3 and 3->4 are not
    src = np.array([0, 1, 2, 3, 3, 5, 8, 7])
    dst = np.array([1, 0, 3, 4, 5, 3, 7, 8])
    g_unpaired = BeliefGraph(priors, src, dst, shared)
    directed = rng.dirichlet(np.ones(3), size=(len(src), 3)).astype(np.float32)
    g_unpaired_edge = BeliefGraph(priors, src, dst, directed)
    return {
        "shared_inline": (g_shared, True),
        "shared_expanded": (g_shared, False),
        "per_edge": (g_edge, True),
        "unpaired": (g_unpaired, True),
        "unpaired_per_edge": (g_unpaired_edge, True),
    }


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_writer_matches_golden_bytes(name, tmp_path):
    graph, inline = golden_cases()[name]
    node_path, edge_path = tmp_path / "g.mtx", tmp_path / "g.edges"
    write_mtx_graph(graph, node_path, edge_path, inline_shared=inline)
    assert node_path.read_bytes() == (GOLDEN / f"{name}.mtx").read_bytes()
    assert edge_path.read_bytes() == (GOLDEN / f"{name}.edges").read_bytes()


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_files_read_back(name):
    graph, _ = golden_cases()[name]
    back = read_mtx_graph(GOLDEN / f"{name}.mtx", GOLDEN / f"{name}.edges")
    assert back.n_nodes == graph.n_nodes
    np.testing.assert_allclose(back.priors.dense(), graph.priors.dense(), atol=1e-7)
