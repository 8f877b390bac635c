"""Streaming metadata scanning (paper §3.7, metadata-only selection)."""

import numpy as np
import pytest

from repro.credo import Credo
from repro.credo.features import extract_features
from repro.io.mtx import MtxFormatError, read_mtx_graph, write_mtx_graph
from repro.io.scan import scan_mtx_stats
from tests.conftest import make_loopy_graph


@pytest.fixture
def written(tmp_path):
    g = make_loopy_graph(seed=101, n_nodes=40, n_edges=90)
    paths = tmp_path / "g.nodes", tmp_path / "g.edges"
    write_mtx_graph(g, *paths)
    return g, paths


class TestScan:
    def test_counts_match_graph(self, written):
        g, paths = written
        stats = scan_mtx_stats(*paths)
        assert stats.n_nodes == g.n_nodes
        assert stats.n_edges == g.n_edges // 2  # file lists undirected
        assert stats.n_beliefs == g.n_states

    def test_features_match_graph_extraction(self, written):
        """The streamed features equal the in-memory §3.7 features."""
        g, paths = written
        streamed = scan_mtx_stats(*paths).features()
        in_memory = extract_features(g)
        np.testing.assert_allclose(streamed, in_memory, rtol=1e-9)

    def test_degree_extremes(self, tmp_path):
        from repro.core.graph import BeliefGraph
        from repro.core.potentials import attractive_potential

        # star: node 0 out-degree 3 in canonical orientation
        g = BeliefGraph.from_undirected(
            np.full((4, 2), 0.5), np.array([[0, 1], [0, 2], [0, 3]]),
            attractive_potential(2, 0.8),
        )
        paths = tmp_path / "s.nodes", tmp_path / "s.edges"
        write_mtx_graph(g, *paths)
        stats = scan_mtx_stats(*paths)
        assert stats.max_out_degree == 3
        assert stats.max_in_degree == 1

    def test_malformed_edge_rejected(self, written, tmp_path):
        _, (nodes, edges) = written
        bad = tmp_path / "bad.edges"
        bad.write_text(edges.read_text().replace("\n2 ", "\nx ", 1))
        with pytest.raises(MtxFormatError):
            scan_mtx_stats(nodes, bad)

    def test_malformed_edge_error_matches_the_reader(self, written, tmp_path):
        """Same message and line number as read_mtx_graph on the same file."""
        _, (nodes, edges) = written
        bad = tmp_path / "bad.edges"
        bad.write_text(edges.read_text().replace("\n2 ", "\nx ", 1))
        with pytest.raises(MtxFormatError) as scanned:
            scan_mtx_stats(nodes, bad)
        with pytest.raises(MtxFormatError) as read:
            read_mtx_graph(nodes, bad)
        assert scanned.value.line_no is not None
        assert scanned.value.line_no == read.value.line_no
        assert str(scanned.value) == str(read.value)
        assert "malformed edge entry" in str(scanned.value)

    def test_credo_select_file_without_materializing(self, written):
        g, paths = written
        credo = Credo()
        choice = credo.select_file(*paths)
        assert choice == credo.select(g)  # same answer, zero graph builds
