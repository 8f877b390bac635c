"""The MTX dual-file format (paper §3.2)."""

import numpy as np
import pytest

from repro.core.potentials import attractive_potential, random_potential
from repro.io.mtx import MtxFormatError, read_mtx_graph, write_mtx_graph
from tests.conftest import make_loopy_graph


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "g.nodes", tmp_path / "g.edges"


class TestRoundtrip:
    def test_shared_inline(self, paths):
        g = make_loopy_graph(seed=1, n_nodes=20, n_edges=40)
        write_mtx_graph(g, *paths)
        g2 = read_mtx_graph(*paths)
        assert g2.n_nodes == g.n_nodes and g2.n_edges == g.n_edges
        assert g2.potentials.shared
        np.testing.assert_allclose(g2.priors, g.priors, atol=1e-5)
        np.testing.assert_allclose(
            g2.potentials.matrix(0), g.potentials.matrix(0), atol=1e-5
        )

    def test_expanded_matrices(self, paths):
        g = make_loopy_graph(seed=2, n_nodes=10, n_edges=15)
        write_mtx_graph(g, *paths, inline_shared=False)
        g2 = read_mtx_graph(*paths, collapse_identical=False)
        assert not g2.potentials.shared
        np.testing.assert_allclose(
            g2.potentials.matrix(0), g.potentials.matrix(0), atol=1e-5
        )

    def test_auto_collapse_identical(self, paths):
        g = make_loopy_graph(seed=3, n_nodes=10, n_edges=15)
        write_mtx_graph(g, *paths, inline_shared=False)
        assert read_mtx_graph(*paths).potentials.shared

    def test_heterogeneous_per_edge_matrices(self, paths):
        rng = np.random.default_rng(4)
        mats = np.stack([random_potential(2, rng) for _ in range(3)])
        from repro.core.graph import BeliefGraph

        g = BeliefGraph.from_undirected(
            rng.dirichlet([1, 1], size=4),
            np.array([[0, 1], [1, 2], [2, 3]]),
            per_edge_potentials=mats,
        )
        write_mtx_graph(g, *paths)
        g2 = read_mtx_graph(*paths)
        assert not g2.potentials.shared
        for e in range(g.n_edges):
            np.testing.assert_allclose(
                g2.potentials.matrix(e), g.potentials.matrix(e), atol=1e-5
            )

    def test_bp_results_survive_roundtrip(self, paths):
        from repro.core import LoopyBP

        g = make_loopy_graph(seed=5, n_nodes=15, n_edges=25)
        expected = LoopyBP().run(g.copy()).beliefs
        write_mtx_graph(g, *paths)
        got = LoopyBP().run(read_mtx_graph(*paths)).beliefs
        np.testing.assert_allclose(got, expected, atol=1e-4)

    def test_three_state_roundtrip(self, paths):
        g = make_loopy_graph(seed=6, n_nodes=8, n_edges=12, n_states=3)
        write_mtx_graph(g, *paths)
        g2 = read_mtx_graph(*paths)
        assert g2.n_states == 3


class TestErrors:
    def _write(self, paths, node_text, edge_text):
        paths[0].write_text(node_text)
        paths[1].write_text(edge_text)

    NODE_OK = (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 0.5 0.5\n2 2 0.4 0.6\n"
    )
    EDGE_OK = (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n1 2 0.9 0.1 0.1 0.9\n"
    )

    def test_valid_minimal(self, paths):
        self._write(paths, self.NODE_OK, self.EDGE_OK)
        g = read_mtx_graph(*paths)
        assert g.n_nodes == 2 and g.n_edges == 2

    def test_missing_banner(self, paths):
        self._write(paths, "2 2 2\n1 1 0.5 0.5\n2 2 0.4 0.6\n", self.EDGE_OK)
        with pytest.raises(MtxFormatError, match="banner"):
            read_mtx_graph(*paths)

    def test_non_square_node_file(self, paths):
        bad = self.NODE_OK.replace("2 2 2", "2 3 2")
        self._write(paths, bad, self.EDGE_OK)
        with pytest.raises(MtxFormatError, match="square"):
            read_mtx_graph(*paths)

    def test_non_self_cycling_node(self, paths):
        bad = self.NODE_OK.replace("1 1 0.5 0.5", "1 2 0.5 0.5")
        self._write(paths, bad, self.EDGE_OK)
        with pytest.raises(MtxFormatError, match="self-cycling"):
            read_mtx_graph(*paths)

    def test_duplicate_node(self, paths):
        bad = self.NODE_OK.replace("2 2 0.4 0.6", "1 1 0.4 0.6")
        self._write(paths, bad, self.EDGE_OK)
        with pytest.raises(MtxFormatError, match="duplicate"):
            read_mtx_graph(*paths)

    def test_entry_count_mismatch(self, paths):
        bad = self.NODE_OK.replace("2 2 2", "2 2 3")
        self._write(paths, bad, self.EDGE_OK)
        with pytest.raises(MtxFormatError, match="declared 3 entries"):
            read_mtx_graph(*paths)

    def test_inconsistent_belief_width(self, paths):
        bad = self.NODE_OK.replace("2 2 0.4 0.6", "2 2 0.4 0.3 0.3")
        self._write(paths, bad, self.EDGE_OK)
        with pytest.raises(MtxFormatError, match="expected 2 probabilities"):
            read_mtx_graph(*paths)

    def test_edge_endpoint_out_of_range(self, paths):
        bad = self.EDGE_OK.replace("1 2", "1 9")
        self._write(paths, self.NODE_OK, bad)
        with pytest.raises(MtxFormatError, match="out of range"):
            read_mtx_graph(*paths)

    def test_edge_matrix_size_mismatch(self, paths):
        bad = self.EDGE_OK.replace("0.9 0.1 0.1 0.9", "0.9 0.1")
        self._write(paths, self.NODE_OK, bad)
        with pytest.raises(MtxFormatError, match="matrix entries"):
            read_mtx_graph(*paths)

    def test_edge_dims_disagree_with_nodes(self, paths):
        bad = self.EDGE_OK.replace("2 2 1", "3 3 1")
        self._write(paths, self.NODE_OK, bad)
        with pytest.raises(MtxFormatError, match="disagree"):
            read_mtx_graph(*paths)

    def test_shared_directive_wrong_size(self, paths):
        bad = (
            "%%MatrixMarket matrix coordinate real general\n"
            "%credo shared-potential: 0.9 0.1\n"
            "2 2 1\n1 2\n"
        )
        self._write(paths, self.NODE_OK, bad)
        with pytest.raises(MtxFormatError, match="shared-potential needs 4"):
            read_mtx_graph(*paths)

    def test_comments_and_blank_lines_tolerated(self, paths):
        node = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 2 2\n\n1 1 0.5 0.5\n% mid comment\n2 2 0.4 0.6\n"
        )
        self._write(paths, node, self.EDGE_OK)
        assert read_mtx_graph(*paths).n_nodes == 2


class TestDetect:
    def test_detect_and_load(self, tmp_path, family_out_bif):
        from repro.io.detect import detect_format, load_graph

        bif = tmp_path / "net.bif"
        bif.write_text(family_out_bif)
        assert detect_format(bif) == "bif"
        g = load_graph(bif)
        assert g.n_nodes == 5

        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        write_mtx_graph(make_loopy_graph(seed=7, n_nodes=6, n_edges=8), nodes, edges)
        assert detect_format(nodes) == "mtx"
        assert load_graph(nodes, edges).n_nodes == 6
        # default edge-path resolution (same stem, .edges suffix)
        assert load_graph(nodes).n_nodes == 6

    def test_detect_xml(self, tmp_path):
        from repro.io.detect import detect_format

        p = tmp_path / "net.xmlbif"
        p.write_text("<?xml version='1.0'?><BIF></BIF>")
        assert detect_format(p) == "xmlbif"

    def test_unknown_format(self, tmp_path):
        from repro.io.detect import detect_format

        p = tmp_path / "mystery.dat"
        p.write_text("hello world\n")
        with pytest.raises(ValueError, match="cannot determine"):
            detect_format(p)
