"""Failure-injection tests: malformed inputs must fail loudly."""

import numpy as np
import pytest

from repro.core.graph import BeliefGraph
from repro.core.potentials import (
    PerEdgePotentialStore,
    SharedPotentialStore,
    attractive_potential,
)
from repro.io.mtx import MtxFormatError, read_mtx_graph
from repro.stream.loader import load_graph_stream


class TestGraphValidation:
    def test_nan_priors_rejected(self):
        priors = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(ValueError, match="NaN"):
            BeliefGraph.from_undirected(
                priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
            )

    def test_infinite_priors_rejected(self):
        priors = np.array([[0.5, 0.5], [np.inf, 0.5]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            BeliefGraph.from_undirected(
                priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
            )

    def test_negative_priors_rejected(self):
        priors = np.array([[0.5, 0.5], [-0.1, 1.1]])
        with pytest.raises(ValueError, match="non-negative"):
            BeliefGraph.from_undirected(
                priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
            )

    def test_all_zero_prior_row_becomes_uniform(self):
        priors = np.array([[0.0, 0.0], [0.3, 0.7]])
        g = BeliefGraph.from_undirected(
            priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
        )
        np.testing.assert_allclose(g.priors.get(0), [0.5, 0.5])

    def test_mismatched_src_dst(self):
        with pytest.raises(ValueError, match="equal length"):
            BeliefGraph(
                np.full((2, 2), 0.5), np.array([0, 1]), np.array([1]),
                attractive_potential(2, 0.8),
            )

    def test_potential_store_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            BeliefGraph(
                np.full((2, 2), 0.5), np.array([0]), np.array([1]),
                SharedPotentialStore(attractive_potential(2, 0.8), 5),
            )

    def test_node_names_length_mismatch(self):
        with pytest.raises(ValueError, match="node_names"):
            BeliefGraph.from_undirected(
                np.full((2, 2), 0.5), np.array([[0, 1]]),
                attractive_potential(2, 0.8), node_names=["only-one"],
            )


class TestNonFinitePotentials:
    """NaN or infinite potentials must fail loudly, never give NaN posteriors."""

    NODES = (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 0.5 0.5\n2 2 0.4 0.6\n"
    )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shared_store_rejects(self, bad):
        matrix = np.array([[0.75, 0.25], [0.25, bad]])
        with pytest.raises(ValueError, match="finite"):
            SharedPotentialStore(matrix, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_per_edge_store_rejects(self, bad):
        stack = np.full((2, 2, 2), 0.5)
        stack[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PerEdgePotentialStore(stack)
        with pytest.raises(ValueError, match="finite"):
            PerEdgePotentialStore([stack[0], stack[1][:, 1:]])  # ragged list

    @pytest.mark.parametrize("load", [read_mtx_graph, load_graph_stream])
    def test_mtx_per_edge_nan_matrix_rejected(self, tmp_path, load):
        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        nodes.write_text(self.NODES)
        edges.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 2 nan 0.25 0.25 0.75\n"
        )
        with pytest.raises(ValueError, match="finite"):
            load(nodes, edges)

    @pytest.mark.parametrize("values", ["nan 0.25 0.25 0.75", "0.75 inf 0.25 0.75", "0.75 x 1 1"])
    def test_mtx_shared_directive_must_be_finite(self, tmp_path, values):
        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        nodes.write_text(self.NODES)
        edges.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"%credo shared-potential: {values}\n"
            "2 2 1\n1 2\n"
        )
        with pytest.raises(MtxFormatError, match="shared-potential values must be finite"):
            read_mtx_graph(nodes, edges)


class TestSuiteIteration:
    def test_suite_graphs_yields_all_variants(self):
        from repro.graphs.suite import suite_graphs

        seen = list(
            suite_graphs(
                use_cases=("binary",),
                subset=("10x40", "100x400"),
                profile="smoke",
            )
        )
        assert len(seen) == 2
        for bench, use_case, graph, factor in seen:
            assert use_case == "binary"
            assert graph.n_nodes > 0
            assert factor == 1.0


class TestBeliefStoreEdgeCases:
    def test_empty_store(self):
        from repro.core.beliefs import make_store

        store = make_store(np.array([], dtype=np.int64), "aos")
        assert len(store) == 0
        assert store.dense().shape[0] == 0

    def test_single_state_node(self):
        from repro.core.beliefs import make_store

        store = make_store(np.array([1, 2]), "soa")
        store.fill_uniform()
        np.testing.assert_allclose(store.get(0), [1.0])
