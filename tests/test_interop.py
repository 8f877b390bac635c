"""networkx interoperability round-trips."""

import networkx as nx
import numpy as np
import pytest

from repro.core import LoopyBP, exact_marginals
from repro.interop import from_networkx, to_networkx
from tests.conftest import make_loopy_graph


class TestFromNetworkx:
    def test_basic_conversion(self):
        G = nx.path_graph(4)
        g = from_networkx(G)
        assert g.n_nodes == 4
        assert g.n_edges == 6  # 3 undirected edges -> directed pairs
        assert g.node_names == ["0", "1", "2", "3"]

    def test_priors_and_potentials_carried(self):
        G = nx.Graph()
        G.add_node("a", prior=[0.9, 0.1])
        G.add_node("b")
        G.add_edge("a", "b", potential=np.array([[0.8, 0.2], [0.2, 0.8]]))
        g = from_networkx(G)
        np.testing.assert_allclose(g.priors[0], [0.9, 0.1], atol=1e-6)
        np.testing.assert_allclose(g.priors[1], [0.5, 0.5], atol=1e-6)
        np.testing.assert_allclose(
            g.potentials.matrix(0), [[0.8, 0.2], [0.2, 0.8]], atol=1e-6
        )

    def test_validation(self):
        G = nx.Graph()
        G.add_node("a", prior=[0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="states"):
            from_networkx(G, n_states=2)

    def test_self_loops_dropped(self):
        G = nx.Graph()
        G.add_edge(0, 0)
        G.add_edge(0, 1)
        g = from_networkx(G)
        assert g.n_edges == 2

    def test_bp_runs_on_converted_graph(self):
        G = nx.karate_club_graph()
        g = from_networkx(G)
        result = LoopyBP().run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-4)


class TestRoundtrip:
    def test_posteriors_survive(self):
        """BP on the round-tripped graph equals BP on the original."""
        g = make_loopy_graph(seed=11, n_nodes=8, n_edges=12)
        expected = LoopyBP().run(g.copy()).beliefs
        G = to_networkx(g)
        g2 = from_networkx(G, n_states=2)
        result = LoopyBP().run(g2)
        order = [g2.node_names.index(str(i)) for i in range(g.n_nodes)]
        np.testing.assert_allclose(result.beliefs[order], expected, atol=1e-4)

    def test_exported_attributes(self):
        g = make_loopy_graph(seed=12, n_nodes=5, n_edges=7)
        LoopyBP().run(g)
        G = to_networkx(g)
        assert G.number_of_nodes() == 5
        for _node, data in G.nodes(data=True):
            assert "prior" in data and "belief" in data
            assert data["belief"].sum() == pytest.approx(1.0, abs=1e-4)
        for _u, _v, data in G.edges(data=True):
            assert data["potential"].shape == (2, 2)

    def test_potentials_optional(self):
        g = make_loopy_graph(seed=13, n_nodes=4, n_edges=5)
        G = to_networkx(g, include_potentials=False)
        for _u, _v, data in G.edges(data=True):
            assert "potential" not in data
