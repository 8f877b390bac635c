"""Evidence clamping (paper §2.1)."""

import numpy as np
import pytest

from repro.core import LoopyBP, exact_marginals, observe, clear_observations
from tests.conftest import make_tree_graph


class TestObserve:
    def test_clamps_to_one_hot(self, tree_graph):
        observe(tree_graph, 2, 1)
        np.testing.assert_allclose(tree_graph.beliefs[2], [0.0, 1.0])
        assert tree_graph.observed[2]
        assert tree_graph.observed_state[2] == 1

    def test_observe_by_name(self, tree_graph):
        tree_graph.node_names[3] = "dog_out"
        observe(tree_graph, "dog_out", 0)
        assert tree_graph.observed[3]

    def test_unknown_name_raises(self, tree_graph):
        with pytest.raises(KeyError):
            observe(tree_graph, "nonexistent", 0)

    def test_state_out_of_range(self, tree_graph):
        with pytest.raises(ValueError):
            observe(tree_graph, 0, 5)

    def test_node_out_of_range(self, tree_graph):
        with pytest.raises(IndexError):
            observe(tree_graph, 99, 0)

    def test_clear_restores_priors(self, tree_graph):
        prior = tree_graph.priors[1].copy()
        observe(tree_graph, 1, 0)
        clear_observations(tree_graph)
        np.testing.assert_allclose(tree_graph.beliefs[1], prior)
        assert not tree_graph.observed.any()


class TestEvidencePropagation:
    def test_observation_shifts_neighbour_posterior(self):
        g = make_tree_graph(seed=4)
        base = LoopyBP().run(g.copy()).beliefs
        g_obs = g.copy()
        observe(g_obs, 0, 0)
        shifted = LoopyBP().run(g_obs).beliefs
        # node 0's neighbours must move toward compatibility with state 0
        assert not np.allclose(base[1], shifted[1], atol=1e-4)

    def test_observed_node_stays_clamped_through_bp(self):
        g = make_tree_graph(seed=5)
        observe(g, 2, 1)
        result = LoopyBP().run(g)
        np.testing.assert_allclose(result.beliefs[2], [0.0, 1.0], atol=1e-6)

    def test_posteriors_match_exact_under_evidence(self):
        g = make_tree_graph(seed=6)
        observe(g, 4, 0)
        expected = exact_marginals(g)
        result = LoopyBP().run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=1e-3)

    def test_multiple_observations(self):
        g = make_tree_graph(seed=7)
        observe(g, 1, 0)
        observe(g, 5, 1)
        expected = exact_marginals(g)
        result = LoopyBP().run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=1e-3)
