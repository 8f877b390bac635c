"""The brute-force oracle itself."""

import numpy as np
import pytest

from repro.core.exact import exact_marginals
from repro.core.graph import BeliefGraph
from repro.core.observation import observe
from repro.core.potentials import attractive_potential


def _two_node_graph(p0, p1, psi):
    return BeliefGraph.from_undirected(
        np.array([p0, p1]), np.array([[0, 1]]), np.asarray(psi, dtype=np.float32)
    )


class TestExactMarginals:
    def test_hand_computed_two_node_chain(self):
        # p(x0,x1) ∝ p0(x0) p1(x1) ψ(x0,x1), fully hand-checkable
        p0, p1 = [0.6, 0.4], [0.5, 0.5]
        psi = [[0.9, 0.1], [0.1, 0.9]]
        joint = np.zeros((2, 2))
        for a in range(2):
            for b in range(2):
                joint[a, b] = p0[a] * p1[b] * psi[a][b]
        joint /= joint.sum()
        marg = exact_marginals(_two_node_graph(p0, p1, psi))
        np.testing.assert_allclose(marg[0], joint.sum(axis=1), atol=1e-6)
        np.testing.assert_allclose(marg[1], joint.sum(axis=0), atol=1e-6)

    def test_independent_nodes_keep_priors(self):
        g = BeliefGraph.from_undirected(
            np.array([[0.3, 0.7], [0.9, 0.1]]),
            np.empty((0, 2), dtype=np.int64),
            attractive_potential(2, 0.8),
        )
        marg = exact_marginals(g)
        np.testing.assert_allclose(marg, [[0.3, 0.7], [0.9, 0.1]], atol=1e-6)

    def test_marginals_normalized(self):
        rng = np.random.default_rng(0)
        g = BeliefGraph.from_undirected(
            rng.dirichlet([1, 1, 1], size=5),
            rng.integers(0, 5, size=(6, 2)),
            attractive_potential(3, 0.6),
        )
        marg = exact_marginals(g)
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)

    def test_observation_restricts_support(self):
        g = _two_node_graph([0.6, 0.4], [0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
        observe(g, 0, 1)
        marg = exact_marginals(g)
        np.testing.assert_allclose(marg[0], [0.0, 1.0], atol=1e-6)
        # posterior of node 1 given x0=1: ∝ p1 * ψ[1, :]
        expected = np.array([0.5 * 0.1, 0.5 * 0.9])
        np.testing.assert_allclose(marg[1], expected / expected.sum(), atol=1e-6)

    def test_too_large_raises(self):
        rng = np.random.default_rng(0)
        g = BeliefGraph.from_undirected(
            rng.dirichlet([1, 1], size=40),
            rng.integers(0, 40, size=(50, 2)),
            attractive_potential(2, 0.7),
        )
        with pytest.raises(ValueError, match="too large"):
            exact_marginals(g)
