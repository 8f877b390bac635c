"""Residual-priority scheduling (extension; Gonzalez et al. line).

Runs through the unified driver — ``LoopyBP(schedule="residual")``.
"""

import numpy as np

from repro.core import LoopyBP, exact_marginals
from repro.core.convergence import ConvergenceCriterion
from tests.conftest import make_loopy_graph, make_tree_graph


def residual_bp(**kwargs) -> LoopyBP:
    return LoopyBP(paradigm="edge", schedule="residual", **kwargs)


class TestResidualSchedule:
    def test_exact_on_trees(self):
        g = make_tree_graph(seed=71, n_nodes=8)
        expected = exact_marginals(g)
        result = residual_bp().run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs, expected, atol=1e-3)

    def test_agrees_with_synchronous_loopy(self):
        g = make_loopy_graph(seed=72, n_nodes=25, n_edges=50)
        crit = ConvergenceCriterion(threshold=1e-6, max_iterations=400)
        sync = LoopyBP(schedule="sync", criterion=crit).run(g.copy())
        resid = residual_bp(criterion=crit).run(g.copy())
        np.testing.assert_allclose(resid.beliefs, sync.beliefs, atol=5e-3)

    def test_fewer_updates_than_full_sweeps(self):
        """The point of priority scheduling: focus work on the frontier."""
        g = make_loopy_graph(seed=73, n_nodes=60, n_edges=120)
        crit = ConvergenceCriterion(threshold=1e-4, max_iterations=400)
        sync = LoopyBP(schedule="sync", criterion=crit).run(g.copy())
        resid = residual_bp(criterion=crit).run(g.copy())
        assert resid.converged
        assert resid.updates < sync.iterations * g.n_edges

    def test_respects_update_cap(self):
        g = make_loopy_graph(seed=74, coupling=0.95)
        crit = ConvergenceCriterion(threshold=1e-12, max_iterations=2)
        result = residual_bp(criterion=crit).run(g)
        assert result.updates <= 2 * g.n_edges

    def test_edgeless_graph(self):
        from repro.core.graph import BeliefGraph
        from repro.core.potentials import attractive_potential

        g = BeliefGraph.from_undirected(
            np.array([[0.3, 0.7]]), np.empty((0, 2), dtype=np.int64),
            attractive_potential(2, 0.8),
        )
        result = residual_bp().run(g)
        assert result.converged and result.updates == 0

    def test_observed_nodes_stay_clamped(self):
        from repro.core.observation import observe

        g = make_loopy_graph(seed=75)
        observe(g, 2, 1)
        result = residual_bp().run(g)
        np.testing.assert_allclose(result.beliefs[2], [0.0, 1.0], atol=1e-6)

    def test_damping_still_converges(self):
        g = make_loopy_graph(seed=76)
        result = residual_bp(damping=0.3).run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-4)
