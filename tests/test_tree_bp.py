"""The original three-phase BP (paper §2.1)."""

import numpy as np
import pytest

from repro.core import TreeBP, exact_marginals, observe
from repro.core.convergence import ConvergenceCriterion
from repro.core.tree_bp import bfs_levels
from tests.conftest import make_loopy_graph, make_tree_graph


class TestLevels:
    def test_root_is_level_zero(self, tree_graph):
        levels = bfs_levels(tree_graph)
        assert levels[0] == 0
        assert (levels >= 0).all()

    def test_levels_differ_by_one_on_tree_edges(self, tree_graph):
        levels = bfs_levels(tree_graph)
        for e in range(tree_graph.n_edges):
            u, v = int(tree_graph.src[e]), int(tree_graph.dst[e])
            assert abs(levels[u] - levels[v]) == 1

    def test_multiple_components(self):
        from repro.core.graph import BeliefGraph
        from repro.core.potentials import attractive_potential

        priors = np.full((4, 2), 0.5)
        g = BeliefGraph.from_undirected(
            priors, np.array([[0, 1], [2, 3]]), attractive_potential(2, 0.8)
        )
        levels = bfs_levels(g)
        assert (levels >= 0).all()
        assert levels[0] == 0 and levels[2] == 0

    def test_custom_roots(self, tree_graph):
        levels = bfs_levels(tree_graph, roots=[3])
        assert levels[3] == 0


class TestTreeBPExactness:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_on_random_trees(self, seed):
        g = make_tree_graph(seed=seed, n_nodes=8)
        expected = exact_marginals(g)
        result = TreeBP().run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs, expected, atol=1e-4)

    def test_exact_with_evidence(self):
        g = make_tree_graph(seed=31)
        observe(g, 3, 1)
        expected = exact_marginals(g)
        result = TreeBP().run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=1e-4)

    def test_three_state_tree(self):
        g = make_tree_graph(seed=32, n_states=3)
        expected = exact_marginals(g)
        result = TreeBP().run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=1e-4)

    def test_converges_in_two_rounds_on_tree(self):
        g = make_tree_graph(seed=33)
        result = TreeBP().run(g)
        # round 1 computes the exact answer; round 2 confirms (delta 0)
        assert result.iterations == 2

    def test_writes_beliefs_back_to_graph(self):
        g = make_tree_graph(seed=34)
        result = TreeBP().run(g)
        np.testing.assert_allclose(g.beliefs.dense(), result.beliefs, atol=1e-6)


class TestTreeBPOnCycles:
    def test_runs_and_converges_on_loopy_graph(self):
        g = make_loopy_graph(seed=35)
        result = TreeBP().run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-5)

    def test_agrees_with_loopy_bp_fixed_point(self):
        from repro.core import LoopyBP

        g = make_loopy_graph(seed=36, n_nodes=10, n_edges=14, coupling=0.6)
        crit = ConvergenceCriterion(threshold=1e-7, max_iterations=500)
        tree_result = TreeBP(criterion=crit).run(g.copy())
        loopy_result = LoopyBP(criterion=crit, schedule="sync").run(g.copy())
        np.testing.assert_allclose(
            tree_result.beliefs, loopy_result.beliefs, atol=5e-3
        )

    def test_respects_iteration_cap(self):
        g = make_loopy_graph(seed=37, coupling=0.95)
        result = TreeBP(criterion=ConvergenceCriterion(threshold=1e-12, max_iterations=3)).run(g)
        assert result.iterations == 3


class TestTreeBPCost:
    def test_processes_all_edges_per_round(self):
        g = make_tree_graph(seed=38)
        result = TreeBP().run(g)
        per_round = result.run_stats.per_iteration[0].edges_processed
        # collect + distribute each touch every directed edge once on a tree
        assert per_round == g.n_edges

    def test_slower_than_loopy_per_unit_work(self):
        """§2.1.1's premise: the level-scheduled sequential engine pays
        far more per edge than the vectorized loopy kernels."""
        import time

        from repro.core import LoopyBP

        g = make_loopy_graph(seed=39, n_nodes=300, n_edges=900)
        t0 = time.perf_counter()
        TreeBP(criterion=ConvergenceCriterion(max_iterations=3)).run(g.copy())
        tree_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        LoopyBP(criterion=ConvergenceCriterion(max_iterations=3), schedule="sync").run(g.copy())
        loopy_time = time.perf_counter() - t0
        assert tree_time > loopy_time
