"""The loopy BP driver (paper Algorithm 1, §3.3, §3.5)."""

import numpy as np
import pytest

from repro.core import LoopyBP, LoopyConfig, exact_marginals
from repro.core.convergence import ConvergenceCriterion
from tests.conftest import make_loopy_graph, make_tree_graph


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"paradigm": "vertex"},
            {"update_rule": "gossip"},
            {"semiring": "min"},
            {"damping": 1.0},
            {"damping": -0.1},
            {"edge_chunks": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LoopyConfig(**kwargs)

    def test_overrides(self):
        bp = LoopyBP(paradigm="edge", damping=0.3)
        assert bp.config.paradigm == "edge"
        assert bp.config.damping == 0.3


class TestCorrectness:
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("work_queue", [True, False])
    def test_exact_on_trees(self, paradigm, work_queue):
        g = make_tree_graph(seed=11, n_nodes=9)
        expected = exact_marginals(g)
        schedule = "work_queue" if work_queue else "sync"
        result = LoopyBP(paradigm=paradigm, schedule=schedule).run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs, expected, atol=2e-3)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_three_state_tree(self, paradigm):
        g = make_tree_graph(seed=13, n_states=3, n_nodes=8)
        expected = exact_marginals(g)
        result = LoopyBP(paradigm=paradigm).run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=2e-3)

    def test_paradigms_reach_same_fixed_point(self):
        g = make_loopy_graph(seed=14, n_nodes=20, n_edges=35)
        crit = ConvergenceCriterion(threshold=1e-6, max_iterations=500)
        r_node = LoopyBP(paradigm="node", criterion=crit).run(g.copy())
        r_edge = LoopyBP(paradigm="edge", criterion=crit).run(g.copy())
        np.testing.assert_allclose(r_node.beliefs, r_edge.beliefs, atol=1e-3)

    def test_work_queue_matches_full_sweeps(self):
        g = make_loopy_graph(seed=15, n_nodes=30, n_edges=60)
        crit = ConvergenceCriterion(threshold=1e-5, max_iterations=500)
        with_q = LoopyBP(schedule="work_queue", criterion=crit).run(g.copy())
        without_q = LoopyBP(schedule="sync", criterion=crit).run(g.copy())
        np.testing.assert_allclose(with_q.beliefs, without_q.beliefs, atol=1e-3)

    def test_updates_graph_in_place(self):
        g = make_loopy_graph(seed=16)
        result = LoopyBP().run(g)
        np.testing.assert_allclose(g.beliefs, result.beliefs, atol=1e-6)

    def test_broadcast_rule_converges(self):
        g = make_loopy_graph(seed=17)
        result = LoopyBP(update_rule="broadcast").run(g)
        assert result.converged
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-5)

    def test_max_product_finds_map_on_tree(self):
        g = make_tree_graph(seed=18, n_nodes=6)
        result = LoopyBP(semiring="max").run(g)
        # max-marginals argmax == joint argmax on trees
        import itertools

        from repro.core.exact import _enumerate

        best, best_w = None, -1.0
        for assignment, weight in _enumerate(g):
            if weight > best_w:
                best, best_w = assignment, weight
        np.testing.assert_array_equal(result.map_states(), np.array(best))


class TestTermination:
    def test_iteration_cap_respected(self):
        g = make_loopy_graph(seed=19, coupling=0.95)
        crit = ConvergenceCriterion(threshold=1e-12, max_iterations=5)
        result = LoopyBP(criterion=crit).run(g)
        assert result.iterations == 5
        assert not result.converged

    def test_delta_history_length_matches_iterations(self):
        g = make_loopy_graph(seed=20)
        result = LoopyBP().run(g)
        assert len(result.delta_history) == result.iterations
        assert result.final_delta == result.delta_history[-1]

    def test_deltas_eventually_decrease(self):
        g = make_loopy_graph(seed=21)
        result = LoopyBP(schedule="sync").run(g)
        assert result.delta_history[-1] < result.delta_history[0]

    def test_edgeless_graph_converges_immediately(self):
        from repro.core.graph import BeliefGraph
        from repro.core.potentials import attractive_potential

        g = BeliefGraph.from_undirected(
            np.array([[0.2, 0.8], [0.6, 0.4]]),
            np.empty((0, 2), dtype=np.int64),
            attractive_potential(2, 0.8),
        )
        result = LoopyBP().run(g)
        assert result.converged and result.iterations <= 2
        np.testing.assert_allclose(result.beliefs, [[0.2, 0.8], [0.6, 0.4]], atol=1e-5)


class TestStats:
    def test_work_queue_reduces_processed_elements(self):
        g = make_loopy_graph(seed=22, n_nodes=50, n_edges=100)
        with_q = LoopyBP(paradigm="node", schedule="work_queue").run(g.copy())
        without_q = LoopyBP(paradigm="node", schedule="sync").run(g.copy())
        assert (
            with_q.run_stats.total.nodes_processed
            < without_q.run_stats.total.nodes_processed
        )

    def test_edge_paradigm_reports_atomics(self):
        g = make_loopy_graph(seed=23)
        result = LoopyBP(paradigm="edge", schedule="sync").run(g)
        assert result.run_stats.total.atomic_ops > 0

    def test_per_iteration_stats_recorded(self):
        g = make_loopy_graph(seed=24)
        result = LoopyBP().run(g)
        assert result.run_stats.iterations == result.iterations
