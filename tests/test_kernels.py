"""Node and edge sweep kernels (paper §3.3): equivalence and accounting."""

import numpy as np
import pytest

from repro.core.edge_kernel import edge_sweep
from repro.core.node_kernel import node_sweep
from repro.core.state import LoopyState
from tests.conftest import make_loopy_graph


def _fresh_state(seed=0, **kwargs):
    return LoopyState(make_loopy_graph(seed=seed, **kwargs))


class TestNodeSweep:
    def test_returns_delta_per_active_node(self):
        state = _fresh_state()
        active = np.arange(state.n)
        deltas, stats = node_sweep(state, active)
        assert len(deltas) == state.n
        assert stats.nodes_processed == state.n
        assert stats.edges_processed == state.m  # all in-edges touched

    def test_beliefs_stay_normalized(self):
        state = _fresh_state(seed=1)
        node_sweep(state, np.arange(state.n))
        np.testing.assert_allclose(state.beliefs.sum(axis=1), 1.0, atol=1e-5)

    def test_subset_only_touches_subset(self):
        state = _fresh_state(seed=2)
        before = state.beliefs.copy()
        active = np.array([0, 1])
        node_sweep(state, active)
        untouched = np.setdiff1d(np.arange(state.n), active)
        np.testing.assert_allclose(state.beliefs[untouched], before[untouched])

    def test_empty_active_is_noop(self):
        state = _fresh_state()
        deltas, stats = node_sweep(state, np.empty(0, dtype=np.int64))
        assert len(deltas) == 0 and stats.flops == 0

    def test_observed_nodes_not_updated(self):
        graph = make_loopy_graph(seed=3)
        from repro.core.observation import observe

        observe(graph, 2, 1)
        state = LoopyState(graph)
        node_sweep(state, np.arange(state.n))
        np.testing.assert_allclose(state.beliefs[2], [0.0, 1.0], atol=1e-6)

    def test_no_atomics_for_node_paradigm(self):
        state = _fresh_state()
        _, stats = node_sweep(state, np.arange(state.n))
        assert stats.atomic_ops == 0
        assert stats.random_accesses == 2 * state.m

    def test_damping_slows_message_change(self):
        s_plain = _fresh_state(seed=4)
        s_damped = _fresh_state(seed=4)
        d0, _ = node_sweep(s_plain, np.arange(s_plain.n), damping=0.0)
        d1, _ = node_sweep(s_damped, np.arange(s_damped.n), damping=0.8)
        assert d1.sum() < d0.sum()

    def test_unknown_rule_raises(self):
        state = _fresh_state()
        with pytest.raises(ValueError, match="update_rule"):
            node_sweep(state, np.arange(state.n), update_rule="bogus")


class TestEdgeSweep:
    def test_full_sweep_stats(self):
        state = _fresh_state()
        deltas, touched, stats = edge_sweep(state, np.arange(state.m))
        assert len(deltas) == state.m
        assert stats.edges_processed == state.m
        # one atomic transaction per processed edge (§3.3)
        assert stats.atomic_ops == state.m
        assert stats.random_accesses == state.m

    def test_touched_nodes_are_destinations(self):
        state = _fresh_state(seed=5)
        active = np.arange(4)
        _, touched, _ = edge_sweep(state, active)
        assert set(touched).issubset(set(state.dst[active].tolist()))

    def test_chunked_vs_single_chunk_same_fixed_point_direction(self):
        s1 = _fresh_state(seed=6)
        s8 = _fresh_state(seed=6)
        edge_sweep(s1, np.arange(s1.m), chunks=1)
        edge_sweep(s8, np.arange(s8.m), chunks=8)
        # same messages processed; chunked uses fresher beliefs so results
        # may differ slightly but must stay normalized
        np.testing.assert_allclose(s1.beliefs.sum(axis=1), 1.0, atol=1e-5)
        np.testing.assert_allclose(s8.beliefs.sum(axis=1), 1.0, atol=1e-5)

    def test_empty_active_is_noop(self):
        state = _fresh_state()
        deltas, touched, stats = edge_sweep(state, np.empty(0, dtype=np.int64))
        assert len(deltas) == 0 and len(touched) == 0 and stats.flops == 0

    def test_observed_destinations_not_recombined(self):
        graph = make_loopy_graph(seed=7)
        from repro.core.observation import observe

        observe(graph, 1, 0)
        state = LoopyState(graph)
        edge_sweep(state, np.arange(state.m))
        np.testing.assert_allclose(state.beliefs[1], [1.0, 0.0], atol=1e-6)


class TestParadigmEquivalence:
    def test_jacobi_sweeps_agree(self):
        """One synchronous pass of either paradigm computes the same
        messages (edge with chunks=1 is exactly Jacobi too)."""
        s_node = _fresh_state(seed=8)
        s_edge = _fresh_state(seed=8)
        node_sweep(s_node, np.arange(s_node.n))
        edge_sweep(s_edge, np.arange(s_edge.m), chunks=1)
        np.testing.assert_allclose(s_node.message_rows(), s_edge.message_rows(), atol=1e-5)
        np.testing.assert_allclose(s_node.beliefs, s_edge.beliefs, atol=1e-5)

    def test_broadcast_rule_agreement(self):
        s_node = _fresh_state(seed=9)
        s_edge = _fresh_state(seed=9)
        node_sweep(s_node, np.arange(s_node.n), update_rule="broadcast")
        edge_sweep(s_edge, np.arange(s_edge.m), chunks=1, update_rule="broadcast")
        np.testing.assert_allclose(s_node.beliefs, s_edge.beliefs, atol=1e-5)
