"""LoopyState compilation and message plumbing."""

import numpy as np
import pytest

from repro.core.graph import BeliefGraph
from repro.core.numeric import safe_log
from repro.core.observation import observe
from repro.core.potentials import attractive_potential
from repro.core.state import LoopyState, normalize_rows
from repro.kernels.compiled import make_executor
from tests.conftest import encode_messages, make_loopy_graph


class TestNormalizeRows:
    def test_basic(self):
        out = normalize_rows(np.array([[2.0, 2.0], [1.0, 3.0]], dtype=np.float32))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_row_becomes_uniform(self):
        out = normalize_rows(np.array([[0.0, 0.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.5, 0.5]])


class TestLoopyState:
    def test_rejects_ragged(self):
        from repro.core.potentials import PerEdgePotentialStore

        g = BeliefGraph(
            [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])],
            np.array([0]),
            np.array([1]),
            PerEdgePotentialStore([np.full((2, 3), 1 / 3, dtype=np.float32)]),
        )
        with pytest.raises(ValueError, match="constant-width"):
            LoopyState(g)

    def test_initial_messages_uniform(self):
        # the general path (b = 3); b = 2 starts at log-odds 0 (below)
        loopy_graph = make_loopy_graph(n_states=3)
        state = LoopyState(loopy_graph)
        np.testing.assert_allclose(state.messages, 1.0 / state.b)
        expected = np.log(1.0 / state.b) * np.diff(loopy_graph.in_offsets).reshape(-1, 1)
        np.testing.assert_allclose(
            state.log_msg_sum,
            np.broadcast_to(expected, state.log_msg_sum.shape),
            atol=1e-4,
        )

    def test_initial_binary_messages_zero(self, loopy_graph):
        # b = 2: a uniform message has log-odds 0, and so do their sums;
        # no (m, 2) message arrays exist
        state = LoopyState(loopy_graph)
        np.testing.assert_allclose(state.message_rows(), 1.0 / state.b)
        assert state.msg_lo.shape == (state.m,) and not state.msg_lo.any()
        assert state.msg_sum_lo.shape == (state.n,) and not state.msg_sum_lo.any()
        assert not hasattr(state, "messages") and not hasattr(state, "log_messages")

    def test_observed_priors_clamped_in_log_space(self):
        g = make_loopy_graph(seed=2)
        observe(g, 3, 1)
        state = LoopyState(g)
        assert state.log_priors[3, 1] == pytest.approx(0.0, abs=1e-6)
        assert state.log_priors[3, 0] < -30
        assert not state.free_mask[3]

    def test_store_messages_updates_log_sum_incrementally(self, loopy_graph):
        state = LoopyState(loopy_graph)
        edge_ids = np.arange(min(4, state.m))
        new = np.tile(np.array([0.9, 0.1], dtype=np.float32), (len(edge_ids), 1))
        state.store_messages(edge_ids, encode_messages(state, new))
        rebuilt = state.msg_sum_lo.copy()
        state._rebuild_log_msg_sum()
        np.testing.assert_allclose(rebuilt, state.msg_sum_lo, atol=1e-3)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_rebuild_matches_swept_sums_b3(self, paradigm):
        """Rebuilding the per-node log sums from swept, non-uniform
        messages gives back the sums the sweeps kept incrementally.
        Uniform messages cannot tell a bincount over destinations from
        one over sources: on a ``from_undirected`` graph every node's
        in-degree equals its out-degree."""
        state = LoopyState(make_loopy_graph(seed=5, n_nodes=40, n_edges=90, n_states=3))
        executor = make_executor(state)
        for _ in range(3):
            if paradigm == "node":
                executor.node_sweep(state, np.arange(state.n))
            else:
                executor.edge_sweep(state, np.arange(state.m))
        assert np.ptp(state.messages, axis=0).min() > 0.05  # non-uniform
        swept = state.log_msg_sum.copy()
        state._rebuild_log_msg_sum()
        # a rebuild folds each node's logs in a new order: close, not bit-equal
        np.testing.assert_allclose(state.log_msg_sum, swept, rtol=1e-5, atol=1e-5)

    def test_store_messages_returns_l1_delta(self, loopy_graph):
        state = LoopyState(loopy_graph)
        edge_ids = np.array([0])
        new = np.array([[0.9, 0.1]], dtype=np.float32)
        deltas = state.store_messages(edge_ids, encode_messages(state, new))
        assert deltas[0] == pytest.approx(0.8, abs=1e-5)
        np.testing.assert_allclose(state.message_rows(edge_ids), new, atol=1e-6)

    def test_combine_full_normalized(self, loopy_graph):
        state = LoopyState(loopy_graph)
        beliefs = state.combine_full()
        np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, atol=1e-5)

    def test_gather_in_edges_matches_csr(self, loopy_graph):
        state = LoopyState(loopy_graph)
        nodes = np.array([0, 3, 5])
        gathered, offsets = state.gather_in_edges(nodes)
        for k, v in enumerate(nodes):
            seg = gathered[offsets[k] : offsets[k + 1]]
            np.testing.assert_array_equal(np.sort(seg), np.sort(loopy_graph.in_edges(int(v))))

    def test_gather_out_edges_matches_csr(self, loopy_graph):
        state = LoopyState(loopy_graph)
        nodes = np.array([1, 2])
        gathered = state.gather_out_edges(nodes)
        expected = np.concatenate([loopy_graph.out_edges(1), loopy_graph.out_edges(2)])
        np.testing.assert_array_equal(np.sort(gathered), np.sort(expected))

    def test_gather_empty_nodes(self, loopy_graph):
        state = LoopyState(loopy_graph)
        gathered, offsets = state.gather_in_edges(np.empty(0, dtype=np.int64))
        assert len(gathered) == 0 and len(offsets) == 1

    def test_propagate_vs_cavity_differ_with_informative_messages(self):
        g = make_loopy_graph(seed=3)
        state = LoopyState(g)
        # push non-uniform messages so the cavity division matters
        new = np.tile(np.array([0.8, 0.2], dtype=np.float32), (state.m, 1))
        state.store_messages(np.arange(state.m), encode_messages(state, new))
        state.set_beliefs(slice(None), state.combine_full())
        broadcast = state.propagate_messages()
        cavity = state.cavity_messages()
        assert not np.allclose(broadcast, cavity, atol=1e-4)

    def test_max_semiring_messages(self, loopy_graph):
        # b = 2: the closed form gives the log-odds of max_x b(x)·J[x, ·]
        state = LoopyState(loopy_graph)
        msgs = state.propagate_messages(semiring="max")
        raw = (state.beliefs[state.src][:, :, None] * state.potentials).max(axis=1)
        expected = safe_log(raw[:, 1]) - safe_log(raw[:, 0])
        np.testing.assert_allclose(msgs, expected, atol=1e-5)
        wide = LoopyState(make_loopy_graph(n_states=3))
        rows = wide.propagate_messages(semiring="max")
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-5)

    def test_unknown_semiring_raises(self, loopy_graph):
        state = LoopyState(loopy_graph)
        with pytest.raises(ValueError, match="semiring"):
            state.propagate_messages(semiring="min")

    def test_export_beliefs_writes_back(self, loopy_graph):
        state = LoopyState(loopy_graph)
        state.beliefs[0] = (0.9, 0.1)
        state.export_beliefs()
        np.testing.assert_allclose(loopy_graph.beliefs[0], [0.9, 0.1], atol=1e-6)

    def test_shared_vs_stacked_potentials_equivalent(self):
        g_shared = make_loopy_graph(seed=9)
        mats = np.broadcast_to(
            g_shared.potentials.matrix(0), (g_shared.n_edges, 2, 2)
        ).copy()
        from repro.core.potentials import PerEdgePotentialStore

        g_stacked = g_shared.copy()
        g_stacked.potentials = PerEdgePotentialStore(mats)
        s1, s2 = LoopyState(g_shared), LoopyState(g_stacked)
        np.testing.assert_allclose(
            s1.propagate_messages(), s2.propagate_messages(), atol=1e-6
        )
