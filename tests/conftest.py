"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import logodds
from repro.core.edge_kernel import edge_sweep
from repro.core.graph import BeliefGraph
from repro.core.node_kernel import node_sweep
from repro.core.potentials import attractive_potential, random_potential

#: the family-out Bayesian network of paper Figure 1 (Charniak 1991),
#: exercised by the parser and conversion tests
FAMILY_OUT_BIF = """
network family_out {
  property author = charniak ;
}
variable family_out { type discrete [ 2 ] { true, false }; }
variable bowel_problem { type discrete [ 2 ] { true, false }; }
variable light_on { type discrete [ 2 ] { true, false }; }
variable dog_out { type discrete [ 2 ] { true, false }; }
variable hear_bark { type discrete [ 2 ] { true, false }; }
probability ( family_out ) { table 0.15, 0.85; }
probability ( bowel_problem ) { table 0.01, 0.99; }
probability ( light_on | family_out ) {
  (true) 0.6, 0.4;
  (false) 0.05, 0.95;
}
probability ( dog_out | family_out, bowel_problem ) {
  (true, true) 0.99, 0.01;
  (true, false) 0.9, 0.1;
  (false, true) 0.97, 0.03;
  (false, false) 0.3, 0.7;
}
probability ( hear_bark | dog_out ) {
  (true) 0.7, 0.3;
  (false) 0.01, 0.99;
}
"""


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def family_out_bif():
    return FAMILY_OUT_BIF


def make_tree_graph(seed: int = 0, n_states: int = 2, n_nodes: int = 7) -> BeliefGraph:
    """A random tree MRF (exact BP ground truth available)."""
    rng = np.random.default_rng(seed)
    edges = np.array([[rng.integers(0, v), v] for v in range(1, n_nodes)])
    priors = rng.dirichlet(np.ones(n_states), size=n_nodes)
    return BeliefGraph.from_undirected(
        priors, edges, random_potential(n_states, rng)
    )


def make_loopy_graph(
    seed: int = 0, n_nodes: int = 12, n_edges: int = 20, n_states: int = 2,
    coupling: float = 0.7,
) -> BeliefGraph:
    """A small random graph with cycles."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n_nodes, size=(n_edges, 2))
    priors = rng.dirichlet(np.ones(n_states), size=n_nodes)
    return BeliefGraph.from_undirected(
        priors, edges, attractive_potential(n_states, coupling)
    )


@pytest.fixture
def tree_graph():
    return make_tree_graph()


@pytest.fixture
def loopy_graph():
    return make_loopy_graph()


class InterpretedExecutor:
    """The reference sweep: every call goes to the per-call kernels
    :func:`repro.core.node_kernel.node_sweep` and
    :func:`repro.core.edge_kernel.edge_sweep`, the semantics the compiled
    executor must match bit for bit."""

    build_seconds = 0.0

    def node_sweep(self, state, active_nodes, **options):
        return node_sweep(state, active_nodes, **options)

    def edge_sweep(self, state, active_edges, *, segments=None, dests=None, **options):
        """``dests``, the caller's destination set, is ignored: the
        reference builds every destination set itself."""
        if segments is not None and len(segments) > 1:
            raise NotImplementedError("the reference kernel sweeps one replica")
        return edge_sweep(state, active_edges, **options)


def _interpreted_executor(cache, state, **lowering):
    """Stand-in for :func:`repro.core.loopy.cached_executor`."""
    return InterpretedExecutor()


@contextmanager
def interpreted_sweeps():
    """Run every sweep inside the block on the reference kernels.

    Replaces :func:`repro.core.loopy.cached_executor`, which the single
    engine and the incremental engine both lower through, so each of
    them sweeps interpreted.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.core.loopy.cached_executor", _interpreted_executor)
        yield


def encode_messages(state, rows):
    """``(k, b)`` probability rows in the layout ``store_messages`` takes:
    themselves, or at b = 2 their log-odds."""
    if state.binary:
        return logodds.from_rows(rows)
    return np.asarray(rows, dtype=np.float32)


def message_state(state):
    """The arrays a sweep writes, in the state's layout: per-node
    message sums, messages (with their logs at b != 2), beliefs."""
    if state.binary:
        return (state.msg_sum_lo, state.msg_lo, state.belief_lo, state.beliefs)
    return (state.log_msg_sum, state.messages, state.log_messages, state.beliefs)


def assert_bitwise_run(got, ref):
    """Two whole runs agree bit for bit: iterations, delta history,
    per-sweep stats and posteriors."""
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    assert got.delta_history == ref.delta_history
    assert got.run_stats.per_iteration == ref.run_stats.per_iteration
    np.testing.assert_array_equal(got.beliefs, ref.beliefs)


@pytest.fixture
def interpreted():
    """The whole test sweeps on the reference kernels."""
    with interpreted_sweeps():
        yield
