"""Property-based tests on the BP core (hypothesis).

Invariants exercised:
* tree BP and loopy BP agree with exact enumeration on random trees;
* beliefs stay normalized under any update schedule;
* the work queue never changes the fixed point;
* both paradigms converge to the same posteriors;
* evidence clamps survive any run.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LoopyBP, TreeBP, exact_marginals, observe
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.potentials import random_potential

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tree_graphs(draw):
    """Random tree MRFs with 2-4 states and strictly positive factors."""
    n_nodes = draw(st.integers(min_value=2, max_value=9))
    n_states = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = np.array([[int(rng.integers(0, v)), v] for v in range(1, n_nodes)])
    priors = rng.dirichlet(np.full(n_states, 2.0), size=n_nodes)
    # Dirichlet can emit exact zeros in float32; keep factors positive
    priors = np.maximum(priors, 1e-4)
    pot = np.maximum(random_potential(n_states, rng), 1e-4)
    return BeliefGraph.from_undirected(priors, edges, pot)


@st.composite
def loopy_graphs(draw):
    n_nodes = draw(st.integers(min_value=3, max_value=15))
    extra = draw(st.integers(min_value=0, max_value=10))
    n_states = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    tree = [[int(rng.integers(0, v)), v] for v in range(1, n_nodes)]
    loops = rng.integers(0, n_nodes, size=(extra, 2)).tolist()
    edges = np.array(tree + loops)
    priors = np.maximum(rng.dirichlet(np.full(n_states, 2.0), size=n_nodes), 1e-4)
    pot = np.maximum(random_potential(n_states, rng), 1e-2)
    return BeliefGraph.from_undirected(priors, edges, pot)


class TestTreeExactness:
    @given(tree_graphs())
    @settings(**SETTINGS)
    def test_tree_bp_matches_enumeration(self, graph):
        expected = exact_marginals(graph)
        result = TreeBP().run(graph)
        np.testing.assert_allclose(result.beliefs, expected, atol=5e-4)

    @given(tree_graphs(), st.sampled_from(["node", "edge"]))
    @settings(**SETTINGS)
    def test_loopy_bp_matches_enumeration_on_trees(self, graph, paradigm):
        expected = exact_marginals(graph)
        crit = ConvergenceCriterion(threshold=1e-6, max_iterations=300)
        result = LoopyBP(paradigm=paradigm, criterion=crit).run(graph)
        np.testing.assert_allclose(result.beliefs, expected, atol=5e-3)

    @given(tree_graphs())
    @settings(**SETTINGS)
    def test_evidence_consistency(self, graph):
        node = graph.n_nodes // 2
        state = int(graph.dims[node]) - 1
        observe(graph, node, state)
        expected = exact_marginals(graph)
        result = LoopyBP(criterion=ConvergenceCriterion(1e-6, 300)).run(graph)
        np.testing.assert_allclose(result.beliefs, expected, atol=5e-3)
        assert result.beliefs[node, state] == pytest.approx(1.0, abs=1e-5)


class TestInvariants:
    @given(loopy_graphs(), st.sampled_from(["node", "edge"]),
           st.sampled_from(["sum_product", "broadcast"]))
    @settings(**SETTINGS)
    def test_beliefs_always_normalized(self, graph, paradigm, rule):
        result = LoopyBP(
            paradigm=paradigm,
            update_rule=rule,
            criterion=ConvergenceCriterion(max_iterations=20),
        ).run(graph)
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-4)
        assert (result.beliefs >= 0).all()
        assert np.isfinite(result.beliefs).all()

    @given(loopy_graphs())
    @settings(**SETTINGS)
    def test_work_queue_preserves_fixed_point(self, graph):
        crit = ConvergenceCriterion(threshold=1e-6, max_iterations=400)
        with_q = LoopyBP(schedule="work_queue", criterion=crit).run(graph.copy())
        without_q = LoopyBP(schedule="sync", criterion=crit).run(graph.copy())
        if with_q.converged and without_q.converged:
            np.testing.assert_allclose(with_q.beliefs, without_q.beliefs, atol=5e-3)

    @given(loopy_graphs())
    @settings(**SETTINGS)
    def test_paradigms_agree_at_convergence(self, graph):
        crit = ConvergenceCriterion(threshold=1e-7, max_iterations=500)
        node = LoopyBP(paradigm="node", criterion=crit).run(graph.copy())
        edge = LoopyBP(paradigm="edge", criterion=crit).run(graph.copy())
        if node.converged and edge.converged:
            np.testing.assert_allclose(node.beliefs, edge.beliefs, atol=5e-3)

    @given(loopy_graphs(), st.floats(min_value=0.0, max_value=0.8))
    @settings(**SETTINGS)
    def test_damping_preserves_fixed_point(self, graph, damping):
        crit = ConvergenceCriterion(threshold=1e-7, max_iterations=600)
        plain = LoopyBP(criterion=crit).run(graph.copy())
        damped = LoopyBP(damping=damping, criterion=crit).run(graph.copy())
        if plain.converged and damped.converged:
            np.testing.assert_allclose(plain.beliefs, damped.beliefs, atol=5e-3)
