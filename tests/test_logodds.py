"""The binary log-odds update and its clamps (``core/logodds.py``).

The closed form must equal the 2×2 sum/max-product it replaces, and the
clamps must keep every run finite: one-hot evidence and priors,
potentials with zero entries (or huge ones), and cavities far beyond
``±LIMIT``.  Each fault case either matches the junction-tree oracle
with a truthful ``converged`` flag — another sweep moves the beliefs by
no more than the threshold when it says True — or raises a typed error.
"""

import math

import numpy as np
import pytest

from repro.core import LoopyBP, logodds, observe
from repro.core.convergence import ConvergenceCriterion
from repro.core.exact import exact_marginals
from repro.core.graph import BeliefGraph
from repro.core.junction import junction_tree_marginals
from repro.core.numeric import EPS, safe_log
from repro.core.state import LoopyState
from repro.kernels.compiled import make_executor
from tests.conftest import encode_messages

CRIT = ConvergenceCriterion(threshold=1e-7, max_iterations=300)


def _star(n_leaves, potential, prior_hub=(0.5, 0.5)):
    """A hub (node 0) with ``n_leaves`` leaves, all sharing ``potential``."""
    priors = np.full((n_leaves + 1, 2), 0.5)
    priors[0] = prior_hub
    edges = np.column_stack([np.zeros(n_leaves, dtype=np.int64), np.arange(1, n_leaves + 1)])
    return BeliefGraph.from_undirected(priors, edges, np.asarray(potential, dtype=np.float32))


def _chain(n, potential, priors=None):
    priors = np.full((n, 2), 0.5) if priors is None else priors
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return BeliefGraph.from_undirected(priors, edges, np.asarray(potential, dtype=np.float32))


def _solve(graph, paradigm="node", crit=CRIT):
    """Run ``c-<paradigm>:sync``; return the result and its final state."""
    state = LoopyState(graph)
    result = LoopyBP(paradigm=paradigm, schedule="sync", criterion=crit).run(graph, state=state)
    return result, state


def _assert_finite_and_truthful(result, state, crit=CRIT):
    assert np.isfinite(result.beliefs).all()
    np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-6)
    for arr in (state.msg_lo, state.msg_sum_lo, state.belief_lo):
        assert np.isfinite(arr).all()
    assert np.abs(state.msg_lo).max(initial=0.0) <= logodds.LIMIT
    if result.converged:
        deltas, _ = make_executor(state).node_sweep(state, np.arange(state.n))
        assert float(deltas.sum()) <= crit.threshold
    else:
        assert result.iterations == crit.max_iterations


class TestClosedForm:
    @pytest.mark.parametrize("semiring", ["sum", "max"])
    def test_matches_two_by_two_product(self, semiring):
        rng = np.random.default_rng(0)
        psi = rng.random((2, 2)).astype(np.float32) + 0.05
        cavity = rng.normal(scale=4.0, size=1000).astype(np.float32)
        coef, floor = logodds.coefficients(psi, shared=True)
        got = logodds.message(cavity.copy(), tuple(coef), semiring, floor,
                              out=np.empty_like(cavity))
        p = 1.0 / (1.0 + np.exp(-cavity.astype(np.float64)))
        src = np.column_stack([1.0 - p, p])
        prod = src[:, :, None] * psi.astype(np.float64)
        raw = prod.sum(axis=1) if semiring == "sum" else prod.max(axis=1)
        expected = safe_log(raw[:, 1], EPS) - safe_log(raw[:, 0], EPS)
        np.testing.assert_allclose(got, expected, atol=2e-5)

    def test_damp_mixes_probabilities(self):
        new = np.array([2.0, -1.0, 0.0], dtype=np.float32)
        old = np.array([-3.0, 0.5, 4.0], dtype=np.float32)
        got = logodds.damp(new, old, 0.3)
        p_new, p_old = (1 / (1 + np.exp(-x.astype(np.float64))) for x in (new, old))
        mix = 0.7 * p_new + 0.3 * p_old
        np.testing.assert_allclose(got, safe_log(mix, EPS) - safe_log(1 - mix, EPS), atol=1e-5)

    def test_deltas_are_l1_changes(self):
        new = np.array([2.0, -1.0], dtype=np.float32)
        old = np.array([0.0, 3.0], dtype=np.float32)
        rows_new, rows_old = logodds.belief_rows(new), logodds.belief_rows(old)
        np.testing.assert_allclose(
            logodds.deltas(new, old), np.abs(rows_new - rows_old).sum(axis=1), atol=1e-6
        )

    def test_rows_round_trip(self):
        lo = np.array([-5.0, 0.0, 0.7, 3.0], dtype=np.float32)
        np.testing.assert_allclose(logodds.from_rows(logodds.belief_rows(lo)), lo, atol=1e-4)

    def test_state_encodes_and_decodes_messages(self):
        g = _chain(4, [[0.8, 0.2], [0.2, 0.8]])
        state = LoopyState(g)
        rows = np.tile([0.25, 0.75], (state.m, 1)).astype(np.float32)
        state.store_messages(np.arange(state.m), encode_messages(state, rows))
        np.testing.assert_allclose(state.message_rows(), rows, atol=1e-6)


class TestClamps:
    def test_cavity_beyond_clamp_stays_finite(self):
        coef, floor = logodds.coefficients(np.array([[0.9, 0.1], [0.3, 0.7]]), shared=True)
        cavity = np.array([1e6, -1e6, 500.0, -500.0, 0.0], dtype=np.float32)
        got = logodds.message(cavity, tuple(coef), "sum", floor, out=np.empty_like(cavity))
        assert np.isfinite(got).all()
        # a saturated cavity reads the potential's row ratio exactly
        np.testing.assert_allclose(got[:2], [math.log(0.7 / 0.3), math.log(0.1 / 0.9)], atol=1e-6)

    def test_hub_log_odds_far_beyond_clamp(self):
        # 60 observed leaves pull the hub's belief log-odds to ~60·log 99,
        # far past LIMIT; one free leaf reads the hub through the clamp
        g = _star(61, [[0.99, 0.01], [0.01, 0.99]])
        for leaf in range(1, 61):
            observe(g, leaf, 1)
        result, state = _solve(g)
        assert state.belief_lo[0] > 3 * logodds.LIMIT
        _assert_finite_and_truthful(result, state)
        assert result.converged
        np.testing.assert_allclose(result.beliefs, junction_tree_marginals(g), atol=1e-5)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_one_hot_evidence_and_priors(self, paradigm):
        priors = np.full((6, 2), 0.5)
        priors[2] = (1.0, 0.0)  # a one-hot prior on a free node
        g = _chain(6, [[0.7, 0.3], [0.3, 0.7]], priors)
        observe(g, 0, 1)
        observe(g, 5, 0)
        result, state = _solve(g, paradigm)
        _assert_finite_and_truthful(result, state)
        assert result.converged
        np.testing.assert_array_equal(result.beliefs[0], [0.0, 1.0])
        np.testing.assert_array_equal(result.beliefs[5], [1.0, 0.0])
        np.testing.assert_allclose(result.beliefs, junction_tree_marginals(g), atol=1e-5)

    @pytest.mark.parametrize(
        "potential",
        [
            [[1.0, 0.0], [0.0, 1.0]],  # hard equality
            [[0.0, 1.0], [1.0, 0.0]],  # hard disagreement
            [[0.0, 1.0], [0.5, 0.5]],  # a zero in the first row: floored
            [[1e30, 1.0], [1.0, 1e30]],  # huge entries: scaled
        ],
        ids=["equality", "disagree", "floored", "huge"],
    )
    def test_zero_and_extreme_potentials(self, potential):
        g = _chain(5, potential)
        observe(g, 0, 1)
        result, state = _solve(g)
        _assert_finite_and_truthful(result, state)
        assert result.converged
        np.testing.assert_allclose(result.beliefs, junction_tree_marginals(g), atol=1e-5)

    def test_all_zero_first_row_reads_uniform(self):
        coef, floor = logodds.coefficients(np.array([[0.0, 0.0], [1.0, 1.0]]), shared=True)
        assert floor
        cavity = np.full(3, -logodds.LIMIT, dtype=np.float32)
        cavity[1] = 0.0
        got = logodds.message(cavity, tuple(coef), "sum", floor, out=np.empty_like(cavity))
        np.testing.assert_array_equal(got, 0.0)

    def test_contradictory_evidence(self):
        # equality potential with opposite clamps at the ends: the joint
        # has no mass, which the oracle reports as a typed error; BP
        # still returns finite beliefs and a truthful flag
        g = _chain(4, [[1.0, 0.0], [0.0, 1.0]])
        observe(g, 0, 0)
        observe(g, 3, 1)
        with pytest.raises(ValueError, match="zero mass"):
            exact_marginals(g)
        result, state = _solve(g)
        _assert_finite_and_truthful(result, state)

    def test_capped_run_reports_not_converged(self):
        crit = ConvergenceCriterion(threshold=1e-7, max_iterations=2)
        g = _chain(12, [[0.9, 0.1], [0.1, 0.9]])
        observe(g, 0, 1)
        result, state = _solve(g, crit=crit)
        assert not result.converged
        _assert_finite_and_truthful(result, state, crit)
