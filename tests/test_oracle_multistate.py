"""Oracle checks for the b ≥ 3 sweeps where the in-edge rank scatter runs.

The b ≥ 3 full sweeps scatter by in-edge rank (``kernels/compiled.py``)
on any graph whose in-degrees fit in ``b``.  The parity grid checks that
route bit for bit against ``bincount``; these tests check the plans it
runs in against exact answers instead:

* on trees BP is exact, so c-node and c-edge under every schedule, with
  and without evidence, must match ``core/junction.py`` to ``TREE_TOL``
  — on a complete binary tree at b = 3 (in-degree ≤ 3) and a 64-node
  tree at b = 8;
* on a 3×3 grid at b = 4 (in-degree ≤ 4) every such plan must land
  within ``LOOPY_BOUND`` of brute-force ``core/exact.py``.

Each case also asserts that the rank route ran, so a gate that closed
would not pass unseen.  A 3×3 grid at b = 3 (in-degree 4 > b) checks the
``bincount`` route the same way, and that the rank route stayed shut.
Damped node and edge plans (``sync`` and ``work_queue``) face the same
oracles on the trees and the b = 4 grids.
"""

import numpy as np
import pytest

from repro.core import LoopyBP, observe
from repro.core.convergence import ConvergenceCriterion
from repro.core.exact import exact_marginals
from repro.core.graph import BeliefGraph
from repro.core.junction import junction_tree_marginals
from repro.core.state import LoopyState
from repro.graphs.grids import grid_edges

PLANS = [
    (p, s) for p in ("node", "edge") for s in ("sync", "work_queue", "residual", "relaxed")
]

#: max |BP − junction tree| on a tree; measured ≤ 2.94e-6 on seeds 0–49
#: of both tree families × the eight plans, with and without evidence
TREE_TOL = 1e-5

#: max |BP − exact| on the 3×3 grids below (per-edge potential entries in
#: [1, 2], two observed corners); over seeds 0–199 and the eight plans,
#: loopy BP measured ≤ 2.90e-4 at b = 4 and ≤ 1.93e-4 at b = 3.  The
#: bound is the b = 2 harness's.
LOOPY_BOUND = 1e-2

#: the schedules stop on a summed L1 belief change; on the 64-node b = 8
#: trees float32 rounding leaves a 1–2e-6 limit cycle (8 of 400 sync runs
#: at 1e-6 never stopped, seeds 0–49), so the runs stop at 1e-5
CRIT = ConvergenceCriterion(threshold=1e-5, max_iterations=500)

#: damping mixes half of each old message into the new one
DAMPING = 0.5

#: damped runs stop ten times tighter: at 1e-5 they stopped up to 1.50e-5
#: from the junction tree (binary-b3, seeds 0–49), since each sweep now
#: moves only half-way.  At 1e-6 all 800 damped tree runs (seeds 0–49, both
#: families, with and without evidence, four plans) stopped, the b = 8
#: limit cycle gone, within 1.78e-6 of the junction tree and after at
#: most 37 sweeps; the damped b = 4 grids (seeds 0–199, four plans) all
#: stopped within 2.90e-4 of brute force, inside ``LOOPY_BOUND``.
DAMPED_CRIT = ConvergenceCriterion(threshold=1e-6, max_iterations=500)
DAMPED_PLANS = [(p, s) for p in ("node", "edge") for s in ("sync", "work_queue")]


@pytest.fixture
def rank_scatters(monkeypatch):
    """Counts the scatters that take the in-edge rank route (``[0]``)
    and those that take the ``bincount`` route (``[1]``)."""
    calls = [0, 0]
    original = LoopyState.scatter_log_delta

    def spy(self, dsts, log_delta, rows=None, ranks=None):
        calls[ranks is None] += 1
        return original(self, dsts, log_delta, rows, ranks)

    monkeypatch.setattr(LoopyState, "scatter_log_delta", spy)
    return calls


def _per_edge(rng, pairs, b, n):
    priors = np.maximum(rng.dirichlet(np.ones(b), size=n), 1e-3)
    stack = (rng.dirichlet(np.ones(b), size=(len(pairs), b)) + 0.05).astype(np.float32)
    return BeliefGraph.from_undirected(priors, np.array(pairs), per_edge_potentials=stack)


def _complete_binary_tree(b, seed, depth=5):
    n = 2**depth - 1
    return _per_edge(np.random.default_rng(seed), [[(v - 1) // 2, v] for v in range(1, n)], b, n)


def _capped_tree(b, seed, n=64):
    """A random recursive tree with no node of degree above ``b``."""
    rng = np.random.default_rng(seed)
    degree = np.zeros(n, dtype=int)
    pairs = []
    for v in range(1, n):
        open_ = np.flatnonzero(degree[:v] < b)
        u = int(rng.choice(open_))
        degree[[u, v]] += 1
        pairs.append([u, v])
    return _per_edge(rng, pairs, b, n)


TREES = {
    "binary-b3": lambda seed: _complete_binary_tree(3, seed),
    "random64-b8": lambda seed: _capped_tree(8, seed),
}


@pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
@pytest.mark.parametrize("paradigm,schedule", PLANS)
@pytest.mark.parametrize("tree", sorted(TREES))
def test_trees_match_junction_tree(tree, paradigm, schedule, evidence, rank_scatters):
    for seed in range(2):
        g = TREES[tree](seed)
        assert np.diff(g.in_offsets).max() <= g.n_states
        if evidence:
            observe(g, 5, 1)
            observe(g, g.n_nodes - 1, g.n_states - 1)
        exact = junction_tree_marginals(g)
        result = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=CRIT).run(g)
        assert result.converged
        assert np.abs(np.asarray(result.beliefs) - exact).max() <= TREE_TOL
    assert rank_scatters[0] > 0


def _loopy_grids(b):
    """3×3 grids at ``b`` states with per-edge entries in [1, 2] and their
    exact marginals (b⁹ configurations each)."""
    out = []
    for seed in range(2):
        rng = np.random.default_rng(seed)
        pairs = grid_edges(3, 3)
        priors = np.maximum(rng.dirichlet(np.ones(b), size=9), 1e-3)
        stack = (1.0 + rng.random((len(pairs), b, b))).astype(np.float32)
        g = BeliefGraph.from_undirected(priors, pairs, per_edge_potentials=stack)
        observe(g, 0, seed % b)
        observe(g, 8, (seed + 1) % b)
        out.append((g, exact_marginals(g)))
    return out


@pytest.fixture(scope="module")
def loopy_grids():
    return _loopy_grids(4)


@pytest.fixture(scope="module")
def loopy_grids_b3():
    return _loopy_grids(3)


def _near_exact(grids, paradigm, schedule, damping=0.0):
    crit = DAMPED_CRIT if damping else CRIT
    for g, exact in grids:
        result = LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=crit, damping=damping
        ).run(g.copy())
        assert result.converged
        assert np.abs(np.asarray(result.beliefs) - exact).max() <= LOOPY_BOUND


@pytest.mark.parametrize("paradigm,schedule", PLANS)
def test_loopy_grid_near_exact(loopy_grids, paradigm, schedule, rank_scatters):
    for g, _ in loopy_grids:
        assert np.diff(g.in_offsets).max() <= g.n_states
    _near_exact(loopy_grids, paradigm, schedule)
    assert rank_scatters[0] > 0


@pytest.mark.parametrize("paradigm,schedule", DAMPED_PLANS)
@pytest.mark.parametrize("tree", sorted(TREES))
def test_damped_trees_match_junction_tree(tree, paradigm, schedule):
    for seed in range(2):
        for evidence in (False, True):
            g = TREES[tree](seed)
            if evidence:
                observe(g, 5, 1)
                observe(g, g.n_nodes - 1, g.n_states - 1)
            exact = junction_tree_marginals(g)
            result = LoopyBP(
                paradigm=paradigm, schedule=schedule, criterion=DAMPED_CRIT, damping=DAMPING
            ).run(g)
            assert result.converged
            assert np.abs(np.asarray(result.beliefs) - exact).max() <= TREE_TOL


@pytest.mark.parametrize("paradigm,schedule", DAMPED_PLANS)
def test_damped_loopy_grid_near_exact(loopy_grids, paradigm, schedule):
    _near_exact(loopy_grids, paradigm, schedule, damping=DAMPING)


@pytest.mark.parametrize("paradigm,schedule", PLANS)
def test_bincount_grid_near_exact(loopy_grids_b3, paradigm, schedule, rank_scatters):
    for g, _ in loopy_grids_b3:
        assert np.diff(g.in_offsets).max() > g.n_states
    _near_exact(loopy_grids_b3, paradigm, schedule)
    rank, bincount = rank_scatters
    assert rank == 0 and bincount > 0


#: a banded potential with exact zeros: no state sits next to one two
#: steps away, so evidence at an end state sends messages with exact-zero
#: entries, and the next cavity divides by them
BAND = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.float32)


@pytest.mark.parametrize("paradigm,schedule", PLANS)
def test_zero_potential_entries_match_junction_tree(paradigm, schedule):
    n = 15
    priors = np.random.default_rng(0).dirichlet(np.ones(3), size=n)
    g = BeliefGraph.from_undirected(priors, np.array([[(v - 1) // 2, v] for v in range(1, n)]), BAND)
    observe(g, 0, 2)
    observe(g, n - 1, 0)
    exact = junction_tree_marginals(g)
    result = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=CRIT).run(g)
    assert result.converged
    assert np.abs(np.asarray(result.beliefs) - exact).max() <= TREE_TOL


@pytest.mark.parametrize("paradigm,schedule", PLANS)
def test_evidence_on_an_impossible_state_stays_finite(paradigm, schedule):
    # row 0 of the potential is all zero, so evidence at state 0 sends an
    # all-zero message: it must normalize to uniform, not to 0/0
    psi = np.array([[0, 0, 0], [1, 2, 1], [1, 1, 2]], dtype=np.float32)
    g = BeliefGraph.from_undirected(np.full((3, 3), 1 / 3), np.array([[0, 1], [1, 2]]), psi)
    observe(g, 0, 0)
    result = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=CRIT).run(g)
    beliefs = np.asarray(result.beliefs)
    assert result.converged and np.isfinite(beliefs).all()
    np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, rtol=1e-6)
