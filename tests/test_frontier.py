"""The work queue's downstream frontier (DESIGN.md §13.8).

A sweep's downstream set — the out-edges of the elements still changing,
or their destinations — is gathered through the CSR for a small set and
marked with one pass over every edge for a large one
(:func:`repro.core.indexset.frontier_by_mask`).  The two routes must be
indistinguishable to every consumer:

* they hold the same distinct elements, on random graphs with isolated
  nodes and unpaired edges, for sets on both sides of the crossover;
* whole node and edge work-queue runs repeat
  posteriors, iterations, delta histories and per-sweep stats exactly
  with the crossover forced to the gather;
* ``work_queue``, ``residual`` and ``relaxed`` are one frontier schedule:
  by either route, cold or seeded, they sweep the same elements and
  differ only in ``work_queue``'s earlier stop on the global criterion;
* a node sweep whose active nodes hold every edge runs on the
  natural-order slice and stays bit-exact with the reference kernel.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import indexset
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP, _downstream
from repro.core.node_kernel import node_sweep
from repro.core.potentials import attractive_potential, random_potential
from repro.core.state import LoopyState
from repro.kernels.compiled import make_executor
from tests.conftest import interpreted_sweeps, message_state

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextmanager
def frontier_route(route):
    """Force every frontier down one route: ``"gather"`` or ``"mask"``."""
    saved = indexset._FRONTIER_MASK_DIVISOR
    # k * 0 >= n never holds for n > 0; k * (n + 1) >= n holds for k >= 1
    indexset._FRONTIER_MASK_DIVISOR = 0 if route == "gather" else 1 << 40
    try:
        yield
    finally:
        indexset._FRONTIER_MASK_DIVISOR = saved


@contextmanager
def recorded_routes(log):
    """Record the route every frontier takes, as ``frontier_by_mask`` rules."""
    original = indexset.frontier_by_mask

    def spy(k, n):
        choice = original(k, n)
        log.append(choice)
        return choice

    indexset.frontier_by_mask = spy
    try:
        yield
    finally:
        indexset.frontier_by_mask = original


def random_graph(n, n_pairs, n_isolated, seed, *, unpaired=False):
    """A random binary graph whose last ``n_isolated`` nodes have no edge."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(n_pairs, 2))
    priors = rng.dirichlet(np.ones(2), size=n + n_isolated)
    g = BeliefGraph.from_undirected(priors, edges, random_potential(2, rng))
    if unpaired and g.n_edges:
        # drop every third directed edge: their pairs lose their reverse
        keep = np.arange(g.n_edges) % 3 != 0
        g = BeliefGraph(priors, g.src[keep], g.dst[keep], g.potentials.matrix(0))
    return g


@st.composite
def frontier_cases(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    n_pairs = draw(st.integers(min_value=0, max_value=4 * n))
    n_isolated = draw(st.integers(min_value=0, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = random_graph(n, n_pairs, n_isolated, seed, unpaired=draw(st.booleans()))
    # any subset, from a single node to all of them: both sides of the
    # crossover (20% of n)
    k = draw(st.integers(min_value=1, max_value=g.n_nodes))
    nodes = np.sort(np.random.default_rng(seed).choice(g.n_nodes, k, replace=False))
    return LoopyState(g), nodes.astype(np.int64)


class TestFrontierSets:
    @settings(**SETTINGS)
    @given(frontier_cases(), st.booleans())
    def test_mask_equals_unique_of_gather(self, case, to_nodes):
        state, nodes = case
        out = state.gather_out_edges(nodes)
        ragged = state.dst[out] if to_nodes else out
        with frontier_route("mask"):
            masked = _downstream(state, nodes, to_nodes=to_nodes)
        with frontier_route("gather"):
            gathered = _downstream(state, nodes, to_nodes=to_nodes)
        np.testing.assert_array_equal(gathered, ragged)
        np.testing.assert_array_equal(masked, np.unique(ragged))
        assert masked.dtype == np.int64
        shipped = _downstream(state, nodes, to_nodes=to_nodes)
        np.testing.assert_array_equal(np.unique(shipped), np.unique(ragged))

    def test_crossover_is_a_fraction_of_n(self):
        assert not indexset.frontier_by_mask(19, 100)
        assert indexset.frontier_by_mask(20, 100)
        # the oneshot-rand200k run (seed 1) falls on both sides: its third
        # sweep leaves 70,306 of 200k nodes changing, its fourth 9,293
        assert indexset.frontier_by_mask(70_306, 200_000)
        assert not indexset.frontier_by_mask(9_293, 200_000)


def loopy_graph_with_isolated_nodes(seed=3):
    """~1k nodes, 16 of them isolated, coupled enough that the first
    sweeps leave most nodes changing and the last ones only a few."""
    rng = np.random.default_rng(seed)
    n = 1_000
    edges = rng.integers(0, n, size=(4 * n, 2))
    priors = rng.dirichlet(np.ones(2), size=n + 16)
    return BeliefGraph.from_undirected(priors, edges, attractive_potential(2, 0.7))


def assert_same_run(a, b):
    np.testing.assert_array_equal(a.beliefs, b.beliefs)
    assert a.iterations == b.iterations
    assert a.delta_history == b.delta_history
    assert a.run_stats.per_iteration == b.run_stats.per_iteration


class TestRunLevel:
    crit = ConvergenceCriterion(threshold=1e-4, max_iterations=200)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("executor", ["compiled", "interpreted"])
    def test_work_queue_repeats_with_the_gather_forced(self, paradigm, executor):
        g = loopy_graph_with_isolated_nodes()
        bp = LoopyBP(paradigm=paradigm, schedule="work_queue", criterion=self.crit)
        sweeps = interpreted_sweeps() if executor == "interpreted" else nullcontext()
        routes: list[bool] = []
        with sweeps:
            with recorded_routes(routes):
                shipped = bp.run(g.copy())
            # the run crosses over: early sweeps mask, late ones gather
            assert True in routes and False in routes
            with frontier_route("gather"):
                gathered = bp.run(g.copy())
        assert_same_run(shipped, gathered)

    @pytest.mark.parametrize("schedule", ["residual", "relaxed"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_priority_schedules_ignore_the_crossover(self, schedule, paradigm):
        g = loopy_graph_with_isolated_nodes()
        bp = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=self.crit)
        with frontier_route("mask"):
            masked = bp.run(g.copy())
        with frontier_route("gather"):
            gathered = bp.run(g.copy())
        assert_same_run(masked, gathered)


class TestOneFrontierSchedule:
    @pytest.mark.parametrize("route", ["mask", "gather"])
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_queue_and_priority_names_run_the_same_sweeps(self, paradigm, seeded, route):
        """``residual`` and ``relaxed`` are bit-identical; ``work_queue``
        is the same run, cut where the global criterion stops it (it
        alone may stop there), so a ``residual`` run capped at its
        iteration count repeats it exactly."""
        g = loopy_graph_with_isolated_nodes()
        n_elements = g.n_nodes if paradigm == "node" else g.n_edges
        seed = np.arange(0, n_elements, 5, dtype=np.int64) if seeded else None

        def run(schedule, max_iterations=200):
            crit = ConvergenceCriterion(threshold=1e-4, max_iterations=max_iterations)
            bp = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=crit)
            with frontier_route(route):
                return bp.run(g.copy(), active_seed=seed)

        residual, relaxed, queue = run("residual"), run("relaxed"), run("work_queue")
        assert residual.converged and queue.converged
        np.testing.assert_array_equal(relaxed.beliefs, residual.beliefs)
        assert relaxed.iterations == residual.iterations
        assert relaxed.delta_history == residual.delta_history
        assert queue.iterations <= residual.iterations
        capped = run("residual", max_iterations=queue.iterations)
        np.testing.assert_array_equal(queue.beliefs, capped.beliefs)
        assert queue.delta_history == capped.delta_history
        for a, b in zip(queue.run_stats.per_iteration, capped.run_stats.per_iteration):
            assert a.edges_processed == b.edges_processed
            assert a.nodes_processed == b.nodes_processed


class TestEveryEdgeSlice:
    @pytest.mark.parametrize("n_states", [2, 3])
    def test_active_nodes_holding_every_edge_sweep_the_slice(self, n_states, monkeypatch):
        rng = np.random.default_rng(7)
        n = 300
        edges = rng.integers(0, n, size=(3 * n, 2))
        priors = rng.dirichlet(np.ones(n_states), size=n + 5)
        g = BeliefGraph.from_undirected(priors, edges, random_potential(n_states, rng))
        # every node with an in-edge: all edges, but not all nodes
        active = np.flatnonzero(np.diff(g.in_offsets) > 0).astype(np.int64)
        assert len(active) < g.n_nodes

        ref_state, got_state = LoopyState(g.copy()), LoopyState(g.copy())
        ref, ref_stats = node_sweep(ref_state, active)
        compiled = make_executor(got_state)
        ranges = []
        sweep_range = compiled._sweep_range

        def recording(state, edges, **kwargs):
            ranges.append(edges)
            return sweep_range(state, edges, **kwargs)

        monkeypatch.setattr(compiled, "_sweep_range", recording)
        got, got_stats = compiled.node_sweep(got_state, active)
        assert ranges == [slice(0, g.n_edges)]
        np.testing.assert_array_equal(got, ref)
        assert got_stats == ref_stats
        assert got_stats.edges_processed == g.n_edges
        for got_arr, ref_arr in zip(message_state(got_state), message_state(ref_state)):
            np.testing.assert_array_equal(got_arr, ref_arr)
