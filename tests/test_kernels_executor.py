"""The compiled sweep executor (DESIGN.md §13).

The compiled executor is only admissible because it is *bit-exact*
against the per-call reference kernels (``core/node_kernel``,
``core/edge_kernel``, reached through ``tests.conftest``'s interpreted
adapter) — the parity grid here is the contract: schedules × paradigms ×
evidence × state widths, posteriors compared with ``assert_array_equal``
(no tolerance).  The rest covers the belief-store layouts (conversion,
blocked store, footprint truthfulness) and the ``executor=`` keyword
Credo keeps.
"""

import numpy as np
import pytest

from repro.core.beliefs import BLOCK_NODES, make_store
from repro.core.convergence import ConvergenceCriterion
from repro.core.edge_kernel import chunk_slices
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP
from repro.core.observation import observe
from repro.core.potentials import attractive_potential
from repro.core.state import LoopyState
from repro.graphs.grids import grid_edges
from repro.kernels import LAYOUTS, CompiledExecutor, make_executor, with_layout
from repro.kernels.compiled import _in_edge_ranks
from tests.conftest import (
    assert_bitwise_run,
    interpreted_sweeps,
    make_loopy_graph,
    message_state,
)

CRIT = ConvergenceCriterion(threshold=1e-6, max_iterations=60)
SCHEDULES = ("sync", "work_queue", "residual", "relaxed")


def _both(run):
    """``run()`` on the reference kernels, then compiled."""
    with interpreted_sweeps():
        ref = run()
    return ref, run()


def _graph(evidence: bool = False, seed: int = 42, n_states: int = 3):
    g = make_loopy_graph(seed=seed, n_nodes=40, n_edges=90, n_states=n_states)
    if evidence:
        observe(g, 3, 1)
        observe(g, 17, 0)
    return g


class TestParityGrid:
    @pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_single_engine_bitwise(self, schedule, paradigm, evidence):
        ref, got = _both(lambda: LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
        ).run(_graph(evidence)))
        assert_bitwise_run(got, ref)

    @pytest.mark.parametrize("n_states", [2, 8, 9])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_state_widths_bitwise(self, schedule, paradigm, n_states):
        # with the 3-state grid above this covers widths {2, 3, 8, 9}:
        # below, at and above numpy's 8-wide pairwise-summation block,
        # which the compiled row sums must reproduce bit for bit
        ref, got = _both(lambda: LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
        ).run(_graph(True, n_states=n_states)))
        assert_bitwise_run(got, ref)

    def test_damped_sweeps_bitwise(self):
        ref, got = _both(lambda: LoopyBP(
            paradigm="edge", schedule="sync", damping=0.3, criterion=CRIT,
        ).run(_graph(True, seed=8)))
        assert_bitwise_run(got, ref)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_compiled_sweep_stats_match_interpreted(self, schedule, paradigm):
        # the cost models price SweepStats, so a compiled run must model
        # exactly what the reference kernels model
        ref, got = _both(lambda: LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
        ).run(_graph(True)))
        assert_bitwise_run(got, ref)


class TestLayouts:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_with_layout_preserves_values(self, layout):
        g = make_loopy_graph(seed=5, n_nodes=33, n_edges=70, n_states=3)
        conv = with_layout(g, layout)
        assert conv.layout == layout
        np.testing.assert_array_equal(conv.beliefs.dense(), g.beliefs.dense())
        np.testing.assert_array_equal(conv.priors.dense(), g.priors.dense())
        # structure is shared, not copied
        assert conv.src is g.src and conv.potentials is g.potentials
        back = with_layout(conv, g.layout)
        np.testing.assert_array_equal(back.beliefs.dense(), g.beliefs.dense())

    def test_with_layout_same_layout_is_identity(self):
        g = make_loopy_graph(seed=5)
        assert with_layout(g, g.layout) is g

    def test_blocked_store_roundtrip(self):
        rng = np.random.default_rng(0)
        n = 3 * BLOCK_NODES + 5  # deliberately ragged: a partial tail tile
        dims = np.full(n, 4)
        dense = rng.random((n, 4)).astype(np.float32)
        store = make_store(dims, "blocked")
        store.load_dense(dense)
        np.testing.assert_array_equal(store.dense(), dense)
        np.testing.assert_array_equal(store.get(n - 1), dense[n - 1])
        store.set(2, np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32))
        assert store.dense()[2, 1] == np.float32(0.2)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_footprint_tracks_layout(self, layout):
        g = with_layout(make_loopy_graph(seed=3, n_nodes=50, n_edges=100), layout)
        fp = g.memory_footprint()
        assert fp["beliefs"] == g.beliefs.nbytes()
        assert fp["priors"] == g.priors.nbytes()


class TestPlanIntegration:
    def test_qualified_suffix_grammar(self):
        from repro.credo.runner import ExecutionPlan

        assert ExecutionPlan("c-node", "sync").qualified == "c-node:sync"
        assert ExecutionPlan("distributed", "sync").qualified == "distributed:sync"

    def test_plan_paradigm_for_unsuffixed_backends(self):
        from repro.credo.runner import ExecutionPlan

        assert ExecutionPlan("c-edge", "sync").paradigm == "edge"
        # backends without a -node/-edge suffix sweep per node
        assert ExecutionPlan("distributed", "sync").paradigm == "node"
        assert ExecutionPlan("reference", "sync").paradigm == "node"

    def test_qualified_spec_round_trips(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=11)
        plan = credo.plan(g, backend="c-edge:sync")
        assert (plan.backend, plan.schedule) == ("c-edge", "sync")
        # the rendered spelling plans back to the same decision, and runs
        # it: a spelled plan and a frozen one give the same answer
        assert credo.plan(g, backend=plan.qualified) == plan
        by_name = credo.run(g.copy(), backend=plan.qualified)
        by_plan = credo.run(g.copy(), plan=plan)
        assert by_name.iterations == by_plan.iterations
        assert by_name.detail["schedule"] == "sync"
        np.testing.assert_array_equal(
            np.asarray(by_name.beliefs), np.asarray(by_plan.beliefs)
        )

    @pytest.mark.parametrize("name, error", [
        ("c-nod", KeyError),
        ("c-node:bogus", ValueError),
        # the retired executor, layout, shard-policy and shard-count
        # suffixes name no backend or no schedule
        ("c-node:sync!compiled", ValueError),
        ("c-node:sync%soa", ValueError),
        ("c-node@2xhash", KeyError),
        ("c-node:residual@2xhash", ValueError),
        ("sharded:sync@4xbfs", KeyError),
        ("sharded:sync@4xbfs+async~2", KeyError),
        # a registry backend Credo does not dispatch cannot run either
        ("distributed:sync", KeyError),
    ])
    def test_plan_rejects_names_that_cannot_run(self, name, error):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=11)
        for call in (credo.plan, credo.run):
            with pytest.raises(error):
                call(g.copy(), backend=name)

    def test_credo_run_accepts_qualified_spec(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=13)
        ref = credo.run(g.copy(), backend="c-edge", schedule="sync")
        got = credo.run(g.copy(), backend="c-edge:sync")
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(
            np.asarray(got.beliefs), np.asarray(ref.beliefs)
        )
        assert "executor" not in got.detail

    def test_credo_run_compiled_matches_default(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=31)
        ref = credo.run(g.copy(), backend="c-node")
        got = credo.run(g.copy(), backend="c-node", executor="compiled")
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(
            np.asarray(got.beliefs), np.asarray(ref.beliefs)
        )
        plan = credo.plan(g, backend="c-node", executor="compiled")
        assert plan == credo.plan(g, backend="c-node")
        # "compiled" is the only executor left
        for call in (credo.run, credo.plan):
            with pytest.raises(ValueError, match="unknown executor"):
                call(g.copy(), backend="c-node", executor="interpreted")

    def test_make_executor_lowers_against_state(self):
        from repro.core.state import LoopyState

        ex = make_executor(LoopyState(_graph()))
        assert ex.build_seconds >= 0.0


# ---------------------------------------------------------------------------
def _route_grid(b: int, side: int = 12) -> BeliefGraph:
    """A ``side × side`` grid at width ``b`` plus one isolated node, four
    unpaired directed edges (one into each corner) and two observed
    nodes.  No node has more than four in-edges, so at b ≥ 4 every slice
    range passes the rank scatter's gate."""
    rng = np.random.default_rng(b)
    pairs = grid_edges(side, side)
    corners = [0, side - 1, side * (side - 1), side * side - 1]
    extra = np.array([[side * 3 + 3 + k, c] for k, c in enumerate(corners)])
    directed = np.concatenate([pairs, pairs[:, ::-1], extra])
    priors = rng.dirichlet(np.ones(b), size=side * side + 1)
    g = BeliefGraph(priors, directed[:, 0], directed[:, 1], attractive_potential(b, 0.5))
    observe(g, 17, 1)
    observe(g, 70, b - 1)
    return g


@pytest.fixture
def scatter_routes(monkeypatch):
    """Which route each scatter takes: True for the in-edge rank route."""
    routes = []
    original = LoopyState.scatter_log_delta

    def spy(self, dsts, log_delta, rows=None, ranks=None):
        routes.append(ranks is not None)
        return original(self, dsts, log_delta, rows, ranks)

    monkeypatch.setattr(LoopyState, "scatter_log_delta", spy)
    return routes


def _no_rank_route(monkeypatch):
    monkeypatch.setattr(CompiledExecutor, "_in_edge_ranks", lambda self, state, edges: None)


class TestRankScatter:
    """The b ≥ 3 scatter by in-edge rank (``kernels/compiled.py``): taken
    for slice ranges of a graph whose in-degrees fit in ``b``, bitwise
    the ``bincount`` route it replaces, and not taken anywhere else."""

    @pytest.mark.parametrize("b", [4, 8])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_full_sweeps_take_the_route_bitwise(self, b, paradigm, scatter_routes, monkeypatch):
        def sweeps():
            state = LoopyState(_route_grid(b))
            ex = make_executor(state)
            for _ in range(5):
                if paradigm == "node":
                    ex.node_sweep(state, np.arange(state.n))
                else:
                    ex.edge_sweep(state, np.arange(state.m), chunks=8)
            return state, ex

        state, ex = sweeps()
        slices = [(0, state.m)] if paradigm == "node" else list(chunk_slices(state.m, 8))
        assert paradigm == "node" or len(slices) > 1
        assert scatter_routes == [True] * (5 * len(slices))
        assert sorted(ex._ranks) == slices
        scatter_routes.clear()
        _no_rank_route(monkeypatch)
        ref, _ = sweeps()
        assert scatter_routes == [False] * (5 * len(slices))
        for got, want in zip(message_state(state), message_state(ref)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("schedule", ["sync", "work_queue"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_runs_bitwise_without_the_route(self, schedule, paradigm, scatter_routes, monkeypatch):
        def run():
            return LoopyBP(paradigm=paradigm, schedule=schedule, criterion=CRIT).run(
                _route_grid(8)
            )

        got = run()
        assert any(scatter_routes)
        _no_rank_route(monkeypatch)
        assert_bitwise_run(got, run())

    def test_high_in_degree_takes_bincount(self, scatter_routes):
        g = make_loopy_graph(seed=3, n_nodes=40, n_edges=90, n_states=3)
        assert np.diff(g.in_offsets).max() > 3
        for paradigm in ("node", "edge"):
            LoopyBP(paradigm=paradigm, schedule="sync", criterion=CRIT).run(g.copy())
        assert scatter_routes and not any(scatter_routes)

    def test_index_array_ranges_take_bincount(self, scatter_routes):
        state = LoopyState(_route_grid(8))
        ex = make_executor(state)
        ex.node_sweep(state, np.arange(0, state.n, 2))
        ex.edge_sweep(state, np.arange(0, state.m, 3))
        assert scatter_routes == [False] * (1 + len(chunk_slices(len(range(0, state.m, 3)), 8)))
        assert not ex._ranks

    @pytest.mark.parametrize("bounds", ["full", "chunk"])
    def test_scatter_keeps_range_order(self, bounds):
        # float64 sums of a few float32 weights are mostly exact, so
        # order only shows with cancellation: (2^66 + w) - 2^66 is 0
        # where (2^66 - 2^66) + w is w
        state = LoopyState(_route_grid(4))
        lo, hi = (0, state.m) if bounds == "full" else (100, 400)
        rng = np.random.default_rng(0)
        shape = (hi - lo, state.b)
        big = rng.choice([2.0**66, -(2.0**66), 0.0], size=shape)
        log_delta = np.where(big != 0, big, rng.random(shape)).astype(np.float32)
        dsts = state.dst[lo:hi]
        plan = _in_edge_ranks(state, lo, hi)
        ref = LoopyState(_route_grid(4))
        ref.scatter_log_delta(dsts, log_delta)
        scratch = np.empty_like(log_delta)
        state.scatter_log_delta(dsts, log_delta, ranks=(plan, scratch))
        assert state.log_msg_sum.tobytes() == ref.log_msg_sum.tobytes()

    @pytest.mark.parametrize("bounds", ["full", "chunk"])
    def test_plan_walks_each_in_edge_once_in_order(self, bounds):
        state = LoopyState(_route_grid(4))
        lo, hi = (0, state.m) if bounds == "full" else (100, 400)
        plan = _in_edge_ranks(state, lo, hi)
        assert plan.nodes.dtype == np.int32
        assert all(e.dtype == np.int32 for e in plan.edges)
        walked = {}
        for edges in plan.edges:
            for node, pos in zip(plan.nodes.tolist(), edges.tolist()):
                walked.setdefault(node, []).append(pos + lo)
        counts = [len(walked[v]) for v in plan.nodes.tolist()]
        assert counts == sorted(counts, reverse=True)
        heads = state.dst[lo:hi]
        assert sorted(walked) == np.unique(heads).tolist()
        for node, ids in walked.items():
            assert ids == (lo + np.flatnonzero(heads == node)).tolist()
