"""Compiled sweep executors (DESIGN.md §13).

The compiled executor is only admissible because it is *bit-exact*
against the interpreted kernels — the parity grid here is the contract:
schedules × paradigms × evidence × shard counts, posteriors compared
with ``assert_array_equal`` (no tolerance).  The rest covers the layout
registry (conversion, blocked store, footprint truthfulness) and the
plan-time layout autotuner's determinism under a fixed measurement seed.
"""

import numpy as np
import pytest

from repro.core.beliefs import BLOCK_NODES, make_store
from repro.core.convergence import ConvergenceCriterion
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.observation import observe
from repro.core.sharded import ShardedLoopyBP
from repro.kernels import (
    EXECUTORS,
    LAYOUTS,
    autotune_layout,
    make_executor,
    normalize_executor,
    normalize_layout,
    with_layout,
)
from tests.conftest import make_loopy_graph

CRIT = ConvergenceCriterion(threshold=1e-6, max_iterations=60)
SCHEDULES = ("sync", "work_queue", "residual", "relaxed")


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
        ref = LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
            executor="interpreted",
        ).run(_graph(evidence))
        got = LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
            executor="compiled",
        ).run(_graph(evidence))
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        np.testing.assert_array_equal(got.beliefs, ref.beliefs)

    @pytest.mark.parametrize("n_states", [2, 8, 9])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_state_widths_bitwise(self, schedule, paradigm, n_states):
        # with the 3-state grid above this covers widths {2, 3, 8, 9}:
        # below, at and above numpy's 8-wide pairwise-summation block,
        # which the compiled row sums must reproduce bit for bit
        runs = [
            LoopyBP(
                paradigm=paradigm, schedule=schedule, criterion=CRIT,
                executor=executor,
            ).run(_graph(True, n_states=n_states))
            for executor in ("interpreted", "compiled")
        ]
        ref, got = runs
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(got.beliefs, ref.beliefs)

    @pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_four_shards_bitwise(self, paradigm, evidence):
        posteriors = {}
        for executor in EXECUTORS:
            g = _graph(evidence, seed=21)
            engine = ShardedLoopyBP(
                LoopyConfig(paradigm=paradigm, criterion=CRIT, executor=executor)
            )
            result = engine.run_graph(g, n_shards=4, method="bfs")
            posteriors[executor] = (result.iterations, g.beliefs.dense().copy())
        it_ref, ref = posteriors["interpreted"]
        it_got, got = posteriors["compiled"]
        assert it_got == it_ref
        np.testing.assert_array_equal(got, ref)

    def test_damped_sweeps_bitwise(self):
        runs = [
            LoopyBP(
                paradigm="edge", schedule="sync", damping=0.3, criterion=CRIT,
                executor=executor,
            ).run(_graph(True, seed=8))
            for executor in EXECUTORS
        ]
        np.testing.assert_array_equal(runs[0].beliefs, runs[1].beliefs)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_compiled_sweep_stats_match_interpreted(self, schedule, paradigm):
        # the cost models price SweepStats, so a default (compiled) run
        # must model exactly what the interpreted reference models
        runs = [
            LoopyBP(paradigm=paradigm, schedule=schedule, criterion=CRIT,
                    executor=executor).run(_graph(True))
            for executor in ("interpreted", "compiled")
        ]
        ref, got = (r.run_stats.per_iteration for r in runs)
        assert got == ref


class TestExecutorRegistry:
    def test_aliases_normalize(self):
        assert normalize_executor("fused") == "compiled"
        assert normalize_executor("Interp") == "interpreted"
        assert normalize_executor(None) == "interpreted"
        with pytest.raises(ValueError, match="unknown executor"):
            normalize_executor("jit")

    def test_make_executor_builds_registered_kinds(self):
        from repro.core.state import LoopyState

        state = LoopyState(_graph())
        for name in EXECUTORS:
            ex = make_executor(name, state, paradigm="node")
            assert ex.name == name
            assert ex.build_seconds >= 0.0

    def test_config_normalizes_executor(self):
        assert LoopyConfig(executor="lowered").executor == "compiled"
        with pytest.raises(ValueError):
            LoopyConfig(executor="bogus")


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

    def test_alias_normalization(self):
        assert normalize_layout("struct-of-arrays") == "soa"
        assert normalize_layout("aosoa") == "blocked"
        with pytest.raises(ValueError, match="unknown layout"):
            normalize_layout("csr")

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


class TestAutotuner:
    def test_deterministic_under_seed(self):
        g = make_loopy_graph(seed=7, n_nodes=60, n_edges=120)
        first = autotune_layout(g, seed=7)
        second = autotune_layout(g, seed=7)
        assert first.layout == second.layout
        assert first.scores == second.scores
        assert first.layout in LAYOUTS
        assert set(first.scores) == set(LAYOUTS)

    def test_decision_is_auditable(self):
        decision = autotune_layout(make_loopy_graph(seed=7), seed=0)
        payload = decision.as_dict()
        assert payload["layout"] == decision.layout
        assert 0.0 <= payload["locality"] <= 1.0


class TestPlanIntegration:
    def test_qualified_suffix_grammar(self):
        from repro.credo.runner import ExecutionPlan

        # compiled is the default executor: only the pinned interpreted
        # reference is spelled out
        assert ExecutionPlan("c-node", "sync").qualified == "c-node:sync"
        assert ExecutionPlan("c-node", "sync", executor="compiled").qualified == (
            "c-node:sync"
        )
        plan = ExecutionPlan("c-node", "sync", executor="interpreted", layout="soa")
        assert plan.qualified == "c-node:sync!interpreted%soa"
        sharded = ExecutionPlan(
            "sharded", "sync", shards=4, partitioner="bfs",
            policy="async", staleness=2, executor="interpreted",
        )
        assert sharded.qualified == "sharded:sync@4xbfs+async~2!interpreted"

    def test_qualified_spec_round_trips(self):
        from repro.credo.runner import Credo, parse_qualified

        assert parse_qualified("c-edge:sync!compiled%soa") == {
            "backend": "c-edge", "schedule": "sync",
            "executor": "compiled", "layout": "soa",
        }
        assert parse_qualified("sharded:sync@4xbfs+async~2") == {
            "backend": "sharded", "schedule": "sync", "shards": 4,
            "partitioner": "bfs", "policy": "async", "staleness": 2,
        }
        credo = Credo()
        g = _graph(True, seed=11)
        plan = credo.plan(g, backend="c-node:sync!compiled%soa")
        assert (plan.backend, plan.schedule) == ("c-node", "sync")
        assert (plan.executor, plan.layout) == ("compiled", "soa")
        # the rendered spelling plans back to the same decision
        again = credo.plan(g, backend=plan.qualified)
        assert again == plan

    def test_credo_run_accepts_qualified_spec(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=13)
        ref = credo.run(g.copy(), backend="c-edge", schedule="sync")
        got = credo.run(g.copy(), backend="c-edge:sync!compiled")
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(
            np.asarray(got.beliefs), np.asarray(ref.beliefs)
        )
        assert got.detail.get("executor") == "compiled"

    def test_selector_compiles_every_uniform_graph(self):
        from repro.credo.selector import CredoSelector

        sel = CredoSelector()
        small = make_loopy_graph(seed=1, n_nodes=20, n_edges=30)
        assert sel.select_executor(small, "c-node") == "compiled"
        assert sel.select_executor(small, "reference") == "interpreted"

    def test_credo_run_compiled_matches_default(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=31)
        ref = credo.run(g.copy(), backend="c-node")
        got = credo.run(g.copy(), backend="c-node", executor="compiled",
                        layout="auto")
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(
            np.asarray(got.beliefs), np.asarray(ref.beliefs)
        )
        assert got.detail.get("executor") == "compiled"
