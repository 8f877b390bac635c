"""The graph-partition layer and sharded execution (DESIGN.md §9).

The headline guarantee: ``ShardedLoopyBP`` under the synchronous schedule
computes the *same posteriors* as unsharded sync BP — for every
partitioner, any shard count, both paradigms, with or without evidence —
because sharding only changes where rows live, never the update order a
Jacobi sweep observes.
"""

import numpy as np
import pytest

from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.observation import observe
from repro.core.potentials import attractive_potential
from repro.core.sharded import ShardedGraph, ShardedLoopyBP
from repro.partition import (
    PARTITIONERS,
    Partition,
    make_partition,
    normalize_partitioner,
)

PARITY_TOL = 1e-6


def _graph(n=60, extra=150, b=3, seed=0, names=False):
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(b), size=n)
    spine = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    rand = rng.integers(0, n, size=(extra, 2))
    edges = np.unique(np.sort(np.concatenate([spine, rand]), axis=1), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    return BeliefGraph.from_undirected(
        priors, edges, attractive_potential(b, 0.7),
        node_names=[f"v{i}" for i in range(n)] if names else None,
    )


def _sync_config(paradigm, threshold=1e-5, max_iterations=200):
    return LoopyConfig(
        paradigm=paradigm,
        schedule="sync",
        # one chunk = pure Jacobi: the edge paradigm then matches node
        # sync numerically, shard-invariantly
        edge_chunks=1,
        criterion=ConvergenceCriterion(
            threshold=threshold, max_iterations=max_iterations
        ),
    )


class TestPartitioners:
    @pytest.mark.parametrize("method", PARTITIONERS)
    def test_assignment_covers_all_nodes(self, method):
        g = _graph()
        part = make_partition(g, 4, method)
        assert part.assignment.shape == (g.n_nodes,)
        assert part.assignment.min() >= 0 and part.assignment.max() < 4
        assert part.n_shards == 4
        assert part.method == method

    @pytest.mark.parametrize("method", PARTITIONERS)
    def test_measured_cut_matches_manual_count(self, method):
        g = _graph()
        part = make_partition(g, 3, method)
        manual = int((part.assignment[g.src] != part.assignment[g.dst]).sum())
        assert part.cut_edges == manual
        assert part.cut_fraction == pytest.approx(manual / g.n_edges)

    @pytest.mark.parametrize("method", PARTITIONERS)
    def test_balance_is_straggler_factor(self, method):
        g = _graph()
        part = make_partition(g, 4, method)
        loads = np.bincount(part.assignment[g.dst], minlength=4)
        ideal = g.n_edges / 4
        assert part.balance == pytest.approx(loads.max() / ideal)
        assert part.balance >= 1.0

    def test_single_shard_has_no_cut(self):
        g = _graph()
        part = make_partition(g, 1, "bfs")
        assert part.cut_edges == 0 and part.cut_fraction == 0.0
        assert np.all(part.assignment == 0)

    def test_locality_aware_beats_hash_on_spine(self):
        # a long path graph: contiguous/region partitioners cut O(k)
        # edges, random hash cuts about half of them
        n = 200
        priors = np.random.default_rng(0).dirichlet(np.ones(2), size=n)
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        g = BeliefGraph.from_undirected(priors, edges, attractive_potential(2, 0.8))
        hash_cut = make_partition(g, 4, "hash").cut_fraction
        for smart in ("range", "bfs", "greedy"):
            assert make_partition(g, 4, smart).cut_fraction < hash_cut / 3

    def test_aliases_and_unknown(self):
        assert normalize_partitioner("random") == "hash"
        assert normalize_partitioner("region") == "bfs"
        assert normalize_partitioner("ldg") == "greedy"
        with pytest.raises(ValueError, match="partitioner"):
            normalize_partitioner("metis")

    def test_stats_dict(self):
        part = make_partition(_graph(), 2, "greedy")
        stats = part.stats()
        assert {"method", "n_shards", "cut_fraction", "balance"} <= set(stats)


class TestShardedGraphStructure:
    def test_owned_nodes_partition_the_graph(self):
        g = _graph()
        sharded = ShardedGraph.build(g, n_shards=4, method="bfs")
        owned = np.concatenate([sh.owned_nodes for sh in sharded.shards])
        assert sorted(owned.tolist()) == list(range(g.n_nodes))

    def test_owned_edges_partition_the_edges(self):
        g = _graph()
        sharded = ShardedGraph.build(g, n_shards=3, method="hash")
        owned = np.concatenate([sh.owned_edges for sh in sharded.shards])
        assert sorted(owned.tolist()) == list(range(g.n_edges))

    def test_exchange_profile_accounts_boundary_rows(self):
        g = _graph()
        sharded = ShardedGraph.build(g, n_shards=4, method="bfs")
        profile = sharded.exchange_profile()
        row_bytes = 4 * g.n_states
        assert profile["bytes_per_round"] == profile["boundary_rows"] * row_bytes
        assert profile["max_device_bytes"] <= profile["bytes_per_round"]
        # single shard: nothing crosses
        solo = ShardedGraph.build(g, n_shards=1)
        assert solo.exchange_profile()["bytes_per_round"] == 0

    def test_instance_isolates_evidence_from_master(self):
        g = _graph(names=True)
        sharded = ShardedGraph.build(g, n_shards=2, method="bfs")
        view = sharded.instance()
        view.observe("v5", 1)
        assert not g.observed.any()
        assert not any(sh.graph.observed.any() for sh in sharded.shards)

    def test_observe_unknown_node_raises(self):
        sharded = ShardedGraph.build(_graph(names=True), n_shards=2)
        with pytest.raises(KeyError):
            sharded.observe("nope", 0)


class TestShardedParity:
    """Posteriors match unsharded sync BP to 1e-6 (usually bit-exact)."""

    @pytest.mark.parametrize("method", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_node_paradigm(self, method, n_shards):
        g = _graph()
        expected = LoopyBP(_sync_config("node")).run(g.copy()).beliefs
        sharded = ShardedGraph.build(g.copy(), n_shards=n_shards, method=method)
        result = ShardedLoopyBP(_sync_config("node")).run(sharded)
        assert np.abs(result.beliefs - expected).max() <= PARITY_TOL

    @pytest.mark.parametrize("method", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_edge_paradigm(self, method, n_shards):
        g = _graph()
        expected = LoopyBP(_sync_config("edge")).run(g.copy()).beliefs
        sharded = ShardedGraph.build(g.copy(), n_shards=n_shards, method=method)
        result = ShardedLoopyBP(_sync_config("edge")).run(sharded)
        assert np.abs(result.beliefs - expected).max() <= PARITY_TOL

    @pytest.mark.parametrize("method", PARTITIONERS)
    def test_with_observed_evidence(self, method):
        g = _graph(names=True)
        reference = g.copy()
        observe(reference, "v3", 1)
        observe(reference, "v41", 0)
        expected = LoopyBP(_sync_config("node")).run(reference).beliefs

        sharded = ShardedGraph.build(g, n_shards=4, method=method)
        view = sharded.instance()
        view.observe("v3", 1)
        view.observe("v41", 0)
        result = ShardedLoopyBP(_sync_config("node")).run(view)
        assert np.abs(result.beliefs - expected).max() <= PARITY_TOL

    def test_thread_pool_matches_serial(self):
        g = _graph()
        sharded = ShardedGraph.build(g, n_shards=4, method="greedy")
        serial = ShardedLoopyBP(_sync_config("node")).run(sharded.instance())
        pooled = ShardedLoopyBP(_sync_config("node"), max_workers=4).run(
            sharded.instance()
        )
        np.testing.assert_array_equal(serial.beliefs, pooled.beliefs)
        assert serial.iterations == pooled.iterations

    def test_writes_back_to_source_graph(self):
        g = _graph()
        sharded = ShardedGraph.build(g, n_shards=2, method="bfs")
        result = ShardedLoopyBP(_sync_config("node")).run(sharded)
        np.testing.assert_allclose(g.beliefs.dense(), result.beliefs, atol=1e-6)

    @pytest.mark.parametrize("schedule", ["work_queue", "residual", "relaxed"])
    def test_priority_schedules_reach_the_same_fixed_point(self, schedule):
        # the priority schedules are approximate by design; they must
        # still land on the sync fixed point within the convergence
        # threshold's tolerance
        g = _graph()
        cfg = _sync_config("node", threshold=1e-5)
        expected = LoopyBP(cfg).run(g.copy()).beliefs
        sharded = ShardedGraph.build(g.copy(), n_shards=4, method="bfs")
        sched_cfg = LoopyConfig(
            paradigm="node", schedule=schedule, criterion=cfg.criterion
        )
        result = ShardedLoopyBP(sched_cfg).run(sharded)
        assert np.abs(result.beliefs - expected).max() < 1e-3

    def test_exchange_bytes_accounted(self):
        g = _graph()
        sharded = ShardedGraph.build(g, n_shards=4, method="hash")
        result = ShardedLoopyBP(_sync_config("node")).run(sharded)
        profile = sharded.exchange_profile()
        assert result.exchange_bytes > 0
        assert result.exchange_bytes == profile["bytes_per_round"] * result.iterations
        assert len(result.per_shard_stats) == result.iterations


class TestShardedBackends:
    def test_sharded_cpu_backend_detail(self):
        from repro.backends import get_backend

        g = _graph()
        ref = get_backend("c-node").run(g.copy(), schedule="sync")
        be = get_backend("sharded", n_shards=4, partitioner="bfs")
        result = be.run(g.copy(), schedule="sync")
        assert np.abs(result.beliefs - ref.beliefs).max() <= PARITY_TOL
        detail = result.detail
        assert detail["n_shards"] == 4 and detail["partitioner"] == "bfs"
        assert 0.0 <= detail["cut_fraction"] < 1.0
        assert detail["shard_balance"] >= 1.0
        assert detail["exchange_bytes"] > 0
        assert result.modeled_time > 0

    def test_multigpu_backend_matches_and_costs_exchange(self):
        from repro.backends import get_backend

        g = _graph()
        ref = get_backend("c-node").run(g.copy(), schedule="sync")
        be = get_backend("cuda-multi", n_devices=4, interconnect="nvlink")
        result = be.run(g.copy(), schedule="sync")
        assert np.abs(result.beliefs - ref.beliefs).max() <= PARITY_TOL
        assert result.detail["n_devices"] == 4
        assert result.detail["exchange_bytes"] > 0
        assert 0.0 < result.detail["exchange_fraction"] < 1.0

    def test_pcie_exchange_costs_more_than_nvlink(self):
        from repro.backends import get_backend

        g = _graph(n=120, extra=400)
        kw = dict(n_devices=4, partitioner="hash", seed=0)
        nvlink = get_backend("cuda-multi", interconnect="nvlink", **kw).run(
            g.copy(), schedule="sync"
        )
        pcie = get_backend("cuda-multi", interconnect="pcie", **kw).run(
            g.copy(), schedule="sync"
        )
        assert pcie.detail["exchange_fraction"] > nvlink.detail["exchange_fraction"]
        assert pcie.modeled_time > nvlink.modeled_time

    def test_distributed_backend_measures_partition(self):
        from repro.backends.distributed import DistributedBackend

        g = _graph()
        result = DistributedBackend(partitioner="bfs").run(g)
        assert result.detail["measured_partition"] is True
        assert result.detail["partitioner"] == "bfs"
        assert result.detail["shard_balance"] >= 1.0
        assert 0.0 <= result.detail["edge_cut_fraction"] <= 1.0

    def test_distributed_edge_cut_fraction_deprecated(self):
        from repro.backends.distributed import DistributedBackend

        with pytest.warns(DeprecationWarning, match="edge_cut_fraction"):
            be = DistributedBackend(edge_cut_fraction=0.05)
        result = be.run(_graph())
        assert result.detail["edge_cut_fraction"] == 0.05
        assert result.detail["measured_partition"] is False


class TestCredoSharding:
    def test_plan_freezes_sharding(self):
        from repro.credo.runner import Credo

        g = _graph()
        plan = Credo().plan(g, backend="c-node:sync", shards=4, partitioner="greedy")
        assert plan.sharded and plan.shards == 4
        assert plan.partitioner == "greedy"
        assert plan.qualified == "c-node:sync@4xgreedy"

    def test_plan_paradigm_for_unsuffixed_backends(self):
        from repro.credo.runner import ExecutionPlan

        assert ExecutionPlan("c-edge", "sync").paradigm == "edge"
        # backends without a -node/-edge suffix sweep per node
        assert ExecutionPlan("cuda-multi", "sync", shards=4).paradigm == "node"
        assert ExecutionPlan("sharded", "sync", shards=2).paradigm == "node"

    def test_run_with_shards_matches_unsharded(self):
        from repro.credo.runner import Credo

        g = _graph()
        credo = Credo()
        base = credo.run(g.copy(), backend="c-node", schedule="sync")
        sharded = credo.run(
            g.copy(), backend="c-node:sync", shards=3, partitioner="bfs"
        )
        assert np.abs(sharded.beliefs - base.beliefs).max() <= PARITY_TOL
        assert sharded.detail["n_shards"] == 3

    def test_unpinned_plan_never_shards(self):
        # plan and run agree: an unpinned run never shards, so an
        # unpinned plan must not either, however large the graph
        from repro.credo.runner import Credo
        from repro.serve import ServerConfig
        from repro.serve.registry import ModelRegistry

        n = 100_000
        ids = np.arange(n)
        edges = np.concatenate(
            [np.stack([ids, (ids + k) % n], axis=1) for k in (1, 2, 3)]
        )
        priors = np.full((n, 2), 0.5)
        g = BeliefGraph.from_undirected(priors, edges, attractive_potential(2, 0.7))
        assert g.uniform and g.n_edges >= 500_000
        credo = Credo()
        plan = credo.plan(g)
        assert plan.shards == 1 and not plan.sharded
        # the serving knobs no longer hand the decision to a selector
        with pytest.raises(ValueError, match="shards"):
            ServerConfig(shards=None)
        with pytest.raises(ValueError, match="shards"):
            ModelRegistry(credo, shards=None)

    def test_partition_features_memoized(self):
        from repro.credo.features import extract_partition_features

        g = _graph()
        feats = extract_partition_features(g, 4, "bfs")
        assert feats.shape == (2,)
        assert "partition:bfs:4" in g._feature_cache
        again = extract_partition_features(g, 4, "bfs")
        np.testing.assert_array_equal(feats, again)


class TestServeSharded:
    def test_sharded_server_matches_unsharded(self):
        from repro.serve import InferenceServer, ServerConfig

        g = _graph(names=True)
        sharded_cfg = ServerConfig(
            shards=2, partitioner="bfs", backend="c-node", schedule="sync"
        )
        plain_cfg = ServerConfig(backend="c-node", schedule="sync", max_batch=1)
        with InferenceServer(sharded_cfg) as s1, InferenceServer(plain_cfg) as s2:
            s1.register_model("m", g.copy())
            s2.register_model("m", g.copy())
            desc = s1.registry.describe()[0]
            assert desc["shards"] == 2 and desc["partitioner"] == "bfs"
            assert desc["shard_balance"] >= 1.0
            r1 = s1.query("m", {"v3": 1})
            r2 = s2.query("m", {"v3": 1})
            assert r1.ok and r2.ok
            for name in r1.posteriors:
                np.testing.assert_allclose(
                    r1.posteriors[name], r2.posteriors[name], atol=PARITY_TOL
                )
            # cache round-trip on the sharded path
            assert s1.query("m", {"v3": 1}).cached
        assert s1.engine._pool is None  # released on stop()

    def test_config_validates_sharding_knobs(self):
        from repro.serve import ServerConfig

        with pytest.raises(ValueError, match="shards"):
            ServerConfig(shards=0)
        with pytest.raises(ValueError, match="shard_threads"):
            ServerConfig(shard_threads=0)
        with pytest.raises(ValueError, match="partitioner"):
            ServerConfig(partitioner="metis")


class TestDeprecationShims:
    """The repro-2.0 shim modules are gone; the canonical homes serve."""

    def test_workqueue_module_is_gone(self):
        import importlib
        import sys

        sys.modules.pop("repro.core.workqueue", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.workqueue")
        from repro.core.scheduler import WorkQueue  # canonical home

        assert WorkQueue is not None

    def test_residual_module_is_gone(self):
        import importlib
        import sys

        sys.modules.pop("repro.core.residual", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.residual")
        from repro.core.scheduler import ResidualBP  # canonical home

        assert ResidualBP is not None


def test_partition_repr_mentions_cut():
    part = make_partition(_graph(), 4, "bfs")
    assert "cut" in repr(part)
    assert isinstance(part, Partition)
