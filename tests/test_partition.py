"""The graph-partition layer and the sharded cost models (DESIGN.md §9).

Partitions are measured; shards are priced, not run.  ``sharded`` and
``cuda-multi`` solve once with :class:`LoopyBP` and price the shards
from :meth:`Partition.shard_profile`, so their posteriors equal the
unsharded solve bit for bit — for every partitioner, shard count,
paradigm and schedule, with or without evidence — and their exchange
accounting equals the per-round boundary traffic the profile measures.
"""

import numpy as np
import pytest

from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.observation import observe
from repro.core.potentials import attractive_potential
from repro.core.scheduler import SCHEDULES
from repro.partition import (
    PARTITIONERS,
    Partition,
    make_partition,
    normalize_partitioner,
)


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


CRITERION = ConvergenceCriterion(threshold=1e-5, max_iterations=200)


def _loopy(graph, paradigm="node", schedule="sync"):
    """The unsharded solve under the config the backends build."""
    config = LoopyConfig(paradigm=paradigm, schedule=schedule, criterion=CRITERION)
    return LoopyBP(config).run(graph)


def _sharded(graph, n_shards=4, method="bfs", paradigm="node", schedule="sync"):
    from repro.backends import get_backend

    backend = get_backend("sharded", n_shards=n_shards, partitioner=method,
                          paradigm=paradigm)
    return backend.run(graph, criterion=CRITERION, schedule=schedule)


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
    """What a sharded execution would hold, as the profile measures it."""

    def test_owned_nodes_partition_the_graph(self):
        g = _graph()
        profile = make_partition(g, 4, "bfs").shard_profile(g)
        assert profile.owned_nodes.sum() == g.n_nodes
        assert np.all(profile.local_nodes >= profile.owned_nodes)

    def test_owned_edges_partition_the_edges(self):
        g = _graph()
        profile = make_partition(g, 3, "hash").shard_profile(g)
        assert profile.owned_edges.sum() == g.n_edges
        assert np.all(profile.local_edges >= profile.owned_edges)

    def test_exchange_profile_accounts_boundary_rows(self):
        g = _graph()
        profile = make_partition(g, 4, "bfs").shard_profile(g)
        total, heaviest = profile.exchange_bytes(g.n_states)
        row_bytes = 4 * g.n_states
        assert total == profile.inbound_rows.sum() * row_bytes
        # every row one shard receives, another sends
        assert profile.inbound_rows.sum() == profile.outbound_rows.sum()
        assert 0 < heaviest <= total
        # single shard: nothing crosses
        solo = make_partition(g, 1).shard_profile(g)
        assert solo.exchange_bytes(g.n_states) == (0, 0)
        assert solo.n_routes == 0

    def test_empty_shards_are_dropped(self):
        g = _graph(n=5, extra=0)
        profile = make_partition(g, 7, "range").shard_profile(g)
        assert profile.n_shards == 5
        assert np.all(profile.owned_nodes == 1)


class TestShardProfilePinned:
    """Pinned to the per-shard subgraphs and routes the retired
    shard-parallel driver built for the same partitions."""

    @pytest.mark.parametrize("k, total, heaviest", [
        (2, 30_592, 30_592), (4, 73_920, 52_256), (8, 157_888, 57_248),
    ])
    def test_grid_bfs(self, k, total, heaviest):
        from repro.graphs.grids import grid_graph

        g = grid_graph(160, 160, n_states=8, seed=3)
        profile = make_partition(g, k, "bfs").shard_profile(g)
        assert profile.exchange_bytes(g.n_states) == (total, heaviest)
        if k == 4:
            local = list(zip(profile.local_nodes.tolist(),
                             profile.local_edges.tolist()))
            assert local == [(6514, 25600), (6673, 26048),
                             (6673, 26048), (6514, 25600)]

    def test_kronecker_hash(self):
        from repro.graphs.kronecker import kronecker_graph

        g = kronecker_graph(12, 20_000, seed=2)
        profile = make_partition(g, 3, "hash").shard_profile(g)
        assert profile.exchange_bytes(g.n_states) == (214_496, 150_416)
        local = list(zip(profile.local_nodes.tolist(),
                         profile.local_edges.tolist()))
        assert local == [(2719, 20834), (2641, 18946), (2578, 17468)]


class TestShardedParity:
    """The priced backends return the unsharded posteriors, bit for bit."""

    @pytest.mark.parametrize("method", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_node_paradigm(self, method, n_shards):
        g = _graph()
        expected = _loopy(g.copy()).beliefs
        result = _sharded(g.copy(), n_shards, method)
        np.testing.assert_array_equal(result.beliefs, expected)
        assert result.detail["n_shards"] == n_shards

    @pytest.mark.parametrize("method", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_edge_paradigm(self, method, n_shards):
        g = _graph()
        expected = _loopy(g.copy(), "edge").beliefs
        result = _sharded(g.copy(), n_shards, method, "edge")
        np.testing.assert_array_equal(result.beliefs, expected)

    @pytest.mark.parametrize("method", PARTITIONERS)
    def test_with_observed_evidence(self, method):
        g = _graph(names=True)
        observe(g, "v3", 1)
        observe(g, "v41", 0)
        expected = _loopy(g.copy()).beliefs
        result = _sharded(g.copy(), 4, method)
        np.testing.assert_array_equal(result.beliefs, expected)

    def test_writes_back_to_source_graph(self):
        g = _graph()
        result = _sharded(g, 2, "bfs")
        np.testing.assert_array_equal(g.beliefs.dense(), result.beliefs)

    @pytest.mark.parametrize("schedule", ["work_queue", "residual", "relaxed"])
    def test_priority_schedules_reach_the_same_fixed_point(self, schedule):
        g = _graph()
        expected = _loopy(g.copy(), schedule=schedule)
        result = _sharded(g.copy(), 4, "bfs", schedule=schedule)
        np.testing.assert_array_equal(result.beliefs, expected.beliefs)
        assert result.iterations == expected.iterations

    def test_exchange_bytes_accounted(self):
        g = _graph()
        result = _sharded(g.copy(), 4, "hash")
        total, _ = make_partition(g, 4, "hash").shard_profile(g).exchange_bytes(
            g.n_states
        )
        assert result.detail["exchange_bytes"] > 0
        assert result.detail["exchange_bytes"] == total * result.iterations


class TestShardedBackends:
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_priced_backends_match_loopy_bitwise(self, schedule, paradigm):
        from repro.backends import get_backend

        g = _graph()
        expected = _loopy(g.copy(), paradigm, schedule)
        for name, kw in (("sharded", {"n_shards": 3}),
                         ("cuda-multi", {"n_devices": 3})):
            backend = get_backend(name, paradigm=paradigm, **kw)
            result = backend.run(g.copy(), criterion=CRITERION, schedule=schedule)
            np.testing.assert_array_equal(result.beliefs, expected.beliefs)
            assert result.iterations == expected.iterations
            assert result.delta_history == expected.delta_history

    def test_sharded_cpu_backend_detail(self):
        from repro.backends import get_backend

        g = _graph()
        ref = get_backend("c-node").run(g.copy(), schedule="sync")
        be = get_backend("sharded", n_shards=4, partitioner="bfs")
        result = be.run(g.copy(), schedule="sync")
        np.testing.assert_array_equal(result.beliefs, ref.beliefs)
        detail = result.detail
        assert detail["n_shards"] == 4 and detail["partitioner"] == "bfs"
        assert 0.0 <= detail["cut_fraction"] < 1.0
        assert detail["shard_balance"] >= 1.0
        assert detail["exchange_bytes"] > 0
        assert detail["barrier_idle_s"] >= 0.0
        assert result.modeled_time > 0

    def test_multigpu_backend_matches_and_costs_exchange(self):
        from repro.backends import get_backend

        g = _graph()
        ref = get_backend("c-node").run(g.copy(), schedule="sync")
        be = get_backend("cuda-multi", n_devices=4, interconnect="nvlink")
        result = be.run(g.copy(), schedule="sync")
        np.testing.assert_array_equal(result.beliefs, ref.beliefs)
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
        assert 0.0 <= result.detail["cut_fraction"] <= 1.0


class TestCredoSharding:
    def test_plan_paradigm_for_unsuffixed_backends(self):
        from repro.credo.runner import ExecutionPlan

        assert ExecutionPlan("c-edge", "sync").paradigm == "edge"
        # backends without a -node/-edge suffix sweep per node
        assert ExecutionPlan("cuda-multi", "sync").paradigm == "node"
        assert ExecutionPlan("sharded", "sync").paradigm == "node"


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
        from repro.core.scheduler import ResidualSchedule  # canonical home

        assert ResidualSchedule is not None


def test_partition_repr_mentions_cut():
    part = make_partition(_graph(), 4, "bfs")
    assert "cut" in repr(part)
    assert isinstance(part, Partition)
