"""Simulated distributed-memory backend (paper §5.1 comparison)."""

import numpy as np
import pytest

from repro.backends.c_backends import CEdgeBackend
from repro.backends.distributed import (
    ETHERNET_1G,
    INFINIBAND,
    ClusterSpec,
    DistributedBackend,
)
from repro.core import exact_marginals
from repro.graphs.grids import grid_graph
from tests.conftest import make_loopy_graph, make_tree_graph


class TestDistributedBackend:
    def test_exact_on_trees(self):
        g = make_tree_graph(seed=91, n_nodes=8)
        expected = exact_marginals(g)
        result = DistributedBackend().run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=5e-3)

    def test_result_contract(self):
        g = make_loopy_graph(seed=92)
        result = DistributedBackend().run(g)
        assert result.backend == "distributed"
        assert result.modeled_time > 0
        assert result.detail["ranks"] == 40

    def test_latency_dominates_on_slow_networks(self):
        """§5.1: 'due to network latencies from the frequent message
        passing inherent to BP, their solution takes hours' — the
        commodity cluster must be far slower than the HPC fabric."""
        g = make_loopy_graph(seed=93, n_nodes=200, n_edges=600)
        slow = DistributedBackend(ETHERNET_1G).run(g.copy()).modeled_time
        fast = DistributedBackend(INFINIBAND).run(g.copy()).modeled_time
        assert slow > 3 * fast

    def test_single_machine_beats_cluster_on_small_graphs(self):
        """The paper's framing: Credo on one machine processes graphs the
        distributed systems need orders of magnitude longer for."""
        g = make_loopy_graph(seed=94, n_nodes=300, n_edges=900)
        local = CEdgeBackend().run(g.copy()).modeled_time
        cluster = DistributedBackend(ETHERNET_1G).run(g.copy()).modeled_time
        assert cluster > 5 * local

    def test_hash_split_is_measured(self):
        # a grid's neighbours hash onto different ranks more often than a
        # random split's 1 - 1/ranks; the floats are pinned bit for bit
        g = grid_graph(48, 48, n_states=2, seed=95)
        detail = DistributedBackend(ETHERNET_1G).run(g).detail
        assert detail["cut_fraction"] == 9016 / 9024
        assert detail["shard_balance"] == 279 / (9024 / 40)
        assert detail["cut_fraction"] > DistributedBackend()._cut_fraction()

    def test_cluster_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec("bad", ranks=0, latency=1e-6, bandwidth=1e9)
        with pytest.raises(ValueError):
            ClusterSpec("bad", ranks=4, latency=1e-6, bandwidth=0.0)

    def test_cut_fraction_default_is_random_hash(self):
        be = DistributedBackend(ClusterSpec("c", ranks=8, latency=1e-6, bandwidth=1e9))
        assert be._cut_fraction() == pytest.approx(1.0 - 1.0 / 8)
