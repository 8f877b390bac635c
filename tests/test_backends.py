"""Execution backends: correctness equivalence and result contracts."""

import numpy as np
import pytest

from repro.backends import (
    BackendUnsupportedError,
    CEdgeBackend,
    CNodeBackend,
    CudaEdgeBackend,
    CudaNodeBackend,
    OpenACCBackend,
    OpenMPBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
)
from repro.core import exact_marginals
from repro.core.convergence import ConvergenceCriterion
from tests.conftest import make_loopy_graph, make_tree_graph

ALL_BACKENDS = [
    ReferenceBackend(),
    CNodeBackend(),
    CEdgeBackend(),
    CudaNodeBackend(),
    CudaEdgeBackend(),
    OpenMPBackend(threads=4),
    OpenACCBackend(),
]


class TestRegistry:
    def test_all_names_constructible(self):
        for name in available_backends():
            assert get_backend(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("fpga-node")

    def test_kwargs_forwarded(self):
        be = get_backend("openmp", threads=2)
        assert be.threads == 2
        be = get_backend("cuda-node", device="v100")
        assert be.device_spec.name.startswith("V100")


@pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
class TestCorrectness:
    def test_exact_on_tree(self, backend):
        g = make_tree_graph(seed=41, n_nodes=8)
        expected = exact_marginals(g)
        result = backend.run(g)
        np.testing.assert_allclose(result.beliefs, expected, atol=5e-3)

    def test_result_contract(self, backend):
        g = make_loopy_graph(seed=42)
        result = backend.run(g)
        assert result.backend == backend.name
        assert result.iterations >= 1
        assert result.wall_time >= 0.0
        assert result.modeled_time > 0.0
        assert len(result.delta_history) == result.iterations
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-4)

    def test_respects_criterion(self, backend):
        g = make_loopy_graph(seed=43, coupling=0.9)
        crit = ConvergenceCriterion(threshold=1e-12, max_iterations=3)
        result = backend.run(g, criterion=crit)
        assert result.iterations <= 3


class TestBackendAgreement:
    def test_all_backends_same_posteriors(self):
        g = make_loopy_graph(seed=44, n_nodes=25, n_edges=45)
        crit = ConvergenceCriterion(threshold=1e-6, max_iterations=400)
        results = [b.run(g.copy(), criterion=crit) for b in ALL_BACKENDS]
        for r in results[1:]:
            np.testing.assert_allclose(
                r.beliefs, results[0].beliefs, atol=2e-3,
                err_msg=f"{r.backend} disagrees with {results[0].backend}",
            )


class TestCBackends:
    def test_edge_converges_in_fewer_iterations_than_node(self):
        """§4.2: 'the Edge versions tend to converge in only a few
        iterations. Indeed, the Node versions run for tens.'"""
        g = make_loopy_graph(seed=45, n_nodes=200, n_edges=700)
        rn = CNodeBackend().run(g.copy())
        re_ = CEdgeBackend().run(g.copy())
        assert re_.iterations <= rn.iterations

    def test_rejects_ragged(self, family_out_bif):
        # family-out converts to a uniform graph; build a ragged one directly
        from repro.core.graph import BeliefGraph
        from repro.core.potentials import PerEdgePotentialStore

        g = BeliefGraph(
            [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])],
            np.array([0]),
            np.array([1]),
            PerEdgePotentialStore([np.full((2, 3), 1 / 3, dtype=np.float32)]),
        )
        assert not CNodeBackend().supports(g)
        assert ReferenceBackend().supports(g)

    def test_soa_layout_models_slower_than_aos(self):
        """§3.4: AoS wins on cache behaviour, visible in modeled time."""
        g_aos = make_loopy_graph(seed=46, n_nodes=300, n_edges=900, layout="aos")
        g_soa = make_loopy_graph(seed=46, n_nodes=300, n_edges=900, layout="soa")
        t_aos = CNodeBackend().run(g_aos).modeled_time
        t_soa = CNodeBackend().run(g_soa).modeled_time
        assert t_soa > t_aos


class TestCudaBackends:
    def test_detail_carries_breakdown(self):
        g = make_loopy_graph(seed=47)
        result = CudaNodeBackend().run(g)
        assert "management_fraction" in result.detail
        assert 0.0 < result.detail["management_fraction"] <= 1.0

    def test_small_graphs_dominated_by_management(self):
        g = make_loopy_graph(seed=48, n_nodes=10, n_edges=20)
        result = CudaNodeBackend().run(g)
        assert result.detail["management_fraction"] > 0.95

    def test_vram_limit_enforced(self):
        """§4.2: graphs exceeding VRAM are unsupported."""
        be = CudaNodeBackend()
        from repro.credo.training import fits_vram_paper_scale
        from repro.graphs.suite import SUITE

        assert not fits_vram_paper_scale(SUITE["TW"], 32, "gtx1070")
        assert fits_vram_paper_scale(SUITE["10x40"], 2, "gtx1070")

    def test_volta_faster_than_pascal(self):
        """§4.4: 3-4x kernel speedups on the V100."""
        g = make_loopy_graph(seed=49, n_nodes=500, n_edges=2000)
        crit = ConvergenceCriterion(max_iterations=50)
        pascal = CudaNodeBackend("gtx1070").run(g.copy(), criterion=crit)
        volta = CudaNodeBackend("v100").run(g.copy(), criterion=crit)
        assert volta.modeled_time < pascal.modeled_time

    def test_convergence_batching_reduces_transfers(self):
        g = make_loopy_graph(seed=50, n_nodes=100, n_edges=300)
        frequent = CudaNodeBackend(convergence_batch=1).run(g.copy())
        batched = CudaNodeBackend(convergence_batch=8).run(g.copy())
        assert batched.modeled_time <= frequent.modeled_time


class TestOpenMP:
    def test_paper_penalty_ordering(self):
        """§2.4: more threads, more slowdown (1.17x/1.65x/4.03x)."""
        g = make_loopy_graph(seed=51, n_nodes=400, n_edges=1200)
        serial = CNodeBackend().run(g.copy()).modeled_time
        t2 = OpenMPBackend(threads=2).run(g.copy()).modeled_time
        t4 = OpenMPBackend(threads=4).run(g.copy()).modeled_time
        t8 = OpenMPBackend(threads=8).run(g.copy()).modeled_time
        assert serial < t2 < t4 < t8

    def test_disabling_hyperthreading_helps(self):
        g = make_loopy_graph(seed=52, n_nodes=400, n_edges=1200)
        with_ht = OpenMPBackend(threads=4, hyperthreading=True).run(g.copy())
        without_ht = OpenMPBackend(threads=4, hyperthreading=False).run(g.copy())
        assert without_ht.modeled_time < with_ht.modeled_time

    def test_dynamic_scheduler_worse(self):
        """§2.4: 'switching to the dynamic scheduler worsened the problem'."""
        g = make_loopy_graph(seed=53, n_nodes=400, n_edges=1200)
        static = OpenMPBackend(threads=4, schedule="static").run(g.copy())
        dynamic = OpenMPBackend(threads=4, schedule="dynamic").run(g.copy())
        assert dynamic.modeled_time > static.modeled_time

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenMPBackend(threads=0)
        with pytest.raises(ValueError):
            OpenMPBackend(schedule="guided")


class TestOpenACC:
    def test_runs_more_iterations_than_cuda(self):
        """§2.4: the imprecise convergence check drags runs out."""
        g = make_loopy_graph(seed=54, n_nodes=150, n_edges=400)
        acc = OpenACCBackend(paradigm="node").run(g.copy())
        cuda = CudaNodeBackend().run(g.copy())
        assert acc.iterations >= cuda.iterations

    def test_ignores_work_queue(self):
        g = make_loopy_graph(seed=55)
        result = OpenACCBackend().run(g, schedule="work_queue")
        # queue ops never appear: OpenACC cannot express them (§3.5)
        assert result.stats.queue_ops == 0
