"""The paper-scale analytic estimator (repro.credo.analytic)."""

import numpy as np
import pytest

from repro.core.edge_kernel import MIN_CHUNK_EDGES
from repro.core.loopy import LoopyBP
from repro.credo.analytic import (
    IterationModel,
    estimate_backend_times,
    full_sweep_stats,
    probe_iteration_model,
)
from repro.graphs.suite import SUITE, build_graph
from tests.conftest import make_loopy_graph


class TestSweepFormulas:
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_match_kernel_accounting(self, paradigm):
        """The analytic per-sweep counts must equal what the executing
        kernels report for a full sweep."""
        g = make_loopy_graph(seed=81, n_nodes=40, n_edges=80)
        result = LoopyBP(paradigm=paradigm, schedule="sync").run(g)
        first = result.run_stats.per_iteration[0]
        predicted = full_sweep_stats(g.n_nodes, g.n_edges, g.n_states, paradigm)
        assert first.edges_processed == predicted.edges_processed
        assert first.flops == predicted.flops
        assert first.random_accesses == predicted.random_accesses
        assert first.atomic_ops == predicted.atomic_ops
        assert first.kernel_launches == predicted.kernel_launches

    @pytest.mark.parametrize("executor", ["interpreted", "compiled"])
    @pytest.mark.parametrize("n_edges", [80, 400, 1100])
    def test_edge_launches_follow_the_chunk_floor(self, n_edges, executor, request):
        """Below 8 * MIN_CHUNK_EDGES directed edges a full edge sweep runs
        fewer than 8 chunks; the modeled launch count must follow."""
        if executor == "interpreted":
            request.getfixturevalue("interpreted")
        g = make_loopy_graph(seed=81, n_nodes=300, n_edges=n_edges)
        result = LoopyBP(paradigm="edge", schedule="sync").run(g)
        first = result.run_stats.per_iteration[0]
        predicted = full_sweep_stats(g.n_nodes, g.n_edges, g.n_states, "edge")
        chunks = min(8, max(1, g.n_edges // MIN_CHUNK_EDGES))
        assert first.kernel_launches == predicted.kernel_launches == 2 * chunks

    def test_unknown_paradigm(self):
        with pytest.raises(ValueError):
            full_sweep_stats(10, 20, 2, "warp")


class TestProbe:
    def test_probe_reflects_convergence(self):
        g = make_loopy_graph(seed=82, n_nodes=100, n_edges=200)
        model = probe_iteration_model(g)
        assert model.node_iterations >= model.edge_iterations
        assert model.node_queue_activity <= model.node_iterations
        assert model.edge_queue_activity <= model.edge_iterations


class TestEstimates:
    def test_small_graphs_favour_c_edge(self):
        times = estimate_backend_times(SUITE["10x40"], 2)
        assert min(times, key=times.__getitem__) == "c-edge"

    def test_large_graphs_favour_cuda_node(self):
        times = estimate_backend_times(SUITE["2Mx8M"], 2)
        assert min(times, key=times.__getitem__) == "cuda-node"

    def test_vram_exclusions_match_paper(self):
        """§4.2: TW and OR exceed the GTX 1070 VRAM at 32 beliefs; the
        mid-size graphs do not."""
        assert "cuda-node" not in estimate_backend_times(SUITE["TW"], 32)
        assert "cuda-node" not in estimate_backend_times(SUITE["OR"], 32)
        assert "cuda-node" in estimate_backend_times(SUITE["LJ"], 3)
        assert "cuda-node" in estimate_backend_times(SUITE["K21"], 3)

    def test_volta_faster_than_pascal(self):
        pascal = estimate_backend_times(SUITE["2Mx8M"], 3, "gtx1070")
        volta = estimate_backend_times(SUITE["2Mx8M"], 3, "v100")
        assert volta["cuda-node"] < pascal["cuda-node"]
        assert volta["cuda-edge"] < pascal["cuda-edge"]

    def test_volta_improves_edge_more_than_node(self):
        """§4.4's mechanism: cheaper atomics lift the Edge kernels most."""
        pascal = estimate_backend_times(SUITE["PO"], 3, "gtx1070")
        volta = estimate_backend_times(SUITE["PO"], 3, "v100")
        edge_gain = pascal["cuda-edge"] / volta["cuda-edge"]
        node_gain = pascal["cuda-node"] / volta["cuda-node"]
        assert edge_gain > node_gain

    def test_headline_node_speedup_band(self):
        """§4.1.1: 'nearly 121x' CUDA Node vs C Node on 2Mx8M at 3
        beliefs — the estimate must land in the tens-to-low-hundreds."""
        times = estimate_backend_times(SUITE["2Mx8M"], 3)
        speedup = times["c-node"] / times["cuda-node"]
        assert 10 < speedup < 300

    def test_work_queue_flag(self):
        with_q = estimate_backend_times(SUITE["1Mx4M"], 2, work_queue=True)
        without_q = estimate_backend_times(SUITE["1Mx4M"], 2, work_queue=False)
        assert with_q["c-node"] < without_q["c-node"]

    def test_custom_iteration_model(self):
        slow = IterationModel(node_iterations=100, edge_iterations=50,
                              node_queue_activity=40, edge_queue_activity=25)
        fast = IterationModel(node_iterations=5, edge_iterations=3,
                              node_queue_activity=2, edge_queue_activity=2)
        t_slow = estimate_backend_times(SUITE["100kx400k"], 2, model=slow)
        t_fast = estimate_backend_times(SUITE["100kx400k"], 2, model=fast)
        assert t_slow["c-node"] > t_fast["c-node"]


class TestManagementFraction:
    def test_paper_decomposition_at_table1_sizes(self):
        """§4.1.1: 'the GPU memory management overhead alone accounts for
        99.8% of the CUDA execution time which reduces to an average of
        71% for the graphs at or above 100,000 nodes'."""
        from repro.credo.analytic import estimate_cuda_breakdown

        _, smallest = estimate_cuda_breakdown(SUITE["10x40"], 2)
        assert smallest > 0.99

        big = ["100kx400k", "600kx1200k", "1Mx4M", "2Mx8M", "PO", "YO"]
        fracs = [estimate_cuda_breakdown(SUITE[ab], 2)[1] for ab in big]
        avg = sum(fracs) / len(fracs)
        assert 0.55 < avg < 0.99
        # and the fraction shrinks as graphs grow
        assert fracs[0] > fracs[-1] or fracs[0] > min(fracs)
