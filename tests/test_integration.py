"""End-to-end integration: the full Credo pipeline across subsystems."""

import numpy as np

from repro.core import LoopyBP, exact_marginals, junction_tree_marginals, observe
from repro.core.convergence import ConvergenceCriterion
from repro.credo import Credo
from repro.graphs import build_graph
from repro.io import load_graph, parse_bif, write_mtx_graph
from repro.io.network import network_to_belief_graph
from repro.io.scan import scan_mtx_stats
from tests.conftest import FAMILY_OUT_BIF


class TestFullPipeline:
    def test_generate_write_scan_select_run(self, tmp_path):
        """suite generator -> MTX files -> streaming metadata -> selector
        -> backend -> posteriors, with no step bypassed."""
        graph, _ = build_graph("1kx4k", "virus", profile="smoke", seed=3)
        nodes, edges = tmp_path / "v.nodes", tmp_path / "v.edges"
        write_mtx_graph(graph, nodes, edges)

        stats = scan_mtx_stats(nodes, edges)
        assert stats.n_beliefs == 3

        credo = Credo(device="gtx1070")
        choice = credo.select_file(nodes, edges)
        assert choice == "c-edge"  # 1k nodes: the paper's small-graph rule

        result = credo.run_file(nodes, edges)
        assert result.backend == choice
        assert result.converged
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-4)

    def test_bif_to_posterior_with_evidence(self, tmp_path):
        """BIF text -> network -> pairwise graph -> evidence -> BP,
        validated against both exact oracles."""
        net = parse_bif(FAMILY_OUT_BIF)
        graph = network_to_belief_graph(net)
        observe(graph, "light_on", 0)
        observe(graph, "hear_bark", 1)
        exact = exact_marginals(graph)
        jt = junction_tree_marginals(graph)
        np.testing.assert_allclose(jt, exact, atol=1e-9)
        result = LoopyBP(criterion=ConvergenceCriterion(1e-7, 300)).run(graph)
        np.testing.assert_allclose(result.beliefs, exact, atol=1e-3)

    def test_file_formats_agree_end_to_end(self, tmp_path):
        """The same network through BIF and MTX paths yields the same
        posteriors."""
        from repro.io import write_bif
        from repro.io.mtx import read_mtx_graph

        net = parse_bif(FAMILY_OUT_BIF)
        bif_path = tmp_path / "net.bif"
        write_bif(net, bif_path)
        g_bif = load_graph(bif_path)

        # family-out is uniform-width, so it can travel as MTX too
        nodes, edges = tmp_path / "n.nodes", tmp_path / "n.edges"
        write_mtx_graph(g_bif, nodes, edges)
        g_mtx = read_mtx_graph(nodes, edges)

        crit = ConvergenceCriterion(1e-7, 300)
        r1 = LoopyBP(criterion=crit).run(g_bif.copy())
        r2 = LoopyBP(criterion=crit).run(g_mtx)
        np.testing.assert_allclose(r1.beliefs, r2.beliefs, atol=1e-4)
