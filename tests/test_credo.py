"""The Credo system: features, rules, selector, training, runner (§3.7)."""

import numpy as np
import pytest

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential
from repro.credo import (
    FEATURE_NAMES,
    Credo,
    CredoSelector,
    build_training_set,
    extract_features,
    rule_select,
)
from repro.credo.selector import cuda_pivot_nodes
from repro.credo.training import TrainingRow, fits_vram_paper_scale
from repro.graphs import build_graph, synthetic_graph
from tests.conftest import make_loopy_graph

#: a 2-state root and a 3-state child: beliefs of two widths
MIXED_BIF = """
network mixed {}
variable a { type discrete [ 2 ] { t, f }; }
variable b { type discrete [ 3 ] { x, y, z }; }
probability ( a ) { table 0.4, 0.6; }
probability ( b | a ) { table 0.2, 0.3, 0.5, 0.3, 0.3, 0.4; }
"""


class TestFeatures:
    def test_five_features(self):
        g = make_loopy_graph(seed=61)
        feats = extract_features(g)
        assert feats.shape == (len(FEATURE_NAMES),) == (5,)

    def test_feature_values_on_known_graph(self):
        # star: 0 -> 1..4, canonical orientation preserved
        priors = np.full((5, 2), 0.5)
        g = BeliefGraph.from_undirected(
            priors, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]),
            attractive_potential(2, 0.8),
        )
        n_nodes, ratio, beliefs, imbalance, skew = extract_features(g)
        assert n_nodes == 5
        assert ratio == pytest.approx(5 / 4)
        assert beliefs == 2
        # canonical in-degrees: [0,1,1,1,1]; out-degrees: [4,0,0,0,0]
        assert imbalance == pytest.approx(1 / 4)
        assert skew == pytest.approx((4 / 5) / 1)

    def test_ratios_bounded(self):
        """§4.3: 'the majority of the features [are] ratios between zero
        and one' — skew always is; imbalance is for this star family."""
        g = synthetic_graph(500, 2000, seed=1)
        feats = extract_features(g)
        assert 0.0 < feats[4] <= 1.0  # skew


class TestRules:
    def test_extremes(self):
        small = synthetic_graph(100, 400, seed=2)
        large = synthetic_graph(100_000, 200_000, seed=3)
        assert rule_select(small) == "c-edge"
        assert rule_select(large) == "cuda-node"

    def test_middle_ground_deferred(self):
        mid = synthetic_graph(10_000, 40_000, seed=4)
        assert rule_select(mid) is None

    def test_pivot_monotone_in_beliefs(self):
        """§3.6: 100 k at 2 beliefs down to 1 k at 32 beliefs."""
        assert cuda_pivot_nodes(2) == pytest.approx(100_000)
        assert cuda_pivot_nodes(32) == pytest.approx(1_000)
        assert cuda_pivot_nodes(3) < cuda_pivot_nodes(2)
        assert cuda_pivot_nodes(8) > cuda_pivot_nodes(32)


class TestVramFeasibility:
    def test_paper_exclusions(self):
        """§4.2: TW and OR exceed the GTX 1070's VRAM at 32 beliefs."""
        from repro.graphs.suite import SUITE

        assert not fits_vram_paper_scale(SUITE["TW"], 32, "gtx1070")
        assert not fits_vram_paper_scale(SUITE["OR"], 32, "gtx1070")
        assert fits_vram_paper_scale(SUITE["2Mx8M"], 2, "gtx1070")

    def test_vram_exclusion_count_near_paper(self):
        """§4.3: 95 of 132 variants fit; with 34 graphs x 3 use cases we
        expect a comparable exclusion pattern (only huge 32-belief and
        mega-edge graphs drop)."""
        from repro.graphs.suite import SUITE
        from repro.usecases import USE_CASES

        fitting = sum(
            fits_vram_paper_scale(bench, b, "gtx1070")
            for bench in SUITE.values()
            for b in USE_CASES.values()
        )
        total = len(SUITE) * len(USE_CASES)
        assert total == 102
        assert 0.6 * total <= fitting < total


class TestSelector:
    def _rows(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(40):
            n = float(10 ** rng.uniform(2, 6))
            label = "node" if n > 50_000 else "edge"
            feats = np.array([n, rng.uniform(0.1, 1), 2.0, rng.uniform(0, 1), rng.uniform(0, 1)])
            rows.append(
                TrainingRow("syn", "binary", 2, feats, label, {}, "c-edge", 1.0)
            )
        return rows

    def test_fit_and_predict(self):
        selector = CredoSelector().fit(self._rows())
        small = synthetic_graph(100, 400, seed=5)
        assert selector.select(small) == "c-edge"
        large = synthetic_graph(150_000, 300_000, seed=6)
        assert selector.select(large).startswith("cuda-")

    def test_unfitted_fallback(self):
        selector = CredoSelector()
        mid = synthetic_graph(5_000, 20_000, seed=7)
        assert selector.select(mid) in {"c-node", "c-edge", "cuda-node", "cuda-edge"}

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            CredoSelector().fit([])


class TestTraining:
    def test_build_training_set_small_subset(self):
        rows = build_training_set(
            "gtx1070",
            subset=("10x40", "100x400"),
            use_cases=("binary",),
            profile="smoke",
        )
        assert len(rows) == 2
        for row in rows:
            assert row.label in ("node", "edge")
            assert set(row.times) == {"c-node", "c-edge", "cuda-node", "cuda-edge"}
            assert row.best_backend in row.times


class TestRunner:
    def test_run_with_explicit_backend(self):
        credo = Credo()
        g, _ = build_graph("100x400", "binary", profile="smoke")
        result = credo.run(g, backend="c-node")
        assert result.backend == "c-node"
        assert result.detail["selected"] == "c-node"

    def test_run_selects_automatically(self):
        credo = Credo()
        g, _ = build_graph("100x400", "binary", profile="smoke")
        result = credo.run(g)
        assert result.backend == "c-edge"  # rule: tiny graph

    def test_unknown_backend_rejected(self):
        credo = Credo()
        g, _ = build_graph("10x40", "binary", profile="smoke")
        with pytest.raises(KeyError, match="unknown backend"):
            credo.run(g, backend="asic-node")

    def test_run_file(self, tmp_path):
        from repro.io.mtx import write_mtx_graph

        g = make_loopy_graph(seed=62, n_nodes=30, n_edges=50)
        write_mtx_graph(g, tmp_path / "g.nodes", tmp_path / "g.edges")
        result = Credo().run_file(tmp_path / "g.nodes", tmp_path / "g.edges")
        assert result.converged

    def test_heterogeneous_graph_names_the_reference_backend(self):
        from repro.io.bif import parse_bif
        from repro.io.network import network_to_belief_graph

        g = network_to_belief_graph(parse_bif(MIXED_BIF))
        for call in (Credo().check_graph, Credo().run):
            with pytest.raises(ValueError, match="'reference' backend"):
                call(g)


class TestCli:
    def test_backends_command(self, capsys):
        from repro.credo.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "cuda-node" in out and "c-edge" in out

    def test_features_command(self, tmp_path, capsys):
        from repro.credo.cli import main
        from repro.io.mtx import write_mtx_graph

        g = make_loopy_graph(seed=63, n_nodes=12, n_edges=20)
        write_mtx_graph(g, tmp_path / "g.nodes", tmp_path / "g.edges")
        assert main(["features", str(tmp_path / "g.nodes"), str(tmp_path / "g.edges")]) == 0
        assert "n_beliefs" in capsys.readouterr().out

    def test_run_command(self, tmp_path, capsys):
        from repro.credo.cli import main
        from repro.io.mtx import write_mtx_graph

        g = make_loopy_graph(seed=64, n_nodes=12, n_edges=20)
        write_mtx_graph(g, tmp_path / "g.nodes", tmp_path / "g.edges")
        code = main(
            ["run", str(tmp_path / "g.nodes"), str(tmp_path / "g.edges"), "--backend", "c-edge", "--top", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend       c-edge" in out
        assert "node 0:" in out

    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize(
        "backend, reason",
        [("c-node:bogus", "unknown schedule 'bogus'"), ("c-nod", "unknown backend 'c-nod'")],
    )
    def test_unrunnable_backend_is_a_usage_error(
        self, tmp_path, capsys, family_out_bif, command, backend, reason
    ):
        from repro.credo.cli import main

        bif = tmp_path / "net.bif"
        bif.write_text(family_out_bif)
        assert main([command, str(bif), "--backend", backend]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: --backend {backend!r}: ") and reason in line

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_heterogeneous_network_is_a_usage_error(self, tmp_path, capsys, command):
        from repro.credo.cli import main

        bif = tmp_path / "mixed.bif"
        bif.write_text(MIXED_BIF)
        assert main([command, str(bif)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "constant-width" in line
        assert "'reference'" in line


class TestCliConvert:
    def test_convert_bif_to_mtx(self, tmp_path, capsys, family_out_bif):
        from repro.credo.cli import main
        from repro.io.mtx import read_mtx_graph

        bif = tmp_path / "net.bif"
        bif.write_text(family_out_bif)
        prefix = str(tmp_path / "net")
        assert main(["convert", str(bif), prefix]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        g = read_mtx_graph(prefix + ".nodes", prefix + ".edges")
        assert g.n_nodes == 5
