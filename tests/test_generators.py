"""Workload generators and the Table 1 catalogue."""

import numpy as np
import pytest

from repro.graphs import (
    FIGURE_SUBSET,
    SUITE,
    build_graph,
    get_benchmark,
    grid_edges,
    grid_graph,
    kronecker_graph,
    rmat_edges,
    social_graph,
    synthetic_graph,
)
from repro.graphs.suite import resolve_profile


class TestSynthetic:
    def test_sizes(self):
        g = synthetic_graph(1000, 4000, seed=0)
        assert g.n_nodes == 1000
        # two directed edges per undirected edge, minus dedup/self-loop losses
        assert 2 * 3800 <= g.n_edges <= 2 * 4000

    def test_seeded_determinism(self):
        g1 = synthetic_graph(100, 400, seed=7)
        g2 = synthetic_graph(100, 400, seed=7)
        np.testing.assert_array_equal(g1.src, g2.src)
        np.testing.assert_allclose(g1.priors, g2.priors)

    def test_states_parameter(self):
        g = synthetic_graph(50, 200, n_states=3, seed=1)
        assert g.n_states == 3

    def test_random_potential_mode(self):
        g = synthetic_graph(50, 200, coupling=None, seed=2)
        assert g.n_edges > 0


class TestKronecker:
    def test_id_space_is_power_of_two(self):
        g = kronecker_graph(10, 5000, seed=0)
        assert g.n_nodes == 1024

    def test_heavy_tailed_degrees(self):
        edges = rmat_edges(12, 40_000, np.random.default_rng(0))
        deg = np.bincount(edges.reshape(-1), minlength=1 << 12)
        # R-MAT: the max degree dwarfs the mean (core-periphery shape)
        assert deg.max() > 20 * max(deg[deg > 0].mean(), 1)

    def test_bad_seed_matrix(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rmat_edges(4, 10, np.random.default_rng(0), seed_matrix=(0.5, 0.5, 0.5, 0.5))


class TestSocial:
    def test_power_law_ish(self):
        g = social_graph(2000, 8000, seed=0)
        deg = g.in_degree()
        assert deg.max() > 8 * deg.mean()

    def test_connected(self):
        g = social_graph(500, 1500, seed=1)
        # preferential attachment attaches every node: no isolated vertices
        assert (g.in_degree() + g.out_degree() > 0).all()


class TestGrids:
    def test_edge_count(self):
        edges = grid_edges(4, 5)
        # 4*(5-1) horizontal + (4-1)*5 vertical
        assert len(edges) == 4 * 4 + 3 * 5

    def test_interior_degree_four(self):
        g = grid_graph(5, 5, seed=0)
        centre = 2 * 5 + 2
        assert len(g.parents(centre)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_edges(0, 5)


class TestSuiteCatalogue:
    def test_34_graphs(self):
        assert len(SUITE) == 34

    def test_paper_sizes_recorded(self):
        tw = get_benchmark("TW")
        assert tw.n_nodes == 21_297_772 and tw.n_edges == 265_025_809
        assert get_benchmark("2Mx8M").n_nodes == 2_000_000

    def test_figure_subset_members_exist(self):
        for abbrev in FIGURE_SUBSET:
            get_benchmark(abbrev)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("XX")

    def test_scaling_preserves_density(self):
        bench = get_benchmark("2Mx8M")
        n, m, factor = bench.scaled(200_000, 800_000)
        assert factor == pytest.approx(0.1)
        assert m / n == pytest.approx(bench.n_edges / bench.n_nodes, rel=0.01)

    def test_profiles(self):
        name, max_n, _ = resolve_profile("quick")
        assert name == "quick" and max_n == 200_000
        with pytest.raises(KeyError):
            resolve_profile("huge")

    def test_profile_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert resolve_profile()[0] == "smoke"

    @pytest.mark.parametrize("use_case,beliefs", [("binary", 2), ("virus", 3), ("image", 32)])
    def test_build_graph_use_cases(self, use_case, beliefs):
        g, factor = build_graph("10x40", use_case, profile="smoke")
        assert g.n_states == beliefs
        assert factor == 1.0

    def test_build_graph_scales_large(self):
        g, factor = build_graph("2Mx8M", "binary", profile="smoke")
        assert factor < 1.0
        assert g.n_nodes <= 20_000

    def test_unknown_use_case(self):
        with pytest.raises(KeyError, match="use case"):
            build_graph("10x40", "weather", profile="smoke")
