"""BeliefGraph construction and adjacency indices (paper §3.3, §3.4)."""

import numpy as np
import pytest

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential, random_potential


def _priors(n, b=2, seed=0):
    return np.random.default_rng(seed).dirichlet(np.ones(b), size=n)


class TestFromUndirected:
    def test_expands_to_directed_pairs(self):
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8)
        )
        assert g.n_edges == 4
        # each directed edge's reverse flips endpoints
        for e in range(g.n_edges):
            r = g.reverse_edge[e]
            assert g.src[e] == g.dst[r] and g.dst[e] == g.src[r]

    def test_drops_self_loops(self):
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 0], [0, 1]]), attractive_potential(2, 0.8)
        )
        assert g.n_edges == 2

    def test_dedupes_undirected_duplicates(self):
        g = BeliefGraph.from_undirected(
            _priors(3),
            np.array([[0, 1], [1, 0], [0, 1]]),
            attractive_potential(2, 0.8),
        )
        assert g.n_edges == 2

    def test_asymmetric_shared_potential_transposed_on_reverse(self):
        rng = np.random.default_rng(0)
        mat = random_potential(2, rng)  # not symmetric in general
        assert not np.allclose(mat, mat.T)
        g = BeliefGraph.from_undirected(_priors(2), np.array([[0, 1]]), mat)
        np.testing.assert_allclose(g.potentials.matrix(0), mat, atol=1e-6)
        np.testing.assert_allclose(g.potentials.matrix(1), mat.T, atol=1e-6)

    def test_symmetric_shared_potential_stays_shared(self):
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8)
        )
        assert g.potentials.shared

    def test_per_edge_potentials(self):
        mats = np.stack([random_potential(2, np.random.default_rng(s)) for s in range(2)])
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), per_edge_potentials=mats
        )
        assert not g.potentials.shared
        np.testing.assert_allclose(g.potentials.matrix(0), mats[0], atol=1e-6)
        np.testing.assert_allclose(g.potentials.matrix(1), mats[0].T, atol=1e-6)

    def test_requires_some_potential(self):
        with pytest.raises(ValueError, match="potential"):
            BeliefGraph.from_undirected(_priors(2), np.array([[0, 1]]))


class TestAdjacency:
    def test_csr_in_edges(self):
        g = BeliefGraph.from_undirected(
            _priors(4), np.array([[0, 2], [1, 2], [3, 2]]), attractive_potential(2, 0.8)
        )
        into_2 = g.in_edges(2)
        assert sorted(g.src[into_2].tolist()) == [0, 1, 3]
        assert set(g.parents(2).tolist()) == {0, 1, 3}

    def test_out_edges_and_children(self):
        g = BeliefGraph.from_undirected(
            _priors(4), np.array([[0, 1], [0, 2], [0, 3]]), attractive_potential(2, 0.8)
        )
        assert set(g.children(0).tolist()) == {1, 2, 3}

    def test_degrees_sum_to_edges(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 30, size=(60, 2))
        g = BeliefGraph.from_undirected(_priors(30), edges, attractive_potential(2, 0.8))
        assert g.in_degree().sum() == g.n_edges
        assert g.out_degree().sum() == g.n_edges
        # undirected expansion: in == out per node
        np.testing.assert_array_equal(g.in_degree(), g.out_degree())

    def test_endpoint_range_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            BeliefGraph(
                _priors(2), np.array([0]), np.array([5]), attractive_potential(2, 0.8)
            )


class TestState:
    def test_priors_normalized_on_ingest(self):
        raw = np.array([[2.0, 2.0], [1.0, 3.0]])
        g = BeliefGraph.from_undirected(raw, np.array([[0, 1]]), attractive_potential(2, 0.8))
        np.testing.assert_allclose(g.priors.sum(axis=1), 1.0, atol=1e-6)

    def test_reset_beliefs_restores_priors(self):
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8)
        )
        g.beliefs[0] = np.array([1.0, 0.0], dtype=np.float32)
        g.reset_beliefs()
        np.testing.assert_allclose(g.beliefs[0], g.priors[0])

    def test_copy_isolates_beliefs_and_observations(self):
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8)
        )
        clone = g.copy()
        clone.beliefs[0] = np.array([1.0, 0.0], dtype=np.float32)
        clone.observed[1] = True
        assert not np.allclose(g.beliefs[0], clone.beliefs[0])
        assert not g.observed[1]

    def test_metadata_fields(self):
        g = BeliefGraph.from_undirected(
            _priors(5), np.array([[0, 1], [1, 2], [2, 3]]), attractive_potential(2, 0.8)
        )
        meta = g.metadata()
        assert meta["n_nodes"] == 5
        assert meta["n_edges"] == 6  # directed
        assert meta["n_beliefs"] == 2

    def test_memory_footprint_includes_all_parts(self):
        g = BeliefGraph.from_undirected(
            _priors(10), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8)
        )
        fp = g.memory_footprint()
        assert set(fp) == {
            "beliefs", "priors", "potentials", "adjacency", "metadata", "reserved",
        }
        assert all(v > 0 for k, v in fp.items() if k not in ("metadata", "reserved"))
        # one (n, b) float32 array each
        assert fp["beliefs"] == fp["priors"] == 10 * 2 * 4
        # the lazy caches are empty until first use, then counted
        assert fp["metadata"] == 0
        # a batch-constructed graph is tightly packed; only the streaming
        # builder's amortized-growth slack lands in "reserved"
        assert fp["reserved"] == 0
        g.node_id("3")  # builds the name -> id map
        g._feature_cache["features"] = np.zeros(5, dtype=np.float64)
        fp2 = g.memory_footprint()
        assert fp2["metadata"] > 0
        for key in ("beliefs", "priors", "potentials", "adjacency"):
            assert fp2[key] == fp[key]

    def test_node_names_default_and_custom(self):
        g = BeliefGraph.from_undirected(
            _priors(2), np.array([[0, 1]]), attractive_potential(2, 0.8),
            node_names=["alpha", "beta"],
        )
        assert g.node_names == ["alpha", "beta"]
        g2 = BeliefGraph.from_undirected(
            _priors(2), np.array([[0, 1]]), attractive_potential(2, 0.8)
        )
        assert g2.node_names == ["0", "1"]

    def test_repr_mentions_sizes(self):
        g = BeliefGraph.from_undirected(
            _priors(2), np.array([[0, 1]]), attractive_potential(2, 0.8)
        )
        assert "n_nodes=2" in repr(g)


class TestNameLookupAndFeatureCache:
    """Serving-path satellites: lazy name->id map, memoized features."""

    def _named(self):
        return BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8),
            node_names=["a", "b", "c"],
        )

    def test_node_id_resolves_names_and_passes_ints(self):
        g = self._named()
        assert g.node_id("b") == 1
        assert g.node_id(2) == 2
        with pytest.raises(KeyError):
            g.node_id("zz")

    def test_duplicate_names_resolve_to_first_occurrence(self):
        g = BeliefGraph.from_undirected(
            _priors(3), np.array([[0, 1], [1, 2]]), attractive_potential(2, 0.8),
            node_names=["x", "x", "y"],
        )
        assert g.node_id("x") == g.node_names.index("x") == 0

    def test_copy_shares_name_map(self):
        g = self._named()
        g.node_id("a")  # force the lazy build
        clone = g.copy()
        assert clone._name_to_id is g._name_to_id
        assert clone.node_id("c") == 2

    def test_feature_memoization_and_invalidation(self):
        from repro.credo.features import extract_features

        g = self._named()
        first = extract_features(g)
        assert "base" in g._feature_cache
        cached = g._feature_cache["base"]
        second = extract_features(g)
        np.testing.assert_array_equal(first, second)
        assert g._feature_cache["base"] is cached  # no recompute
        g.invalidate_metadata_cache()
        assert g._feature_cache == {} and g._name_to_id is None

    def test_feature_cache_shared_through_copy(self):
        from repro.credo.features import extract_features

        g = self._named()
        extract_features(g)
        clone = g.copy()
        assert clone._feature_cache is g._feature_cache
