"""Belief storage (paper §3.4): one padded float32 array per graph, with
the AoS-vs-SoA layout kept as a cost-model input only."""

import numpy as np
import pytest

from repro.backends.cpu_cost import cache_lines_per_access
from repro.core.graph import BeliefGraph
from repro.core.potentials import PerEdgePotentialStore, attractive_potential

NO_EDGES = np.empty(0, dtype=np.int64)


def _bare(priors) -> BeliefGraph:
    """A graph of ``priors`` with no edges."""
    return BeliefGraph(priors, NO_EDGES, NO_EDGES, PerEdgePotentialStore([]))


class TestBeliefArrays:
    def test_ragged_rows_are_zero_padded(self):
        g = _bare([np.array([1.0, 3.0]), np.array([0.2, 0.3, 0.5]), np.ones(4)])
        assert not g.uniform and g.n_states == 4
        for arr in (g.priors, g.beliefs):
            assert arr.shape == (3, 4) and arr.dtype == np.float32
            assert arr.flags.c_contiguous
        np.testing.assert_allclose(g.priors[0], [0.25, 0.75, 0.0, 0.0])
        np.testing.assert_allclose(g.priors[1], [0.2, 0.3, 0.5, 0.0], rtol=1e-6)
        np.testing.assert_allclose(g.priors[2], [0.25] * 4)
        np.testing.assert_array_equal(g.beliefs, g.priors)
        assert not np.shares_memory(g.beliefs, g.priors)

    def test_dense_priors_are_not_aliased(self):
        raw = np.array([[0.5, 0.5], [0.25, 0.75]], dtype=np.float32)
        g = BeliefGraph.from_undirected(raw, np.array([[0, 1]]), attractive_potential(2, 0.8))
        assert not np.shares_memory(g.priors, raw)
        g.priors[0] = [1.0, 0.0]
        np.testing.assert_array_equal(raw[0], [0.5, 0.5])

    def test_ragged_rows_normalize_as_if_alone(self):
        # past 8 entries the padding would regroup NumPy's pairwise sum
        rng = np.random.default_rng(0)
        rows = [rng.random(d).astype(np.float32) + 0.01 for d in (3, 5, 7, 11) * 8]
        g = _bare(rows)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(g.priors[i, : len(row)], _bare(row[None, :]).priors[0])

    @pytest.mark.parametrize(
        "priors",
        [[np.array([0.5, 0.5]), np.array([])], np.zeros((2, 0))],
        ids=["ragged", "dense"],
    )
    def test_rejects_zero_state_node(self, priors):
        with pytest.raises(ValueError, match="at least one state"):
            _bare(priors)

    def test_empty_graph(self):
        g = _bare([])
        assert g.n_nodes == 0 and g.n_states == 0 and not g.uniform
        assert g.priors.shape[0] == g.beliefs.shape[0] == 0

    def test_single_state_node(self):
        g = _bare([np.array([3.0]), np.array([1.0, 1.0])])
        np.testing.assert_allclose(g.priors[0], [1.0, 0.0])
        np.testing.assert_allclose(g.priors[1], [0.5, 0.5])

    def test_copy_is_independent(self):
        g = _bare([np.array([0.9, 0.1]), np.array([0.2, 0.3, 0.5])])
        clone = g.copy()
        clone.beliefs[0, :2] = [0.1, 0.9]
        clone.priors[1, :3] = 0.0
        np.testing.assert_allclose(g.beliefs[0, :2], [0.9, 0.1], rtol=1e-6)
        np.testing.assert_allclose(g.priors[1, :3], [0.2, 0.3, 0.5], rtol=1e-6)
        assert clone.dims is g.dims and clone.uniform == g.uniform


#: one bad row beside a good one, as ragged and as uniform width
BAD_ROWS = {"nan": [np.nan, 1.0], "negative": [-1.0, 2.0], "zero_sum": [0.0, 0.0]}


class TestPriorValidation:
    """Ragged priors pass the checks the dense route applies."""

    @pytest.mark.parametrize("ragged", [True, False], ids=["ragged", "uniform"])
    @pytest.mark.parametrize("bad", ["nan", "negative"])
    def test_invalid_rows_raise(self, bad, ragged):
        other = [0.2, 0.3, 0.5] if ragged else [0.2, 0.8]
        with pytest.raises(ValueError, match="priors"):
            _bare([np.array(BAD_ROWS[bad]), np.array(other)])

    @pytest.mark.parametrize("ragged", [True, False], ids=["ragged", "uniform"])
    def test_zero_sum_row_becomes_uniform_over_its_states(self, ragged):
        other = [0.2, 0.3, 0.5] if ragged else [0.2, 0.8]
        g = _bare([np.array(BAD_ROWS["zero_sum"]), np.array(other)])
        np.testing.assert_array_equal(g.priors[0, :2], [0.5, 0.5])
        assert not g.priors[0, 2:].any()


class TestLayoutSpecifics:
    def test_aos_touches_fewer_lines_than_soa(self):
        """The §3.4 result: AoS needs ~56 % fewer cache accesses."""
        for width in (1, 2, 3, 32):
            assert cache_lines_per_access("aos", width) < cache_lines_per_access("soa", width)

    def test_aos_is_one_record_per_node(self):
        # a width-w record is 4w bytes of float32 plus a 4-byte count
        assert cache_lines_per_access("aos", 2) == 1.0
        assert cache_lines_per_access("aos", 32) == (32 * 4 + 4) / 64

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError, match="unknown belief layout"):
            cache_lines_per_access("blocked", 2)
