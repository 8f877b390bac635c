"""Graph construction and state start shortcuts (DESIGN.md §13.8).

Each shortcut replaces an O(n + m) pass with a cheaper one that must give
the same arrays bit for bit:

* ``from_undirected`` derives its out-CSR from the in-CSR through the
  ``e ^ 1`` pairing instead of sorting again;
* ``LoopyState`` fills the uniform start's log messages and log-message
  sums from an in-degree table instead of ``m · b`` logs and ``b``
  scatters;
* unnamed graphs build their default node names on first read;
* the canonical degrees behind Credo's features are computed once per
  structure.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential, random_potential
from repro.core.state import LoopyState
from repro.credo import features
from repro.io.detect import load_graph
from repro.io.mtx import read_mtx_graph, write_mtx_graph
from repro.stream import GraphDelta, StreamingGraphBuilder, apply_delta

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _priors(n, b=2, seed=0):
    return np.random.default_rng(seed).dirichlet(np.ones(b), size=n)


@st.composite
def undirected_lists(draw):
    """Edge lists with self loops, repeated and reversed duplicates, and
    nodes no edge touches; m = 0 included."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # endpoints drawn from the first half only: the rest stay isolated
    edges = rng.integers(0, max(1, n // 2 + 1), size=(m, 2))
    if m and draw(st.booleans()):
        edges = np.concatenate([edges, edges[:, ::-1], edges[: m // 2]])
    return n, edges


class TestOutCsrFromPairing:
    @settings(**SETTINGS)
    @given(undirected_lists(), st.booleans(), st.booleans())
    def test_equals_a_stable_sort_by_source(self, case, dedupe, per_edge):
        n, edges = case
        rng = np.random.default_rng(len(edges))
        kwargs = (
            {"per_edge_potentials": rng.random((len(edges), 2, 2)) + 0.1}
            if per_edge
            else {"potential": attractive_potential(2, 0.8)}
        )
        g = BeliefGraph.from_undirected(_priors(n), edges, dedupe=dedupe, **kwargs)
        assert not (g.src == g.dst).any()  # self loops dropped
        offsets, ids = g._csr(g.src)
        np.testing.assert_array_equal(g.out_offsets, offsets)
        np.testing.assert_array_equal(g.out_edge_ids, ids)
        np.testing.assert_array_equal(g.reverse_edge, np.arange(g.n_edges) ^ 1)
        # the generic constructor, which sorts twice, builds the same graph
        generic = BeliefGraph(
            _priors(n), g.src, g.dst, g.potentials, reverse_edge=g.reverse_edge
        )
        for name in ("in_offsets", "in_edge_ids", "out_offsets", "out_edge_ids"):
            np.testing.assert_array_equal(getattr(g, name), getattr(generic, name))
            assert getattr(g, name).dtype == np.int64

    def test_graph_owns_its_edge_arrays(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        g = BeliefGraph.from_undirected(_priors(3), edges, attractive_potential(2, 0.8))
        edges[:] = 0
        np.testing.assert_array_equal(g.src, [0, 1, 1, 2])
        np.testing.assert_array_equal(g.dst, [1, 0, 2, 1])

    def test_out_of_range_endpoint_still_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            BeliefGraph.from_undirected(
                _priors(2), np.array([[0, 5]]), attractive_potential(2, 0.8)
            )


class TestStartState:
    @pytest.mark.parametrize("b", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("shape", ["loopy", "isolated", "no_edges"])
    def test_start_equals_rebuild(self, b, shape):
        rng = np.random.default_rng(b)
        n = 50
        if shape == "no_edges":
            edges = np.empty((0, 2), dtype=np.int64)
        else:
            hi = n // 2 if shape == "isolated" else n
            edges = rng.integers(0, hi, size=(4 * n, 2))
        potential = random_potential(b, rng) if b > 1 else np.ones((1, 1))
        g = BeliefGraph.from_undirected(_priors(n, b), edges, potential)
        state = LoopyState(g)
        if state.binary:
            # log-odds start: every message and every sum is 0
            start = state.msg_sum_lo.copy()
            state._rebuild_log_msg_sum()
            np.testing.assert_array_equal(start, state.msg_sum_lo)
            assert state.msg_lo.shape == (g.n_edges,) and not state.msg_lo.any()
            assert start.dtype == np.float32 and not start.any()
            return
        log_messages = state.log_messages.copy()
        log_msg_sum = state.log_msg_sum.copy()
        state._rebuild_log_msg_sum()
        np.testing.assert_array_equal(log_messages, state.log_messages)
        np.testing.assert_array_equal(log_msg_sum, state.log_msg_sum)
        assert log_msg_sum.dtype == np.float32 and log_msg_sum.flags.c_contiguous
        assert log_messages.shape == (g.n_edges, b)

    def test_high_in_degree_hub(self):
        # one node with in-degree 5,000: the table's float64 fold must
        # match bincount's addition by addition
        n = 5_001
        edges = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
        potential = random_potential(3, np.random.default_rng(0))
        g = BeliefGraph.from_undirected(_priors(n, 3), edges, potential)
        state = LoopyState(g)
        start = state.log_msg_sum.copy()
        state._rebuild_log_msg_sum()
        np.testing.assert_array_equal(start, state.log_msg_sum)


def _unnamed(n=10):
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return BeliefGraph.from_undirected(_priors(n), edges, attractive_potential(2, 0.8))


class TestLazyNames:
    def test_first_read_is_the_default_list(self):
        g = _unnamed()
        assert g.lazy_names
        assert g.node_names == [str(i) for i in range(10)]
        assert not g.lazy_names
        assert g.node_names is g.node_names  # built once

    def test_clones_and_the_stream_builder_do_not_build(self):
        g = _unnamed()
        assert g.copy().lazy_names
        assert StreamingGraphBuilder.from_graph(g).build().lazy_names
        assert apply_delta(g, GraphDelta().observe_node("3", 1)).graph.lazy_names
        grown = apply_delta(g, GraphDelta().add_node().add_edge("10", "0")).graph
        assert grown.lazy_names
        assert grown.node_names == [str(i) for i in range(11)]
        assert g.lazy_names

    def test_explicit_names_are_kept(self):
        names = [f"v{i}" for i in range(10)]
        edges = np.column_stack([np.arange(9), np.arange(1, 10)])
        g = BeliefGraph.from_undirected(
            _priors(10), edges, attractive_potential(2, 0.8), node_names=names
        )
        assert not g.lazy_names and g.node_names == names
        for clone in (g.copy(), StreamingGraphBuilder.from_graph(g).build()):
            assert clone.node_names == names
        named = apply_delta(_unnamed(), GraphDelta().add_node(name="probe")).graph
        assert named.node_names == [str(i) for i in range(10)] + ["probe"]

    def test_node_id_resolves_default_names_without_building(self):
        g = _unnamed()
        assert g.node_id("7") == 7
        assert g.node_id("0") == 0
        for bad in ("10", "-1", "07", " 7", "+7", "7.0", "x", ""):
            with pytest.raises(KeyError):
                g.node_id(bad)
        assert g.lazy_names and g._name_to_id is None
        assert len(g.node_names) == 10  # builds the list
        assert g.node_id("7") == 7
        with pytest.raises(KeyError):
            g.node_id("07")

    def test_setter_validates_length(self):
        g = _unnamed()
        with pytest.raises(ValueError, match="node_names"):
            g.node_names = ["a"]
        g.node_names = [f"n{i}" for i in range(10)]
        assert g.node_id("n4") == 4

    def test_mtx_round_trip(self, tmp_path):
        g = _unnamed(30)
        write_mtx_graph(g, tmp_path / "g.mtx", tmp_path / "g.edges")
        for back in (read_mtx_graph(tmp_path / "g.mtx", tmp_path / "g.edges"),
                     load_graph(tmp_path / "g.mtx", stream=True, chunk_edges=7)):
            assert back.lazy_names
            for name in ("src", "dst", "reverse_edge", "in_offsets", "in_edge_ids",
                         "out_offsets", "out_edge_ids"):
                np.testing.assert_array_equal(getattr(back, name), getattr(g, name))
            np.testing.assert_array_equal(back.priors, g.priors)
            assert back.node_names == g.node_names


class TestDegreeMemo:
    def test_computed_once_per_structure(self, monkeypatch):
        g = _unnamed(40)
        calls = []
        original = np.bincount

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(features.np, "bincount", counting)
        features.extract_features(g)
        features.extract_features(g)
        features.extract_features(g.copy())
        assert len(calls) == 2  # one in-degree and one out-degree pass

        g.invalidate_metadata_cache()
        features.extract_features(g)
        assert len(calls) == 4

    def test_memoized_degrees_are_the_canonical_ones(self):
        rng = np.random.default_rng(2)
        edges = rng.integers(0, 25, size=(60, 2))
        g = BeliefGraph.from_undirected(_priors(25), edges, attractive_potential(2, 0.8))
        in_deg, out_deg = features._canonical_degrees(g)
        np.testing.assert_array_equal(in_deg, np.bincount(g.dst[0::2], minlength=25))
        np.testing.assert_array_equal(out_deg, np.bincount(g.src[0::2], minlength=25))
