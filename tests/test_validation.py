"""Failure-injection tests: malformed inputs must fail loudly."""

import networkx as nx
import numpy as np
import pytest

from repro.core.graph import BeliefGraph
from repro.core.potentials import (
    PerEdgePotentialStore,
    SharedPotentialStore,
    attractive_potential,
)
from repro.interop import from_networkx
from repro.io.detect import load_graph
from repro.io.mtx import MtxFormatError, read_mtx_graph
from repro.stream.loader import load_graph_stream


class TestGraphValidation:
    def test_nan_priors_rejected(self):
        priors = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(ValueError, match="NaN"):
            BeliefGraph.from_undirected(
                priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
            )

    def test_infinite_priors_rejected(self):
        priors = np.array([[0.5, 0.5], [np.inf, 0.5]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            BeliefGraph.from_undirected(
                priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
            )

    def test_negative_priors_rejected(self):
        priors = np.array([[0.5, 0.5], [-0.1, 1.1]])
        with pytest.raises(ValueError, match="non-negative"):
            BeliefGraph.from_undirected(
                priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
            )

    def test_all_zero_prior_row_becomes_uniform(self):
        priors = np.array([[0.0, 0.0], [0.3, 0.7]])
        g = BeliefGraph.from_undirected(
            priors, np.array([[0, 1]]), attractive_potential(2, 0.8)
        )
        np.testing.assert_allclose(g.priors[0], [0.5, 0.5])

    def test_mismatched_src_dst(self):
        with pytest.raises(ValueError, match="equal length"):
            BeliefGraph(
                np.full((2, 2), 0.5), np.array([0, 1]), np.array([1]),
                attractive_potential(2, 0.8),
            )

    def test_potential_store_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            BeliefGraph(
                np.full((2, 2), 0.5), np.array([0]), np.array([1]),
                SharedPotentialStore(attractive_potential(2, 0.8), 5),
            )

    def test_node_names_length_mismatch(self):
        with pytest.raises(ValueError, match="node_names"):
            BeliefGraph.from_undirected(
                np.full((2, 2), 0.5), np.array([[0, 1]]),
                attractive_potential(2, 0.8), node_names=["only-one"],
            )


class TestNonFinitePotentials:
    """NaN or infinite potentials must fail loudly, never give NaN posteriors."""

    NODES = (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 0.5 0.5\n2 2 0.4 0.6\n"
    )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shared_store_rejects(self, bad):
        matrix = np.array([[0.75, 0.25], [0.25, bad]])
        with pytest.raises(ValueError, match="finite"):
            SharedPotentialStore(matrix, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_per_edge_store_rejects(self, bad):
        stack = np.full((2, 2, 2), 0.5)
        stack[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PerEdgePotentialStore(stack)
        with pytest.raises(ValueError, match="finite"):
            PerEdgePotentialStore([stack[0], stack[1][:, 1:]])  # ragged list

    @pytest.mark.parametrize("load", [read_mtx_graph, load_graph_stream])
    def test_mtx_per_edge_nan_matrix_rejected(self, tmp_path, load):
        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        nodes.write_text(self.NODES)
        edges.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 2 nan 0.25 0.25 0.75\n"
        )
        with pytest.raises(ValueError, match="finite"):
            load(nodes, edges)

    @pytest.mark.parametrize("values", ["nan 0.25 0.25 0.75", "0.75 inf 0.25 0.75", "0.75 x 1 1"])
    def test_mtx_shared_directive_must_be_finite(self, tmp_path, values):
        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        nodes.write_text(self.NODES)
        edges.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"%credo shared-potential: {values}\n"
            "2 2 1\n1 2\n"
        )
        with pytest.raises(MtxFormatError, match="shared-potential values must be finite"):
            read_mtx_graph(nodes, edges)


class TestSuiteIteration:
    def test_suite_graphs_yields_all_variants(self):
        from repro.graphs.suite import suite_graphs

        seen = list(
            suite_graphs(
                use_cases=("binary",),
                subset=("10x40", "100x400"),
                profile="smoke",
            )
        )
        assert len(seen) == 2
        for bench, use_case, graph, factor in seen:
            assert use_case == "binary"
            assert graph.n_nodes > 0
            assert factor == 1.0


#: a bad prior row per fault, as each loader's text spells it
BAD_PRIORS = {"nan": ["nan", "1"], "negative": ["-0.5", "1.5"], "zero_sum": ["0", "0"]}


def _bif(row: list[str], ragged: bool) -> str:
    b_states, b_table = (("x, y, z", "0.2, 0.3, 0.5, 0.3, 0.3, 0.4") if ragged
                         else ("x, y", "0.9, 0.1, 0.2, 0.8"))
    return f"""
    network n {{}}
    variable a {{ type discrete [ 2 ] {{ t, f }}; }}
    variable b {{ type discrete [ {b_states.count(",") + 1} ] {{ {b_states} }}; }}
    probability ( a ) {{ table {", ".join(row)}; }}
    probability ( b | a ) {{ table {b_table}; }}
    """


def _xmlbif(row: list[str], ragged: bool) -> str:
    b_outcomes, b_table = (("xyz", "0.2 0.3 0.5 0.3 0.3 0.4") if ragged
                           else ("xy", "0.9 0.1 0.2 0.8"))
    outcomes = "".join(f"<OUTCOME>{o}</OUTCOME>" for o in b_outcomes)
    return f"""<?xml version="1.0"?>
<BIF VERSION="0.3"><NETWORK><NAME>n</NAME>
<VARIABLE TYPE="nature"><NAME>a</NAME><OUTCOME>t</OUTCOME><OUTCOME>f</OUTCOME></VARIABLE>
<VARIABLE TYPE="nature"><NAME>b</NAME>{outcomes}</VARIABLE>
<DEFINITION><FOR>a</FOR><TABLE>{" ".join(row)}</TABLE></DEFINITION>
<DEFINITION><FOR>b</FOR><GIVEN>a</GIVEN><TABLE>{b_table}</TABLE></DEFINITION>
</NETWORK></BIF>
"""


def _write_mtx(tmp_path, row: list[str]):
    nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
    nodes.write_text(
        "%%MatrixMarket matrix coordinate real general\n%credo beliefs: 2\n"
        f"2 2 2\n1 1 {' '.join(row)}\n2 2 0.3 0.7\n"
    )
    edges.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "%credo shared-potential: 0.8 0.2 0.2 0.8\n2 2 1\n1 2\n"
    )
    return nodes, edges


def _load(fmt: str, row: list[str], ragged: bool, tmp_path) -> BeliefGraph:
    if fmt == "mtx":
        return read_mtx_graph(*_write_mtx(tmp_path, row))
    if fmt == "mtx-stream":
        return load_graph(*_write_mtx(tmp_path, row), stream=True)
    if fmt in ("bif", "xmlbif"):
        path = tmp_path / f"net.{'xml' if fmt == 'xmlbif' else 'bif'}"
        path.write_text(_bif(row, ragged) if fmt == "bif" else _xmlbif(row, ragged))
        return load_graph(path)
    G = nx.Graph()
    G.add_node("a", prior=[float(v) for v in row])
    G.add_edge("a", "b")
    return from_networkx(G)


LOADER_CASES = [
    (fmt, bad, ragged)
    for fmt in ("mtx", "mtx-stream", "bif", "xmlbif", "networkx")
    for bad in BAD_PRIORS
    for ragged in ((False, True) if fmt in ("bif", "xmlbif") else (False,))
]


@pytest.mark.parametrize(
    "fmt, bad, ragged", LOADER_CASES,
    ids=[f"{f}-{b}-{'ragged' if r else 'uniform'}" for f, b, r in LOADER_CASES],
)
def test_loader_rejects_or_repairs_a_bad_prior(fmt, bad, ragged, tmp_path):
    """Every loader, uniform or ragged, treats a NaN, negative or
    zero-sum prior as the dense route does: a ``ValueError``, or (zero
    sum only) a uniform prior."""
    try:
        g = _load(fmt, BAD_PRIORS[bad], ragged, tmp_path)
    except ValueError:
        return
    assert bad == "zero_sum", f"{fmt} loaded a {bad} prior: {g.priors[0]}"
    np.testing.assert_array_equal(g.priors[0, : g.dims[0]], [0.5, 0.5])
    assert not g.priors[0, g.dims[0]:].any()


@pytest.mark.parametrize("fmt, ragged", sorted({(f, r) for f, _, r in LOADER_CASES}))
def test_loader_cases_load_a_good_prior(fmt, ragged, tmp_path):
    """The control: the same files with a valid prior load, so every
    rejection above comes from the prior."""
    g = _load(fmt, ["0.25", "0.75"], ragged, tmp_path)
    assert g.uniform != ragged
    np.testing.assert_allclose(g.priors[0, :2], [0.25, 0.75], rtol=1e-6)
