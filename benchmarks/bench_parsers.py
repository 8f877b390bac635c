"""E4 — §3.2.1: input-processor comparison.

The paper's numbers: family-out parses in 162 µs (BIF) / 638 µs
(XML-BIF); a ~1000-node/2000-edge network takes 21 ms (BIF) / 83 ms
(XML-BIF) / 2 ms (MTX); the largest XML-BIF they could hold (100k nodes)
took 8.4 s while MTX parsed a similar graph in 0.28 s.

Shapes asserted: MTX beats BIF beats XML-BIF at every size, by growing
factors; MTX streams (bounded memory) while BIF/XML-BIF must materialize
the whole document.
"""

import time

import numpy as np
import pytest

from harness import format_table, save_result
from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential
from repro.io.bif import parse_bif, write_bif
from repro.io.mtx import read_mtx_graph, write_mtx_graph
from repro.io.network import BayesianNetwork, Cpt, Variable, network_to_belief_graph
from repro.io.xmlbif import parse_xmlbif, write_xmlbif

FAMILY_OUT = """
network family_out { }
variable fo { type discrete [ 2 ] { t, f }; }
variable bp { type discrete [ 2 ] { t, f }; }
variable lo { type discrete [ 2 ] { t, f }; }
variable do { type discrete [ 2 ] { t, f }; }
variable hb { type discrete [ 2 ] { t, f }; }
probability ( fo ) { table 0.15, 0.85; }
probability ( bp ) { table 0.01, 0.99; }
probability ( lo | fo ) { (t) 0.6, 0.4; (f) 0.05, 0.95; }
probability ( do | fo, bp ) {
  (t, t) 0.99, 0.01; (t, f) 0.9, 0.1; (f, t) 0.97, 0.03; (f, f) 0.3, 0.7;
}
probability ( hb | do ) { (t) 0.7, 0.3; (f) 0.01, 0.99; }
"""


def _random_network(n_nodes: int, seed: int = 0) -> BayesianNetwork:
    """A random single-parent-chain Bayesian network of ``n_nodes``
    variables and ``n_nodes − 1`` edges (representable in all formats)."""
    rng = np.random.default_rng(seed)
    net = BayesianNetwork(name=f"synthetic_{n_nodes}")
    for i in range(n_nodes):
        net.add_variable(Variable(f"v{i}", ["a", "b"]))
    net.add_cpt(Cpt("v0", [], np.array([0.4, 0.6])))
    for i in range(1, n_nodes):
        parent = f"v{rng.integers(0, i)}"
        table = rng.dirichlet([2, 2], size=2)
        net.add_cpt(Cpt(f"v{i}", [parent], table))
    return net


def _random_mtx_files(n_nodes: int, n_edges: int, tmp, seed: int = 0):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n_nodes, size=(n_edges, 2))
    graph = BeliefGraph.from_undirected(
        rng.dirichlet([1, 1], size=n_nodes), edges, attractive_potential(2, 0.8)
    )
    node_path, edge_path = tmp / "g.nodes", tmp / "g.edges"
    write_mtx_graph(graph, node_path, edge_path)
    return node_path, edge_path


def _wall(fn, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_parser_comparison_table(tmp_path):
    rows = []
    timings = {}
    # family-out
    xml_src = write_xmlbif(parse_bif(FAMILY_OUT))
    timings["family-out"] = (
        _wall(lambda: parse_bif(FAMILY_OUT)),
        _wall(lambda: parse_xmlbif(xml_src)),
        None,
    )
    # 1000-node networks in all three formats
    net1k = _random_network(1000)
    bif1k, xml1k = write_bif(net1k), write_xmlbif(net1k)
    mtx1k = _random_mtx_files(1000, 2000, tmp_path, seed=1)
    timings["1k nodes"] = (
        _wall(lambda: parse_bif(bif1k)),
        _wall(lambda: parse_xmlbif(xml1k)),
        _wall(lambda: read_mtx_graph(*mtx1k)),
    )
    # 10k: BIF-family formats already struggling; MTX cruises
    net10k = _random_network(10_000)
    bif10k, xml10k = write_bif(net10k), write_xmlbif(net10k)
    mtx10k = _random_mtx_files(10_000, 20_000, tmp_path, seed=2)
    timings["10k nodes"] = (
        _wall(lambda: parse_bif(bif10k), repeats=1),
        _wall(lambda: parse_xmlbif(xml10k), repeats=1),
        _wall(lambda: read_mtx_graph(*mtx10k), repeats=1),
    )
    for name, (bif_t, xml_t, mtx_t) in timings.items():
        rows.append(
            (name,
             f"{bif_t * 1e3:.3f} ms",
             f"{xml_t * 1e3:.3f} ms",
             f"{mtx_t * 1e3:.3f} ms" if mtx_t else "n/a",
             f"{bif_t / mtx_t:.1f}x" if mtx_t else "")
        )
    table = format_table(
        ["network", "BIF parse", "XML-BIF parse", "MTX parse", "BIF/MTX"],
        rows,
        title="E4 (§3.2.1): input processors "
        "(paper: 162us/638us family-out; 21ms/83ms/2ms at 1k nodes; "
        "8.4s XML-BIF vs 0.28s MTX at 100k)",
    )
    save_result("E04_parser_comparison", table)

    # Core shape: the MTX dual-file format wins by an order of magnitude
    # at every size and the gap does not collapse as networks grow.
    # (Deviation from the paper: our BIF parser is pure Python while
    # XML-BIF rides the C-accelerated ElementTree, so BIF and XML-BIF
    # swap places — see EXPERIMENTS.md E4.)
    bif_t, xml_t, mtx_t = timings["1k nodes"]
    assert mtx_t * 5 < min(bif_t, xml_t)
    bif10, xml10, mtx10 = timings["10k nodes"]
    assert mtx10 * 5 < min(bif10, xml10)
    assert bif10 / mtx10 > bif_t / mtx_t * 0.5  # gap does not collapse


def test_mtx_streams_with_bounded_memory(tmp_path):
    """§3.2: MTX is read 'line-by-line ... without loading either fully
    into memory'.  The readers only ever hold one bounded chunk of lines
    plus the output arrays; BIF/XML-BIF must slurp the document."""
    import tracemalloc

    node_path, edge_path = _random_mtx_files(20_000, 40_000, tmp_path, seed=3)
    file_bytes = node_path.stat().st_size + edge_path.stat().st_size

    tracemalloc.start()
    graph = read_mtx_graph(node_path, edge_path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    graph_bytes = sum(graph.memory_footprint().values())
    # peak stays within a small multiple of the binary graph — the reader
    # never materializes the text, unlike BIF/XML-BIF which must hold the
    # whole document plus its token/DOM expansion
    assert peak < graph_bytes * 4 + 2**20
    assert file_bytes > 0  # sanity: there was a real file to not-slurp


def test_benchmark_parse_bif_1k(benchmark):
    src = write_bif(_random_network(1000))
    benchmark(parse_bif, src)


def test_benchmark_parse_xmlbif_1k(benchmark):
    src = write_xmlbif(_random_network(1000))
    benchmark(parse_xmlbif, src)


def test_benchmark_parse_mtx_1k(benchmark, tmp_path):
    node_path, edge_path = _random_mtx_files(1000, 2000, tmp_path)
    benchmark(read_mtx_graph, node_path, edge_path)


def test_benchmark_parse_mtx_100k(benchmark, tmp_path):
    """The paper's 100k-node / 400k-edge MTX parse took 0.28 s."""
    node_path, edge_path = _random_mtx_files(100_000, 400_000, tmp_path, seed=4)
    benchmark.pedantic(read_mtx_graph, args=(node_path, edge_path), rounds=2, iterations=1)
