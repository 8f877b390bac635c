"""E5 — §3.4: array-of-structs vs struct-of-arrays belief storage.

The paper profiled both layouts with cachegrind on the synthetic graphs
up to 100k nodes and found "the AoS approach has circa 56% fewer data
cache reads and writes", settling on AoS.

We reproduce the cache-access accounting through the layout-aware cost
model (lines touched per logical access) and check the modeled runtimes
order the same way.  Layout variants come from the registry in
``repro.kernels.layout`` (DESIGN.md §13): each graph is built once and
converted with :func:`with_layout` instead of being rebuilt per layout
toggle.
"""

import numpy as np
import pytest

from harness import format_table, save_result
from repro.backends.c_backends import CEdgeBackend, CNodeBackend
from repro.core.beliefs import make_store
from repro.graphs.suite import build_graph
from repro.kernels.layout import LAYOUTS, with_layout

SUBSET = ["10x40", "100x400", "1kx4k", "10kx40k", "100kx400k"]


def _lines_per_access(b: int) -> dict[str, float]:
    dims = np.full(100, b)
    return {
        layout: make_store(dims, layout).cache_lines_per_access()
        for layout in LAYOUTS
    }


def test_cache_access_ratio():
    rows = []
    for b in (2, 3, 32):
        lines = _lines_per_access(b)
        fewer = 1.0 - lines["aos"] / lines["soa"]
        rows.append((b, f"{lines['aos']:.2f}", f"{lines['soa']:.2f}", f"{fewer:.0%}"))
    table = format_table(
        ["beliefs", "AoS lines/access", "SoA lines/access", "AoS fewer accesses"],
        rows,
        title="E5 (§3.4): cache lines touched per belief access "
        "(paper: AoS has ~56% fewer data cache reads+writes)",
    )
    save_result("E05a_aos_soa_cache", table)
    fewer = 1.0 - _lines_per_access(2)["aos"] / _lines_per_access(2)["soa"]
    assert 0.4 < fewer < 0.7  # the paper's ~56 % band


@pytest.mark.parametrize("paradigm", ["node", "edge"])
def test_aos_faster_modeled(paradigm):
    backend = CNodeBackend() if paradigm == "node" else CEdgeBackend()
    rows = []
    for abbrev in SUBSET:
        g_aos, _ = build_graph(abbrev, "binary", profile="quick")
        g_soa = with_layout(g_aos, "soa")
        t_aos = backend.run(g_aos).modeled_time
        t_soa = backend.run(g_soa).modeled_time
        rows.append((abbrev, t_aos, t_soa, f"{t_soa / t_aos:.2f}x"))
        assert t_aos <= t_soa
    table = format_table(
        ["graph", f"{backend.name} AoS (s)", f"{backend.name} SoA (s)", "SoA/AoS"],
        rows,
        title=f"E5 (§3.4): modeled runtime by layout, {backend.name}",
    )
    save_result(f"E05b_aos_soa_{paradigm}", table)


def test_layout_conversion_preserves_posteriors():
    """Layout is storage only: converting through every registered layout
    leaves the converged posteriors bitwise unchanged."""
    base, _ = build_graph("100x400", "binary", profile="quick")
    reference = CNodeBackend().run(base.copy()).beliefs
    for layout in LAYOUTS:
        # copy(): with_layout returns the graph itself when the layout
        # already matches, and runs update beliefs in place
        got = CNodeBackend().run(with_layout(base, layout).copy()).beliefs
        np.testing.assert_array_equal(got, reference)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_benchmark_layout_run(benchmark, layout):
    graph, _ = build_graph("10kx40k", "binary", profile="quick")
    variant = with_layout(graph, layout)
    benchmark.pedantic(
        lambda: CNodeBackend().run(variant.copy()), rounds=3, iterations=1
    )
