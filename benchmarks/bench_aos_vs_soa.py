"""E5 — §3.4: array-of-structs vs struct-of-arrays belief storage.

The paper profiled both layouts with cachegrind on the synthetic graphs
up to 100k nodes and found "the AoS approach has circa 56% fewer data
cache reads and writes", settling on AoS.

Beliefs here are always one dense float32 array, so layout is a
cost-model input only: :func:`repro.backends.cpu_cost.cache_lines_per_access`
gives the lines touched per logical access for ``(layout, width)``.  We
reproduce the cache-access accounting from it and price one run's
per-sweep statistics under both layouts, checking the modeled runtimes
order the same way.
"""

import pytest

from harness import format_table, save_result
from repro.backends.c_backends import CEdgeBackend, CNodeBackend
from repro.backends.cpu_cost import I7_7700HQ, cache_lines_per_access, cpu_sweep_time
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.graphs.suite import build_graph

SUBSET = ["10x40", "100x400", "1kx4k", "10kx40k", "100kx400k"]
PRICED_LAYOUTS = ("aos", "soa")


def _lines_per_access(b: int) -> dict[str, float]:
    return {layout: cache_lines_per_access(layout, b) for layout in PRICED_LAYOUTS}


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


def _modeled_by_layout(graph, backend) -> dict[str, float]:
    """One run's per-sweep statistics priced under each layout, as the
    C backends price a run."""
    config = LoopyConfig(paradigm=backend.paradigm, schedule=backend.default_schedule)
    sweeps = LoopyBP(config).run(graph).run_stats.per_iteration
    b = graph.n_states
    return {
        layout: sum(
            cpu_sweep_time(
                I7_7700HQ,
                sweep,
                gather_bytes=4.0 * b,
                cache_lines_per_access=cache_lines_per_access(layout, b),
            )
            for sweep in sweeps
        )
        for layout in PRICED_LAYOUTS
    }


@pytest.mark.parametrize("paradigm", ["node", "edge"])
def test_aos_faster_modeled(paradigm):
    backend = CNodeBackend() if paradigm == "node" else CEdgeBackend()
    rows = []
    for abbrev in SUBSET:
        graph, _ = build_graph(abbrev, "binary", profile="quick")
        modeled = _modeled_by_layout(graph, backend)
        t_aos, t_soa = modeled["aos"], modeled["soa"]
        rows.append((abbrev, t_aos, t_soa, f"{t_soa / t_aos:.2f}x"))
        assert t_aos <= t_soa
        if abbrev == SUBSET[0]:
            # the backend prices its own runs as AoS
            assert backend.run(graph).modeled_time == t_aos
    table = format_table(
        ["graph", f"{backend.name} AoS (s)", f"{backend.name} SoA (s)", "SoA/AoS"],
        rows,
        title=f"E5 (§3.4): modeled runtime by layout, {backend.name}",
    )
    save_result(f"E05b_aos_soa_{paradigm}", table)


def test_benchmark_c_node_run(benchmark):
    graph, _ = build_graph("10kx40k", "binary", profile="quick")
    benchmark.pedantic(
        lambda: CNodeBackend().run(graph.copy()), rounds=3, iterations=1
    )
