"""The Table 1 benchmark catalogue.

All 34 benchmark graphs of the paper, each tagged with its generator kind:
the synthetic ``NxM`` family is reproduced exactly; the network-repository
graphs (Kronecker, social, web) are generated stand-ins of the same size
and degree shape (see DESIGN.md's substitution table).

Because the full-size suite needs hours and tens of GB on one CPU core,
graphs build through a **profile** that caps sizes while preserving
density (nodes and edges scale together):

* ``paper`` — exact Table 1 sizes;
* ``ci`` — nodes ≤ 2 M, edges ≤ 8 M (default for the benchmark harness);
* ``quick`` — nodes ≤ 200 k, edges ≤ 800 k (default for tests).

Select with ``REPRO_PROFILE`` or the ``profile=`` argument.  Every scaled
build records its scale factor so the harness can annotate results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.core.graph import BeliefGraph
from repro.graphs.kronecker import rmat_edges
from repro.graphs.social import preferential_attachment_edges
from repro.graphs.synthetic import random_edges

__all__ = [
    "BenchmarkGraph",
    "SUITE",
    "FIGURE_SUBSET",
    "PROFILES",
    "resolve_profile",
    "get_benchmark",
    "build_graph",
    "suite_graphs",
]


@dataclass(frozen=True)
class BenchmarkGraph:
    """One Table 1 row."""

    name: str
    abbrev: str
    kind: str  # "synthetic" | "kronecker" | "social"
    n_nodes: int
    n_edges: int
    description: str

    def scaled(self, max_nodes: int, max_edges: int) -> tuple[int, int, float]:
        """(nodes, edges, factor) after density-preserving capping."""
        factor = min(1.0, max_nodes / self.n_nodes, max_edges / self.n_edges)
        if factor >= 1.0:
            return self.n_nodes, self.n_edges, 1.0
        return (
            max(10, int(self.n_nodes * factor)),
            max(20, int(self.n_edges * factor)),
            factor,
        )


def _syn(n: int, m: int) -> BenchmarkGraph:
    return BenchmarkGraph(
        name=f"{n}_nodes_{m}_edges",
        abbrev=f"{_abbr(n)}x{_abbr(m)}",
        kind="synthetic",
        n_nodes=n,
        n_edges=m,
        description=f"Synthetic {n:,}x{m:,} graph",
    )


def _abbr(x: int) -> str:
    if x >= 1_000_000 and x % 1_000_000 == 0:
        return f"{x // 1_000_000}M"
    if x >= 1_000 and x % 1_000 == 0:
        return f"{x // 1_000}k"
    return str(x)


# Table 1, left + right columns (AVG is derived, not a graph).
SUITE: dict[str, BenchmarkGraph] = {
    g.abbrev: g
    for g in [
        _syn(10, 40),
        _syn(100, 400),
        _syn(1_000, 4_000),
        _syn(10_000, 40_000),
        _syn(100_000, 400_000),
        _syn(200_000, 800_000),
        _syn(400_000, 1_600_000),
        _syn(600_000, 1_200_000),
        _syn(800_000, 3_200_000),
        _syn(1_000_000, 4_000_000),
        _syn(2_000_000, 8_000_000),
        BenchmarkGraph("kron-g500-logn16", "K16", "kronecker", 55_321, 2_456_398, "Kronecker generator"),
        BenchmarkGraph("kron-g500-logn17", "K17", "kronecker", 131_071, 5_114_375, "Kronecker generator"),
        BenchmarkGraph("kron-g500-logn18", "K18", "kronecker", 262_144, 10_583_222, "Kronecker generator"),
        BenchmarkGraph("kron-g500-logn19", "K19", "kronecker", 409_175, 21_781_478, "Kronecker generator"),
        BenchmarkGraph("kron-g500-logn20", "K20", "kronecker", 795_241, 44_620_272, "Kronecker generator"),
        BenchmarkGraph("kron-g500-logn21", "K21", "kronecker", 1_544_087, 91_042_010, "Kronecker generator"),
        BenchmarkGraph("hollywood-2009", "HO", "social", 83_832, 549_038, "Hollywood actor network"),
        BenchmarkGraph("loc-gowalla", "GO", "social", 196_591, 1_900_654, "Gowalla location-based social network"),
        BenchmarkGraph("soc-google-plus", "GP", "social", 211_187, 1_506_896, "Google+ social network"),
        BenchmarkGraph("web-Stanford", "ST", "social", 281_903, 2_312_497, "Web graph of stanford.edu"),
        BenchmarkGraph("soc-twitter-follows-mun", "TF", "social", 465_017, 835_423, "Twitter followers graph"),
        BenchmarkGraph("web-it-2004", "IT", "social", 509_338, 7_178_413, "IT network graph"),
        BenchmarkGraph("soc-delicious", "DE", "social", 536_108, 1_365_961, "Delicious social network"),
        BenchmarkGraph("com-youtube", "YO", "social", 1_134_890, 2_987_624, "Friendship network on YouTube"),
        BenchmarkGraph("soc-pokec-relationships", "PO", "social", 1_632_803, 30_622_564, "Pokec social network graph"),
        BenchmarkGraph("web-wiki-ch-internal", "WW", "social", 1_930_275, 9_359_108, "Web graph of Chinese Wikipedia"),
        BenchmarkGraph("wiki-Talk", "WT", "social", 2_394_385, 5_021_410, "Communication network of English Wikipedia"),
        BenchmarkGraph("soc-orkut", "OR", "social", 2_997_166, 106_349_209, "Orkut social network"),
        BenchmarkGraph("wikipedia-link-en", "WL", "social", 3_371_716, 31_956_268, "Wikipedia English internal links"),
        BenchmarkGraph("soc-LiveJournal1", "LJ", "social", 4_846_609, 68_475_391, "LiveJournal social network"),
        BenchmarkGraph("tech-p2p", "TP", "social", 5_792_297, 8_105_822, "eDonkey p2p network"),
        BenchmarkGraph("friendster", "FR", "social", 8_658_744, 55_170_227, "Friendster social network"),
        BenchmarkGraph("soc-twitter-2010", "TW", "social", 21_297_772, 265_025_809, "Twitter social network"),
    ]
}

#: the bold Table 1 rows the paper renders figures for (binary use case);
#: the exact bolding is not recoverable from the text, so we take the
#: graphs the running text names plus a size-representative cross-section
FIGURE_SUBSET = (
    "10x40",
    "1kx4k",
    "100kx400k",
    "GO",
    "K17",
    "600kx1200k",
    "YO",
    "PO",
    "2Mx8M",
    "K21",
    "LJ",
)

PROFILES: dict[str, tuple[int, int]] = {
    "paper": (10**12, 10**12),
    "ci": (2_000_000, 8_000_000),
    "quick": (200_000, 800_000),
    "smoke": (20_000, 80_000),
    # tiny builds for convergence probes (repro.credo.analytic)
    "probe": (5_000, 20_000),
}


def resolve_profile(profile: str | None = None) -> tuple[str, int, int]:
    """(name, max_nodes, max_edges) from the argument or REPRO_PROFILE."""
    name = profile or os.environ.get("REPRO_PROFILE", "quick")
    try:
        max_nodes, max_edges = PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; known: {sorted(PROFILES)}") from None
    return name, max_nodes, max_edges


def get_benchmark(abbrev: str) -> BenchmarkGraph:
    """Look a Table 1 row up by abbreviation (e.g. \"K21\")."""
    try:
        return SUITE[abbrev]
    except KeyError:
        raise KeyError(f"unknown benchmark {abbrev!r}; known: {sorted(SUITE)}") from None


def build_graph(
    bench: BenchmarkGraph | str,
    use_case: str = "binary",
    *,
    profile: str | None = None,
    seed: int = 0,
) -> tuple[BeliefGraph, float]:
    """Materialize one benchmark graph under a use case.

    Returns ``(graph, scale_factor)`` — the factor is 1.0 when the profile
    admitted the paper-scale sizes.
    """
    from repro.usecases import USE_CASES  # deferred: avoids a module cycle

    if isinstance(bench, str):
        bench = get_benchmark(bench)
    if use_case not in USE_CASES:
        raise KeyError(f"unknown use case {use_case!r}; known: {sorted(USE_CASES)}")
    _, max_nodes, max_edges = resolve_profile(profile)
    n, m, factor = bench.scaled(max_nodes, max_edges)
    rng = np.random.default_rng(seed)

    if bench.kind == "synthetic":
        edges = random_edges(n, m, rng)
    elif bench.kind == "kronecker":
        log2 = max(4, math.ceil(math.log2(max(n, 16))))
        edges = rmat_edges(log2, m, rng)
        edges = edges[edges[:, 0] != edges[:, 1]]
        n = 1 << log2
    elif bench.kind == "social":
        per_node = max(1, round(m / max(n - 1, 1)))
        edges = preferential_attachment_edges(n, per_node, rng)
    else:
        raise ValueError(f"unknown benchmark kind {bench.kind!r}")

    priors, potential = _use_case_overlay(use_case, rng, n)
    graph = BeliefGraph.from_undirected(priors, edges, potential)
    return graph, factor


def _use_case_overlay(use_case: str, rng: np.random.Generator, n: int):
    from repro.usecases.binary import binary_use_case
    from repro.usecases.image import image_use_case
    from repro.usecases.virus import virus_use_case

    if use_case == "binary":
        return binary_use_case(rng, n)
    if use_case == "virus":
        return virus_use_case(rng, n)
    return image_use_case(rng, n)


def suite_graphs(
    *,
    use_cases: tuple[str, ...] = ("binary", "virus", "image"),
    subset: tuple[str, ...] | None = None,
    profile: str | None = None,
    seed: int = 0,
):
    """Yield ``(bench, use_case, graph, scale_factor)`` over the catalogue —
    the full 34 × 3 = 102-variant sweep by default (the paper's "total of
    132 graphs" counts further belief-encoding permutations)."""
    names = subset if subset is not None else tuple(SUITE)
    for abbrev in names:
        bench = get_benchmark(abbrev)
        for use_case in use_cases:
            graph, factor = build_graph(bench, use_case, profile=profile, seed=seed)
            yield bench, use_case, graph, factor
