"""Ablation — scheduling policies (DESIGN.md §6 extension).

Compares the full update-scheduling ladder through the unified driver
(``LoopyBP(schedule=...)``, one code path for every policy):

1. full synchronous sweeps (no queue);
2. the paper's FIFO unconverged-element queue (§3.5);
3. max-residual priority scheduling (the Gonzalez et al. policy the
   paper's related-work section positions against), each round the
   whole eligible frontier;
4. a relaxed priority queue (Aksenov et al.): the same frontier batches
   with O(1) contention-free queue operations;
plus damping (a robustness knob the paper does not use).

The quantity compared is *edge updates until convergence* — the
hardware-independent measure of scheduling quality.
"""

import pytest

from harness import format_table, save_result
from repro.core.convergence import ConvergenceCriterion
from repro.core.loopy import LoopyBP
from repro.core.scheduler import SCHEDULES
from repro.graphs.suite import build_graph

GRAPHS = ["1kx4k", "GO", "K16"]
_CRIT = ConvergenceCriterion(threshold=1e-3, max_iterations=200)

_LABELS = {
    "sync": "full sweeps",
    "work_queue": "work queue (paper)",
    "residual": "residual priority",
    "relaxed": "relaxed priority",
}


@pytest.fixture(scope="module")
def scheduling_results():
    out = {}
    for abbrev in GRAPHS:
        graph, _ = build_graph(abbrev, "binary", profile="smoke")
        per_schedule = {}
        for schedule in SCHEDULES:
            result = LoopyBP(
                paradigm="edge", schedule=schedule, criterion=_CRIT
            ).run(graph.copy())
            per_schedule[schedule] = result
        out[abbrev] = per_schedule
    return out


def test_scheduling_ablation_table(scheduling_results):
    rows = []
    for abbrev, res in scheduling_results.items():
        rows.append(
            (abbrev, *(f"{res[s].updates:,}" for s in SCHEDULES))
        )
    table = format_table(
        ["graph", *(f"{_LABELS[s]} (edge updates)" for s in SCHEDULES)],
        rows,
        title="Ablation: edge updates until convergence by scheduling policy",
    )
    save_result("EXT_scheduling_ablation", table)
    for res in scheduling_results.values():
        assert all(r.converged for r in res.values())
        # the paper's queue beats blind sweeps ...
        assert res["work_queue"].updates <= res["sync"].updates


def test_residual_beats_sweeps(scheduling_results):
    for res in scheduling_results.values():
        assert res["residual"].updates < res["sync"].updates


def test_relaxed_tracks_residual(scheduling_results):
    """A whole-frontier batch needs no priority order, so the relaxed
    queue does residual's updates exactly, below blind sweeps, while its
    O(1) queue operations cost far fewer atomics than the residual heap."""
    rows = []
    for abbrev, res in scheduling_results.items():
        relaxed, residual, sweeps = res["relaxed"], res["residual"], res["sync"]
        rows.append(
            (abbrev,
             f"{relaxed.updates:,}",
             f"{relaxed.updates / residual.updates:.2f}",
             f"{relaxed.run_stats.total.atomic_ops:,}",
             f"{residual.run_stats.total.atomic_ops:,}")
        )
        assert relaxed.updates == residual.updates < sweeps.updates
        assert (
            relaxed.run_stats.total.atomic_ops
            < residual.run_stats.total.atomic_ops
        )
    table = format_table(
        ["graph", "relaxed updates", "vs residual", "relaxed atomics",
         "residual atomics"],
        rows,
        title="Ablation: relaxed priority — residual's updates, atomics far below",
    )
    save_result("EXT_relaxed_scheduling", table)


def test_damping_ablation():
    """Damping trades per-iteration progress for stability; on these
    well-behaved potentials it should not break convergence."""
    graph, _ = build_graph("1kx4k", "binary", profile="smoke")
    rows = []
    for damping in (0.0, 0.25, 0.5):
        result = LoopyBP(damping=damping, criterion=_CRIT).run(graph.copy())
        rows.append((damping, result.iterations, result.converged))
        assert result.converged
    table = format_table(
        ["damping", "iterations", "converged"],
        rows,
        title="Ablation: damping factor vs iterations (node paradigm)",
    )
    save_result("EXT_damping_ablation", table)
    # zero damping converges fastest on attractive, tree-like potentials
    assert rows[0][1] <= rows[-1][1]


def test_benchmark_residual_scheduler(benchmark):
    graph, _ = build_graph("1kx4k", "binary", profile="smoke")
    benchmark.pedantic(
        lambda: LoopyBP(
            paradigm="edge", schedule="residual", criterion=_CRIT
        ).run(graph.copy()),
        rounds=2, iterations=1,
    )
