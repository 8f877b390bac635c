"""EXT — compiled sweep kernels: fused executor vs interpreted, wall clock.

The compiled executor (DESIGN.md §13) runs every sweep — full or
partial — as one fused gather–scatter program over the swept edges.
Two claims are measured here at the bench_fig7 200k×800k scale, real
wall clock, under the sync schedule (every sweep full) and the §3.5
work queue (every sweep after the first partial):

1. **Raw speed** — both single-threaded C backends clear a ≥2× wall-clock
   speedup over the interpreted executor on the same graph, under both
   schedules: partial sweeps no longer fall back to the interpreted
   kernels.
2. **Bit-exactness** — the posteriors are ``np.array_equal`` to the
   interpreted run and the iteration counts match, because every edge
   range the fused program walks (a natural-order slice, the ascending
   in-edges of the active nodes, a chunk of the active edges) feeds
   ``np.bincount`` the same per-destination addition order as the
   interpreted kernels, and every fused reduction (column-loop row
   sums, ``np.take`` gathers, scratch-buffer combines) is bitwise
   identical to the numpy reduce it replaces.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from harness import DEFAULT_PROFILE, format_table, save_result
from repro.backends import CEdgeBackend, CNodeBackend
from repro.graphs.suite import build_graph

GRAPH = "200kx800k"
USE_CASE = "binary"
SPEEDUP_BAR = 2.0  # acceptance: compiled vs interpreted, both schedules


def _timed_run(backend_cls, graph, schedule, executor):
    start = time.perf_counter()
    result = backend_cls().run(graph, schedule=schedule, executor=executor)
    return time.perf_counter() - start, result


@pytest.fixture(scope="module")
def executor_results():
    rows = []
    for backend_cls in (CNodeBackend, CEdgeBackend):
        for schedule in ("sync", "work_queue"):
            graph, _ = build_graph(GRAPH, USE_CASE, profile=DEFAULT_PROFILE)
            t_interp, r_interp = _timed_run(
                backend_cls, graph.copy(), schedule, "interpreted"
            )
            t_comp, r_comp = _timed_run(
                backend_cls, graph.copy(), schedule, "compiled"
            )
            rows.append(
                {
                    "backend": backend_cls.name,
                    "schedule": schedule,
                    "interp_s": t_interp,
                    "compiled_s": t_comp,
                    "speedup": t_interp / t_comp,
                    "iters": r_comp.iterations,
                    "edges": r_comp.stats.edges_processed,
                    "bitexact": bool(
                        np.array_equal(r_interp.beliefs, r_comp.beliefs)
                    )
                    and r_interp.iterations == r_comp.iterations,
                }
            )
    return rows


def test_compiled_speedup(executor_results):
    """Both C backends ≥2× wall clock under full and partial sweeps."""
    for row in executor_results:
        assert row["speedup"] >= SPEEDUP_BAR, row


def test_compiled_posteriors_bitexact(executor_results):
    """Every (backend, schedule) cell is bitwise identical."""
    for row in executor_results:
        assert row["bitexact"], row


def test_report(executor_results):
    table = format_table(
        [
            "backend",
            "schedule",
            "interpreted s",
            "compiled s",
            "speedup",
            "iters",
            "edges swept",
            "bitexact",
        ],
        [
            [
                r["backend"],
                r["schedule"],
                r["interp_s"],
                r["compiled_s"],
                f"{r['speedup']:.2f}x",
                r["iters"],
                r["edges"],
                "yes" if r["bitexact"] else "NO",
            ]
            for r in executor_results
        ],
        title=(
            f"EXTc — compiled executor vs interpreted "
            f"({GRAPH}, {USE_CASE}, profile={DEFAULT_PROFILE})"
        ),
    )
    save_result("EXTc_compiled_executor", table)
