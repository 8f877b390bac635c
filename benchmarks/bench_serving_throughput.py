"""EXT — serving throughput: micro-batched BP vs one-shot execution.

The serving layer (DESIGN.md §8) amortizes three costs the one-shot CLI
path pays per query — graph residency, backend/schedule selection, and
the BP sweep itself (coalesced across concurrent queries via the
block-diagonal union graph) — plus an LRU result cache on top.  This
experiment quantifies each rung of that ladder under concurrent load:

1. ``one-shot``          — per query: feature extraction + selection +
                           a solo run on a fresh copy (the ``credo run``
                           execution path, minus file parsing);
2. ``serve unbatched``   — resident graph + frozen plan, ``max_batch=1``,
                           cache off (amortized selection only);
3. ``serve batched``     — micro-batching on, cache off;
4. ``serve batched+cache`` — micro-batching on, queries drawn from a
                           finite evidence pool so the cache can hit.

Reported per client count (1 / 8 / 64): sustained queries/sec and
client-observed latency percentiles (p50/p95/p99).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from harness import format_table, save_result
from repro.graphs.synthetic import synthetic_graph
from repro.serve import InferenceServer, ServerConfig

CLIENTS = (1, 8, 64)
QUERIES_PER_CLIENT = 4
#: finite evidence pool -> repeats under load -> cache hits in config 4
EVIDENCE_POOL = 24

N_NODES, N_EDGES, N_STATES = 150, 450, 3


def _graph():
    return synthetic_graph(N_NODES, N_EDGES, n_states=N_STATES, seed=42)


def _evidence(i: int) -> dict[str, int]:
    j = i % EVIDENCE_POOL
    if j % 5 == 0:
        return {}
    return {str((j * 13) % N_NODES): j % N_STATES, str((j * 29) % N_NODES): (j + 1) % N_STATES}


def _drive(issue, n_clients: int) -> dict[str, float]:
    """Fire ``n_clients`` threads, each issuing QUERIES_PER_CLIENT
    queries through ``issue(query_index)``; returns qps + percentiles."""
    latencies: list[float] = []
    lock = threading.Lock()
    start_gate = threading.Event()

    def client(cid: int):
        start_gate.wait()
        mine = []
        for q in range(QUERIES_PER_CLIENT):
            t0 = time.perf_counter()
            issue(cid * QUERIES_PER_CLIENT + q)
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
    for t in threads:
        t.start()
    wall0 = time.perf_counter()
    start_gate.set()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    arr = np.asarray(latencies)
    return {
        "qps": len(arr) / wall,
        "p50": float(np.percentile(arr, 50)) * 1000,
        "p95": float(np.percentile(arr, 95)) * 1000,
        "p99": float(np.percentile(arr, 99)) * 1000,
    }


def _serve_config(max_batch: int, cache: int) -> ServerConfig:
    return ServerConfig(
        max_batch=max_batch,
        cache_capacity=cache,
        queue_capacity=512,
    )


@pytest.fixture(scope="module")
def throughput_results():
    graph = _graph()
    out: dict[str, dict[int, dict[str, float]]] = {}

    # config 1: the one-shot path — selection + solo run per query
    from repro.core.convergence import ConvergenceCriterion
    from repro.core.observation import observe
    from repro.credo.runner import Credo

    credo = Credo(criterion=ConvergenceCriterion(threshold=1e-3, max_iterations=200))
    oneshot_lock = threading.Lock()

    def one_shot(i: int):
        view = graph.copy()
        view.invalidate_metadata_cache()  # one-shot pays feature extraction
        for node, state in _evidence(i).items():
            observe(view, node, state)
        # the selector and backends are single-query engines; serialize
        # like N independent `credo run` invocations on one machine
        with oneshot_lock:
            credo.run(view)

    out["one-shot"] = {n: _drive(one_shot, n) for n in CLIENTS}

    configs = [
        ("serve unbatched", _serve_config(max_batch=1, cache=0)),
        ("serve batched", _serve_config(max_batch=32, cache=0)),
        ("serve batched+cache", _serve_config(max_batch=32, cache=256)),
    ]
    for label, config in configs:
        server = InferenceServer(config)
        server.register_model("g", graph.copy())
        try:
            server.query("g", {})  # warm: first union build / JIT-ish paths
            out[label] = {
                n: _drive(lambda i: server.query("g", _evidence(i)), n)
                for n in CLIENTS
            }
        finally:
            server.stop()
    return out


class TestServingThroughput:
    def test_batched_beats_oneshot_at_64_clients(self, throughput_results):
        """The acceptance bar: coalescing concurrent queries into one
        batched sweep must win on throughput under heavy concurrency."""
        batched = throughput_results["serve batched"][64]["qps"]
        oneshot = throughput_results["one-shot"][64]["qps"]
        assert batched > oneshot, (batched, oneshot)

    def test_cache_at_least_matches_batched(self, throughput_results):
        cached = throughput_results["serve batched+cache"][64]["qps"]
        batched = throughput_results["serve batched"][64]["qps"]
        assert cached > batched * 0.8  # hits should help, never cripple

    def test_report(self, throughput_results):
        rows = []
        for label, by_clients in throughput_results.items():
            for n in CLIENTS:
                r = by_clients[n]
                rows.append(
                    [label, n, r["qps"], r["p50"], r["p95"], r["p99"]]
                )
        speedup = (
            throughput_results["serve batched"][64]["qps"]
            / throughput_results["one-shot"][64]["qps"]
        )
        table = format_table(
            ["configuration", "clients", "queries/s", "p50 ms", "p95 ms", "p99 ms"],
            rows,
            title=(
                "EXT — serving throughput: one-shot vs resident vs micro-batched "
                f"({N_NODES}x{N_EDGES} synthetic, {N_STATES} states, "
                f"{QUERIES_PER_CLIENT} queries/client, evidence pool {EVIDENCE_POOL})"
            ),
        )
        table += (
            f"\nbatched vs one-shot at 64 clients: {speedup:.2f}x queries/sec"
        )
        save_result("EXT_serving_throughput", table)
