"""The serving layer: batching parity, isolation, admission, caching, metrics.

The load-bearing guarantee tested here is *trajectory parity*: a query
served through the batched union-graph path must produce bit for bit the
posteriors, iteration count and delta history of a solo ``Credo.run`` on
a copied, observed graph — including under concurrent clients with
conflicting evidence.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.convergence import ConvergenceCriterion
from repro.core.edge_kernel import MIN_CHUNK_EDGES
from repro.core.observation import observe
from repro.graphs.grids import grid_graph
from repro.graphs.synthetic import synthetic_graph
from repro.serve import (
    AdmissionQueue,
    AdmissionRejected,
    InferenceServer,
    LatencyHistogram,
    ProtocolError,
    QueryRequest,
    ResultCache,
    ServerConfig,
    cache_key,
    run_batched,
)
from repro.serve.protocol import parse_line

REPO = Path(__file__).parent.parent
FAMILY_BIF = REPO / "examples" / "family_out.bif"


def small_graph(seed=3, n_states=3):
    return synthetic_graph(60, 180, n_states=n_states, seed=seed)


@pytest.fixture
def server():
    srv = InferenceServer(
        ServerConfig(max_batch=8, queue_capacity=32, cache_capacity=64)
    )
    srv.register_model("g", small_graph())
    yield srv
    srv.stop()


def solo_run(graph, config, evidence):
    view = graph.copy()
    for node, state in evidence:
        observe(view, node, state)
    return LoopyBP(config).run(view)


class TestBatchedRunnerParity:
    """run_batched == N independent solo runs, trajectory for trajectory."""

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize(
        "schedule", ["sync", "work_queue", "residual", "relaxed"]
    )
    def test_matches_solo_runs(self, paradigm, schedule):
        config = LoopyConfig(
            paradigm=paradigm,
            criterion=ConvergenceCriterion(threshold=1e-3, max_iterations=100),
            schedule=schedule,
        )
        for n_states in (2, 3, 4):
            graph = small_graph(n_states=n_states)
            evidences = [
                [],
                [(0, 1)],
                [(5, n_states - 1), (17, 0)],
                [(5, 0)],  # conflicts with the previous query's clamp on node 5
            ]
            runs, _ = run_batched(graph, config, evidences)
            for evidence, run in zip(evidences, runs):
                ref = solo_run(graph, config, evidence)
                case = (n_states, evidence)
                assert run.iterations == ref.iterations, case
                assert run.converged == ref.converged, case
                assert run.delta_history == ref.delta_history, case
                np.testing.assert_array_equal(run.beliefs, ref.beliefs, err_msg=str(case))

    def test_replicas_across_the_chunk_floor_stay_exact(self, monkeypatch):
        # one replica clamps all but a 4x4 corner, so its work queue
        # shrinks below MIN_CHUNK_EDGES (one chunk) while the free replica
        # still sweeps all 2,208 edges (eight chunks) in the same union
        # sweep: each must keep its solo chunk boundaries bit for bit
        from repro.kernels.compiled import CompiledExecutor

        graph = grid_graph(24, 24, n_states=2, seed=2, coupling=0.6)
        assert graph.n_edges >= 8 * MIN_CHUNK_EDGES
        rng = np.random.default_rng(0)
        corner = {r * 24 + c for r in range(4) for c in range(4)}
        clamped = [(v, int(rng.integers(2))) for v in range(graph.n_nodes) if v not in corner]
        config = LoopyConfig(
            paradigm="edge",
            schedule="work_queue",
            criterion=ConvergenceCriterion(threshold=1e-6, max_iterations=200),
        )
        sizes = []
        edge_sweep = CompiledExecutor.edge_sweep

        def spy(self, state, active_edges, **kwargs):
            sizes.append(list(kwargs["segments"]))
            return edge_sweep(self, state, active_edges, **kwargs)

        monkeypatch.setattr(CompiledExecutor, "edge_sweep", spy)
        evidences = [[], clamped]
        runs, _ = run_batched(graph, config, evidences)
        assert any(
            min(s) < MIN_CHUNK_EDGES and max(s) >= 8 * MIN_CHUNK_EDGES for s in sizes
        )
        for evidence, run in zip(evidences, runs):
            ref = solo_run(graph, config, evidence)
            assert run.iterations == ref.iterations
            assert run.delta_history == ref.delta_history
            np.testing.assert_array_equal(run.beliefs, ref.beliefs)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_replicas_stop_on_their_own_terms(self, paradigm):
        # every node of the first query is clamped, so its queue drains
        # within two sweeps; the free query runs into the iteration cap
        graph = small_graph()
        config = LoopyConfig(
            paradigm=paradigm,
            schedule="work_queue",
            criterion=ConvergenceCriterion(threshold=1e-9, max_iterations=6),
        )
        evidences = [[(v, v % 3) for v in range(graph.n_nodes)], []]
        runs, _ = run_batched(graph, config, evidences)
        assert runs[0].converged and not runs[1].converged
        assert runs[0].iterations < runs[1].iterations == 6
        for evidence, run in zip(evidences, runs):
            ref = solo_run(graph, config, evidence)
            assert run.iterations == ref.iterations
            assert run.converged == ref.converged
            assert run.delta_history == ref.delta_history
            np.testing.assert_array_equal(run.beliefs, ref.beliefs)

    def test_union_reuse_stays_exact(self):
        graph = small_graph()
        config = LoopyConfig(paradigm="node", schedule="work_queue")
        evidences = [[(2, 1)], [(9, 0)], []]
        runs1, union = run_batched(graph, config, evidences)
        runs2, _ = run_batched(graph, config, evidences, union=union)
        for a, b in zip(runs1, runs2):
            assert a.iterations == b.iterations
            np.testing.assert_array_equal(a.beliefs, b.beliefs)

    def test_master_graph_untouched(self):
        graph = small_graph()
        before = np.array(graph.beliefs.dense(), copy=True)
        run_batched(
            graph,
            LoopyConfig(paradigm="edge", schedule="residual"),
            [[(1, 0)], [(1, 2)]],
        )
        assert not graph.observed.any()
        np.testing.assert_array_equal(graph.beliefs.dense(), before)


class TestEvidenceIsolation:
    def test_concurrent_conflicting_clients_match_baseline(self, server):
        graph = server.registry.get("g").graph
        plan = server.registry.get("g").plan
        # mixed evidence, including direct conflicts on the same node
        evidences = [
            {},
            {"3": 0},
            {"3": 1},
            {"3": 2},
            {"10": 1, "20": 0},
            {"10": 2, "20": 1},
            {},
            {"55": 1},
        ]
        results: list[np.ndarray | None] = [None] * len(evidences)

        def client(i):
            results[i] = server.query_posteriors("g", evidences[i])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(evidences))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i, evidence in enumerate(evidences):
            view = graph.copy()
            for node, state in evidence.items():
                observe(view, node, state)
            ref = np.asarray(
                server.credo.run(view, plan=plan).beliefs, dtype=np.float32
            )
            np.testing.assert_array_equal(results[i], ref)
        # no query leaked evidence into the resident master copy
        assert not graph.observed.any()

    def test_bad_evidence_fails_alone(self, server):
        good = server.query("g", {"1": 1})
        bad = server.query("g", {"no_such_node": 0})
        assert good.ok
        assert not bad.ok and bad.error == "bad_evidence"

    @pytest.mark.parametrize("state", [1.5, True, np.bool_(True), "1.5", None])
    def test_non_integral_state_is_bad_evidence(self, server, state):
        # a state is an index: truncating 1.5 or True to state 1 would
        # answer a question nobody asked
        bad = server.query("g", {"1": state})
        assert not bad.ok and bad.error == "bad_evidence"

    def test_integral_state_spellings_answer_alike(self, server):
        answers = [server.query("g", {"1": s}, use_cache=False)
                   for s in (1, 1.0, "1", np.int64(1))]
        assert all(a.ok for a in answers)
        for a in answers[1:]:
            assert a.posteriors.keys() == answers[0].posteriors.keys()
            for name, probs in a.posteriors.items():
                np.testing.assert_array_equal(probs, answers[0].posteriors[name])


class TestAdmissionControl:
    def test_capacity_plus_one_rejected_with_retry_after(self):
        srv = InferenceServer(
            ServerConfig(queue_capacity=3, max_batch=2), autostart=False
        )
        srv.register_model("g", small_graph())
        tickets = [
            srv.submit(QueryRequest(model="g", evidence={})) for _ in range(3)
        ]
        with pytest.raises(AdmissionRejected) as excinfo:
            srv.submit(QueryRequest(model="g", evidence={}))
        assert excinfo.value.retry_after > 0
        assert srv.stats()["rejected_total"] == 1
        # queued work is served, not dropped, once the worker starts
        srv.start()
        for ticket in tickets:
            response = ticket.future.result(30)
            assert response.ok, response.error
        srv.stop()

    def test_deadline_expired_while_queued(self):
        srv = InferenceServer(ServerConfig(queue_capacity=4), autostart=False)
        srv.register_model("g", small_graph())
        ticket = srv.submit(
            QueryRequest(model="g", evidence={}, deadline_s=-1.0)
        )
        srv.start()
        response = ticket.future.result(30)
        srv.stop()
        assert not response.ok and response.error == "deadline_expired"
        assert srv.stats()["deadline_expired_total"] == 1

    def test_unknown_model_answers_immediately(self):
        srv = InferenceServer(ServerConfig(), autostart=False)
        response = srv.submit(QueryRequest(model="nope")).future.result(1)
        assert not response.ok and response.error == "unknown_model"
        srv.stop()

    def test_queue_pops_model_affine_batches(self):
        queue = AdmissionQueue(capacity=8)
        for model in ("a", "b", "a", "a"):
            queue.submit({"m": model}, model, None)
        batch = queue.pop_batch(4, timeout=0.0)
        # head is 'a'; the later 'a's coalesce past the interleaved 'b'
        assert [t.model for t in batch] == ["a", "a", "a"]
        assert [t.model for t in queue.pop_batch(4, timeout=0.0)] == ["b"]

    def test_lone_ticket_dispatches_without_waiting(self, monkeypatch):
        """Once the head is taken, pop_batch returns what is queued and
        never waits for stragglers."""
        queue = AdmissionQueue(capacity=8)
        queue.submit({"m": "a"}, "a", None)

        def no_wait(timeout=None):
            raise AssertionError("pop_batch waited after taking the head")

        monkeypatch.setattr(queue._not_empty, "wait", no_wait)
        batch = queue.pop_batch(16, timeout=5.0)
        assert [t.model for t in batch] == ["a"]
        assert queue.depth() == 0

    def test_tickets_queued_while_worker_away_coalesce(self):
        srv = InferenceServer(
            ServerConfig(max_batch=8, cache_capacity=0), autostart=False
        )
        srv.register_model("g", small_graph())
        tickets = [
            srv.submit(QueryRequest(model="g", evidence={str(i): i % 3}))
            for i in range(5)
        ]
        srv.start()
        responses = [t.future.result(30) for t in tickets]
        srv.stop()
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [5] * 5

    def test_zero_is_a_valid_clock_reading(self):
        queue = AdmissionQueue(4, clock=lambda: 0.0)
        ticket = queue.submit({}, "a", deadline_s=1.0)
        assert not ticket.expired(0.0)
        assert not ticket.expired()
        assert ticket.expired(1.5)

    def test_server_times_tickets_on_the_admission_clock(self):
        """Queue wait, deadline expiry and total time all read the clock
        that stamped the ticket, not ``time.monotonic``."""
        now = [1000.0]
        srv = InferenceServer(ServerConfig(cache_capacity=0), autostart=False)
        srv.admission = AdmissionQueue(4, clock=lambda: now[0])
        srv.register_model("g", small_graph())
        late = srv.submit(QueryRequest(model="g", evidence={}, deadline_s=5.0))
        fresh = srv.submit(QueryRequest(model="g", evidence={"1": 0}, deadline_s=50.0))
        now[0] += 10.0  # the injected clock passes late's deadline only
        srv.start()
        late_response = late.future.result(30)
        fresh_response = fresh.future.result(30)
        srv.stop()
        assert not late_response.ok and late_response.error == "deadline_expired"
        assert fresh_response.ok
        assert fresh_response.timings["total_s"] == pytest.approx(10.0)
        assert srv.stats()["deadline_expired_total"] == 1


class TestResultCache:
    def test_hit_and_copy_isolation(self, server):
        first = server.query("g", {"2": 1})
        second = server.query("g", {"2": 1})
        assert not first.cached and second.cached
        np.testing.assert_allclose(
            list(first.posteriors.values()), list(second.posteriors.values())
        )
        assert server.stats()["cache"]["hits"] == 1

    def test_use_cache_false_bypasses(self, server):
        server.query("g", {"4": 0})
        bypass = server.query("g", {"4": 0}, use_cache=False)
        assert not bypass.cached

    def test_reload_invalidates_via_generation(self, tmp_path):
        path = tmp_path / "family.bif"
        path.write_text(FAMILY_BIF.read_text())
        srv = InferenceServer(ServerConfig(max_batch=4))
        srv.load_model("fam", path)
        warm = srv.query("fam", {"hear_bark": 0})
        assert srv.query("fam", {"hear_bark": 0}).cached
        srv.reload_model("fam")
        fresh = srv.query("fam", {"hear_bark": 0})
        assert not fresh.cached  # generation bumped -> old key unreachable
        np.testing.assert_allclose(
            list(warm.posteriors.values()),
            list(fresh.posteriors.values()),
            atol=1e-6,
        )
        srv.stop()

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [cache_key("m", 1, ((i, 0),), 1e-3, 200, "b", "s") for i in range(3)]
        for key in keys:
            cache.put(key, (np.zeros(1), 1, True))
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2]) is not None
        assert cache.stats()["evictions"] == 1


class TestAmortizedSelection:
    def test_selection_runs_once_per_model(self):
        srv = InferenceServer(ServerConfig(max_batch=4), autostart=False)
        calls = []
        original = srv.credo.plan

        def counting_plan(graph, **kwargs):
            calls.append(1)
            return original(graph, **kwargs)

        srv.credo.plan = counting_plan
        srv.register_model("g", small_graph())
        srv.start()
        for i in range(5):
            assert srv.query("g", {str(i): 0}).ok
        srv.stop()
        assert len(calls) == 1

    @pytest.mark.parametrize("backend", ["c-nod", "c-node:bogus"])
    def test_unrunnable_backend_fails_at_registration(self, backend):
        # registration plans the model, so a name no query could run
        # is refused before the model is served
        srv = InferenceServer(ServerConfig(backend=backend), autostart=False)
        with pytest.raises((KeyError, ValueError)):
            srv.register_model("g", small_graph())
        assert srv.registry.names() == []


class TestMetrics:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.record(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 100
        # log buckets (2 per octave) bound the estimate, not pin it
        assert 0.030 <= snap["p50_s"] <= 0.100
        assert snap["p95_s"] <= snap["p99_s"] <= snap["max_s"] * 1.5

    def test_snapshot_shape(self, server):
        server.query("g", {"1": 1})
        snap = server.stats()
        for key in (
            "requests_total",
            "rejected_total",
            "queue_depth",
            "latency",
            "batch",
            "cache",
            "backends",
            "models",
        ):
            assert key in snap
        assert set(snap["latency"]) == {"queue_wait", "select", "run", "total"}
        assert snap["latency"]["run"]["count"] >= 1
        json.dumps(snap)  # the snapshot must be wire-serializable


class TestProtocol:
    def test_parse_defaults_to_query(self):
        assert parse_line('{"model": "g"}')["op"] == "query"

    @pytest.mark.parametrize(
        "line", ["not json", "[1,2]", '{"op": 3}']
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            parse_line(line)

    def test_request_validation(self):
        with pytest.raises(ProtocolError):
            QueryRequest.from_payload({"op": "query"})  # no model
        with pytest.raises(ProtocolError):
            QueryRequest.from_payload({"model": "g", "evidence": [1]})
        request = QueryRequest.from_payload(
            {"model": "g", "evidence": {"a": "1"}, "id": 7}
        )
        assert request.evidence == {"a": 1} and request.id == "7"

    @pytest.mark.parametrize(
        "state", ["1.5", "true", "null", "[1]", "Infinity", '"1.5"']
    )
    def test_non_integral_wire_state_rejected(self, state):
        payload = parse_line('{"model": "g", "evidence": {"a": %s}}' % state)
        with pytest.raises(ProtocolError, match="integers"):
            QueryRequest.from_payload(payload)

    def test_integral_float_wire_state_accepted(self):
        payload = parse_line('{"model": "g", "evidence": {"a": 1.0}}')
        assert QueryRequest.from_payload(payload).evidence == {"a": 1}


class TestServeCLI:
    def test_stdin_roundtrip(self):
        lines = "\n".join(
            [
                json.dumps(
                    {
                        "op": "query",
                        "model": "family_out",
                        "evidence": {"hear_bark": 0},
                        "id": "q1",
                    }
                ),
                json.dumps({"op": "stats"}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.credo.cli",
                "serve",
                f"family_out={FAMILY_BIF}",
            ],
            input=lines,
            capture_output=True,
            text=True,
            timeout=300,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(replies) == 3
        query, stats, bye = replies
        assert query["ok"] and query["id"] == "q1"
        assert query["posteriors"]["hear_bark"] == [1.0, 0.0]
        for probs in query["posteriors"].values():
            assert abs(sum(probs) - 1.0) < 1e-4
        assert stats["stats"]["requests_total"] == 1
        assert bye["stopping"]
