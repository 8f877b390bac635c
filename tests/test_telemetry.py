"""The telemetry subsystem (DESIGN.md §11): tracer semantics, exporter
schema, metric primitives, and the bit-exactness contract of instrumented
runs across schedules × paradigms."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.convergence import ConvergenceCriterion
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.credo.runner import Credo
from repro.graphs.grids import grid_graph
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    LatencyHistogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    get_tracer,
    set_tracer,
    summary_table,
    trace_lanes,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.tracer import NULL_LANE, NULL_SPAN


@pytest.fixture
def small_graph():
    return grid_graph(6, 6, n_states=3, seed=7)


class TestNullTracer:
    """Disabled tracing must be a true no-op: shared singletons, no
    events, no clock reads."""

    def test_default_tracer_is_disabled(self):
        tracer = get_tracer()
        assert not tracer.enabled
        assert len(tracer) == 0

    def test_span_returns_shared_falsy_singleton(self):
        tracer = NullTracer()
        sp = tracer.span("anything", cat="x", args={"k": 1})
        assert sp is NULL_SPAN
        assert not sp
        with sp as inner:
            assert inner is NULL_SPAN
            inner.set(a=1)  # inert
        assert tracer.events == []

    def test_lane_returns_shared_noop(self):
        tracer = NullTracer()
        lane = tracer.lane("cuda", label="gtx1070")
        assert lane is NULL_LANE
        assert not lane
        lane.emit("kernel", 0.0, 1.0)
        lane.reanchor()
        assert len(tracer) == 0

    def test_complete_and_instant_are_inert(self):
        tracer = NullTracer()
        tracer.complete("x", 0.5)
        tracer.instant("y")
        tracer.clear()
        assert tracer.events == []

    def test_instrumented_run_records_nothing_when_disabled(self, small_graph):
        set_tracer(None)  # belt and braces: ensure the null tracer
        LoopyBP(LoopyConfig(paradigm="node")).run(small_graph.copy())
        assert len(get_tracer()) == 0


class TestTracer:
    def test_spans_nest_and_record(self):
        tracer = Tracer()
        with tracer.span("outer", cat="t") as outer:
            assert outer  # truthy: the guard pattern works
            with tracer.span("inner", cat="t") as inner:
                inner.set(k=1)
        events = tracer.events
        assert [e.name for e in events] == ["inner", "outer"]
        inner_ev, outer_ev = events
        assert inner_ev.args == {"k": 1}
        assert outer_ev.start <= inner_ev.start
        assert outer_ev.start + outer_ev.duration >= inner_ev.start + inner_ev.duration
        assert all(e.domain == "wall" and e.process == "host" for e in events)

    def test_thread_lanes(self):
        tracer = Tracer()

        def work():
            with tracer.span("child"):
                pass

        t = threading.Thread(target=work, name="worker-1")
        with tracer.span("main"):
            t.start()
            t.join()
        threads = {e.thread for e in tracer.events}
        assert "worker-1" in threads and len(threads) == 2

    def test_modeled_lane_anchoring(self):
        tracer = Tracer()
        lane = tracer.lane("cuda", label="sim")
        lane.emit("kernel", 1.0, 0.5, thread="kernels")
        (event,) = tracer.events
        assert event.domain == "modeled"
        assert event.process == "cuda:0 (sim)"
        assert event.start == pytest.approx(lane.anchor + 1.0)
        before = lane.anchor
        lane.reanchor()
        assert lane.anchor >= before

    def test_lanes_auto_number(self):
        tracer = Tracer()
        assert tracer.lane("cuda").process == "cuda:0"
        assert tracer.lane("cuda").process == "cuda:1"
        assert tracer.lane("interconnect").process == "interconnect:0"

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        assert not get_tracer().enabled
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert not get_tracer().enabled

    def test_complete_records_retroactively(self):
        tracer = Tracer()
        tracer.complete("late", 0.25, cat="t")
        (event,) = tracer.events
        assert event.duration == pytest.approx(0.25)
        assert event.start >= 0.0


SCHEDULES = ("sync", "work_queue", "residual", "relaxed")
PARADIGMS = ("node", "edge")


class TestBitExactness:
    """Traced runs must be bit-identical to untraced ones — tracing
    observes, never perturbs (the PR 4 race-detector invariant)."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_loopy_traced_equals_untraced(self, small_graph, schedule, paradigm):
        config = LoopyConfig(paradigm=paradigm, schedule=schedule)
        base = LoopyBP(config).run(small_graph.copy())
        tracer = Tracer()
        with use_tracer(tracer):
            traced = LoopyBP(config).run(small_graph.copy())
        assert np.array_equal(base.beliefs, traced.beliefs)
        assert base.iterations == traced.iterations
        assert base.delta_history == traced.delta_history
        assert len(tracer) > 0  # the run actually was traced

    @pytest.mark.parametrize("backend", ["c-node", "cuda-edge"])
    def test_credo_traced_equals_untraced(self, small_graph, backend):
        credo = Credo(criterion=ConvergenceCriterion(max_iterations=50))
        base = credo.run(small_graph.copy(), backend=backend)
        with use_tracer(Tracer()):
            traced = credo.run(small_graph.copy(), backend=backend)
        assert np.array_equal(base.beliefs, traced.beliefs)
        assert base.iterations == traced.iterations
        assert base.modeled_time == pytest.approx(traced.modeled_time)


class TestChromeExport:
    def _traced_run(self, graph, backend="cuda-node"):
        credo = Credo(criterion=ConvergenceCriterion(max_iterations=30))
        tracer = Tracer()
        with use_tracer(tracer):
            credo.run(graph.copy(), backend=backend)
        return tracer

    def test_schema_round_trip(self, small_graph, tmp_path):
        tracer = self._traced_run(small_graph)
        path = write_chrome_trace(tracer.events, tmp_path / "t.json")
        trace = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "X"}

    def test_timestamps_sorted_and_nonnegative(self, small_graph):
        trace = chrome_trace(self._traced_run(small_graph).events)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        ts = [e["ts"] for e in xs]
        assert ts == sorted(ts)
        assert all(t >= 0 and e["dur"] >= 0 for t, e in zip(ts, xs))

    def test_modeled_and_host_lanes_present(self, small_graph):
        trace = chrome_trace(self._traced_run(small_graph).events)
        lanes = trace_lanes(trace)
        assert "host" in lanes
        cuda = [p for p in lanes if p.startswith("cuda:")]
        assert cuda, f"no simulated-device lane in {sorted(lanes)}"
        assert {"driver", "pcie", "kernels"} <= set(lanes[cuda[0]])
        total = sum(len(ts) for ts in lanes.values())
        assert total >= 3  # the acceptance-criteria floor

    def test_kernel_spans_carry_cost_breakdown(self, small_graph):
        tracer = self._traced_run(small_graph)
        kernels = [e for e in tracer.events
                   if e.name == "kernel" and e.domain == "modeled"]
        assert kernels
        for event in kernels:
            # the full KernelCost decomposition, queue cycles included
            assert {"launch_s", "compute_s", "memory_s", "atomics_s",
                    "reduction_s", "queue_s", "queue_ops"} <= set(event.args)

    def test_sweep_spans_carry_sweepstats(self, small_graph):
        tracer = Tracer()
        with use_tracer(tracer):
            LoopyBP(LoopyConfig(paradigm="node", schedule="work_queue")).run(
                small_graph.copy()
            )
        sweeps = [e for e in tracer.events if e.name == "bp.sweep"]
        assert sweeps
        for event in sweeps:
            assert {"iteration", "flops", "queue_ops", "atomic_ops",
                    "global_delta"} <= set(event.args)

    def test_summary_table_renders(self, small_graph):
        table = summary_table(self._traced_run(small_graph).events)
        assert "kernel" in table and "lane" in table
        assert summary_table([]) == "(no spans recorded)"

    def test_validator_flags_problems(self):
        bad = {"traceEvents": [
            {"ph": "X", "pid": 9, "tid": 9, "ts": -1, "dur": -2, "name": "x"},
            {"ph": "B", "pid": 9, "tid": 9, "ts": 0, "name": "y"},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("bad ts" in p for p in problems)
        assert any("dur" in p for p in problems)
        assert any("phase" in p for p in problems)
        assert any("process_name" in p for p in problems)
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]


class TestMetrics:
    def test_histogram_is_the_serve_latency_histogram(self):
        from repro.serve.metrics import LatencyHistogram as ServeAlias

        assert ServeAlias is Histogram is LatencyHistogram

    def test_histogram_merge_matches_union(self):
        a, b, union = Histogram(), Histogram(), Histogram()
        for i in range(1, 50):
            a.record(i / 1000.0)
            union.record(i / 1000.0)
        for i in range(50, 120):
            b.record(i / 500.0)
            union.record(i / 500.0)
        a.merge(b)
        assert a.counts == union.counts
        assert a.count == union.count
        assert a.total == pytest.approx(union.total)
        assert a.max == union.max
        assert a.percentile(95) == union.percentile(95)

    def test_histogram_merge_across_threads(self):
        locals_ = [Histogram() for _ in range(4)]

        def work(hist, base):
            for i in range(200):
                hist.record((base + i) / 10000.0)

        threads = [
            threading.Thread(target=work, args=(h, 100 * k))
            for k, h in enumerate(locals_)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = Histogram()
        for h in locals_:
            merged += h
        assert merged.count == 800
        assert merged.percentile(50) > 0

    def test_counter_gauge_registry(self):
        reg = MetricsRegistry()
        reg.counter("reqs").inc()
        reg.counter("reqs").inc(4)
        reg.gauge("depth").set(3)
        reg.gauge("live", fn=lambda: 7)
        reg.histogram("lat").record(0.01)
        snap = reg.snapshot()
        assert snap["counters"]["reqs"] == 5
        assert snap["gauges"]["depth"] == 3.0
        assert snap["gauges"]["live"] == 7.0
        assert snap["histograms"]["lat"]["count"] == 1
        # same name → same instrument
        assert reg.counter("reqs") is reg.counter("reqs")

    def test_counter_thread_safety(self):
        counter = Counter()

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_gauge_callback_wins(self):
        gauge = Gauge()
        gauge.set(2)
        assert gauge.value == 2.0
        gauge.set_fn(lambda: 9)
        assert gauge.value == 9.0


class TestProfileCli:
    def test_profile_emits_valid_trace(self, tmp_path, capsys):
        from repro.credo.cli import main

        out = tmp_path / "profile.json"
        code = main([
            "profile", "examples/family_out.bif",
            "--backend", "cuda-edge",
            "--trace", str(out),
            "--verify-parity",
        ])
        assert code == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []
        lanes = trace_lanes(trace)
        assert sum(len(ts) for ts in lanes.values()) >= 3
        modeled = [e for e in trace["traceEvents"]
                   if e.get("ph") == "X" and e.get("name") == "kernel"]
        assert modeled, "no modeled-time kernel spans in the profile trace"
        captured = capsys.readouterr()
        assert "backend" in captured.out
        assert "parity: traced == untraced" in captured.err

    def test_verify_parity_baseline_is_untraced_same_plan(self, tmp_path, capsys,
                                                          monkeypatch):
        # the parity baseline re-runs the traced run's frozen plan with
        # tracing off, so the check isolates what tracing does to a run
        from repro.credo.cli import main
        from repro.io.mtx import write_mtx_graph

        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        write_mtx_graph(grid_graph(30, 30, n_states=2, seed=5), nodes, edges)
        calls = []
        run = Credo.run

        def recording_run(self, graph, **kwargs):
            calls.append((kwargs.get("plan"), get_tracer().enabled))
            return run(self, graph, **kwargs)

        monkeypatch.setattr(Credo, "run", recording_run)
        code = main([
            "profile", str(nodes), str(edges), "--backend", "c-node",
            "--trace", str(tmp_path / "p.json"), "--verify-parity",
            "--no-summary",
        ])
        assert code == 0
        (traced_plan, traced), (baseline_plan, baseline_traced) = calls
        assert traced_plan is not None and baseline_plan is traced_plan
        assert traced and not baseline_traced
        captured = capsys.readouterr()
        assert (f"parity: traced == untraced (plan {traced_plan.qualified})"
                in captured.err)

    def test_run_trace_flag(self, tmp_path):
        from repro.credo.cli import main

        out = tmp_path / "run.json"
        code = main([
            "run", "examples/family_out.bif",
            "--backend", "c-node", "--trace", str(out), "--top", "0",
        ])
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        # the CLI restored the null tracer
        assert not get_tracer().enabled

    def test_validate_cli(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as tele_main

        tracer = Tracer()
        with tracer.span("x", cat="t"):
            pass
        path = write_chrome_trace(tracer.events, tmp_path / "v.json")
        assert tele_main(["validate", str(path)]) == 0
        assert tele_main(["validate", str(path), "--min-lanes", "99"]) == 1
        assert tele_main(["lanes", str(path)]) == 0
        capsys.readouterr()


class TestServeTelemetry:
    def test_batched_path_accounts_queue_ops(self, small_graph):
        """The micro-batched union path must not drop kernel stats or the
        schedules' queue bookkeeping (the stats-dropping bug)."""
        from repro.serve.batch import run_batched

        config = LoopyConfig(paradigm="node", schedule="work_queue")
        tracer = Tracer()
        with use_tracer(tracer):
            runs, _union = run_batched(
                small_graph, config, [[(0, 0)], [(1, 1)], []],
            )
        assert len(runs) == 3
        # the batch sweeps through the one driver loop, traced as such
        sweeps = [e.args for e in tracer.events if e.name == "bp.sweep"]
        assert len(sweeps) == max(run.iterations for run in runs)
        assert all(args["replicas"] == 3 for args in sweeps)
        assert sweeps[0]["live"] == 3
        assert "serve.union_sweep" not in {e.name for e in tracer.events}
        total = runs[0].run_stats.total
        assert total.nodes_processed > 0
        assert total.flops > 0
        assert total.queue_ops > 0  # previously always zero
        solo = LoopyBP(config).run(small_graph.copy())
        np.testing.assert_allclose(runs[2].beliefs, solo.beliefs, atol=1e-6)

    def test_traced_server_emits_pipeline_spans(self, small_graph):
        from repro.serve import InferenceServer, ServerConfig

        tracer = Tracer()
        with use_tracer(tracer):
            server = InferenceServer(
                ServerConfig(max_batch=4, cache_capacity=8), autostart=True
            )
            try:
                server.register_model("g", small_graph.copy())
                assert server.query("g", {"0": 0}).ok
                assert server.query("g", {"0": 0}).ok  # cache hit
            finally:
                server.stop()
        names = {e.name for e in tracer.events}
        assert {"serve.admit", "serve.queue_wait", "serve.select",
                "serve.run"} <= names
        assert "serve.cache_hit" in names or "serve.engine" in names

    def test_server_metrics_snapshot_shape_unchanged(self, small_graph):
        from repro.serve import InferenceServer, ServerConfig

        server = InferenceServer(ServerConfig(), autostart=True)
        try:
            server.register_model("g", small_graph.copy())
            assert server.query("g", {"1": 1}).ok
            snap = server.stats()
        finally:
            server.stop()
        assert snap["requests_total"] == 1
        assert snap["responses_total"] == 1
        assert set(snap["latency"]) == {"queue_wait", "select", "run", "total"}
        json.dumps(snap)
        # the registry view carries the same counts under serve.*
        reg = server.metrics.registry.snapshot()
        assert reg["counters"]["serve.requests_total"] == 1


class TestHarnessTraceSession:
    def test_disabled_by_default(self):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from harness import trace_session
        finally:
            sys.path.pop(0)
        with trace_session("unit", enabled=False) as tracer:
            assert not tracer.enabled

    def test_enabled_writes_trace(self, tmp_path, monkeypatch):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            import harness
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        with harness.trace_session("unit", enabled=True) as tracer:
            with tracer.span("work"):
                pass
        out = tmp_path / "unit.trace.json"
        assert out.exists()
        assert validate_chrome_trace(json.loads(out.read_text())) == []
