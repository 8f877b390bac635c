"""repro.analysis: static checker framework, project rules, race detector.

The lint fixtures under ``tests/fixtures/lint/`` are deliberately buggy
source files — each carries ``# FINDING`` markers on the lines a rule
must flag and clean twins the rule must not.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    Analyzer,
    RaceDetector,
    RaceError,
    all_rules,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.races import TrackedArray

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"
SRC = REPO / "src"


def run_rule(rule_id: str, fixture: str):
    """Analyze one fixture with one rule; returns the AnalysisResult."""
    rules = [r for r in all_rules() if r.id == rule_id]
    assert rules, f"unknown rule {rule_id}"
    return Analyzer(rules=rules, root=REPO).run([FIXTURES / fixture])


def marked_lines(fixture: str) -> set[int]:
    """1-based lines carrying a ``# FINDING`` marker in the fixture."""
    lines = (FIXTURES / fixture).read_text().splitlines()
    return {i for i, line in enumerate(lines, 1) if "# FINDING" in line}


def assert_matches_markers(rule_id: str, fixture: str):
    result = run_rule(rule_id, fixture)
    assert {f.line for f in result.findings} == marked_lines(fixture)
    return result


class TestNumericRules:
    def test_unguarded_log(self):
        result = assert_matches_markers("RPR101", "numeric_log.py")
        assert result.suppressed == 1  # the noqa'd log

    def test_unguarded_divide(self):
        assert_matches_markers("RPR102", "numeric_divide.py")

    def test_inplace_shared_mutation(self):
        assert_matches_markers("RPR103", "inplace_shared.py")


class TestConcurrencyRules:
    def test_unlocked_attribute(self):
        result = run_rule("RPR201", "concurrency_lock.py")
        # bad_total reads two guarded attrs on one line; bad_reset writes one
        assert {f.line for f in result.findings} == marked_lines("concurrency_lock.py")
        assert len(result.findings) == 3

    def test_loop_variable_capture(self):
        assert_matches_markers("RPR202", "loop_capture.py")


class TestHygieneRules:
    def test_deprecated_shim(self):
        assert_matches_markers("RPR301", "hygiene_shims.py")

    def test_unresolvable_qualifier(self):
        assert_matches_markers("RPR302", "hygiene_qualifiers.py")

    def test_unknown_config_kwarg(self):
        result = assert_matches_markers("RPR303", "config_kwargs.py")
        assert result.suppressed == 1

    def test_messages_name_the_replacement(self):
        result = run_rule("RPR303", "config_kwargs.py")
        deprecated = [f for f in result.findings if "deprecated shim" in f.message]
        assert deprecated and "schedule=" in deprecated[0].message

    def test_unknown_shard_policy(self):
        result = assert_matches_markers("RPR304", "shard_policy.py")
        messages = " ".join(f.message for f in result.findings)
        assert "staleness-free" in messages  # sync+staleness names the fix
        assert "does not resolve" in messages

    def test_frozen_graph_mutation(self):
        result = assert_matches_markers("RPR306", "stream_mutation.py")
        messages = " ".join(f.message for f in result.findings)
        assert "GraphDelta" in messages

    def test_qualifier_rejects_retired_suffixes(self):
        from repro.analysis.rules.hygiene import validate_qualifier

        assert validate_qualifier("sharded:sync@4xbfs+async~2") is None
        # the executor and layout plan axes are gone from the grammar
        for retired in ("c-node:sync!compiled", "c-node:sync%soa"):
            assert "grammar" in validate_qualifier(retired)


class TestFramework:
    def test_rule_catalog_complete(self):
        rules = all_rules()
        assert len(rules) >= 6
        assert len({r.id for r in rules}) == len(rules)
        assert all(r.id.startswith("RPR") and r.description for r in rules)

    def test_repo_src_is_clean(self):
        """Acceptance gate: the shipped tree passes its own checker."""
        result = Analyzer(root=REPO).run([SRC])
        assert not result.errors
        assert [f.format() for f in result.findings] == []

    def test_finding_format_and_fingerprint(self):
        result = run_rule("RPR101", "numeric_log.py")
        f = result.findings[0]
        assert f.format().startswith("tests/fixtures/lint/numeric_log.py:")
        assert f.rule in f.format() and f.name in f.format()
        # fingerprint keys on (rule, path, source text): stable across moves
        assert len(f.fingerprint) == 16
        assert f.fingerprint != result.findings[1].fingerprint

    def test_baseline_round_trip(self, tmp_path):
        result = run_rule("RPR102", "numeric_divide.py")
        assert result.findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(result.findings, baseline_path, reason="fixture debt")
        baseline = load_baseline(baseline_path)
        fresh, matched = apply_baseline(list(result.findings), baseline)
        assert fresh == [] and matched == len(result.findings)
        # a finding not in the baseline stays fresh
        other = run_rule("RPR101", "numeric_log.py").findings
        fresh, matched = apply_baseline(list(result.findings) + other, baseline)
        assert fresh == other

    def test_baseline_rejects_unknown_version(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": {}}))
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestCli:
    def test_dirty_fixture_fails(self, capsys):
        code = analysis_main([str(FIXTURES / "numeric_log.py"), "--rules", "RPR101"])
        assert code == 1
        assert "RPR101" in capsys.readouterr().out

    def test_clean_src_passes(self, capsys):
        assert analysis_main([str(SRC), "--baseline",
                              str(REPO / ".analysis-baseline.json")]) == 0

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = analysis_main([str(FIXTURES / "config_kwargs.py"),
                              "--rules", "RPR303",
                              "--json", "--json-report", str(report)])
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["counts"]["RPR303"] == 3
        assert payload["findings"][0]["fingerprint"]

    def test_unknown_rule_id(self, capsys):
        assert analysis_main(["--rules", "RPR999", str(SRC)]) == 2

    def test_write_baseline_then_pass(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        fixture = str(FIXTURES / "numeric_divide.py")
        assert analysis_main([fixture, "--rules", "RPR102",
                              "--write-baseline", str(baseline)]) == 0
        assert analysis_main([fixture, "--rules", "RPR102",
                              "--baseline", str(baseline)]) == 0

    def test_credo_lint_forwards(self, capsys):
        from repro.credo.cli import main as credo_main

        assert credo_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR303" in out


# ---------------------------------------------------------------------------
# dynamic race detector
# ---------------------------------------------------------------------------
def two_threads(fn):
    """Run ``fn(0)`` and ``fn(1)`` on two genuinely concurrent threads."""
    barrier = threading.Barrier(2)
    errors = []

    def run(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestTrackedArray:
    def test_indexing_returns_plain_ndarray(self):
        det = RaceDetector()
        arr = det.track(np.arange(8, dtype=np.float32).reshape(4, 2), "x")
        assert isinstance(arr, TrackedArray)
        assert type(arr[1:3]) is np.ndarray
        np.testing.assert_array_equal(arr[1], [2.0, 3.0])

    def test_reads_and_writes_logged(self):
        det = RaceDetector()
        arr = det.track(np.zeros((4, 2), dtype=np.float32), "x")
        _ = arr[0]
        arr[1] = 5.0
        kinds = [(a.write, a.rows) for a in det._accesses]
        assert (False, frozenset({0})) in kinds
        assert (True, frozenset({1})) in kinds

    def test_ufunc_results_untracked(self):
        det = RaceDetector()
        arr = det.track(np.ones((4, 2), dtype=np.float32), "x")
        doubled = arr * 2.0
        before = det.n_accesses
        _ = doubled[0]
        assert det.n_accesses == before  # derived temporaries are free


class TestRaceDetector:
    def test_planted_race_is_reported(self):
        det = RaceDetector()
        arr = det.track(np.zeros((4, 2), dtype=np.float32), "shared")
        two_threads(lambda i: arr.__setitem__(1, float(i)))
        races = det.check()
        assert races
        with pytest.raises(RaceError) as excinfo:
            det.assert_race_free()
        assert "shared" in str(excinfo.value)
        assert "write" in det.report()

    def test_lock_synchronized_twin_is_clean(self):
        det = RaceDetector()
        arr = det.track(np.zeros((4, 2), dtype=np.float32), "shared")

        def locked_write(i):
            with det.lock("row1"):
                arr[1] = float(i)

        two_threads(locked_write)
        assert det.check() == []
        assert "race-free" in det.report()

    def test_disjoint_rows_do_not_race(self):
        det = RaceDetector()
        arr = det.track(np.zeros((4, 2), dtype=np.float32), "shared")
        two_threads(lambda i: arr.__setitem__(i, 1.0))
        assert det.check() == []

    def test_epoch_barrier_orders_accesses(self):
        det = RaceDetector()
        arr = det.track(np.zeros((4, 2), dtype=np.float32), "shared")
        done = threading.Event()

        def worker():
            arr[1] = 1.0
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.wait(1.0)
        det.on_phase("after-join")  # the join IS a barrier; tell the detector
        arr[1] = 2.0
        assert det.check() == []

    def test_distinct_arrays_do_not_race(self):
        det = RaceDetector()
        a = det.track(np.zeros(4, dtype=np.float32), "shard0.messages")
        b = det.track(np.zeros(4, dtype=np.float32), "shard1.messages")
        two_threads(lambda i: (a if i else b).__setitem__(1, 1.0))
        assert det.check() == []


class TestShardedInstrumentation:
    def _sharded(self, seed=5):
        from repro.core.sharded import ShardedGraph
        from tests.conftest import make_loopy_graph

        g = make_loopy_graph(seed=seed, n_nodes=40, n_edges=80)
        return ShardedGraph.build(g, n_shards=4, method="bfs")

    def test_instrumented_run_is_race_free(self):
        from repro.core.sharded import ShardedLoopyBP

        det = RaceDetector()
        with ThreadPoolExecutor(max_workers=4) as pool:
            result = ShardedLoopyBP(pool=pool, instrument=det).run(self._sharded())
        assert result.converged
        assert det.n_accesses > 0 and det.epoch > 0
        det.assert_race_free()

    def test_instrumentation_preserves_numerics(self):
        from repro.core.sharded import ShardedLoopyBP

        det = RaceDetector()
        with ThreadPoolExecutor(max_workers=4) as pool:
            instrumented = ShardedLoopyBP(pool=pool, instrument=det).run(
                self._sharded()
            )
        plain = ShardedLoopyBP().run(self._sharded())
        np.testing.assert_array_equal(instrumented.beliefs, plain.beliefs)
        assert instrumented.iterations == plain.iterations

    def test_planted_unsynchronized_shard_write(self):
        """A boundary exchange racing a shard sweep — the bug class the
        epoch hooks exist to catch.  Without the pool.map barrier (no
        ``on_phase`` call) the ghost-row copy and the consumer's read
        overlap in one epoch and must be reported."""
        from repro.core.state import LoopyState

        sharded = self._sharded()
        det = RaceDetector()
        states = [LoopyState(sh.graph) for sh in sharded.shards]
        det.on_states(states)
        route = next(r for r in sharded.routes if len(r.src_edges))
        consumer = states[route.dst]
        producer = states[route.src]
        barrier = threading.Barrier(2)

        def buggy_sweep_read():
            barrier.wait()
            _ = consumer.messages[route.dst_edges]  # cavity reads ghost rows

        def buggy_exchange_write():
            barrier.wait()
            consumer.messages[route.dst_edges] = producer.messages[route.src_edges]

        t1 = threading.Thread(target=buggy_sweep_read)
        t2 = threading.Thread(target=buggy_exchange_write)
        t1.start(); t2.start(); t1.join(); t2.join()

        races = det.check()
        assert races, "unsynchronized exchange/sweep overlap must be detected"
        assert any(
            f"shard{route.dst}.messages" in acc.array
            for pair in races for acc in pair
        )
        # the fixed runner separates these phases with on_phase barriers:
        det2 = RaceDetector()
        states2 = [LoopyState(sh.graph) for sh in self._sharded().shards]
        det2.on_states(states2)
        consumer2 = states2[route.dst]
        _ = consumer2.messages[route.dst_edges]
        det2.on_phase("exchange")
        consumer2.messages[route.dst_edges] = 0.5
        assert det2.check() == []

    def test_engine_threads_instrument_through_sharded_path(self):
        from repro.graphs.synthetic import synthetic_graph
        from repro.serve import InferenceServer, ServerConfig

        det = RaceDetector()
        config = ServerConfig(
            shards=2, partitioner="bfs", backend="c-node", schedule="sync",
            cache_capacity=0,
        )
        with InferenceServer(config) as srv:
            srv.engine.instrument = det
            srv.register_model("g", synthetic_graph(40, 80, n_states=2, seed=3))
            # several sequential queries: each run must open a fresh epoch,
            # or query N's exchange falsely races query N+1's first sweep
            for evidence in ({"1": 1}, {"3": 0}, {"5": 1}):
                reply = srv.query("g", evidence)
                assert reply.ok
        assert det.n_accesses > 0, "sharded serve path must hit the detector"
        det.assert_race_free()
