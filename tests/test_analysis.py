"""repro.analysis: static checker framework and project rules.

The lint fixtures under ``tests/fixtures/lint/`` are deliberately buggy
source files — each carries ``# FINDING`` markers on the lines a rule
must flag and clean twins the rule must not.
"""

from __future__ import annotations

import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    all_rules,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.framework import update_baseline

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


#: one RPR101 finding, on the ``np.log`` line; ``{comment}`` ends that line
UNCLAMPED_LOG = textwrap.dedent(
    """\
    import numpy as np

    def unclamped(messages):
        return np.log(messages)  {comment}
    """
)


def lint_snippet(tmp_path: Path, source: str):
    """Analyze ``source`` (written to ``tmp_path/snippet.py``) with RPR101."""
    path = tmp_path / "snippet.py"
    path.write_text(source)
    rules = [r for r in all_rules() if r.id == "RPR101"]
    return Analyzer(rules=rules, root=tmp_path).run([path])


class TestNumericRules:
    def test_unguarded_log(self):
        result = assert_matches_markers("RPR101", "numeric_log.py")
        assert result.suppressed == 1  # the noqa'd log

    def test_unguarded_divide(self):
        assert_matches_markers("RPR102", "numeric_divide.py")

    def test_functions_imported_from_numpy(self, tmp_path):
        # a ufunc imported by name is the numpy call it names: its clip
        # guards a log, and its log is checked
        source = textwrap.dedent(
            """\
            from numpy import log as _log
            from numpy._core.umath import clip as _clip

            def guarded(messages):
                ratio = _clip(messages, 1e-30, 1e30)
                return _log(ratio)

            def unguarded(messages):
                return _log(messages)
            """
        )
        result = lint_snippet(tmp_path, source)
        assert [f.line for f in result.findings] == [9]

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
    def test_unknown_config_kwarg(self):
        result = assert_matches_markers("RPR303", "config_kwargs.py")
        assert result.suppressed == 1

    def test_messages_name_the_replacement(self):
        # an unknown keyword's message lists the live fields to use instead
        result = run_rule("RPR303", "config_kwargs.py")
        assert result.findings
        assert all("known:" in f.message and "schedule" in f.message
                   for f in result.findings)

    def test_frozen_graph_mutation(self):
        result = assert_matches_markers("RPR306", "stream_mutation.py")
        messages = " ".join(f.message for f in result.findings)
        assert "GraphDelta" in messages


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

    @pytest.mark.parametrize("tree", ["tests", "benchmarks"])
    def test_baseline_holds_no_dead_entries(self, tree):
        """Every baselined finding still exists: an entry no live finding
        consumes is debt that was paid without pruning the baseline."""
        result = Analyzer(root=REPO).run([REPO / tree])
        live = Counter(f.fingerprint for f in result.findings)
        baseline = load_baseline(REPO / f".analysis-baseline-{tree}.json")
        dead = {fp: entry for fp, entry in baseline.items()
                if live[fp] < int(entry["count"])}
        assert dead == {}

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


class TestNoqaSuppression:
    def test_finding_fires_without_noqa(self, tmp_path):
        result = lint_snippet(tmp_path, UNCLAMPED_LOG.format(comment=""))
        assert [f.rule for f in result.findings] == ["RPR101"]

    def test_multi_code_noqa(self, tmp_path):
        source = UNCLAMPED_LOG.format(comment="# noqa: RPR102, RPR101")
        result = lint_snippet(tmp_path, source)
        assert result.findings == []
        assert result.suppressed == 1

    def test_multi_code_noqa_other_rules_only(self, tmp_path):
        # codes that don't include RPR101 must not silence it
        source = UNCLAMPED_LOG.format(comment="# noqa: RPR102, RPR103")
        result = lint_snippet(tmp_path, source)
        assert [f.rule for f in result.findings] == ["RPR101"]

    def test_case_insensitive_noqa(self, tmp_path):
        result = lint_snippet(tmp_path, UNCLAMPED_LOG.format(comment="# NOQA: rpr101"))
        assert result.findings == []
        assert result.suppressed == 1


class TestFingerprintStability:
    def test_stable_across_line_shifts(self, tmp_path):
        def fingerprints(prefix: str) -> dict[str, int]:
            source = prefix + UNCLAMPED_LOG.format(comment="")
            result = lint_snippet(tmp_path, source)
            assert result.findings
            return {f.fingerprint: f.line for f in result.findings}

        plain = fingerprints("")
        shifted = fingerprints("# a comment pushing everything down\n" * 7)
        assert set(plain) == set(shifted)  # same fingerprints...
        assert set(plain.values()) != set(shifted.values())  # ...new lines


class TestUpdateBaseline:
    def test_preserves_reasons_across_line_shifts(self, tmp_path):
        first = lint_snippet(tmp_path, UNCLAMPED_LOG.format(comment="")).findings
        path = tmp_path / "baseline.json"
        write_baseline(first, path, reason="accepted log debt")

        # moved down seven lines: same fingerprint, entry carried over
        pad = "# pad\n" * 7
        moved = lint_snippet(tmp_path, pad + UNCLAMPED_LOG.format(comment="")).findings
        assert moved[0].line != first[0].line
        assert update_baseline(moved, path) == (1, 0)
        assert [e["reason"] for e in load_baseline(path).values()] == [
            "accepted log debt"
        ]

        # the line respelled too (as after a refactor): a new fingerprint,
        # but the (rule, path) pair keeps the recorded reason
        respelled = UNCLAMPED_LOG.format(comment="").replace("messages", "rows")
        edited = lint_snippet(tmp_path, pad + respelled).findings
        assert edited[0].fingerprint != moved[0].fingerprint
        assert update_baseline(edited, path) == (0, 1)
        regenerated = load_baseline(path)
        assert list(regenerated) == [edited[0].fingerprint]
        assert regenerated[edited[0].fingerprint]["reason"] == "accepted log debt"

    def test_drops_stale_entries(self, tmp_path):
        logs = run_rule("RPR101", "numeric_log.py").findings
        divides = run_rule("RPR102", "numeric_divide.py").findings
        assert logs and divides
        path = tmp_path / "baseline.json"
        write_baseline(logs + divides, path, reason="old debt")
        kept, dropped = update_baseline(logs, path)
        assert (kept, dropped) == (
            len({f.fingerprint for f in logs}),
            len({f.fingerprint for f in divides}),
        )
        assert {e["rule"] for e in load_baseline(path).values()} == {"RPR101"}

    def test_cli_update_baseline(self, tmp_path, capsys):
        fixture = str(FIXTURES / "numeric_log.py")
        path = tmp_path / "baseline.json"
        # without --baseline the flag is an error
        assert analysis_main([fixture, "--update-baseline"]) == 2
        assert analysis_main([fixture, "--rules", "RPR101"]) == 1
        assert analysis_main([
            fixture, "--rules", "RPR101",
            "--baseline", str(path), "--update-baseline",
        ]) == 0
        assert load_baseline(path)
        # the regenerated baseline green-lights the same scan
        assert analysis_main([
            fixture, "--rules", "RPR101", "--baseline", str(path),
        ]) == 0
