"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json``:

* an untraced and a traced run each end with a result line whose
  metrics are exactly the ``end_to_end`` (resp. ``per_layer``) metrics,
  each with its unit, all finite, with every op and check passing;
* a run with one planted wrong posterior reports it as a failed op and
  ``correct: false``.

Finally the benchmark must refuse to run, without a result line, in a
directory holding only ``BENCHMARK.json`` and its own files.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _check_metrics(result: dict, expected: list[dict]) -> None:
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    assert sorted(metrics) == sorted(names), set(metrics) ^ set(names)
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        base = ("--workload", workload, "--seed", "3", "--seconds", "2", "--tiny")
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = _result(_run(ROOT, *base, "--trace", trace))
            _check_metrics(result, SPEC[key])
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            if key == "end_to_end":
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
        planted = _result(_run(ROOT, *base, "--trace", "0", "--plant"))
        assert planted["failed"] >= 1 and not planted["correct"], (workload, planted)
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare checkout refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
