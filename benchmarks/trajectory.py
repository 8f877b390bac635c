"""Append perfbench results to the per-workload performance trajectory.

    python benchmarks/trajectory.py --workload oneshot-rand200k --seeds 1 5 \\
        --seconds 25 [--label change] [--checkout DIR] [--out DIR]

For every workload, runs ``perfbench/run.py`` once per seed at
``--trace 0`` (the end-to-end metrics) and once at ``--trace 1`` (the
per-layer metrics), then appends one record to
``<out>/BENCH_<workload>.json`` (a JSON list, oldest record first):

* ``sha`` and ``label``: the measured commit and what it is (e.g.
  ``parent`` / ``change`` for the two sides of a pull request);
* ``provenance``: host, Python, NumPy and BLAS of the first run, as
  perfbench prints it;
* ``end_to_end`` and ``per_layer``: per metric, the median over runs,
  its unit and every run's value;
* ``attempted`` and ``failed``: ops summed over every run.

``--checkout`` measures another checkout of this repository (its own
``perfbench/`` and ``src/``), so a pull request's parent can be recorded
beside it.  ``--tiny`` runs perfbench's small inputs, for checking the
tool itself: the script validates every record it writes against
``BENCHMARK.json`` and exits non-zero when a record is malformed or any
op failed.  It never compares timings; a trajectory is read by people,
across commits measured on the same host.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_OUT = Path(__file__).resolve().parent / "trajectory"

#: keys of one trajectory record
RECORD_KEYS = (
    "sha", "label", "recorded", "provenance", "workload", "seeds", "seconds",
    "tiny", "runs", "end_to_end", "per_layer", "attempted", "failed",
)


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int, tiny: bool) -> tuple[dict, dict]:
    """One perfbench run: ``(result, detail)`` from its last two lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in reversed(lines)
                  if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def _sha(checkout: Path, provenance: dict) -> str:
    """The measured commit, marked ``-dirty`` when the program or the
    benchmark differs from it (a change measured before it is committed;
    ``provenance["src_sha1"]`` then identifies the sources)."""
    sha = provenance.get("git_sha", "unknown")
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "perfbench"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    return sha + "-dirty" if status.returncode == 0 and status.stdout.strip() else sha


def _summarize(results: list[dict]) -> dict:
    """Per metric: the median over runs, its unit and every value."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        summary[name] = {"median": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"],
                         "values": values}
    return summary


def measure(checkout: Path, workload: str, seeds: list[int], seconds: float,
            tiny: bool, label: str) -> dict:
    """Run perfbench and build one trajectory record."""
    e2e, layers, provenance = [], [], None
    for seed in seeds:
        result, detail = run_perfbench(checkout, workload, seed, seconds, 0, tiny)
        e2e.append(result)
        provenance = provenance or detail["provenance"]
        result, _ = run_perfbench(checkout, workload, seed, seconds, 1, tiny)
        layers.append(result)
    runs = e2e + layers
    return {
        "sha": _sha(checkout, provenance),
        "label": label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "provenance": {k: v for k, v in provenance.items() if k != "argv"},
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "tiny": tiny,
        "runs": {"end_to_end": len(e2e), "per_layer": len(layers)},
        "end_to_end": _summarize(e2e),
        "per_layer": _summarize(layers),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def validate(record: dict) -> list[str]:
    """Problems with ``record``: missing keys, metrics other than
    ``BENCHMARK.json`` declares, wrong units, non-finite medians."""
    problems = [f"missing key {k!r}" for k in RECORD_KEYS if k not in record]
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        got = record.get(section, {})
        if set(got) != set(declared):
            problems.append(f"{section}: metrics {sorted(set(got) ^ set(declared))} "
                            "differ from BENCHMARK.json")
        for name, entry in got.items():
            if name in declared and entry.get("unit") != declared[name]:
                problems.append(f"{section}.{name}: unit {entry.get('unit')!r}")
            median = entry.get("median")
            if not isinstance(median, (int, float)) or not math.isfinite(median):
                problems.append(f"{section}.{name}: median {median!r}")
            if len(entry.get("values", ())) != record.get("runs", {}).get(section):
                problems.append(f"{section}.{name}: value count")
    return problems


def append(path: Path, record: dict) -> None:
    history = json.loads(path.read_text()) if path.is_file() else []
    history.append(record)
    path.write_text(json.dumps(history, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--label", default="")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--tiny", action="store_true",
                        help="perfbench's small inputs (checks the tool only)")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workload or names:
        record = measure(args.checkout.resolve(), workload, args.seeds, args.seconds,
                         args.tiny, args.label)
        append(args.out / f"BENCH_{workload}.json", record)
        problems = validate(record)
        if record["failed"]:
            problems.append(f"{record['failed']} of {record['attempted']} ops failed")
        op = record["end_to_end"]["op_p50_ms"]
        print(f"{workload} @ {record['sha'][:10]}: op_p50_ms {op['median']:.4g} "
              f"({len(op['values'])} runs), {record['failed']}/{record['attempted']} failed"
              + "".join(f"\n  problem: {p}" for p in problems))
        status = status or int(bool(problems))
    return status


if __name__ == "__main__":
    sys.exit(main())
