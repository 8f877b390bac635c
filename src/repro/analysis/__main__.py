"""CLI for the project-aware static checker.

Usage::

    python -m repro.analysis [paths...] [--baseline FILE] [--json]
    credo lint [same arguments]

Exit code 0 when no *new* findings (after baseline + noqa), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import (
    Analyzer,
    all_rules,
    apply_baseline,
    load_baseline,
    render_json,
    render_text,
    update_baseline,
    write_baseline,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="project-aware static checker (RPR rules)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of known findings; only new ones fail",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "regenerate --baseline in place from current findings, "
            "preserving recorded reasons, and exit 0"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report to stdout"
    )
    parser.add_argument(
        "--json-report",
        metavar="FILE",
        help="also write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id} [{rule.name}] ({rule.severity}) {rule.description}")
        return 0
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        unknown = wanted - {r.id for r in rules}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [r for r in rules if r.id in wanted]

    analyzer = Analyzer(rules=rules)
    result = analyzer.run(args.paths or ["src"])

    if args.write_baseline:
        write_baseline(result.findings, args.write_baseline)
        print(
            f"baseline: {len(result.findings)} finding(s) recorded "
            f"to {args.write_baseline}"
        )
        return 0

    if args.update_baseline:
        if not args.baseline:
            print("--update-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        kept, dropped = update_baseline(result.findings, args.baseline)
        print(
            f"baseline: {args.baseline} regenerated with "
            f"{len(result.findings)} finding(s) "
            f"({kept} reason(s) preserved, {dropped} stale entries dropped)"
        )
        return 0

    if args.baseline and Path(args.baseline).exists():
        baseline = load_baseline(args.baseline)
        result.findings, result.baselined = apply_baseline(result.findings, baseline)

    if args.json_report:
        Path(args.json_report).write_text(render_json(result) + "\n", encoding="utf-8")
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
