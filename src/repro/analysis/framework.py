"""AST lint framework for the project-aware static checker.

The generic machinery lives here; the *project knowledge* lives in
:mod:`repro.analysis.rules`.  A rule is a class with an ``RPR###`` id
that walks one parsed module and yields :class:`Finding`\\ s.  The
analyzer adds the workflow glue a blocking CI gate needs:

suppression
    A ``# noqa: RPR###`` comment on the offending line silences that
    rule there (bare ``# noqa`` silences every rule on the line).

baseline
    Known debt is recorded in a JSON baseline file keyed by stable
    fingerprints ``(rule, path, source line)``, so pre-existing
    findings don't block CI while *new* ones do.  Each baselined entry
    carries a human ``reason``.

reporters
    Human one-line-per-finding output for terminals, JSON for CI
    artifacts and tooling.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "Rule",
    "Module",
    "Analyzer",
    "AnalysisResult",
    "register",
    "all_rules",
    "load_baseline",
    "write_baseline",
    "update_baseline",
    "apply_baseline",
    "render_text",
    "render_json",
]

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*))?",
    re.IGNORECASE,
)

#: directories never descended into when collecting files ("fixtures"
#: keeps the planted lint fixtures out of real scans of tests/)
SKIP_DIRS = {
    ".git", "__pycache__", ".venv", "venv", "build", "dist", ".eggs", "fixtures",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # "RPR101"
    name: str  # "unguarded-log"
    severity: str  # "error" | "warning"
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str = ""  # stripped source line (fingerprint input)

    @property
    def fingerprint(self) -> str:
        """Stable id for baselining: survives moves within a file."""
        raw = f"{self.rule}:{self.path}:{self.snippet}"
        return hashlib.sha1(raw.encode("utf-8", "replace")).hexdigest()[:16]

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.name}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


class Rule:
    """Base class: subclass, set ``id``/``name``, implement :meth:`check`."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, module: "Module") -> Iterator[Finding]:
        raise NotImplementedError

    # convenience for subclasses
    def finding(self, module: "Module", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(
            rule=self.id,
            name=self.name,
            severity=self.severity,
            path=module.rel_path,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instances of every registered rule, sorted by id."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


class Module:
    """One parsed source file plus the lookups rules keep needing."""

    def __init__(self, path: Path, root: Path | None = None):
        self.path = path
        try:
            self.rel_path = path.resolve().relative_to(
                (root or Path.cwd()).resolve()
            ).as_posix()
        except ValueError:
            self.rel_path = path.as_posix()
        self.source = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        #: local names bound to the numpy module ("np", "numpy", ...)
        self.numpy_aliases = {
            alias.asname or alias.name
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }
        #: local names bound to numpy functions by ``from numpy[...] import
        #: f as g``, mapped to ``f``
        self.numpy_functions = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(self.tree)
            if isinstance(node, ast.ImportFrom)
            and node.module is not None
            and node.module.split(".")[0] == "numpy"
            for alias in node.names
        }

    # -- shared helpers -------------------------------------------------
    def is_numpy_call(self, node: ast.AST, *attrs: str) -> bool:
        """Is ``node`` a call ``np.<attr>(...)`` for one of ``attrs``, or
        of a name imported from numpy as one of them?"""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return self.numpy_functions.get(func.id) in attrs
        return (
            isinstance(func, ast.Attribute)
            and func.attr in attrs
            and isinstance(func.value, ast.Name)
            and func.value.id in self.numpy_aliases
        )

    def enclosing_function(self, node: ast.AST):
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def suppressed(self, finding: Finding) -> bool:
        """Is there a ``# noqa`` comment covering this finding's line?"""
        if not 1 <= finding.line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[finding.line - 1])
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True  # bare "# noqa" silences everything
        return finding.rule in {c.strip().upper() for c in codes.split(",")}


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: list[Finding]
    suppressed: int = 0  # count silenced by "# noqa"
    baselined: int = 0  # count matched against the baseline file
    files: int = 0
    errors: list[str] = None  # unparseable files

    def __post_init__(self) -> None:
        if self.errors is None:
            self.errors = []

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.errors) else 0


class Analyzer:
    """Run a rule set over a file tree."""

    def __init__(self, rules: Iterable[Rule] | None = None, root: Path | None = None):
        self.rules = list(rules) if rules is not None else all_rules()
        self.root = root or Path.cwd()

    def collect(self, paths: Iterable[str | Path]) -> list[Path]:
        files: list[Path] = []
        for entry in paths:
            p = Path(entry)
            if p.is_dir():
                for sub in sorted(p.rglob("*.py")):
                    if not SKIP_DIRS.intersection(sub.parts):
                        files.append(sub)
            elif p.suffix == ".py":
                files.append(p)
        return files

    def run(self, paths: Iterable[str | Path]) -> AnalysisResult:
        findings: list[Finding] = []
        errors: list[str] = []
        suppressed = 0
        files = self.collect(paths)
        for path in files:
            try:
                module = Module(path, root=self.root)
            except (SyntaxError, OSError) as exc:
                errors.append(f"{path}: {exc}")
                continue
            for rule in self.rules:
                for finding in rule.check(module):
                    if module.suppressed(finding):
                        suppressed += 1
                    else:
                        findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return AnalysisResult(
            findings=findings,
            suppressed=suppressed,
            files=len(files),
            errors=errors,
        )


# -- baseline ----------------------------------------------------------
def load_baseline(path: str | Path) -> dict[str, dict]:
    """fingerprint → {"rule", "path", "count", "reason"} from a baseline file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("version") != 1:
        raise ValueError(f"unsupported baseline version in {path}")
    return dict(data.get("findings", {}))


def write_baseline(
    findings: Iterable[Finding],
    path: str | Path,
    reason: str = "pre-existing at baseline creation",
) -> None:
    entries: dict[str, dict] = {}
    for f in findings:
        entry = entries.setdefault(
            f.fingerprint,
            {"rule": f.rule, "path": f.path, "count": 0, "reason": reason},
        )
        entry["count"] += 1
    Path(path).write_text(
        json.dumps({"version": 1, "findings": entries}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )


def update_baseline(
    findings: Iterable[Finding],
    path: str | Path,
    reason: str = "pre-existing at baseline update",
) -> tuple[int, int]:
    """Regenerate a baseline file in place from the current findings.

    Unlike :func:`write_baseline` this preserves the human ``reason``
    fields of the old file: an entry whose ``(rule, path)`` pair already
    appears in the old baseline keeps that entry's reason even when the
    fingerprint changed (the usual case after a refactor shifts the
    offending line's text).  Returns ``(kept, dropped)`` — entries
    carried over vs. stale entries removed.
    """
    target = Path(path)
    old: dict[str, dict] = {}
    if target.exists():
        old = load_baseline(target)
    reasons_by_key = {
        (entry.get("rule"), entry.get("path")): entry.get("reason")
        for entry in old.values()
        if entry.get("reason")
    }
    entries: dict[str, dict] = {}
    for f in findings:
        entry = entries.setdefault(
            f.fingerprint,
            {
                "rule": f.rule,
                "path": f.path,
                "count": 0,
                "reason": (
                    old.get(f.fingerprint, {}).get("reason")
                    or reasons_by_key.get((f.rule, f.path))
                    or reason
                ),
            },
        )
        entry["count"] += 1
    kept = sum(1 for fp in entries if fp in old)
    dropped = sum(1 for fp in old if fp not in entries)
    target.write_text(
        json.dumps({"version": 1, "findings": entries}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return kept, dropped


def apply_baseline(
    findings: list[Finding], baseline: dict[str, dict]
) -> tuple[list[Finding], int]:
    """Split findings into (new, n_baselined) against baseline counts."""
    budget = {fp: int(entry.get("count", 0)) for fp, entry in baseline.items()}
    fresh: list[Finding] = []
    matched = 0
    for f in findings:
        if budget.get(f.fingerprint, 0) > 0:
            budget[f.fingerprint] -= 1
            matched += 1
        else:
            fresh.append(f)
    return fresh, matched


# -- reporters ---------------------------------------------------------
def render_text(result: AnalysisResult) -> str:
    out = [f.format() for f in result.findings]
    out.extend(f"parse error: {err}" for err in result.errors)
    summary = (
        f"{len(result.findings)} finding(s) in {result.files} file(s)"
        f" ({result.baselined} baselined, {result.suppressed} suppressed)"
    )
    out.append(summary)
    return "\n".join(out)


def render_json(result: AnalysisResult) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in result.findings],
            "errors": result.errors,
            "files": result.files,
            "suppressed": result.suppressed,
            "baselined": result.baselined,
            "counts": _counts(result.findings),
        },
        indent=2,
        sort_keys=True,
    )


def _counts(findings: Iterable[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return counts
