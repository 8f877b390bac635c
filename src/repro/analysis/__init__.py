"""repro.analysis: project-aware static checker.

:mod:`repro.analysis.framework` + :mod:`repro.analysis.rules` — an AST
lint pass with rules that encode *this repo's* invariants
(epsilon-clamped logs and divisions, in-place writes to shared
arrays, serve-layer lock discipline, live ``LoopyConfig`` kwargs,
writes to a registered model's frozen graph).
Run it as ``python -m repro.analysis src`` or ``credo lint``.
"""

from repro.analysis.framework import (
    AnalysisResult,
    Analyzer,
    Finding,
    Module,
    Rule,
    all_rules,
    apply_baseline,
    load_baseline,
    register,
    render_json,
    render_text,
    write_baseline,
)

__all__ = [
    "Analyzer",
    "AnalysisResult",
    "Finding",
    "Module",
    "Rule",
    "register",
    "all_rules",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_text",
    "render_json",
]
