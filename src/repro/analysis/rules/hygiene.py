"""API-hygiene rules (RPR3xx).

These rules are *project-aware*: RPR303 imports the live
``LoopyConfig`` and validates keyword arguments against its fields, so
a ``LoopyConfig(paradgim=...)`` fails CI instead of a production run.
When the project itself is not importable (linting a detached
checkout), it degrades to a no-op rather than crashing the analyzer.
RPR306 keeps writes off a registered model's frozen graph.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, Module, Rule, register

#: BeliefGraph fields a registered model's master graph freezes; writes
#: must go through the GraphDelta API (repro.stream.delta) instead
_FROZEN_GRAPH_FIELDS = {
    "src",
    "dst",
    "reverse_edge",
    "priors",
    "beliefs",
    "potentials",
    "observed",
    "observed_state",
    "node_names",
    "dims",
    "in_offsets",
    "in_edge_ids",
    "out_offsets",
    "out_edge_ids",
}


@register
class UnknownConfigKwargRule(Rule):
    """RPR303: ``LoopyConfig(...)`` kwargs that don't exist."""

    id = "RPR303"
    name = "unknown-config-kwarg"
    description = "LoopyConfig called with a keyword that is not a config field"

    def _fields(self) -> set[str] | None:
        try:
            import dataclasses

            from repro.core.loopy import LoopyConfig
        except Exception:  # pragma: no cover - detached checkout
            return None
        return {f.name for f in dataclasses.fields(LoopyConfig)}

    def check(self, module: Module) -> Iterator[Finding]:
        fields = self._fields()
        if fields is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "LoopyConfig":
                continue
            for kw in node.keywords:
                if kw.arg is None:  # **kwargs — can't check statically
                    continue
                if kw.arg not in fields:
                    yield self.finding(
                        module,
                        node,
                        f"LoopyConfig has no field {kw.arg!r} "
                        f"(known: {', '.join(sorted(fields))})",
                    )


@register
class FrozenGraphMutationRule(Rule):
    """RPR306: direct mutation of a registered model's frozen graph."""

    id = "RPR306"
    name = "frozen-graph-mutation"
    description = (
        "write to a structure field of a '.graph' attribute (a registered "
        "model's frozen master), or evidence applied to one — mutate "
        "through the GraphDelta API (repro.stream.delta) instead"
    )

    @staticmethod
    def _attr_chain(node: ast.AST) -> list[str]:
        """Attribute names along a ``a.b[i].c``-style chain, outermost last.

        Subscripts between attributes are transparent, so
        ``registry.get("m").graph.src[0]`` yields ``['graph', 'src']`` —
        the call boundary resets the chain (its result, not its receiver,
        is what's being mutated).
        """
        attrs: list[str] = []
        while True:
            if isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            else:
                break
        attrs.reverse()
        return attrs

    def _is_frozen_write(self, target: ast.AST) -> bool:
        attrs = self._attr_chain(target)
        for i, name in enumerate(attrs[:-1]):
            if name == "graph" and attrs[i + 1] in _FROZEN_GRAPH_FIELDS:
                return True
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if self._is_frozen_write(target):
                        yield self.finding(
                            module,
                            node,
                            "direct write to a registered model's frozen "
                            "graph; apply a GraphDelta "
                            "(repro.stream.delta) instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                func_name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if func_name not in ("observe", "clear_observations"):
                    continue
                if not node.args:
                    continue
                attrs = self._attr_chain(node.args[0])
                if attrs and attrs[-1] == "graph":
                    yield self.finding(
                        module,
                        node,
                        f"{func_name}() on a registered model's frozen "
                        "graph; evidence travels with queries, structural "
                        "changes through GraphDelta (repro.stream.delta)",
                    )
