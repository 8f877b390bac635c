"""API-hygiene rules (RPR3xx).

These rules are *project-aware*: they import the live registries
(backends, schedules, partitioners, ``LoopyConfig``) and validate
string literals and keyword arguments against them, so a typo'd
``"c-nod:residual"`` or a ``LoopyConfig(paradgim=...)`` fails CI
instead of a production selection path.  When the project itself is
not importable (linting a detached checkout), the registry-backed
rules degrade to no-ops rather than crashing the analyzer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, Module, Rule, register

#: deprecation shims removed in repro 2.0 — importing them is now an error
_REMOVED_MODULES = {
    "repro.core.residual": "repro.core.scheduler (ResidualBP)",
    "repro.core.workqueue": "repro.core.scheduler (WorkQueue)",
}

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


def _registries():
    """(BACKENDS, normalize_schedule, normalize_partitioner, parse) or None."""
    try:
        from repro.backends.registry import BACKENDS
        from repro.core.scheduler import normalize_schedule
        from repro.credo.runner import parse_qualified
        from repro.partition import normalize_partitioner
    except Exception:  # pragma: no cover - detached checkout
        return None
    return BACKENDS, normalize_schedule, normalize_partitioner, parse_qualified


def validate_qualifier(spec: str) -> str | None:
    """Human-readable error for an unresolvable backend qualifier, else None.

    The grammar
    ``<backend>[:<schedule>][@<K>x<METHOD>[+<POLICY>[~<STALENESS>]]]``
    is owned by
    :func:`repro.credo.runner.parse_qualified` — the linter calls it in
    strict mode instead of keeping a second copy of the regex, so the
    checker can never drift from what the runner actually accepts.
    """
    registries = _registries()
    if registries is None:
        return None
    backends, normalize_schedule, normalize_partitioner, parse_qualified = registries
    try:
        fields = parse_qualified(spec, strict=True)
    except ValueError as exc:
        return str(exc)
    base = fields["backend"]
    if base not in backends:
        return f"unknown backend {base!r} (known: {', '.join(sorted(backends))})"
    schedule = fields.get("schedule")
    if schedule is not None:
        try:
            normalize_schedule(schedule)
        except (KeyError, ValueError) as exc:
            return f"bad schedule qualifier in {spec!r}: {exc}"
    method = fields.get("partitioner")
    if method is not None:
        try:
            normalize_partitioner(method)
        except (KeyError, ValueError) as exc:
            return f"bad partitioner in {spec!r}: {exc}"
    policy = fields.get("policy")
    if policy is not None:
        error = _validate_shard_policy(policy)
        if error is not None:
            return f"bad shard policy in {spec!r}: {error}"
        staleness = fields.get("staleness")
        if staleness is not None:
            error = _validate_staleness(policy, staleness)
            if error is not None:
                return f"bad staleness in {spec!r}: {error}"
    return None


def _validate_shard_policy(name: str) -> str | None:
    try:
        from repro.core.shard_policies import normalize_shard_policy
    except Exception:  # pragma: no cover - detached checkout
        return None
    try:
        normalize_shard_policy(name)
    except (KeyError, ValueError) as exc:
        return str(exc)
    return None


def _validate_staleness(policy: str | None, staleness: int) -> str | None:
    try:
        from repro.core.shard_policies import normalize_shard_policy
    except Exception:  # pragma: no cover - detached checkout
        return None
    if staleness < 0:
        return "staleness must be non-negative"
    if policy is not None:
        try:
            canonical = normalize_shard_policy(policy)
        except (KeyError, ValueError):
            return None  # the policy finding already covers this call
        if canonical == "sync" and staleness:
            return "the sync policy is staleness-free; use policy='async'"
    return None


def _validate_schedule(name: str) -> str | None:
    registries = _registries()
    if registries is None:
        return None
    _, normalize_schedule, _, _ = registries
    try:
        normalize_schedule(name)
    except (KeyError, ValueError) as exc:
        return str(exc)
    return None


@register
class DeprecatedShimRule(Rule):
    """RPR301: imports of removed 2.0 shim modules / deprecated kwargs."""

    id = "RPR301"
    name = "deprecated-shim"
    severity = "warning"
    description = (
        "import of a module removed in repro 2.0 (repro.core.residual / "
        "repro.core.workqueue) or use of the edge_cut_fraction kwarg"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _REMOVED_MODULES:
                        yield self._shim_finding(module, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module in _REMOVED_MODULES:
                    yield self._shim_finding(module, node, node.module)
            elif isinstance(node, ast.Call):
                func_name = self._call_name(node)
                if func_name is not None and func_name.endswith("Backend"):
                    for kw in node.keywords:
                        if kw.arg == "edge_cut_fraction":
                            yield self.finding(
                                module,
                                node,
                                "edge_cut_fraction= is deprecated (removal: "
                                "repro 2.0); pass a measured Partition "
                                "(repro.partition.make_partition) instead",
                            )

    def _shim_finding(self, module: Module, node: ast.AST, name: str) -> Finding:
        return self.finding(
            module,
            node,
            f"import of {name}, removed in repro 2.0; "
            f"import from {_REMOVED_MODULES[name]} instead",
        )

    @staticmethod
    def _call_name(call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return None


@register
class UnresolvableQualifierRule(Rule):
    """RPR302: backend / schedule qualifier strings that don't resolve."""

    id = "RPR302"
    name = "unresolvable-qualifier"
    description = (
        "backend name, ':schedule' or '@KxMETHOD' qualifier literal that "
        "does not resolve against the live registries"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            func_name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            candidates: list[tuple[ast.AST, str, str]] = []
            if func_name == "get_backend" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    candidates.append((arg, arg.value, "backend"))
            for kw in node.keywords:
                if not (
                    isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    continue
                if kw.arg == "backend":
                    candidates.append((kw.value, kw.value.value, "backend"))
                elif kw.arg == "schedule":
                    candidates.append((kw.value, kw.value.value, "schedule"))
            for target, value, kind in candidates:
                error = (
                    validate_qualifier(value)
                    if kind == "backend"
                    else _validate_schedule(value)
                )
                if error is not None:
                    yield self.finding(
                        module,
                        target,
                        f"{kind} literal {value!r} does not resolve: {error}",
                    )


@register
class UnknownConfigKwargRule(Rule):
    """RPR303: ``LoopyConfig(...)`` kwargs that don't exist (or are shims)."""

    id = "RPR303"
    name = "unknown-config-kwarg"
    description = (
        "LoopyConfig called with a keyword that is not a config field, "
        "or with the deprecated work_queue= boolean shim"
    )

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
                if kw.arg == "work_queue":
                    yield self.finding(
                        module,
                        node,
                        "LoopyConfig(work_queue=...) is a deprecated shim "
                        "(removal: repro 2.0); use schedule='work_queue' / "
                        "schedule='sync'",
                    )
                elif kw.arg not in fields:
                    yield self.finding(
                        module,
                        node,
                        f"LoopyConfig has no field {kw.arg!r} "
                        f"(known: {', '.join(sorted(fields))})",
                    )


@register
class UnknownShardPolicyRule(Rule):
    """RPR304: shard-policy / staleness values that don't resolve."""

    id = "RPR304"
    name = "unknown-shard-policy"
    description = (
        "policy=/shard_policy= literal not in the live shard-policy "
        "registry, a negative staleness= literal, or staleness on the "
        "staleness-free sync policy"
    )

    @staticmethod
    def _int_literal(node: ast.AST) -> int | None:
        """Plain or negated int literal (``-1`` parses as USub(1))."""
        if isinstance(node, ast.Constant):
            value = node.value
            return value if type(value) is int else None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = UnknownShardPolicyRule._int_literal(node.operand)
            return None if inner is None else -inner
        return None

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            policy: str | None = None
            policy_node: ast.AST | None = None
            staleness: int | None = None
            staleness_node: ast.AST | None = None
            for kw in node.keywords:
                if (
                    kw.arg in ("policy", "shard_policy")
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    policy, policy_node = kw.value.value, kw.value
                elif kw.arg == "staleness":
                    literal = self._int_literal(kw.value)
                    if literal is not None:
                        staleness, staleness_node = literal, kw.value
            if policy is not None:
                error = _validate_shard_policy(policy)
                if error is not None:
                    yield self.finding(
                        module,
                        policy_node,
                        f"shard policy literal {policy!r} does not resolve: "
                        f"{error}",
                    )
                    policy = None  # suppress the dependent staleness check
            if staleness is not None:
                error = _validate_staleness(policy, staleness)
                if error is not None:
                    yield self.finding(
                        module,
                        staleness_node,
                        f"staleness literal {staleness!r} does not resolve: "
                        f"{error}",
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
