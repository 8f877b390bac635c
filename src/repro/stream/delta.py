"""Validated graph deltas with journal/replay (DESIGN.md §15).

A :class:`GraphDelta` is one atomic batch of mutations against a
:class:`~repro.core.graph.BeliefGraph`: add nodes, add/remove undirected
edges, detach nodes, and set/clear evidence.  :func:`apply_delta` never
mutates its input — it returns a fresh graph plus the bookkeeping the
incremental engine and the serve layer need (dirty nodes, an old→new
edge-id map, whether structure changed).  :func:`apply_evidence` is the
in-place step of its evidence-only path, for a caller that owns the
graph.

Operations inside one batch apply in a fixed order: add nodes → add
edges → remove edges → detach nodes → observe → release.  Removing an
edge added in the same batch (or re-adding a removed one) is rejected —
split such sequences across two deltas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.observation import evidence_state, observe

__all__ = [
    "DeltaJournal",
    "DeltaResult",
    "GraphDelta",
    "JournalDecodeError",
    "apply_delta",
    "apply_evidence",
]

_FLOAT = np.float32

#: payload keys carrying structural operations
STRUCTURAL_KEYS = ("add_nodes", "add_edges", "remove_edges", "detach_nodes")
#: payload keys carrying evidence operations
EVIDENCE_KEYS = ("observe", "release")

NodeRef = int | str


@dataclass
class GraphDelta:
    """One validated batch of graph mutations.

    Node references may be ids or names; they resolve against the target
    graph at apply time.  The chaining builder methods return ``self``::

        delta = GraphDelta().add_node(name="probe").add_edge("probe", "alarm")
    """

    add_nodes: list[dict] = field(default_factory=list)
    add_edges: list[tuple] = field(default_factory=list)
    remove_edges: list[tuple] = field(default_factory=list)
    detach_nodes: list = field(default_factory=list)
    observe: list[tuple] = field(default_factory=list)
    release: list = field(default_factory=list)

    # -- chaining builders ----------------------------------------------
    def add_node(
        self, *, name: str | None = None, prior: Sequence[float] | None = None
    ) -> "GraphDelta":
        self.add_nodes.append(
            {"name": name, "prior": None if prior is None else [float(p) for p in prior]}
        )
        return self

    def add_edge(
        self, u: NodeRef, v: NodeRef, matrix: np.ndarray | None = None
    ) -> "GraphDelta":
        self.add_edges.append((u, v, None if matrix is None else np.asarray(matrix, _FLOAT)))
        return self

    def remove_edge(self, u: NodeRef, v: NodeRef) -> "GraphDelta":
        self.remove_edges.append((u, v))
        return self

    def detach_node(self, node: NodeRef) -> "GraphDelta":
        self.detach_nodes.append(node)
        return self

    def observe_node(self, node: NodeRef, state: int) -> "GraphDelta":
        """Observe ``node`` in ``state``: an int, an integral float or a
        decimal string; a bool or a fraction raises ``ValueError``."""
        self.observe.append((node, evidence_state(state)))
        return self

    def release_node(self, node: NodeRef) -> "GraphDelta":
        self.release.append(node)
        return self

    # -- predicates -----------------------------------------------------
    @property
    def structural(self) -> bool:
        """True when the delta changes graph structure (not just evidence)."""
        return bool(
            self.add_nodes or self.add_edges or self.remove_edges or self.detach_nodes
        )

    @property
    def empty(self) -> bool:
        return not (self.structural or self.observe or self.release)

    # -- wire format ----------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict, omitting empty operation lists."""
        payload: dict = {}
        if self.add_nodes:
            payload["add_nodes"] = [dict(spec) for spec in self.add_nodes]
        if self.add_edges:
            payload["add_edges"] = [
                [u, v, None if m is None else np.asarray(m, _FLOAT).tolist()]
                for u, v, m in self.add_edges
            ]
        if self.remove_edges:
            payload["remove_edges"] = [[u, v] for u, v in self.remove_edges]
        if self.detach_nodes:
            payload["detach_nodes"] = list(self.detach_nodes)
        if self.observe:
            payload["observe"] = [[node, int(state)] for node, state in self.observe]
        if self.release:
            payload["release"] = list(self.release)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphDelta":
        """Parse the wire format, validating shapes (not graph semantics)."""
        if not isinstance(payload, dict):
            raise ValueError("delta payload must be a mapping")
        delta = cls()
        for spec in _as_list(payload, "add_nodes"):
            if not isinstance(spec, dict):
                raise ValueError("add_nodes entries must be mappings")
            delta.add_node(name=spec.get("name"), prior=spec.get("prior"))
        for entry in _as_list(payload, "add_edges"):
            if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
                raise ValueError("add_edges entries must be [u, v] or [u, v, matrix]")
            matrix = entry[2] if len(entry) == 3 and entry[2] is not None else None
            delta.add_edge(entry[0], entry[1], matrix)
        for entry in _as_list(payload, "remove_edges"):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("remove_edges entries must be [u, v]")
            delta.remove_edge(entry[0], entry[1])
        for node in _as_list(payload, "detach_nodes"):
            delta.detach_node(node)
        for entry in _as_list(payload, "observe"):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("observe entries must be [node, state]")
            delta.observe_node(entry[0], entry[1])
        for node in _as_list(payload, "release"):
            delta.release_node(node)
        return delta


def _as_list(payload: dict, key: str) -> list:
    value = payload.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list")
    return value


@dataclass
class DeltaResult:
    """Outcome of :func:`apply_delta`.

    ``edge_map`` maps old directed edge ids to new ones (−1 for dropped
    edges); ``None`` when structure was untouched.  ``dirty_nodes`` are
    the nodes whose posteriors the delta can move directly — endpoints of
    added/removed edges plus every node whose prior or evidence changed.
    """

    graph: BeliefGraph
    dirty_nodes: np.ndarray
    structural: bool
    dirty_fraction: float
    edge_map: np.ndarray | None
    added_nodes: int = 0
    added_edges: int = 0
    removed_edges: int = 0


# ----------------------------------------------------------------------
def apply_delta(graph: BeliefGraph, delta: GraphDelta) -> DeltaResult:
    """Apply ``delta`` to ``graph``, returning a new graph.

    The input graph is never mutated.  Evidence-only deltas take the fast
    path, :func:`apply_evidence` on a :meth:`BeliefGraph.copy` (structure
    shared); structural deltas rebuild the structure arrays with
    surviving posteriors and evidence carried over.
    """
    if not delta.structural:
        return apply_evidence(graph.copy(), delta)
    _check_uniform(graph)
    return _apply_structural(graph, delta)


def _check_uniform(graph: BeliefGraph) -> None:
    if not graph.uniform:
        raise ValueError("the delta layer requires constant-width beliefs")


def _resolve(graph: BeliefGraph, node: NodeRef) -> int:
    nid = graph.node_id(node)
    if not 0 <= nid < graph.n_nodes:
        raise KeyError(f"node id {nid} out of range")
    return nid


def _release_node(graph: BeliefGraph, nid: int) -> None:
    graph.observed[nid] = False
    graph.observed_state[nid] = -1
    graph.beliefs.copy_rows_from(graph.priors, np.array([nid], dtype=np.int64))


def apply_evidence(graph: BeliefGraph, delta: GraphDelta) -> DeltaResult:
    """Apply the evidence-only ``delta`` to ``graph`` in place.

    Every node and state is checked before the first write, so a
    rejected delta leaves ``graph`` as it was.  :func:`apply_delta` runs
    this on a copy; the incremental engine runs it on its own graph.
    """
    if delta.structural:
        raise ValueError("apply_evidence takes evidence-only deltas")
    _check_uniform(graph)
    observed = []
    for node, state in delta.observe:
        nid, state = _resolve(graph, node), int(state)
        dim = int(graph.dims[nid])
        if not 0 <= state < dim:
            raise ValueError(f"state {state} out of range for node with {dim} states")
        observed.append((nid, state))
    released = [_resolve(graph, node) for node in delta.release]
    for nid, state in observed:
        observe(graph, nid, state)
    for nid in released:
        if graph.observed[nid]:
            _release_node(graph, nid)
    dirty_nodes = np.unique(
        np.array([nid for nid, _ in observed] + released, dtype=np.int64)
    )
    return DeltaResult(
        graph=graph,
        dirty_nodes=dirty_nodes,
        structural=False,
        dirty_fraction=len(dirty_nodes) / max(graph.n_nodes, 1),
        edge_map=None,
    )


def _apply_structural(graph: BeliefGraph, delta: GraphDelta) -> DeltaResult:
    b = graph.n_states
    n_old, m_old = graph.n_nodes, graph.n_edges
    dirty: set[int] = set()

    def name_taken(name: str) -> bool:
        """Is ``name`` an old node's name?  Through the graph's name map
        (built once, shared by copies), or the id rule of unbuilt
        default names."""
        try:
            graph.node_id(name)
        except KeyError:
            return False
        return True

    # -- new nodes ------------------------------------------------------
    new_names: dict[str, int] = {}
    added_names: list[str] = []
    prior_rows: list[np.ndarray] = []
    for spec in delta.add_nodes:
        nid = n_old + len(prior_rows)
        name = spec.get("name")
        if name is None:
            name = str(nid)
        if name in new_names or name_taken(name):
            raise ValueError(f"node name {name!r} already exists")
        prior = spec.get("prior")
        if prior is None:
            row = np.full(b, 1.0 / b, dtype=_FLOAT)
        else:
            row = np.asarray(prior, dtype=_FLOAT).reshape(-1)
            if len(row) != b:
                raise ValueError(f"prior for node {name!r} needs {b} values")
            if not np.isfinite(row).all() or (row < 0).any() or row.sum() <= 0:
                raise ValueError(f"prior for node {name!r} is not a valid distribution")
        added_names.append(name)
        new_names[name] = nid
        prior_rows.append(row)
        dirty.add(nid)
    n_new = n_old + len(prior_rows)

    # -- resolve edge operations ---------------------------------------
    def resolve(node: NodeRef) -> int:
        """Resolve against the old graph plus this delta's new nodes."""
        if isinstance(node, str) and node in new_names:
            return new_names[node]
        nid = graph.node_id(node)
        if not 0 <= nid < n_new:
            raise KeyError(f"node id {nid} out of range")
        return nid

    def find_edge(u: int, v: int) -> int | None:
        """The id of an old directed edge ``u→v`` (the last, if repeated),
        from ``u``'s out-edges in O(degree)."""
        if u >= n_old:
            return None
        out = graph.out_edges(u)
        hits = out[graph.dst[out] == v]
        return int(hits[-1]) if len(hits) else None

    shared_mat = graph.potentials.matrix(0) if graph.potentials.shared and m_old else None

    add_pairs: list[tuple[int, int]] = []
    add_mats: list[np.ndarray | None] = []
    pending: set[tuple[int, int]] = set()
    for u, v, matrix in delta.add_edges:
        ui, vi = resolve(u), resolve(v)
        if ui == vi:
            raise ValueError(f"self loop on node {ui} is not allowed")
        if find_edge(ui, vi) is not None or find_edge(vi, ui) is not None:
            raise ValueError(f"edge {ui}–{vi} already exists")
        if (ui, vi) in pending or (vi, ui) in pending:
            raise ValueError(f"edge {ui}–{vi} added twice in one delta")
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=_FLOAT)
            if matrix.shape != (b, b):
                raise ValueError(f"edge potential must be ({b}, {b})")
            if not np.isfinite(matrix).all() or (matrix < 0).any():
                raise ValueError("edge potential must be finite and non-negative")
        add_pairs.append((ui, vi))
        add_mats.append(matrix)
        pending.add((ui, vi))
        dirty.update((ui, vi))

    removals: set[int] = set()
    for u, v in delta.remove_edges:
        ui, vi = resolve(u), resolve(v)
        eid = find_edge(ui, vi)
        if eid is None:
            eid = find_edge(vi, ui)
        if eid is None:
            raise ValueError(f"no edge {ui}–{vi} to remove")
        removals.add(eid)
        rev = int(graph.reverse_edge[eid])
        if rev >= 0:
            removals.add(rev)
    detached = {resolve(node) for node in delta.detach_nodes}
    for nid in detached:
        if nid < n_old:
            removals.update(int(e) for e in graph.in_edges(nid))
            removals.update(int(e) for e in graph.out_edges(nid))
        dirty.add(nid)
    if removals:
        removed = np.fromiter(removals, dtype=np.int64)
        dirty.update(int(x) for x in graph.src[removed])
        dirty.update(int(x) for x in graph.dst[removed])

    # -- rebuild node-side arrays --------------------------------------
    priors = np.empty((n_new, b), dtype=_FLOAT)
    priors[:n_old] = graph.priors.dense()
    if prior_rows:
        priors[n_old:] = np.stack(prior_rows)
    beliefs = np.empty((n_new, b), dtype=_FLOAT)
    beliefs[:n_old] = graph.beliefs.dense()
    observed = np.zeros(n_new, dtype=bool)
    observed[:n_old] = graph.observed
    observed_state = np.full(n_new, -1, dtype=np.int64)
    observed_state[:n_old] = graph.observed_state
    for nid in detached:
        priors[nid] = 1.0 / b
        beliefs[nid] = 1.0 / b
        observed[nid] = False
        observed_state[nid] = -1

    # -- rebuild edge-side arrays --------------------------------------
    keep = np.ones(m_old, dtype=bool)
    if removals:
        keep[np.fromiter(removals, dtype=np.int64)] = False
    kept = np.flatnonzero(keep)
    edge_map = np.full(m_old, -1, dtype=np.int64)
    edge_map[kept] = np.arange(len(kept), dtype=np.int64)

    k = len(add_pairs)
    m_new = len(kept) + 2 * k
    src = np.empty(m_new, dtype=np.int64)
    dst = np.empty(m_new, dtype=np.int64)
    rev = np.empty(m_new, dtype=np.int64)
    src[: len(kept)] = graph.src[kept]
    dst[: len(kept)] = graph.dst[kept]
    old_rev = graph.reverse_edge[kept]
    rev[: len(kept)] = np.where(old_rev >= 0, edge_map[old_rev], -1)
    if k:
        pairs = np.array(add_pairs, dtype=np.int64)
        base = len(kept)
        src[base + 0 :: 2], dst[base + 0 :: 2] = pairs[:, 0], pairs[:, 1]
        src[base + 1 :: 2], dst[base + 1 :: 2] = pairs[:, 1], pairs[:, 0]
        rev[base + 0 :: 2] = base + np.arange(1, 2 * k, 2)
        rev[base + 1 :: 2] = base + np.arange(0, 2 * k, 2)

    # -- potentials -----------------------------------------------------
    keeps_shared = graph.potentials.shared and all(m is None for m in add_mats)
    if keeps_shared:
        if m_new and shared_mat is None:
            raise ValueError("graph has no shared potential; edge additions need matrices")
        pots = (
            np.asarray(shared_mat, dtype=_FLOAT)
            if shared_mat is not None
            else np.eye(b, dtype=_FLOAT)
        )
    else:
        stack = np.empty((m_new, b, b), dtype=_FLOAT)
        stack[: len(kept)] = graph.potentials.stacked()[kept]
        for idx, matrix in enumerate(add_mats):
            if matrix is None:
                if shared_mat is None:
                    raise ValueError(
                        "per-edge graph: edge additions need explicit matrices"
                    )
                matrix = np.asarray(shared_mat, dtype=_FLOAT)
            stack[len(kept) + 2 * idx] = matrix
            stack[len(kept) + 2 * idx + 1] = matrix.T
        pots = stack

    # unbuilt default names stay unbuilt while every new node takes the
    # default name of its id
    names = None
    if not graph.lazy_names or any(
        name != str(n_old + i) for i, name in enumerate(added_names)
    ):
        names = graph.node_names + added_names
    new = BeliefGraph(
        priors,
        src,
        dst,
        pots,
        reverse_edge=rev,
        node_names=names,
        layout=graph.layout,
    )

    # -- carry posteriors and evidence over ----------------------------
    if prior_rows:
        beliefs[n_old:] = new.priors.dense()[n_old:]
    new.beliefs.load_dense(beliefs)
    for nid in np.flatnonzero(observed):
        observe(new, int(nid), int(observed_state[nid]))
    for node, state in delta.observe:
        nid = _resolve(new, node)
        observe(new, nid, int(state))
        dirty.add(nid)
    for node in delta.release:
        nid = _resolve(new, node)
        if new.observed[nid]:
            _release_node(new, nid)
        dirty.add(nid)

    dirty_nodes = np.array(sorted(dirty), dtype=np.int64)
    return DeltaResult(
        graph=new,
        dirty_nodes=dirty_nodes,
        structural=True,
        dirty_fraction=len(dirty_nodes) / max(n_new, 1),
        edge_map=edge_map,
        added_nodes=len(prior_rows),
        added_edges=2 * k,
        removed_edges=int(m_old - len(kept)),
    )


# ----------------------------------------------------------------------
class JournalDecodeError(ValueError):
    """A journal line is not a complete JSON delta — typically the tail
    of a write that was cut off.  Names the file, the 1-based line and
    how many complete deltas precede it (the recoverable prefix)."""

    def __init__(self, path: str | Path, line: int, complete: int, reason: str):
        self.path = str(path)
        self.line = line
        self.complete = complete
        super().__init__(
            f"{self.path}: line {line} is not a complete JSON delta ({reason}); "
            f"{complete} complete delta(s) precede it"
        )


class DeltaJournal:
    """An append-only log of deltas, replayable onto a fresh graph.

    Persists as JSON lines (one :meth:`GraphDelta.to_payload` per line),
    so a journal written by one process replays bit-exactly in another —
    the recovery story for mutable served models.
    """

    def __init__(self, deltas: Iterable[GraphDelta] | None = None):
        self.deltas: list[GraphDelta] = list(deltas or [])

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[GraphDelta]:
        return iter(self.deltas)

    def append(self, delta: GraphDelta) -> None:
        self.deltas.append(delta)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for delta in self.deltas:
                out.write(json.dumps(delta.to_payload(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DeltaJournal":
        """Read a saved journal; a torn or garbled line raises
        :class:`JournalDecodeError`."""
        journal = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise JournalDecodeError(
                        path, lineno, len(journal), exc.msg
                    ) from exc
                journal.append(GraphDelta.from_payload(payload))
        return journal

    def replay(self, graph: BeliefGraph) -> BeliefGraph:
        """Apply every delta in order; returns the final graph."""
        for delta in self.deltas:
            graph = apply_delta(graph, delta).graph
        return graph
