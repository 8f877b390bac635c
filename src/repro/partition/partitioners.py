"""Graph partitioners producing *measured* shard assignments.

The distributed comparison of §5.1 (Gonzalez et al.'s cluster BP) and
the sharded cost models (DESIGN.md §9) need a node → shard map whose cut
size and balance are **measured on the actual graph**, not assumed.  A
:class:`Partition` therefore carries the assignment plus the derived
statistics every cost model downstream consumes:

``cut_fraction``
    Fraction of directed edges whose endpoints land on different shards
    — each such edge forces one boundary message per exchange round.

``balance``
    Max shard edge load over the ideal (total / n_shards) — the measured
    straggler factor of a bulk-synchronous round (the slowest shard sets
    the pace).

:meth:`Partition.shard_profile` adds the per-shard sizes a sharded
execution would hold (owned plus halo nodes, owned plus ghost edges) and
the boundary rows each shard would send and receive per exchange round.

Four partitioners cover the quality/cost ladder:

``hash``
    Multiplicative-hash pseudo-random assignment — O(n), no structure
    used; the baseline whose expected cut is ``1 − 1/k``.

``range``
    Contiguous id blocks — O(n); exploits locality only when node ids
    are already laid out meaningfully (grids, BFS-ordered inputs).

``bfs``
    Region growing: BFS from a seed fills shard 0 to its node quota,
    then continues into shard 1, … — a cheap edge-cut heuristic that
    keeps connected regions together (low cut on meshes and communities).

``greedy``
    Degree-aware linear greedy balance (LDG-style streaming placement):
    nodes in decreasing-degree order go to the shard holding most of
    their already-placed neighbours, discounted by shard fullness —
    trades a little cut for tight *edge* balance on skewed graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - repro.core imports this package
    from repro.core.graph import BeliefGraph

__all__ = [
    "PARTITIONERS",
    "Partition",
    "ShardProfile",
    "bfs_partition",
    "greedy_partition",
    "hash_partition",
    "make_partition",
    "normalize_partitioner",
    "range_partition",
]

#: canonical partitioner names, in cost order
PARTITIONERS = ("hash", "range", "bfs", "greedy")

_ALIASES = {
    "random": "hash",
    "block": "range",
    "contiguous": "range",
    "region": "bfs",
    "ldg": "greedy",
    "balanced": "greedy",
}


def normalize_partitioner(name: str) -> str:
    """Canonical partitioner name, accepting common aliases."""
    canonical = _ALIASES.get(name, name)
    if canonical not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {name!r}; known: {list(PARTITIONERS)}")
    return canonical


@dataclass(frozen=True, eq=False)
class Partition:
    """A node → shard assignment plus its measured statistics."""

    assignment: np.ndarray
    n_shards: int
    method: str
    #: directed edges whose src and dst shards differ
    cut_edges: int
    n_edges: int
    #: nodes owned per shard
    shard_nodes: np.ndarray = field(repr=False)
    #: directed edges owned (by destination) per shard
    shard_edges: np.ndarray = field(repr=False)

    @property
    def cut_fraction(self) -> float:
        """Measured fraction of directed edges crossing shards."""
        return self.cut_edges / self.n_edges if self.n_edges else 0.0

    @property
    def balance(self) -> float:
        """Max shard edge load over the ideal load (≥ 1.0): the measured
        straggler factor of one bulk-synchronous sweep round."""
        if self.n_edges == 0:
            return 1.0
        ideal = self.n_edges / self.n_shards
        return float(self.shard_edges.max()) / ideal

    @property
    def node_balance(self) -> float:
        """Max shard node count over the ideal (≥ 1.0)."""
        total = int(self.shard_nodes.sum())
        if total == 0:
            return 1.0
        return float(self.shard_nodes.max()) / (total / self.n_shards)

    def shard_profile(self, graph: BeliefGraph) -> "ShardProfile":
        """Per-shard local sizes and boundary rows, populated shards only.

        Ownership follows destinations: shard ``s`` owns its nodes and
        every directed edge into them.  A cut edge ``u → v`` makes ``u`` a
        halo node of ``v``'s shard (one belief row per distinct
        ``(shard, u)`` pair) and its reverse ``v → u`` a ghost edge there
        (one message row).  Each row is sent by the shard owning it and
        received by the shard holding the copy.  Empty shards are dropped.
        """
        if len(self.assignment) != graph.n_nodes:
            raise ValueError("partition does not match the graph")
        k, n = self.n_shards, graph.n_nodes
        owner = self.assignment
        cut = np.flatnonzero(owner[graph.src] != owner[graph.dst])
        src_owner = owner[graph.src[cut]]
        dst_owner = owner[graph.dst[cut]]
        # halo rows: distinct (receiving shard, source node) pairs
        halo = np.unique(dst_owner * n + graph.src[cut])
        halo_in = np.bincount(halo // n, minlength=k)
        halo_out = np.bincount(owner[halo % n], minlength=k)
        # ghost rows: the reverse of every paired cut edge
        paired = graph.reverse_edge[cut] >= 0
        ghost_in = np.bincount(dst_owner[paired], minlength=k)
        ghost_out = np.bincount(src_owner[paired], minlength=k)
        keep = self.shard_nodes > 0
        return ShardProfile(
            owned_nodes=self.shard_nodes[keep],
            owned_edges=self.shard_edges[keep],
            halo_nodes=halo_in[keep],
            ghost_edges=ghost_in[keep],
            outbound_rows=(halo_out + ghost_out)[keep],
            # every cut edge opens its (sender, receiver) lane
            n_routes=len(np.unique(src_owner * k + dst_owner)),
        )

    def stats(self) -> dict:
        """The measured numbers the cost models and Credo features read."""
        return {
            "method": self.method,
            "n_shards": float(self.n_shards),
            "cut_edges": float(self.cut_edges),
            "cut_fraction": self.cut_fraction,
            "balance": self.balance,
            "node_balance": self.node_balance,
        }

    def __repr__(self) -> str:
        return (
            f"Partition(method={self.method!r}, n_shards={self.n_shards}, "
            f"cut={self.cut_fraction:.3f}, balance={self.balance:.2f})"
        )


@dataclass(frozen=True, eq=False)
class ShardProfile:
    """Sizes and boundary traffic of each populated shard of a partition.

    Every array is indexed by populated shard, in shard-id order.  A row
    is one float32 belief or message vector of the graph's width.
    """

    owned_nodes: np.ndarray
    owned_edges: np.ndarray
    halo_nodes: np.ndarray
    ghost_edges: np.ndarray
    #: rows this shard sends per exchange round
    outbound_rows: np.ndarray
    #: distinct (sender, receiver) shard pairs with rows to move
    n_routes: int

    @property
    def n_shards(self) -> int:
        return len(self.owned_nodes)

    @property
    def local_nodes(self) -> np.ndarray:
        """Owned plus halo nodes: the belief rows a shard holds."""
        return self.owned_nodes + self.halo_nodes

    @property
    def local_edges(self) -> np.ndarray:
        """Owned plus ghost edges: the message rows a shard holds."""
        return self.owned_edges + self.ghost_edges

    @property
    def inbound_rows(self) -> np.ndarray:
        """Rows this shard receives per exchange round."""
        return self.halo_nodes + self.ghost_edges

    @property
    def work_share(self) -> np.ndarray:
        """Each shard's fraction of a sweep's work: its share of the
        owned edges, or of the nodes on an edgeless graph."""
        owned = self.owned_edges if self.owned_edges.sum() else self.owned_nodes
        return owned / max(owned.sum(), 1)

    def exchange_bytes(self, n_states: int) -> tuple[int, int]:
        """``(bytes_per_round, max_device_bytes)``: the boundary payload
        of one exchange round, and the heaviest shard's in+out share."""
        row_bytes = 4 * n_states
        total = int(self.inbound_rows.sum()) * row_bytes
        heaviest = self.inbound_rows + self.outbound_rows
        return total, (int(heaviest.max()) * row_bytes if self.n_shards else 0)


# ---------------------------------------------------------------------------
# assignment strategies (each returns an (n,) int64 shard id array)
# ---------------------------------------------------------------------------

def _hash_assign(graph: BeliefGraph, n_shards: int, seed: int) -> np.ndarray:
    # Knuth multiplicative hash over node ids: deterministic, structure-blind
    ids = np.arange(graph.n_nodes, dtype=np.uint64)
    mixed = (ids + np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(n_shards)).astype(np.int64)


def _range_assign(graph: BeliefGraph, n_shards: int, seed: int) -> np.ndarray:
    n = graph.n_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    return np.minimum(ids * n_shards // n, n_shards - 1)


def _bfs_assign(graph: BeliefGraph, n_shards: int, seed: int) -> np.ndarray:
    n = graph.n_nodes
    quota = -(-n // n_shards)  # ceil
    order: list[int] = []
    visited = np.zeros(n, dtype=bool)
    # Deterministic region growth: restart from the lowest unvisited id so
    # disconnected components queue up back-to-back instead of fragmenting.
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        frontier: deque[int] = deque([start])
        while frontier:
            v = frontier.popleft()
            order.append(v)
            for u in graph.children(v):
                if not visited[u]:
                    visited[u] = True
                    frontier.append(int(u))
            for u in graph.parents(v):
                if not visited[u]:
                    visited[u] = True
                    frontier.append(int(u))
    assignment = np.empty(n, dtype=np.int64)
    ranks = np.arange(n, dtype=np.int64) // quota
    assignment[np.asarray(order, dtype=np.int64)] = np.minimum(ranks, n_shards - 1)
    return assignment


def _greedy_assign(graph: BeliefGraph, n_shards: int, seed: int) -> np.ndarray:
    n = graph.n_nodes
    degree = graph.in_degree() + graph.out_degree()
    # decreasing-degree order: place hubs first, while every shard is open
    order = np.argsort(-degree, kind="stable")
    capacity = max(float(degree.sum()) / n_shards, 1.0) * 1.05 + 1.0
    load = np.zeros(n_shards)
    assignment = np.full(n, -1, dtype=np.int64)
    for v in order:
        neigh = assignment[np.concatenate((graph.parents(v), graph.children(v)))]
        placed = neigh[neigh >= 0]
        affinity = np.bincount(placed, minlength=n_shards).astype(float)
        # LDG objective: neighbours already present, discounted by fullness
        score = (1.0 + affinity) * np.maximum(1.0 - load / capacity, 0.0)
        best = int(np.argmax(score - 1e-9 * load))  # tie-break: least loaded
        assignment[v] = best
        load[best] += float(degree[v]) + 1.0
    return assignment


_STRATEGIES = {
    "hash": _hash_assign,
    "range": _range_assign,
    "bfs": _bfs_assign,
    "greedy": _greedy_assign,
}


# ---------------------------------------------------------------------------
def _measure(
    graph: BeliefGraph, assignment: np.ndarray, n_shards: int, method: str
) -> Partition:
    cut = (
        int(np.count_nonzero(assignment[graph.src] != assignment[graph.dst]))
        if graph.n_edges
        else 0
    )
    shard_nodes = np.bincount(assignment, minlength=n_shards).astype(np.int64)
    shard_edges = (
        np.bincount(assignment[graph.dst], minlength=n_shards).astype(np.int64)
        if graph.n_edges
        else np.zeros(n_shards, dtype=np.int64)
    )
    return Partition(
        assignment=assignment,
        n_shards=n_shards,
        method=method,
        cut_edges=cut,
        n_edges=graph.n_edges,
        shard_nodes=shard_nodes,
        shard_edges=shard_edges,
    )


def make_partition(
    graph: BeliefGraph,
    n_shards: int,
    method: str = "bfs",
    *,
    seed: int = 0,
) -> Partition:
    """Partition ``graph`` into ``n_shards`` and measure the result.

    Shards may come out empty on tiny graphs (7 shards over 5 nodes);
    the sharded executors simply skip them.  Deterministic for a given
    ``(graph, n_shards, method, seed)``.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    canonical = normalize_partitioner(method)
    if n_shards == 1 or graph.n_nodes == 0:
        assignment = np.zeros(graph.n_nodes, dtype=np.int64)
    else:
        assignment = _STRATEGIES[canonical](graph, n_shards, seed)
    return _measure(graph, assignment, n_shards, canonical)


def hash_partition(graph: BeliefGraph, n_shards: int, *, seed: int = 0) -> Partition:
    """Multiplicative-hash pseudo-random assignment (the analytic baseline)."""
    return make_partition(graph, n_shards, "hash", seed=seed)


def range_partition(graph: BeliefGraph, n_shards: int, *, seed: int = 0) -> Partition:
    """Contiguous node-id blocks."""
    return make_partition(graph, n_shards, "range", seed=seed)


def bfs_partition(graph: BeliefGraph, n_shards: int, *, seed: int = 0) -> Partition:
    """BFS region growing with per-shard node quotas (edge-cut heuristic)."""
    return make_partition(graph, n_shards, "bfs", seed=seed)


def greedy_partition(graph: BeliefGraph, n_shards: int, *, seed: int = 0) -> Partition:
    """Degree-aware greedy balance (LDG-style streaming placement)."""
    return make_partition(graph, n_shards, "greedy", seed=seed)
