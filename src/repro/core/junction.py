"""Junction-tree exact inference (extension; paper §5.1 related work).

Bistaffa et al. — the GPU BP work the paper compares against — "recompile
the graph into an optimized form called a 'junction tree'".  This module
implements that pipeline for pairwise MRFs:

1. **triangulation** by the min-fill elimination heuristic;
2. **clique extraction** from the elimination order;
3. **junction-tree construction** as a maximum-weight spanning tree over
   clique-intersection sizes (which guarantees the running-intersection
   property);
4. **factor assignment** of node priors and edge potentials to cliques;
5. **two-pass sum-product** over the clique tree (collect + distribute)
   with dense clique tables;
6. **marginal extraction** per variable.

Complexity is exponential in the induced treewidth, so this is exact
inference for *sparse* graphs of any size — a far stronger oracle than
brute-force enumeration (which caps at ~20 nodes), used by the test
suite to validate loopy BP on loopy graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.numeric import EPS as _TINY  # shared float64 floor

__all__ = ["JunctionTree", "junction_tree_marginals", "treewidth_upper_bound"]


def _undirected_adjacency(graph: BeliefGraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(graph.n_nodes)]
    for e in range(graph.n_edges):
        u, v = int(graph.src[e]), int(graph.dst[e])
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _min_fill_order(adj: list[set[int]]) -> tuple[list[int], list[set[int]]]:
    """Elimination order by the min-fill heuristic.

    Returns the order and, per eliminated node, the clique it induced
    (the node plus its not-yet-eliminated neighbourhood).
    """
    n = len(adj)
    work = [set(s) for s in adj]
    eliminated = [False] * n
    order: list[int] = []
    cliques: list[set[int]] = []

    def fill_in(v: int) -> int:
        neigh = [u for u in work[v] if not eliminated[u]]
        missing = 0
        for i in range(len(neigh)):
            for j in range(i + 1, len(neigh)):
                if neigh[j] not in work[neigh[i]]:
                    missing += 1
        return missing

    for _ in range(n):
        best, best_fill = -1, None
        for v in range(n):
            if eliminated[v]:
                continue
            f = fill_in(v)
            if best_fill is None or f < best_fill:
                best, best_fill = v, f
                if f == 0:
                    break
        v = best
        neigh = {u for u in work[v] if not eliminated[u]}
        cliques.append(neigh | {v})
        for a in neigh:
            for b in neigh:
                if a != b:
                    work[a].add(b)
        eliminated[v] = True
        order.append(v)
    return order, cliques


def treewidth_upper_bound(graph: BeliefGraph) -> int:
    """Induced width of the min-fill order (treewidth upper bound)."""
    _, cliques = _min_fill_order(_undirected_adjacency(graph))
    return max((len(c) - 1 for c in cliques), default=0)


@dataclass
class _Clique:
    variables: tuple[int, ...]
    table: np.ndarray  # shape: dims of variables, in order
    neighbours: list[int] = field(default_factory=list)


class JunctionTree:
    """Compiled junction tree over a pairwise belief graph.

    Raises ``ValueError`` when the induced width exceeds ``max_width``
    (the table sizes would explode).
    """

    def __init__(self, graph: BeliefGraph, *, max_width: int = 12):
        self.graph = graph
        adj = _undirected_adjacency(graph)
        _, raw_cliques = _min_fill_order(adj)

        # prune non-maximal cliques
        maximal: list[set[int]] = []
        for c in sorted(raw_cliques, key=len, reverse=True):
            if not any(c <= m for m in maximal):
                maximal.append(c)
        width = max((len(c) - 1 for c in maximal), default=0)
        if width > max_width:
            raise ValueError(
                f"induced width {width} exceeds max_width={max_width}; "
                "the junction tree would be intractable"
            )

        dims = graph.dims
        self.cliques: list[_Clique] = []
        for c in maximal:
            variables = tuple(sorted(c))
            shape = tuple(int(dims[v]) for v in variables)
            self.cliques.append(_Clique(variables, np.ones(shape, dtype=np.float64)))

        self._build_tree()
        self._assign_factors()

    # ------------------------------------------------------------------
    def _build_tree(self) -> None:
        """Maximum-weight spanning tree over pairwise intersections."""
        k = len(self.cliques)
        edges = []
        for i in range(k):
            si = set(self.cliques[i].variables)
            for j in range(i + 1, k):
                w = len(si & set(self.cliques[j].variables))
                if w > 0:
                    edges.append((-w, i, j))
        edges.sort()
        parent = list(range(k))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        self.tree_edges: list[tuple[int, int]] = []
        for _w, i, j in edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                self.tree_edges.append((i, j))
                self.cliques[i].neighbours.append(j)
                self.cliques[j].neighbours.append(i)
        # disconnected components (isolated cliques) are fine: the passes
        # simply treat each tree in the forest independently

    def _assign_factors(self) -> None:
        """Multiply every prior and undirected potential into exactly one
        containing clique."""
        graph = self.graph
        # index: variable -> cliques containing it
        containing: dict[int, list[int]] = {}
        for idx, clique in enumerate(self.cliques):
            for v in clique.variables:
                containing.setdefault(v, []).append(idx)

        def multiply_in(clique_idx: int, variables: tuple[int, ...], values: np.ndarray):
            clique = self.cliques[clique_idx]
            axes = [clique.variables.index(v) for v in variables]
            expand = values
            # move factor axes into clique order with broadcasting
            shape = [1] * len(clique.variables)
            if len(variables) == 1:
                shape[axes[0]] = values.shape[0]
                clique.table *= values.reshape(shape)
            else:
                # 2-variable factor: align both axes
                a, b = axes
                view = np.moveaxis(
                    expand.reshape(values.shape + (1,) * (len(clique.variables) - 2)),
                    (0, 1),
                    (a, b),
                )
                clique.table *= view

        for v in range(graph.n_nodes):
            prior = graph.priors[v, : graph.dims[v]].astype(np.float64)
            if graph.observed[v]:
                prior = np.full(int(graph.dims[v]), _TINY)
                prior[int(graph.observed_state[v])] = 1.0
            multiply_in(containing[v][0], (v,), np.maximum(prior, _TINY))

        for e in range(graph.n_edges):
            rev = int(graph.reverse_edge[e])
            if rev != -1 and e > rev:
                continue  # one factor per undirected edge
            u, v = int(graph.src[e]), int(graph.dst[e])
            if u == v:
                continue
            psi = np.asarray(graph.potentials.matrix(e), dtype=np.float64)
            home = next(
                idx for idx in containing[u] if v in self.cliques[idx].variables
            )
            multiply_in(home, (u, v), np.maximum(psi, _TINY))

    # ------------------------------------------------------------------
    def _marginalize_to(self, table: np.ndarray, from_vars, to_vars) -> np.ndarray:
        keep = [from_vars.index(v) for v in to_vars]
        drop = tuple(i for i in range(len(from_vars)) if i not in keep)
        out = table.sum(axis=drop) if drop else table
        # reorder axes to to_vars order
        current = [v for v in from_vars if v in to_vars]
        perm = [current.index(v) for v in to_vars]
        return np.transpose(out, perm) if perm != list(range(len(perm))) else out

    def calibrate(self) -> list[np.ndarray]:
        """Two-pass message passing; returns calibrated clique tables."""
        k = len(self.cliques)
        tables = [c.table.copy() for c in self.cliques]
        messages: dict[tuple[int, int], np.ndarray] = {}

        # establish a rooted order per component (BFS)
        visited = [False] * k
        schedule: list[tuple[int, int]] = []  # (child, parent) collect order
        for root in range(k):
            if visited[root]:
                continue
            visited[root] = True
            stack = [root]
            order = []
            parents = {root: -1}
            while stack:
                c = stack.pop()
                order.append(c)
                for nb in self.cliques[c].neighbours:
                    if not visited[nb]:
                        visited[nb] = True
                        parents[nb] = c
                        stack.append(nb)
            for c in reversed(order):
                if parents[c] != -1:
                    schedule.append((c, parents[c]))

        def sepset(i: int, j: int) -> tuple[int, ...]:
            return tuple(
                sorted(set(self.cliques[i].variables) & set(self.cliques[j].variables))
            )

        def send(i: int, j: int) -> None:
            sep = sepset(i, j)
            prod = self.cliques[i].table.copy()
            for nb in self.cliques[i].neighbours:
                if nb != j and (nb, i) in messages:
                    prod *= self._expand(messages[(nb, i)], sepset(nb, i), self.cliques[i].variables)
            msg = self._marginalize_to(prod, list(self.cliques[i].variables), list(sep))
            total = msg.sum()
            messages[(i, j)] = msg / total if total > 0 else np.full_like(msg, 1.0 / msg.size)

        for child, parent in schedule:  # collect
            send(child, parent)
        for child, parent in reversed(schedule):  # distribute
            send(parent, child)

        calibrated = []
        for i, clique in enumerate(self.cliques):
            belief = clique.table.copy()
            for nb in clique.neighbours:
                belief *= self._expand(messages[(nb, i)], sepset(nb, i), clique.variables)
            total = belief.sum()
            calibrated.append(belief / total if total > 0 else belief)
        return calibrated

    def _expand(self, msg: np.ndarray, sep: tuple[int, ...], variables: tuple[int, ...]) -> np.ndarray:
        shape = [1] * len(variables)
        axes = [variables.index(v) for v in sep]
        view = msg
        # move msg axes into place
        full_shape = list(view.shape) + [1] * (len(variables) - len(sep))
        view = view.reshape(full_shape)
        order = list(range(len(variables)))
        src_positions = list(range(len(sep)))
        view = np.moveaxis(view, src_positions, axes)
        return view

    def marginals(self) -> np.ndarray:
        """Exact node marginals, ``(n, width)`` padded."""
        calibrated = self.calibrate()
        graph = self.graph
        out = np.zeros((graph.n_nodes, graph.n_states), dtype=np.float64)
        done = np.zeros(graph.n_nodes, dtype=bool)
        for clique, table in zip(self.cliques, calibrated):
            for pos, v in enumerate(clique.variables):
                if done[v]:
                    continue
                axes = tuple(i for i in range(len(clique.variables)) if i != pos)
                marg = table.sum(axis=axes) if axes else table
                total = marg.sum()
                if total > 0:
                    marg = marg / total
                out[v, : len(marg)] = marg
                done[v] = True
        return out


def junction_tree_marginals(graph: BeliefGraph, *, max_width: int = 12) -> np.ndarray:
    """Exact marginals via junction-tree message passing."""
    return JunctionTree(graph, max_width=max_width).marginals()
