"""networkx interoperability.

Downstream users live in networkx; these helpers move belief graphs in
and out of it.  Node beliefs ride on the ``"prior"`` node attribute and
edge potentials on the ``"potential"`` edge attribute; missing attributes
fall back to uniform priors and the supplied default potential.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.graph import BeliefGraph

__all__ = ["from_networkx", "to_networkx"]


def from_networkx(
    G: "nx.Graph",
    *,
    n_states: int = 2,
    default_potential: np.ndarray | None = None,
    prior_attr: str = "prior",
    potential_attr: str = "potential",
) -> BeliefGraph:
    """Build a belief graph from an (un)directed networkx graph.

    Node order follows ``G.nodes``; the returned graph's ``node_names``
    are the stringified networkx node keys, so posteriors can be joined
    back.  Directed input is treated as undirected MRF structure (the
    §2.1 Markov-assumption move).
    """
    if default_potential is None:
        from repro.core.potentials import attractive_potential

        default_potential = attractive_potential(n_states, 0.75)
    default_potential = np.asarray(default_potential, dtype=np.float32)
    if default_potential.shape != (n_states, n_states):
        raise ValueError(
            f"default potential must be ({n_states}, {n_states}), "
            f"got {default_potential.shape}"
        )

    nodes = list(G.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    priors = np.full((len(nodes), n_states), 1.0 / n_states, dtype=np.float32)
    for node, data in G.nodes(data=True):
        if prior_attr in data:
            prior = np.asarray(data[prior_attr], dtype=np.float32).reshape(-1)
            if len(prior) != n_states:
                raise ValueError(
                    f"node {node!r} prior has {len(prior)} states, expected {n_states}"
                )
            priors[index[node]] = prior

    edges = []
    mats = []
    any_custom = False
    for u, v, data in G.edges(data=True):
        if u == v:
            continue
        edges.append((index[u], index[v]))
        if potential_attr in data:
            mat = np.asarray(data[potential_attr], dtype=np.float32)
            if mat.shape != (n_states, n_states):
                raise ValueError(
                    f"edge ({u!r}, {v!r}) potential has shape {mat.shape}"
                )
            mats.append(mat)
            any_custom = True
        else:
            mats.append(default_potential)

    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    names = [str(n) for n in nodes]
    if any_custom:
        return BeliefGraph.from_undirected(
            priors, edge_array, per_edge_potentials=np.stack(mats) if mats else None,
            node_names=names,
        )
    return BeliefGraph.from_undirected(
        priors, edge_array, potential=default_potential,
        node_names=names,
    )


def to_networkx(graph: BeliefGraph, *, include_potentials: bool = True) -> "nx.Graph":
    """Export a belief graph as an undirected networkx graph.

    Current beliefs land on ``"belief"``, priors on ``"prior"``; the
    per-edge potential matrices ride on ``"potential"`` unless disabled.
    """
    G = nx.Graph()
    for i, name in enumerate(graph.node_names):
        G.add_node(
            name,
            prior=graph.priors[i, : graph.dims[i]].copy(),
            belief=graph.beliefs[i, : graph.dims[i]].copy(),
        )
    for e in range(graph.n_edges):
        rev = int(graph.reverse_edge[e])
        if rev != -1 and e > rev:
            continue
        u = graph.node_names[int(graph.src[e])]
        v = graph.node_names[int(graph.dst[e])]
        attrs = {}
        if include_potentials:
            attrs["potential"] = np.asarray(graph.potentials.matrix(e)).copy()
        G.add_edge(u, v, **attrs)
    return G
