"""Belief-store layout: storage only, convertible without a rebuild.

The paper fixes the AoS layout after a one-off cachegrind experiment
(§3.4).  The registry below names the three physical arrangements
implemented by :mod:`repro.core.beliefs`, and :func:`with_layout`
re-homes an existing graph's belief and prior values into another
layout while *sharing every structural array* (edge lists, CSR
adjacency, potentials, caches) with the original — conversion costs two
dense passes over node state, never a graph rebuild.

Layout is not a plan axis: :class:`~repro.core.state.LoopyState` sweeps
a dense float32 copy of the beliefs whatever the store, so no layout
changes sweep time.  The E3/E5 storage ablations and the stream tests
convert through these functions instead of hand-constructing stores.
"""

from __future__ import annotations

from repro.core.beliefs import BeliefStore, make_store
from repro.core.graph import BeliefGraph

__all__ = ["LAYOUTS", "with_layout", "convert_store"]

#: canonical layout names (all accepted by ``repro.core.beliefs.make_store``)
LAYOUTS = ("aos", "soa", "blocked")


def convert_store(store: BeliefStore, layout: str) -> BeliefStore:
    """Return a store with the same values in the requested layout."""
    if store.layout == layout:
        return store.copy()
    out = make_store(store.dims, layout)
    out.load_dense(store.dense())
    return out


def with_layout(graph: BeliefGraph, layout: str) -> BeliefGraph:
    """Return ``graph`` with its belief storage in ``layout``.

    When the graph already uses the requested layout it is returned
    unchanged (no copy).  Otherwise the clone shares all structural
    arrays with the original — only the two belief stores are rebuilt,
    so converting a graph is O(n · width), independent of edge count.
    """
    if graph.layout == layout:
        return graph
    clone = BeliefGraph.__new__(BeliefGraph)
    clone.n_nodes = graph.n_nodes
    clone.dims = graph.dims
    clone.layout = layout
    clone.priors = convert_store(graph.priors, layout)
    clone.beliefs = convert_store(graph.beliefs, layout)
    clone._node_names = None if graph.lazy_names else list(graph.node_names)
    clone.src = graph.src
    clone.dst = graph.dst
    clone.n_edges = graph.n_edges
    clone.potentials = graph.potentials
    clone.reverse_edge = graph.reverse_edge
    clone.in_offsets, clone.in_edge_ids = graph.in_offsets, graph.in_edge_ids
    clone.out_offsets, clone.out_edge_ids = graph.out_offsets, graph.out_edge_ids
    clone.observed = graph.observed.copy()
    clone.observed_state = graph.observed_state.copy()
    clone.reserved_nbytes = graph.reserved_nbytes
    clone._name_to_id = graph._name_to_id
    clone._feature_cache = graph._feature_cache
    return clone
