"""Evidence handling (paper §2.1).

"During observation, one now knows for certain if an event occurs and
consequently statically sets the probability of that event occurring which
in turn sets off a chain of updates" — an observed node's belief is clamped
to a one-hot vector and never updated by BP; it still emits messages so the
evidence propagates.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.core.graph import BeliefGraph

__all__ = ["observe", "clear_observations", "evidence_state"]


def evidence_state(value) -> int:
    """``value`` as a state index for :func:`observe`.

    Integers, integral floats (``1.0``) and decimal strings (``"1"``)
    are accepted.  Bools and fractional numbers raise ``ValueError``
    instead of truncating to some state.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"evidence state {value!r} is a bool, not a state index")
    if isinstance(value, str):
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        pass
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"evidence state {value!r} is not an integer")


def observe(graph: BeliefGraph, node: int | str, state: int) -> None:
    """Clamp ``node`` to ``state`` (statically fixate it, §2.1).

    ``node`` may be an id or a node name.  Raises ``ValueError`` for an
    out-of-range state and ``KeyError`` for an unknown name.
    """
    node = graph.node_id(node)
    if not 0 <= node < graph.n_nodes:
        raise IndexError(f"node {node} out of range")
    dim = int(graph.dims[node])
    if not 0 <= state < dim:
        raise ValueError(f"state {state} out of range for node with {dim} states")
    graph.observed[node] = True
    graph.observed_state[node] = state
    vec = np.zeros(dim, dtype=np.float32)
    vec[state] = 1.0
    graph.beliefs.set(node, vec)


def clear_observations(graph: BeliefGraph) -> None:
    """Remove all evidence and restore the affected nodes' priors."""
    idx = np.flatnonzero(graph.observed)
    if len(idx):
        graph.beliefs.copy_rows_from(graph.priors, idx)
    graph.observed[:] = False
    graph.observed_state[:] = -1
