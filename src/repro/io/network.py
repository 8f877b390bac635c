"""Bayesian-network intermediate representation shared by the BIF and
XML-BIF parsers, and its conversion to a pairwise belief graph.

The paper (§2.1) moves from Bayesian networks to Markov Random Fields via
the Markov assumption: "an event node's state only depends upon the
immediate parents' states".  A multi-parent CPT therefore becomes one
pairwise potential per (parent, child) edge, with the remaining parents
marginalized under their prior distributions — the standard pairwise
projection, and the reason the MRF "only allow[s] for undirected pairwise
relationships".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import BeliefGraph

__all__ = ["Variable", "Cpt", "BayesianNetwork", "network_to_belief_graph"]


@dataclass
class Variable:
    """A discrete random variable: a name and its state labels."""

    name: str
    states: list[str]
    properties: dict[str, str] = field(default_factory=dict)

    @property
    def arity(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise KeyError(f"variable {self.name!r} has no state {label!r}") from None


@dataclass
class Cpt:
    """A conditional probability table p(child | parents).

    ``table`` has shape ``(arity(parent_0), …, arity(parent_{k−1}),
    arity(child))``; for a root variable it is the 1-D prior.
    """

    child: str
    parents: list[str]
    table: np.ndarray

    def validate(self, variables: dict[str, Variable]) -> None:
        expected = tuple(variables[p].arity for p in self.parents) + (
            variables[self.child].arity,
        )
        if tuple(self.table.shape) != expected:
            raise ValueError(
                f"CPT for {self.child!r} has shape {self.table.shape}, expected {expected}"
            )
        sums = self.table.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-4):
            raise ValueError(f"CPT rows for {self.child!r} do not sum to 1")


@dataclass
class BayesianNetwork:
    """A parsed Bayesian network: variables plus one CPT per variable."""

    name: str
    variables: dict[str, Variable] = field(default_factory=dict)
    cpts: dict[str, Cpt] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)

    def add_variable(self, var: Variable) -> None:
        if var.name in self.variables:
            raise ValueError(f"duplicate variable {var.name!r}")
        self.variables[var.name] = var

    def add_cpt(self, cpt: Cpt) -> None:
        if cpt.child not in self.variables:
            raise ValueError(f"CPT for undeclared variable {cpt.child!r}")
        for p in cpt.parents:
            if p not in self.variables:
                raise ValueError(f"CPT for {cpt.child!r} names undeclared parent {p!r}")
        cpt.validate(self.variables)
        if cpt.child in self.cpts:
            raise ValueError(f"duplicate CPT for {cpt.child!r}")
        self.cpts[cpt.child] = cpt

    def validate(self) -> None:
        """Every variable needs a CPT; the parent graph must be acyclic."""
        for name in self.variables:
            if name not in self.cpts:
                raise ValueError(f"variable {name!r} has no probability block")
        # Kahn's algorithm over the parent relation.
        indeg = {name: len(self.cpts[name].parents) for name in self.variables}
        children: dict[str, list[str]] = {name: [] for name in self.variables}
        for cpt in self.cpts.values():
            for p in cpt.parents:
                children[p].append(cpt.child)
        frontier = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            for c in children[node]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    frontier.append(c)
        if seen != len(self.variables):
            raise ValueError("the network's parent relation contains a cycle")

    def prior(self, name: str) -> np.ndarray:
        """Marginal prior of ``name`` under the ancestral ordering."""
        return self._marginals()[name]

    def _marginals(self) -> dict[str, np.ndarray]:
        """Ancestral marginals of every variable (exact on the DAG when
        parents are treated independently — exact for trees/forests)."""
        marginals: dict[str, np.ndarray] = {}

        def compute(name: str, stack: tuple[str, ...] = ()) -> np.ndarray:
            if name in marginals:
                return marginals[name]
            if name in stack:
                raise ValueError("cycle encountered while computing priors")
            cpt = self.cpts[name]
            if not cpt.parents:
                result = np.asarray(cpt.table, dtype=np.float64)
            else:
                parent_margs = [compute(p, stack + (name,)) for p in cpt.parents]
                result = np.asarray(cpt.table, dtype=np.float64)
                for axis, pm in enumerate(parent_margs):
                    shape = [1] * result.ndim
                    shape[axis] = len(pm)
                    result = result * pm.reshape(shape)
                result = result.sum(axis=tuple(range(len(cpt.parents))))
            marginals[name] = result / result.sum()
            return marginals[name]

        for name in self.variables:
            compute(name)
        return marginals


def network_to_belief_graph(network: BayesianNetwork) -> BeliefGraph:
    """Project a Bayesian network onto a pairwise belief graph (§2.1).

    Each (parent, child) CPT relation becomes an undirected edge whose
    potential is ``p(child | parent)`` with every *other* parent of the
    child marginalized under its ancestral prior.  Node priors are the
    root tables (roots) or uniform (internal nodes — their information
    arrives through the edges).
    """
    network.validate()
    names = list(network.variables)
    index = {name: i for i, name in enumerate(names)}
    marginals = network._marginals()

    priors = []
    for name in names:
        cpt = network.cpts[name]
        arity = network.variables[name].arity
        if cpt.parents:
            priors.append(np.full(arity, 1.0 / arity, dtype=np.float32))
        else:
            priors.append(np.asarray(cpt.table, dtype=np.float32))

    edges: list[tuple[int, int]] = []
    mats: list[np.ndarray] = []
    for name in names:
        cpt = network.cpts[name]
        table = np.asarray(cpt.table, dtype=np.float64)
        for k, parent in enumerate(cpt.parents):
            # marginalize the other parent axes under their priors
            reduced = table
            for axis, other in enumerate(cpt.parents):
                if other == parent:
                    continue
                pm = marginals[other]
                shape = [1] * reduced.ndim
                shape[axis] = len(pm)
                reduced = reduced * pm.reshape(shape)
            other_axes = tuple(
                axis for axis, other in enumerate(cpt.parents) if other != parent
            )
            reduced = reduced.sum(axis=other_axes) if other_axes else reduced
            # reduced is now (arity(parent), arity(child)) = p(child | parent)
            edges.append((index[parent], index[name]))
            mats.append(reduced.astype(np.float32))

    if not edges:
        # Degenerate: no edges at all — a bag of independent variables.
        widths = {network.variables[n].arity for n in names}
        if len(widths) == 1:
            b = widths.pop()
            dummy = np.eye(b, dtype=np.float32)
            return BeliefGraph.from_undirected(
                np.array([np.pad(p, (0, b - len(p))) for p in priors]),
                np.empty((0, 2), dtype=np.int64),
                potential=dummy,
                node_names=names,
            )

    uniform_nodes = len({len(p) for p in priors}) == 1
    uniform_mats = len({m.shape for m in mats}) == 1
    if uniform_nodes and uniform_mats:
        return BeliefGraph.from_undirected(
            np.asarray(priors),
            np.asarray(edges, dtype=np.int64),
            per_edge_potentials=np.stack(mats),
            node_names=names,
        )
    return _ragged_graph(priors, edges, mats, names)


def _ragged_graph(priors, edges, mats, names) -> BeliefGraph:
    """Build a graph with heterogeneous state counts (per-edge ragged
    potentials; served by the reference backend)."""
    from repro.core.potentials import PerEdgePotentialStore

    m = len(edges)
    src = np.empty(2 * m, dtype=np.int64)
    dst = np.empty(2 * m, dtype=np.int64)
    for k, (u, v) in enumerate(edges):
        src[2 * k], dst[2 * k] = u, v
        src[2 * k + 1], dst[2 * k + 1] = v, u
    reverse = np.empty(2 * m, dtype=np.int64)
    reverse[0::2] = np.arange(1, 2 * m, 2)
    reverse[1::2] = np.arange(0, 2 * m, 2)
    directed = list(itertools.chain.from_iterable((mat, mat.T.copy()) for mat in mats))
    return BeliefGraph(
        priors,
        src,
        dst,
        PerEdgePotentialStore(directed),
        reverse_edge=reverse,
        node_names=names,
    )
