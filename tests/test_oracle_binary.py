"""Oracle checks for the binary (b = 2) log-odds path (DESIGN.md §13.10).

The b = 2 sweeps keep one log-odds per message (``core/logodds.py``),
so they are not bit-exact with the general path they replaced.  These
tests check them against exact answers, not against another of our
paths:

* on trees BP is exact, so every plan — node and edge paradigm × the
  four schedules, with and without evidence or damping, shared or
  per-edge potentials — must match ``core/junction.py`` to ``TREE_TOL``;
* on small loopy graphs every plan must land within ``LOOPY_BOUND`` of
  brute-force ``core/exact.py`` (the bound is documented below);
* the incremental engine after evidence deltas (and a structural one)
  must match the oracle and a full re-run of the same plan;
* serve's batched runner must give each query exactly the solo run's
  posteriors and iteration count, and those must match the oracle.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LoopyBP, observe
from repro.core.convergence import ConvergenceCriterion
from repro.core.exact import exact_marginals
from repro.core.graph import BeliefGraph
from repro.core.junction import junction_tree_marginals
from repro.core.loopy import LoopyConfig
from repro.core.potentials import random_potential
from repro.serve.batch import run_batched
from repro.stream import GraphDelta, IncrementalEngine

SCHEDULES = ("sync", "work_queue", "residual", "relaxed")
PLANS = tuple((p, s) for p in ("node", "edge") for s in SCHEDULES)

#: max |BP − junction tree| on a tree.  Float32 log-odds BP measured
#: ≤ 1.9e-7 over 200 seeded trees × 8 plans.
TREE_TOL = 1e-5

#: max |BP − exact| on the loopy graphs drawn below: 3–8 nodes, a random
#: spanning tree plus 1–3 extra edges (a repeated pair makes a 2-cycle),
#: per-edge potential entries in [1, 2] — so every message's odds lie in
#: [1/2, 2] — and 0–2 observed nodes.  Loopy BP is not exact there; its
#: error on this family measured ≤ 3.5e-3 over 4,000 seeded draws
#: (c-node:sync, threshold 1e-6), and 1.8e-3 over 300 draws × all 8 plans.
#: The bound leaves ~3× margin.
LOOPY_BOUND = 1e-2

#: the schedules stop on a summed L1 belief change; float32 rounding can
#: leave a ~1e-7 limit cycle even on a tree (2 of 300 warm sync re-runs
#: of seeded trees at 1e-7, none at 1e-6), so the runs stop at 1e-6
CRIT = ConvergenceCriterion(threshold=1e-6, max_iterations=500)

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _config(paradigm, schedule, crit, damping=0.0):
    return LoopyConfig(
        paradigm=paradigm, schedule=schedule, criterion=crit, damping=damping
    )


def _evidence(draw, rng, n):
    k = draw(st.integers(min_value=0, max_value=min(2, n - 1)))
    nodes = rng.choice(n, size=k, replace=False)
    return [(int(v), int(rng.integers(2))) for v in nodes]


@st.composite
def binary_trees(draw):
    """A random binary tree MRF, shared or per-edge potentials, plus an
    evidence list (not applied)."""
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = np.array([[int(rng.integers(0, v)), v] for v in range(1, n)])
    priors = np.maximum(rng.dirichlet(np.ones(2), size=n), 1e-3)
    if draw(st.booleans()):
        g = BeliefGraph.from_undirected(priors, edges, random_potential(2, rng))
    else:
        stack = rng.dirichlet(np.ones(2), size=(n - 1, 2)).astype(np.float32)
        g = BeliefGraph.from_undirected(priors, edges, per_edge_potentials=stack)
    return g, _evidence(draw, rng, n)


@st.composite
def binary_loopy(draw, min_nodes=3):
    """A small loopy binary MRF in the ``LOOPY_BOUND`` family, evidence
    applied."""
    n = draw(st.integers(min_value=min_nodes, max_value=8))
    extra = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    pairs = [[int(rng.integers(0, v)), v] for v in range(1, n)]
    while len(pairs) < n - 1 + extra:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            pairs.append([u, v])
    priors = np.maximum(rng.dirichlet(np.ones(2), size=n), 1e-3)
    stack = (1.0 + rng.random((len(pairs), 2, 2))).astype(np.float32)
    g = BeliefGraph.from_undirected(priors, np.array(pairs), per_edge_potentials=stack)
    for node, state in _evidence(draw, rng, n):
        observe(g, node, state)
    return g


def _with_evidence(graph, evidence):
    view = graph.copy()
    for node, state in evidence:
        observe(view, node, state)
    return view


def _cold_run(config, graph):
    """A full run of ``config`` on a copy of ``graph``."""
    return LoopyBP(config).run(graph.copy())


def _err(beliefs, exact):
    return float(np.abs(np.asarray(beliefs, dtype=np.float64) - exact).max())


class TestTreesMatchJunction:
    @given(binary_trees(), st.sampled_from([0.0, 0.4]))
    @settings(**SETTINGS)
    def test_every_plan_exact(self, drawn, damping):
        # damping changes the path to the fixed point, not the point
        graph, evidence = drawn
        graph = _with_evidence(graph, evidence)
        exact = junction_tree_marginals(graph)
        for paradigm, schedule in PLANS:
            config = _config(paradigm, schedule, CRIT, damping)
            result = LoopyBP(config).run(graph.copy())
            assert result.converged, (paradigm, schedule)
            assert _err(result.beliefs, exact) <= TREE_TOL, (paradigm, schedule)


    @given(binary_trees())
    @settings(**SETTINGS)
    def test_rerun_on_a_converged_store(self, drawn):
        # a full run starts from the priors whatever the belief store
        # holds, so running again on a first run's posteriors must land
        # on the same exact marginals
        graph, evidence = drawn
        graph = _with_evidence(graph, evidence)
        exact = junction_tree_marginals(graph)
        for paradigm, schedule in PLANS:
            bp = LoopyBP(_config(paradigm, schedule, CRIT))
            first = graph.copy()
            bp.run(first)
            again = bp.run(first.copy())
            assert again.converged, (paradigm, schedule)
            assert _err(again.beliefs, exact) <= TREE_TOL, (paradigm, schedule)


class TestLoopyWithinBound:
    @given(binary_loopy())
    @settings(**SETTINGS)
    def test_every_plan_within_bound(self, graph):
        exact = exact_marginals(graph)
        for paradigm, schedule in PLANS:
            result = LoopyBP(_config(paradigm, schedule, CRIT)).run(graph.copy())
            assert result.converged, (paradigm, schedule)
            assert _err(result.beliefs, exact) <= LOOPY_BOUND, (paradigm, schedule)


class TestIncrementalMatchesFull:
    @given(binary_trees(), st.data())
    @settings(**dict(SETTINGS, max_examples=20))
    def test_evidence_deltas(self, drawn, data):
        graph, _ = drawn
        n = graph.n_nodes
        steps = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from([0, 1, None])),
            min_size=1, max_size=3,
        ))
        for paradigm, schedule in PLANS:
            config = _config(paradigm, schedule, CRIT)
            engine = IncrementalEngine(graph.copy(), config)
            engine.converge()
            for node, state in steps:
                delta = GraphDelta()
                if state is None:
                    if engine.graph.observed[node]:
                        delta.release_node(node)
                else:
                    delta.observe_node(node, state)
                inc = engine.apply(delta)
                assert inc.result.converged, (paradigm, schedule)
                exact = junction_tree_marginals(engine.graph)
                assert _err(inc.beliefs, exact) <= TREE_TOL, (paradigm, schedule, inc.mode)
                full = _cold_run(config, engine.graph)
                assert _err(inc.beliefs, full.beliefs) <= TREE_TOL

    @given(binary_loopy(min_nodes=8))
    @settings(**dict(SETTINGS, max_examples=20))
    def test_structural_delta(self, graph):
        # adding an edge rebuilds the state and carries every surviving
        # message over (LoopyState.adopt_messages); its two dirty nodes
        # of eight stay under the incremental ceiling
        adjacent = set(zip(graph.src.tolist(), graph.dst.tolist()))
        u, v = next(
            (u, v) for u in range(graph.n_nodes) for v in range(u + 1, graph.n_nodes)
            if (u, v) not in adjacent
        )
        for paradigm, schedule in PLANS:
            config = _config(paradigm, schedule, CRIT)
            engine = IncrementalEngine(graph.copy(), config)
            engine.converge()
            inc = engine.apply(GraphDelta().add_edge(u, v, np.full((2, 2), 1.5)))
            assert inc.structural and inc.mode == "incremental"
            assert inc.result.converged, (paradigm, schedule)
            exact = exact_marginals(engine.graph)
            assert _err(inc.beliefs, exact) <= LOOPY_BOUND, (paradigm, schedule)
            full = _cold_run(config, engine.graph)
            assert _err(inc.beliefs, full.beliefs) <= 1e-4, (paradigm, schedule)


class TestServeBatchedMatchesSolo:
    @given(binary_trees(), st.data())
    @settings(**dict(SETTINGS, max_examples=20))
    def test_batched_equals_solo_and_oracle(self, drawn, data):
        graph, evidence = drawn
        n = graph.n_nodes
        other = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 1)),
            max_size=2, unique_by=lambda e: e[0],
        ))
        evidences = [[], evidence, other]
        for paradigm, schedule in PLANS:
            config = _config(paradigm, schedule, CRIT)
            runs, _ = run_batched(graph, config, evidences)
            for ev, run in zip(evidences, runs):
                view = _with_evidence(graph, ev)
                solo = LoopyBP(config).run(view.copy())
                assert run.iterations == solo.iterations, (paradigm, schedule, ev)
                np.testing.assert_array_equal(run.beliefs, solo.beliefs)
                assert _err(run.beliefs, junction_tree_marginals(view)) <= TREE_TOL
