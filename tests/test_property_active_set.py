"""Property tests for active-set sweeps (DESIGN.md §13).

A partial sweep picks between a dense n-length pass and an O(k) path
through a slot map, by the size of its index set.  The two paths must be
indistinguishable:

* the compacted and dense ``store_messages`` scatters leave bit-identical
  state (the message sums and messages of either layout) and return
  identical deltas — duplicate destinations, the empty set, sets on both
  sides of the crossover, widths b ∈ {1, 2, 3, 8}; a scatter handed its
  destination set (``rows``) leaves the same bits as both;
* one single-chunk edge round deduplicates its destinations once;
* ``edge_sweep`` returns the same deltas, touched nodes and beliefs on
  either path;
* the work queue's repopulate / seed equal the membership-mask dedup
  they replace;
* a whole warm-started re-convergence repeats sweep for sweep on every
  path;
* ``chunk_slices`` tiles a sweep into at most ``chunks`` in-order chunks
  of at least ``MIN_CHUNK_EDGES`` edges, and keeps the ``linspace``
  bounds of ``chunks`` equal chunks for any sweep of at least
  ``chunks * MIN_CHUNK_EDGES`` edges;
* the compiled executor's fused partial sweeps equal the reference
  kernels bit for bit, feeding every destination's accumulation the
  same rows in the same order, and the default plan stays exact on
  trees against the junction-tree oracle.
"""

import copy
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import indexset
from repro.core.convergence import ConvergenceCriterion
from repro.core.edge_kernel import MIN_CHUNK_EDGES, chunk_slices, edge_sweep
from repro.core.graph import BeliefGraph
from repro.core.indexset import SlotMap
from repro.core.junction import junction_tree_marginals
from repro.core.loopy import LoopyConfig
from repro.core.observation import observe
from repro.core.potentials import random_potential
from repro.core.scheduler import WorkQueue
from repro.core.state import LoopyState
from repro.credo.runner import Credo
from repro.graphs.grids import grid_graph
from repro.kernels.compiled import make_executor
from repro.stream import GraphDelta, IncrementalEngine
from tests.conftest import InterpretedExecutor, encode_messages, message_state

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


#: True / False force every dense-or-compacted decision one way; None
#: keeps the size rule but drops its fixed-cost floor, so that small test
#: inputs cross the cut-off in both directions
MODES = (True, False, None)


@contextmanager
def forced_path(mode):
    if mode is None:
        def rule(k, n):
            return k * indexset._SPARSE_DIVISOR < n
    else:
        def rule(k, n):
            return mode
    saved = indexset.is_sparse
    indexset.is_sparse = rule
    try:
        yield
    finally:
        indexset.is_sparse = saved


@st.composite
def states_and_edges(draw, widths=(1, 2, 3, 8)):
    """A random loopy state (evidence, warm messages) plus an edge set."""
    b = draw(st.sampled_from(widths))
    n = draw(st.integers(min_value=2, max_value=60))
    n_edges = draw(st.integers(min_value=1, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(n_edges, 2))
    priors = rng.dirichlet(np.ones(b), size=n)
    potential = random_potential(b, rng) if b > 1 else np.ones((1, 1))
    g = BeliefGraph.from_undirected(priors, edges, potential)
    if b > 1 and draw(st.booleans()):
        observe(g, 0, b - 1)
    state = LoopyState(g)
    # warm, non-uniform messages so log deltas are not all zero
    msgs = rng.dirichlet(np.ones(b), size=state.m).astype(np.float32)
    state.store_messages(np.arange(state.m), encode_messages(state, msgs))
    # any subset in any order: duplicate destinations arise whenever two
    # chosen edges share a head; the empty set is included
    edges = draw(
        st.lists(st.integers(0, max(state.m - 1, 0)), max_size=state.m, unique=True)
    )
    return state, np.asarray(edges, dtype=np.int64), seed


def _snapshot(state):
    return tuple(arr.copy() for arr in message_state(state))


def _run_on_copy(state, fn, mode):
    twin = copy.deepcopy(state)
    with forced_path(mode):
        out = fn(twin)
    return out, _snapshot(twin)


class TestScatterPaths:
    @given(states_and_edges())
    @settings(**SETTINGS)
    def test_compacted_and_dense_scatter_identical(self, drawn):
        state, edges, seed = drawn
        rng = np.random.default_rng(seed + 1)
        new = encode_messages(
            state, rng.dirichlet(np.ones(state.b), size=len(edges)).astype(np.float32)
        )

        def store(s):
            return s.store_messages(edges, new)

        d_sparse, s_sparse = _run_on_copy(state, store, True)
        d_dense, s_dense = _run_on_copy(state, store, False)
        d_auto, s_auto = _run_on_copy(state, store, None)
        for got, snap in ((d_sparse, s_sparse), (d_auto, s_auto)):
            np.testing.assert_array_equal(got, d_dense)
            for a, b in zip(snap, s_dense):
                np.testing.assert_array_equal(a, b)

    @given(states_and_edges(widths=(2, 3)), st.integers(min_value=1, max_value=120))
    @settings(**SETTINGS)
    def test_known_rows_scatter_identical(self, drawn, k):
        # a caller holding np.unique(dsts) scatters by searchsorted into
        # it: the same bits as the compacted and the dense route
        state, _, seed = drawn
        rng = np.random.default_rng(seed + 2)
        # drawn with replacement from at most k/2 nodes: duplicates
        dsts = rng.integers(0, min(state.n, max(k // 2, 1)), size=k)
        shape = (k,) if state.binary else (k, state.b)
        log_delta = rng.standard_normal(shape).astype(np.float32)

        def scatter(rows):
            return lambda s: s.scatter_log_delta(dsts, log_delta, rows)

        _, known = _run_on_copy(state, scatter(np.unique(dsts)), True)
        _, compacted = _run_on_copy(state, scatter(None), True)
        _, dense = _run_on_copy(state, scatter(None), False)
        for a, b, c in zip(known, compacted, dense):
            assert a.tobytes() == b.tobytes() == c.tobytes()

    @given(states_and_edges(), st.integers(min_value=1, max_value=8))
    @settings(**SETTINGS)
    def test_edge_sweep_paths_identical(self, drawn, chunks):
        state, edges, _ = drawn

        def sweep(s):
            return edge_sweep(s, edges, chunks=chunks)

        (dl_d, touched_d, _), snap_d = _run_on_copy(state, sweep, False)
        for mode in (True, None):
            (dl, touched, _), snap = _run_on_copy(state, sweep, mode)
            np.testing.assert_array_equal(dl, dl_d)
            np.testing.assert_array_equal(touched, touched_d)
            assert touched.dtype == touched_d.dtype == np.int64
            for a, b in zip(snap, snap_d):
                np.testing.assert_array_equal(a, b)

    @given(
        st.integers(min_value=1, max_value=500),
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=300),
    )
    @settings(**SETTINGS)
    def test_slot_map_dedup(self, n, raw):
        idx = np.asarray([v % n for v in raw], dtype=np.int64)
        slots = SlotMap(n)
        for mode in MODES:
            with forced_path(mode):
                np.testing.assert_array_equal(slots.unique(idx), np.unique(idx))
                np.testing.assert_array_equal(
                    slots.unique(idx[: len(idx) // 2], idx[len(idx) // 2 :]),
                    np.unique(idx),
                )
        rows, inv = slots.compact(idx)
        assert len(rows) == len(np.unique(idx))
        if inv is None:
            assert rows is idx
        else:
            np.testing.assert_array_equal(rows[inv], idx)


class TestWorkQueueDedup:
    @given(
        st.integers(min_value=1, max_value=400),
        st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=8),
        st.sampled_from(MODES),
    )
    @settings(**SETTINGS)
    def test_repopulate_seed_match_mask(self, n, seeds, mode):
        with forced_path(mode):
            self._run_ops(n, seeds)

    @staticmethod
    def _run_ops(n, seeds):
        queue = WorkQueue(n, 0.05)
        mirror = np.arange(n, dtype=np.int64)

        def mask_union(*parts):
            mask = np.zeros(n, dtype=bool)
            for part in parts:
                mask[part] = True
            return np.flatnonzero(mask)

        for seed in seeds:
            rng = np.random.default_rng(seed)
            size = int(rng.integers(0, 2 * n + 1))
            elements = rng.integers(0, n, size=size)
            if rng.integers(2) == 0:
                deltas = rng.exponential(0.05, size=len(mirror))
                queue.repopulate(deltas, elements)
                mirror = mask_union(mirror[deltas >= 0.05], elements)
            else:
                queue.seed(elements)
                mirror = mask_union(elements)
            np.testing.assert_array_equal(queue.active, mirror)
            assert queue.active.dtype == np.int64


class TestWholeRuns:
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", ["work_queue", "residual", "relaxed"])
    def test_incremental_runs_identical_on_every_path(self, schedule, paradigm):
        # a warm-started re-convergence: the frontier is small, so the
        # compacted paths carry the run unless forced dense
        cfg = LoopyConfig(
            paradigm=paradigm, schedule=schedule,
            criterion=ConvergenceCriterion(threshold=1e-8, max_iterations=300),
        )
        engine = IncrementalEngine(grid_graph(12, 12, n_states=3, seed=4), cfg)
        engine.converge()
        runs = []
        for mode in MODES:
            twin = copy.deepcopy(engine)
            with forced_path(mode):
                runs.append(twin.apply(GraphDelta().observe_node(0, 1)).result)
        ref = runs[1]
        assert ref.iterations > 1
        for got in runs:
            assert got.iterations == ref.iterations
            assert got.delta_history == ref.delta_history
            assert got.updates == ref.updates
            np.testing.assert_array_equal(got.beliefs, ref.beliefs)


class TestDedupPerRound:
    def test_single_chunk_edge_round_deduplicates_once(self, monkeypatch):
        # a round's destination set is built once, by the plan, and the
        # sweep reuses it for the combine and the scatter; the work
        # queue's repopulate is the round's only other dedup
        cfg = LoopyConfig(
            paradigm="edge", schedule="residual",
            criterion=ConvergenceCriterion(threshold=1e-8, max_iterations=500),
        )
        engine = IncrementalEngine(grid_graph(32, 32, n_states=2, seed=11, coupling=0.6), cfg)
        engine.converge()
        calls = {"node": 0, "queue": 0}
        original = SlotMap.unique

        def spy(slots, *parts):
            calls["node" if slots is engine._state.node_slots else "queue"] += 1
            return original(slots, *parts)

        monkeypatch.setattr(SlotMap, "unique", spy)
        for node, value in (("33", 1), ("34", 0), ("66", 1)):
            calls.update(node=0, queue=0)
            inc = engine.apply(GraphDelta().observe_node(node, value))
            rounds = inc.result.iterations
            assert inc.mode == "incremental" and rounds > 1
            # every round here sweeps one chunk
            assert all(
                s.edges_processed < 2 * MIN_CHUNK_EDGES
                for s in inc.result.run_stats.per_iteration
            )
            assert calls["node"] <= rounds
            # one per repopulate, plus the warm start's seed
            assert calls["queue"] <= rounds + 1


# ---------------------------------------------------------------------------
@contextmanager
def recorded_scatter(log):
    """Record, per destination, the log-delta rows every scatter feeds
    its float64 accumulation, in order (the only order-sensitive step of
    a sweep, DESIGN.md §13.1)."""
    original = LoopyState.scatter_log_delta

    def spy(self, dsts, log_delta, rows=None, ranks=None):
        for dst, row in zip(dsts.tolist(), log_delta):
            log.setdefault(dst, []).append(row.tobytes())
        return original(self, dsts, log_delta, rows, ranks)

    LoopyState.scatter_log_delta = spy
    try:
        yield log
    finally:
        LoopyState.scatter_log_delta = original


@st.composite
def sweep_cases(draw):
    """A warm random state with every feature the fused program branches
    on — widths around the pairwise block, shared or per-edge
    potentials, unpaired edges, observed nodes — plus a paradigm and an
    active set of its element space."""
    b = draw(st.sampled_from([1, 2, 3, 8, 9]))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=40))
        n_pairs = draw(st.integers(min_value=1, max_value=3 * n))
    else:
        # wide: up to 3x MIN_CHUNK_EDGES directed edges, so an edge
        # sweep's active set falls on either side of the chunk floor
        n = draw(st.integers(min_value=MIN_CHUNK_EDGES // 4, max_value=MIN_CHUNK_EDGES // 2))
        n_pairs = draw(st.integers(min_value=n, max_value=3 * n))
    per_edge = draw(st.booleans())
    unpaired = draw(st.booleans())
    n_observed = draw(st.integers(min_value=0, max_value=2)) if b > 1 else 0
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)

    pairs = rng.integers(0, n, size=(n_pairs, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    priors = rng.dirichlet(np.ones(b), size=n)

    def stack(k):
        return rng.dirichlet(np.ones(b), size=(k, b)).astype(np.float32)

    if unpaired:
        # directed edges; about half also get their reverse
        back = pairs[rng.random(len(pairs)) < 0.5][:, ::-1]
        directed = np.concatenate([pairs, back])
        pot = stack(len(directed)) if per_edge else random_potential(b, rng)
        g = BeliefGraph(priors, directed[:, 0], directed[:, 1], pot)
    elif per_edge:
        g = BeliefGraph.from_undirected(priors, pairs, per_edge_potentials=stack(len(pairs)))
    else:
        pot = random_potential(b, rng)
        g = BeliefGraph.from_undirected(priors, pairs, pot + pot.T)
    for node in rng.choice(n, size=n_observed, replace=False):
        observe(g, int(node), int(rng.integers(b)))

    state = LoopyState(g)
    if state.m:
        msgs = rng.dirichlet(np.ones(b), size=state.m).astype(np.float32)
        state.store_messages(np.arange(state.m), encode_messages(state, msgs))
    free = np.flatnonzero(state.free_mask)
    state.set_beliefs(free, rng.dirichlet(np.ones(b), size=len(free)))

    paradigm = draw(st.sampled_from(["node", "edge"]))
    size = state.n if paradigm == "node" else state.m
    kind = draw(st.sampled_from(
        ["empty", "single", "all_but_one", "all", "subset", "around_floor"]
    ))
    if kind == "empty" or size == 0:
        active = []
    elif kind == "single":
        active = [draw(st.integers(0, size - 1))]
    elif kind == "all_but_one":
        skip = draw(st.integers(0, size - 1))
        active = [i for i in range(size) if i != skip]
    elif kind == "all":
        active = list(range(size))
    elif kind == "around_floor":
        k = min(size, draw(st.integers(MIN_CHUNK_EDGES - 1, 2 * MIN_CHUNK_EDGES + 1)))
        active = np.sort(rng.choice(size, size=k, replace=False))
    else:
        active = draw(st.lists(st.integers(0, size - 1), max_size=size, unique=True))
    return state, paradigm, np.asarray(active, dtype=np.int64)


def _sweep(name, state, paradigm, active, options, chunks, sparse):
    """One sweep of executor ``name`` (``"interpreted"``, the reference
    kernels, or ``"compiled"``) on a copy of ``state``: (outputs, state
    snapshot, per-destination scatter log)."""
    twin = copy.deepcopy(state)
    log = {}
    with forced_path(sparse), recorded_scatter(log):
        executor = (
            InterpretedExecutor() if name == "interpreted" else make_executor(twin)
        )
        if paradigm == "node":
            out = executor.node_sweep(twin, active, **options)
        else:
            out = executor.edge_sweep(twin, active, chunks=chunks, **options)
    return out, _snapshot(twin), log


class TestChunkSlices:
    @given(
        st.one_of(
            st.integers(0, 2 * MIN_CHUNK_EDGES + 2),
            st.integers(8 * MIN_CHUNK_EDGES - 2, 20 * MIN_CHUNK_EDGES),
            st.integers(0, 10**9),
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_chunk_contract(self, n_active, chunks):
        bounds = chunk_slices(n_active, chunks)
        assert len(bounds) <= chunks
        # the chunks tile [0, n_active) in order
        edges = [lo for lo, _ in bounds] + [n_active]
        assert edges[0] == 0
        assert [hi for _, hi in bounds] == edges[1:]
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size > 0 for size in sizes)
        if len(bounds) > 1:
            assert min(sizes) >= MIN_CHUNK_EDGES
        if n_active >= chunks * MIN_CHUNK_EDGES:
            # the integer linspace: edges[i] == floor(i * n_active / chunks),
            # checked exactly (a float linspace truncates 2014.999... to 2014
            # at n_active=4030, chunks=14)
            assert len(edges) == chunks + 1
            for i, edge in enumerate(edges):
                assert edge * chunks <= i * n_active < (edge + 1) * chunks

    def test_small_sweeps_run_fewer_chunks(self):
        assert chunk_slices(0, 8) == ()
        assert chunk_slices(MIN_CHUNK_EDGES - 1, 8) == ((0, MIN_CHUNK_EDGES - 1),)
        assert len(chunk_slices(3 * MIN_CHUNK_EDGES + 1, 8)) == 3
        assert len(chunk_slices(8 * MIN_CHUNK_EDGES, 8)) == 8
        assert len(chunk_slices(100 * MIN_CHUNK_EDGES, 8)) == 8


class TestCompiledPartialSweeps:
    @given(
        sweep_cases(),
        st.sampled_from(["sum_product", "broadcast"]),
        st.sampled_from(["sum", "max"]),
        st.sampled_from([0.0, 0.3]),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    @settings(**SETTINGS)
    def test_compiled_equals_interpreted(self, case, rule, semiring, damping, chunks, sparse):
        state, paradigm, active = case
        options = dict(update_rule=rule, semiring=semiring, damping=damping)
        ref, ref_snap, ref_log = _sweep(
            "interpreted", state, paradigm, active, options, chunks, sparse
        )
        got, got_snap, got_log = _sweep(
            "compiled", state, paradigm, active, options, chunks, sparse
        )
        # each destination accumulates the same rows in the same order
        assert got_log == ref_log
        for a, b in zip(got_snap, ref_snap):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got[0], ref[0])
        assert got[0].dtype == ref[0].dtype
        if paradigm == "edge":
            np.testing.assert_array_equal(got[1], ref[1])
            assert got[1].dtype == ref[1].dtype
        assert got[-1] == ref[-1]


class TestDefaultPlanOnTrees:
    @given(
        st.integers(min_value=2, max_value=40),
        st.sampled_from([2, 3]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["work_queue", "residual"]),
        st.sampled_from(["node", "edge"]),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_default_plan_matches_junction_tree(
        self, n, b, evidence, seed, schedule, paradigm
    ):
        rng = np.random.default_rng(seed)
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        g = BeliefGraph.from_undirected(
            rng.dirichlet(np.ones(b), size=n),
            edges,
            per_edge_potentials=rng.dirichlet(np.ones(b), size=(n - 1, b)) + 0.05,
        )
        if evidence:
            observe(g, int(rng.integers(n)), int(rng.integers(b)))
        # summed over up to 40 float32 rows, 1e-7 sits below the rounding
        # floor and some trees never settle under it
        credo = Credo(criterion=ConvergenceCriterion(threshold=1e-6, max_iterations=500))
        plan = credo.plan(g, backend=f"c-{paradigm}:{schedule}")
        result = credo.run(g.copy(), plan=plan)
        assert result.converged
        np.testing.assert_allclose(result.beliefs, junction_tree_marginals(g), atol=1e-5)
