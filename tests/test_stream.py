"""repro.stream: streaming construction, graph deltas, incremental re-convergence.

Three load-bearing guarantees:

1. a streamed MTX load is structurally bit-identical to the batch reader
   (same arrays, same potential mode, same errors);
2. replaying a delta journal reproduces the incrementally maintained graph
   bit-exactly (structure arrays, potentials, evidence);
3. warm-started incremental re-convergence matches a cold full run to
   ≤ 1e-6 across every schedule × paradigm while sweeping strictly fewer
   edges.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.observation import observe
from repro.core.scheduler import SCHEDULES, make_schedule
from repro.core.state import LoopyState
from repro.graphs.grids import grid_graph
from repro.core.potentials import attractive_potential
from repro.io.detect import load_graph
from repro.io.mtx import MtxFormatError, read_mtx_graph, write_mtx_graph
from repro.kernels.layout import with_layout
from repro.partition import extend_partition, make_partition
from repro.stream import (
    DeltaJournal,
    GraphDelta,
    GrowableArray,
    IncrementalEngine,
    JournalDecodeError,
    StreamingGraphBuilder,
    apply_delta,
    load_graph_stream,
)

PARADIGMS = ("node", "edge")


def tight_config(schedule="work_queue", paradigm="node", threshold=1e-7):
    return LoopyConfig(
        paradigm=paradigm,
        schedule=schedule,
        criterion=ConvergenceCriterion(threshold, 500),
    )


def assert_graphs_identical(a: BeliefGraph, b: BeliefGraph):
    """Bit-exact structural equality (the journal/replay contract)."""
    assert a.n_nodes == b.n_nodes and a.n_edges == b.n_edges
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.reverse_edge, b.reverse_edge)
    assert np.array_equal(a.priors.dense(), b.priors.dense())
    assert np.array_equal(a.potentials.stacked(), b.potentials.stacked())
    assert a.potentials.shared == b.potentials.shared
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.observed_state, b.observed_state)
    assert a.node_names == b.node_names


# ---------------------------------------------------------------------------
class TestGrowableArray:
    def test_append_and_view(self):
        arr = GrowableArray((), np.int64, capacity=2)
        for i in range(10):
            assert arr.append(i) == i
        assert len(arr) == 10
        assert arr.capacity >= 10
        assert np.array_equal(arr.view, np.arange(10))

    def test_extend_validates_row_shape(self):
        arr = GrowableArray((3,), np.float32, capacity=2)
        arr.extend(np.ones((5, 3), dtype=np.float32))
        assert len(arr) == 5
        with pytest.raises(ValueError, match="row shape"):
            arr.extend(np.ones((2, 4), dtype=np.float32))

    def test_growth_doubles(self):
        arr = GrowableArray((), np.int64, capacity=4)
        arr.extend(np.arange(5))
        assert arr.capacity == 8  # doubled, not size-fit

    def test_old_views_survive_regrow(self):
        arr = GrowableArray((), np.int64, capacity=4)
        arr.extend(np.arange(4))
        old = arr.view
        arr.extend(np.arange(100))
        assert np.array_equal(old, np.arange(4))  # still the old buffer

    def test_slack_accounting(self):
        arr = GrowableArray((), np.int64, capacity=8)
        assert arr.slack_nbytes == 8 * 8
        arr.extend(np.arange(3))
        assert arr.slack_nbytes == 5 * 8


# ---------------------------------------------------------------------------
class TestStreamingLoader:
    @pytest.fixture
    def mtx_pair(self, tmp_path):
        g = grid_graph(6, 7, seed=4)
        nodes, edges = tmp_path / "g.nodes", tmp_path / "g.edges"
        write_mtx_graph(g, nodes, edges)
        return nodes, edges

    @pytest.mark.parametrize("chunk", [3, 64, 10**6])
    def test_bitwise_equal_to_batch(self, mtx_pair, chunk):
        nodes, edges = mtx_pair
        batch = read_mtx_graph(nodes, edges)
        streamed = load_graph_stream(nodes, edges, chunk_edges=chunk)
        assert_graphs_identical(batch, streamed)

    def test_per_edge_matrices(self, tmp_path):
        rng = np.random.default_rng(0)
        g = BeliefGraph.from_undirected(
            rng.random((5, 2)).astype(np.float32),
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
            per_edge_potentials=rng.random((5, 2, 2)).astype(np.float32),
        )
        nodes, edges = tmp_path / "p.nodes", tmp_path / "p.edges"
        write_mtx_graph(g, nodes, edges)
        batch = read_mtx_graph(nodes, edges)
        streamed = load_graph_stream(nodes, edges, chunk_edges=2)
        assert not streamed.potentials.shared
        assert_graphs_identical(batch, streamed)

    def test_non_symmetric_shared_goes_per_edge(self, tmp_path):
        rng = np.random.default_rng(1)
        g = BeliefGraph.from_undirected(
            rng.random((4, 2)).astype(np.float32),
            [(0, 1), (1, 2), (2, 3)],
            potential=np.array([[0.9, 0.1], [0.4, 0.6]], np.float32),
        )
        nodes, edges = tmp_path / "ns.nodes", tmp_path / "ns.edges"
        write_mtx_graph(g, nodes, edges)
        batch = read_mtx_graph(nodes, edges)
        streamed = load_graph_stream(nodes, edges, chunk_edges=1)
        assert not streamed.potentials.shared
        assert_graphs_identical(batch, streamed)

    def test_out_of_order_node_entries(self, mtx_pair):
        nodes, edges = mtx_pair
        lines = nodes.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("%") or not ln[:1].isdigit()]
        entries = [ln for ln in lines if ln[:1].isdigit()]
        # first data line is the size header; keep it in place, shuffle the rest
        size, data = entries[0], entries[1:]
        shuffled = nodes.with_suffix(".shuf")
        shuffled.write_text("\n".join(header + [size] + data[::-1]) + "\n")
        assert_graphs_identical(
            read_mtx_graph(nodes, edges), load_graph_stream(shuffled, edges)
        )

    def test_error_parity_with_batch_reader(self, mtx_pair, tmp_path):
        nodes, edges = mtx_pair
        truncated = tmp_path / "bad.edges"
        truncated.write_text("".join(edges.read_text().splitlines(True)[:-1]))
        with pytest.raises(MtxFormatError) as batch_err:
            read_mtx_graph(nodes, truncated)
        with pytest.raises(MtxFormatError) as stream_err:
            load_graph_stream(nodes, truncated)
        assert str(batch_err.value).replace("bad.edges", "X") == str(
            stream_err.value
        ).replace("bad.edges", "X")

    def test_malformed_lines_carry_line_numbers(self, mtx_pair, tmp_path):
        nodes, edges = mtx_pair
        bad = tmp_path / "mal.edges"
        text = edges.read_text().splitlines(True)
        text[-1] = "not numbers\n"
        bad.write_text("".join(text))
        with pytest.raises(MtxFormatError, match=r"line \d+"):
            load_graph_stream(nodes, bad)

    def test_reserved_footprint(self, mtx_pair):
        nodes, edges = mtx_pair
        streamed = load_graph_stream(nodes, edges)
        fp = streamed.memory_footprint()
        assert fp["reserved"] == streamed.reserved_nbytes >= 0
        batch = read_mtx_graph(nodes, edges)
        assert batch.memory_footprint()["reserved"] == 0

    def test_load_graph_stream_kwarg(self, mtx_pair):
        nodes, edges = mtx_pair
        assert_graphs_identical(
            load_graph(nodes, edges),
            load_graph(nodes, edges, stream=True, chunk_edges=16),
        )

    def test_stream_rejects_bif(self, tmp_path):
        bif = Path(__file__).parent.parent / "examples" / "family_out.bif"
        if not bif.exists():
            pytest.skip("example BIF not present")
        with pytest.raises(ValueError, match="MTX"):
            load_graph(bif, stream=True)

    def test_streamed_posterior_parity(self, mtx_pair):
        nodes, edges = mtx_pair
        cfg = tight_config()
        a = LoopyBP(cfg).run(read_mtx_graph(nodes, edges))
        b = LoopyBP(cfg).run(load_graph_stream(nodes, edges, chunk_edges=8))
        np.testing.assert_array_equal(np.asarray(a.beliefs), np.asarray(b.beliefs))


class TestStreamingBuilder:
    def test_matches_from_undirected(self):
        rng = np.random.default_rng(7)
        priors = rng.random((8, 3)).astype(np.float32)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (6, 7), (2, 6)]
        pot = attractive_potential(3, 0.8)
        reference = BeliefGraph.from_undirected(priors, edges, pot)

        builder = StreamingGraphBuilder(3)
        for row in priors:
            builder.add_node(row)
        builder.set_shared_potential(pot)
        builder.add_undirected_edges(np.array(edges))
        assert_graphs_identical(reference, builder.build())

    def test_drops_self_loops(self):
        builder = StreamingGraphBuilder(2)
        builder.add_nodes(3)
        builder.set_shared_potential(attractive_potential(2, 0.6))
        added = builder.add_undirected_edges(np.array([[0, 0], [0, 1], [2, 2]]))
        assert added == 1
        assert builder.n_edges == 2

    def test_from_graph_extension(self):
        g = grid_graph(3, 3, seed=2)
        builder = StreamingGraphBuilder.from_graph(g)
        nid = builder.add_node()
        builder.add_undirected_edge(nid, 0)
        extended = builder.build()
        assert extended.n_nodes == g.n_nodes + 1
        assert extended.n_edges == g.n_edges + 2
        # the original prefix is untouched
        assert np.array_equal(extended.src[: g.n_edges], g.src)
        assert np.array_equal(extended.reverse_edge[: g.n_edges], g.reverse_edge)

    def test_edge_endpoint_validation(self):
        builder = StreamingGraphBuilder(2)
        builder.add_nodes(2)
        builder.set_shared_potential(attractive_potential(2, 0.6))
        with pytest.raises(ValueError, match="out of range"):
            builder.add_undirected_edge(0, 5)

    def test_edges_need_a_potential(self):
        builder = StreamingGraphBuilder(2)
        builder.add_nodes(2)
        with pytest.raises(ValueError, match="potential"):
            builder.add_undirected_edge(0, 1)


# ---------------------------------------------------------------------------
class TestGraphDelta:
    def test_payload_roundtrip(self):
        delta = (
            GraphDelta()
            .add_node(name="x", prior=[0.2, 0.8])
            .add_edge("x", "0")
            .remove_edge("1", "2")
            .detach_node("3")
            .observe_node("4", 1)
            .release_node("5")
        )
        clone = GraphDelta.from_payload(
            json.loads(json.dumps(delta.to_payload()))
        )
        assert clone.to_payload() == delta.to_payload()
        assert clone.structural and not clone.empty

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            GraphDelta.from_payload({"add_edges": [["only-one-endpoint"]]})
        with pytest.raises(ValueError):
            GraphDelta.from_payload({"observe": [["n", 1, 2]]})
        with pytest.raises(ValueError):
            GraphDelta.from_payload({"add_nodes": ["not-a-mapping"]})

    def test_apply_never_mutates_input(self):
        g = grid_graph(3, 3, seed=1)
        src0 = g.src.copy()
        res = apply_delta(g, GraphDelta().add_node(name="p").add_edge("p", "0"))
        assert np.array_equal(g.src, src0)
        assert g.n_nodes == 9 and res.graph.n_nodes == 10

    def test_structural_bookkeeping(self):
        g = grid_graph(3, 3, seed=1)
        res = apply_delta(
            g, GraphDelta().add_node(name="p").add_edge("p", "4").remove_edge("0", "1")
        )
        assert res.structural
        assert res.added_nodes == 1 and res.added_edges == 2 and res.removed_edges == 2
        assert {0, 1, 4, 9} <= set(res.dirty_nodes.tolist())
        # kept directed edges map injectively, dropped ones to -1
        kept = res.edge_map[res.edge_map >= 0]
        assert len(set(kept.tolist())) == len(kept)
        assert (res.edge_map == -1).sum() == 2

    def test_evidence_only_shares_structure(self):
        g = grid_graph(3, 3, seed=1)
        res = apply_delta(g, GraphDelta().observe_node("4", 1))
        assert not res.structural and res.edge_map is None
        assert res.graph.src is g.src  # copy() shares structure arrays
        assert res.graph.observed[4] and not g.observed[4]

    @pytest.mark.parametrize("layout", ["aos", "soa", "blocked"])
    def test_evidence_delta_never_mutates_input(self, layout):
        g = with_layout(grid_graph(4, 5, seed=1), layout)
        observe(g, 3, 0)
        LoopyBP(tight_config()).run(g)
        before = (g.priors.dense(), g.beliefs.dense(), g.observed.copy(),
                  g.observed_state.copy(), list(g.node_names))
        res = apply_delta(g, GraphDelta().observe_node("7", 1).release_node("3"))
        after = (g.priors.dense(), g.beliefs.dense(), g.observed, g.observed_state,
                 g.node_names)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert res.graph.observed[7] and not res.graph.observed[3]
        assert res.graph.beliefs.get(7)[1] == 1.0
        # the released node restarts from its prior in the new graph only
        np.testing.assert_array_equal(res.graph.beliefs.get(3), g.priors.get(3))
        assert not np.array_equal(g.beliefs.get(3), g.priors.get(3))

    def test_detach_node(self):
        g = grid_graph(3, 3, seed=1)
        observe(g, 4, 0)
        res = apply_delta(g, GraphDelta().detach_node("4"))
        new = res.graph
        assert len(new.in_edges(4)) == 0 and len(new.out_edges(4)) == 0
        assert not new.observed[4]
        np.testing.assert_allclose(new.priors.dense()[4], 0.5)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: GraphDelta().add_edge("0", "0"), "self loop"),
            (lambda: GraphDelta().add_edge("0", "1"), "already exists"),
            (lambda: GraphDelta().add_edge("0", "5").add_edge("5", "0"), "twice"),
            (lambda: GraphDelta().remove_edge("0", "8"), "no edge"),
            (lambda: GraphDelta().add_node(name="0"), "already exists"),
            (lambda: GraphDelta().add_node(prior=[1.0]), "needs 2 values"),
            (lambda: GraphDelta().add_node(prior=[-1.0, 2.0]), "not a valid"),
            (
                lambda: GraphDelta().add_edge("0", "5", np.ones((3, 3))),
                r"must be \(2, 2\)",
            ),
        ],
    )
    def test_rejects_invalid_operations(self, build, match):
        g = grid_graph(3, 3, seed=1)
        with pytest.raises((ValueError, KeyError), match=match):
            apply_delta(g, build())

    def test_heterogeneous_rejected(self):
        rng = np.random.default_rng(0)
        g = BeliefGraph(
            [rng.random(2), rng.random(3)],
            np.array([0]), np.array([1]),
            np.ones((1, 3, 3), np.float32),
        )
        with pytest.raises(ValueError, match="constant-width"):
            apply_delta(g, GraphDelta().observe_node(0, 1))


def random_delta(graph: BeliefGraph, rng: np.random.Generator, tag: int) -> GraphDelta:
    """One random valid delta against ``graph`` (for the replay property test)."""
    delta = GraphDelta()
    pairs = {(int(s), int(d)) for s, d in zip(graph.src, graph.dst)}
    choice = rng.integers(0, 4)
    if choice == 0:
        name = f"n{tag}"
        delta.add_node(name=name, prior=rng.random(graph.n_states) + 0.1)
        delta.add_edge(name, int(rng.integers(0, graph.n_nodes)))
    elif choice == 1:
        for _ in range(8):  # find a non-edge
            u, v = rng.integers(0, graph.n_nodes, 2)
            if u != v and (int(u), int(v)) not in pairs and (int(v), int(u)) not in pairs:
                delta.add_edge(int(u), int(v))
                break
    elif choice == 2 and graph.n_edges:
        e = int(rng.integers(0, graph.n_edges))
        delta.remove_edge(int(graph.src[e]), int(graph.dst[e]))
    else:
        delta.observe_node(int(rng.integers(0, graph.n_nodes)), int(rng.integers(0, graph.n_states)))
    return delta


class TestDeltaJournal:
    @pytest.mark.parametrize("seed", range(5))
    def test_replay_reproduces_graph_bit_exactly(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        base = grid_graph(4, 4, seed=seed)
        journal = DeltaJournal()
        live = base
        for tag in range(12):
            delta = random_delta(live, rng, tag)
            if delta.empty:
                continue
            live = apply_delta(live, delta).graph
            journal.append(delta)

        path = tmp_path / "journal.jsonl"
        journal.save(path)
        loaded = DeltaJournal.load(path)
        assert len(loaded) == len(journal)
        replayed = loaded.replay(grid_graph(4, 4, seed=seed))
        assert_graphs_identical(live, replayed)

    def test_empty_journal_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        DeltaJournal().save(path)
        assert len(DeltaJournal.load(path)) == 0

    def test_torn_tail_raises_typed_error(self, tmp_path):
        journal = DeltaJournal()
        for node in range(3):
            journal.append(GraphDelta().observe_node(node, 1))
        path = tmp_path / "torn.jsonl"
        journal.save(path)
        text = path.read_text(encoding="utf-8")
        # cut the last write off mid-record
        path.write_text(text[: len(text) - 6], encoding="utf-8")
        with pytest.raises(JournalDecodeError) as info:
            DeltaJournal.load(path)
        err = info.value
        assert isinstance(err, ValueError)
        assert (err.path, err.line, err.complete) == (str(path), 3, 2)
        assert str(path) in str(err) and "line 3" in str(err)
        assert "2 complete delta(s)" in str(err)


# ---------------------------------------------------------------------------
class TestSchedulerWarmStart:
    def test_work_queue_seed_dedupes(self):
        from repro.core.scheduler import WorkQueue

        queue = WorkQueue(10, element_threshold=1e-3)
        queue.seed(np.array([3, 5, 3, 7], dtype=np.int64))
        assert queue.active.tolist() == [3, 5, 7]
        assert len(queue) == 3

    @pytest.mark.parametrize("name", SCHEDULES)
    def test_restrict_narrows_initial_set(self, name):
        schedule = make_schedule(name, 10, element_threshold=1e-3, seed=0)
        schedule.restrict(np.array([2, 4], dtype=np.int64))
        if name == "sync":
            return  # exhaustive by contract; restrict is a documented no-op
        active = schedule.active
        assert set(np.asarray(active).tolist()) <= {2, 4} and len(active)


class TestIncrementalEngine:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_evidence_parity_and_fewer_edges(self, schedule, paradigm):
        cfg = tight_config(schedule, paradigm, threshold=1e-8)
        g = grid_graph(5, 5, seed=3)
        eng = IncrementalEngine(g, cfg)
        eng.converge()
        inc = eng.apply(GraphDelta().observe_node("7", 1))
        assert inc.mode == "incremental" and not inc.structural

        ref = g.copy()
        observe(ref, 7, 1)
        full = LoopyBP(cfg).run(ref)
        assert np.abs(np.asarray(inc.beliefs) - np.asarray(full.beliefs)).max() <= 1e-6
        assert inc.edges_swept < full.run_stats.total.edges_processed

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_structural_parity_and_fewer_edges(self, schedule, paradigm):
        cfg = tight_config(schedule, paradigm, threshold=1e-7)
        g = grid_graph(5, 5, seed=3)
        eng = IncrementalEngine(g, cfg)
        eng.converge()
        inc = eng.apply(
            GraphDelta().add_node(name="probe", prior=[0.7, 0.3]).add_edge("probe", "12")
        )
        assert inc.mode == "incremental" and inc.structural
        assert not inc.reused_lowerings  # structure changed

        full = LoopyBP(cfg).run(eng.graph.copy())
        assert np.abs(np.asarray(inc.beliefs) - np.asarray(full.beliefs)).max() <= 1e-6
        assert inc.edges_swept < full.run_stats.total.edges_processed

    def test_evidence_updates_reuse_lowerings(self):
        cfg = tight_config()
        eng = IncrementalEngine(grid_graph(4, 4, seed=1), cfg)
        eng.converge()
        cache_before = dict(eng._executor_cache)
        inc = eng.apply(GraphDelta().observe_node("5", 1))
        assert inc.reused_lowerings
        for key, executor in cache_before.items():
            assert eng._executor_cache[key] is executor

    @pytest.mark.parametrize("schedule", ["sync", "work_queue"])
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_reused_compiled_lowering_reads_live_evidence(self, schedule, paradigm):
        # evidence deltas flip free_mask in place under a cached compiled
        # executor: its sweeps must see the new observations, bit for bit
        # like the interpreted kernels
        deltas = [
            GraphDelta().observe_node("7", 1),
            GraphDelta().observe_node("12", 0),
            GraphDelta().release_node("7"),
        ]
        runs = {}
        for executor in ("interpreted", "compiled"):
            cfg = replace(tight_config(schedule, paradigm, threshold=1e-8),
                          executor=executor)
            eng = IncrementalEngine(grid_graph(5, 5, seed=3), cfg)
            eng.converge()
            runs[executor] = [eng.apply(delta).result for delta in deltas]
        for ref, got in zip(runs["interpreted"], runs["compiled"]):
            assert got.delta_history == ref.delta_history
            np.testing.assert_array_equal(got.beliefs, ref.beliefs)

    @pytest.mark.parametrize("layout", ["aos", "soa", "blocked"])
    def test_patched_evidence_equals_dense_state(self, layout):
        # the patch reads only the dirty rows of the priors; it must leave
        # the state a fresh LoopyState would build from the dense priors
        deltas = [
            GraphDelta().observe_node("7", 1),
            GraphDelta().release_node("7").observe_node("12", 0),
            GraphDelta().observe_node("7", 0),
            GraphDelta().observe_node("3", 1).release_node("3"),
            GraphDelta().release_node("7").release_node("12"),
        ]
        g = with_layout(grid_graph(5, 5, seed=3), layout)
        eng = IncrementalEngine(g, tight_config("residual", "edge", threshold=1e-8))
        eng.converge()
        for delta in deltas:
            inc = eng.apply(delta)
            assert inc.mode == "incremental"
            fresh = LoopyState(eng.graph)
            state = eng._state
            np.testing.assert_array_equal(state.log_priors, fresh.log_priors)
            np.testing.assert_array_equal(state.free_mask, fresh.free_mask)
            observed = np.flatnonzero(eng.graph.observed)
            np.testing.assert_array_equal(state.beliefs[observed], fresh.beliefs[observed])
            np.testing.assert_array_equal(eng.graph.beliefs.dense(), state.beliefs)
        assert not eng.graph.observed.any()

    def test_large_dirty_fraction_falls_back_to_full(self):
        cfg = tight_config()
        g = grid_graph(4, 4, seed=1)
        eng = IncrementalEngine(g, cfg, dirty_max_fraction=0.05)
        eng.converge()
        delta = GraphDelta()
        for node in range(8):
            delta.observe_node(str(node), 0)
        inc = eng.apply(delta)
        assert inc.mode == "full"

    def test_first_apply_without_converge_is_full(self):
        eng = IncrementalEngine(grid_graph(3, 3, seed=1), tight_config())
        inc = eng.apply(GraphDelta().observe_node("4", 1))
        assert inc.mode == "full"

    def test_sequence_of_deltas_stays_correct(self):
        cfg = tight_config("residual", "node", threshold=1e-8)
        g = grid_graph(4, 5, seed=6)
        eng = IncrementalEngine(g, cfg)
        eng.converge()
        deltas = [
            GraphDelta().observe_node("3", 1),
            GraphDelta().add_node(name="x").add_edge("x", "10"),
            GraphDelta().observe_node("x", 0),
            GraphDelta().remove_edge("0", "1"),
            GraphDelta().release_node("3"),
        ]
        for delta in deltas:
            inc = eng.apply(delta)
            full = LoopyBP(cfg).run(eng.graph.copy())
            assert (
                np.abs(np.asarray(inc.beliefs) - np.asarray(full.beliefs)).max() <= 1e-6
            )

    def test_update_mode_selector(self):
        from repro.credo.selector import CredoSelector, INCREMENTAL_DIRTY_MAX_FRACTION

        selector = CredoSelector()
        assert selector.select_update_mode(0.01) == "incremental"
        assert (
            selector.select_update_mode(INCREMENTAL_DIRTY_MAX_FRACTION + 0.01)
            == "full"
        )


# ---------------------------------------------------------------------------
class TestExtendPartition:
    def test_preserves_existing_assignment(self):
        g = grid_graph(6, 6, seed=2)
        part = make_partition(g, 4, "bfs")
        res = apply_delta(g, GraphDelta().add_node(name="p").add_edge("p", "0"))
        grown = extend_partition(part, res.graph)
        assert np.array_equal(grown.assignment[: g.n_nodes], part.assignment)
        assert grown.n_shards == part.n_shards

    def test_new_nodes_follow_neighbours(self):
        g = grid_graph(6, 6, seed=2)
        part = make_partition(g, 4, "bfs")
        res = apply_delta(g, GraphDelta().add_node(name="p").add_edge("p", "0"))
        grown = extend_partition(part, res.graph)
        # the only neighbour of the new node is node 0 — affinity wins
        assert grown.assignment[-1] == part.assignment[0]

    def test_isolated_new_node_goes_least_loaded(self):
        g = grid_graph(4, 4, seed=2)
        part = make_partition(g, 3, "range")
        res = apply_delta(g, GraphDelta().add_node(name="loner"))
        grown = extend_partition(part, res.graph)
        loads = np.bincount(part.assignment, minlength=3)
        assert grown.assignment[-1] == int(np.argmin(loads))

    def test_statistics_are_remeasured(self):
        g = grid_graph(5, 5, seed=2)
        part = make_partition(g, 2, "bfs")
        res = apply_delta(g, GraphDelta().add_node(name="p").add_edge("p", "24"))
        grown = extend_partition(part, res.graph)
        assert grown.n_edges == res.graph.n_edges
        fresh = make_partition(res.graph, 2, "bfs")
        assert grown.cut_fraction <= 1.0 and fresh.n_edges == grown.n_edges

    def test_rejects_shrunken_graph(self):
        g = grid_graph(4, 4, seed=2)
        part = make_partition(g, 2, "bfs")
        with pytest.raises(ValueError, match="never shrink"):
            extend_partition(part, grid_graph(3, 3, seed=2))
