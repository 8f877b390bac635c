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
from pathlib import Path

import numpy as np
import pytest

from repro.core import indexset
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.observation import observe
from repro.core.potentials import attractive_potential
from repro.core.scheduler import SCHEDULES, make_schedule
from repro.core.state import LoopyState
from repro.credo.selector import INCREMENTAL_DIRTY_MAX_FRACTION
from repro.graphs.grids import grid_edges, grid_graph
from repro.io.detect import load_graph
from repro.io.mtx import MtxFormatError, read_mtx_graph, write_mtx_graph
from repro.stream import (
    DeltaJournal,
    GraphDelta,
    GrowableArray,
    IncrementalEngine,
    JournalDecodeError,
    StreamingGraphBuilder,
    apply_delta,
    apply_evidence,
    load_graph_stream,
)
from tests.conftest import assert_bitwise_run, interpreted_sweeps

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
    assert np.array_equal(a.priors, b.priors)
    assert np.array_equal(a.potentials.stacked(), b.potentials.stacked())
    assert a.potentials.shared == b.potentials.shared
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.observed_state, b.observed_state)
    assert a.node_names == b.node_names


def graph_bytes(g: BeliefGraph) -> tuple[bytes, ...]:
    """The bytes of a graph's priors, beliefs and evidence."""
    return tuple(
        np.ascontiguousarray(a).tobytes()
        for a in (g.priors, g.beliefs, g.observed, g.observed_state)
    )


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

    @pytest.mark.parametrize("state", [True, False, 1.5, "1.5"])
    def test_observe_rejects_non_integral_states(self, state):
        with pytest.raises(ValueError):
            GraphDelta().observe_node("0", state)
        with pytest.raises(ValueError):
            GraphDelta.from_payload({"observe": [["0", state]]})

    def test_observe_accepts_integral_states(self):
        delta = GraphDelta.from_payload({"observe": [["0", 1.0], ["1", "1"], ["2", 1]]})
        assert delta.observe == [("0", 1), ("1", 1), ("2", 1)]
        assert all(type(state) is int for _, state in delta.observe)
        assert GraphDelta().observe_node("0", np.int64(1)).observe == [("0", 1)]

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

    def test_evidence_delta_never_mutates_input(self):
        g = grid_graph(4, 5, seed=1)
        observe(g, 3, 0)
        LoopyBP(tight_config()).run(g)
        before = (g.priors.copy(), g.beliefs.copy(), g.observed.copy(),
                  g.observed_state.copy(), list(g.node_names))
        res = apply_delta(g, GraphDelta().observe_node("7", 1).release_node("3"))
        after = (g.priors, g.beliefs, g.observed, g.observed_state,
                 g.node_names)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert res.graph.observed[7] and not res.graph.observed[3]
        assert res.graph.beliefs[7, 1] == 1.0
        # the released node restarts from its prior in the new graph only
        np.testing.assert_array_equal(res.graph.beliefs[3], g.priors[3])
        assert not np.array_equal(g.beliefs[3], g.priors[3])

    def test_rejected_evidence_delta_leaves_graph_untouched(self):
        # every node and state is checked before the first write, so an
        # in-place patch is all or nothing
        g = grid_graph(3, 3, seed=1)
        before = graph_bytes(g)
        for delta in (
            GraphDelta().observe_node("4", 1).release_node("no_such_node"),
            GraphDelta().observe_node("4", 1).observe_node("5", 7),
        ):
            with pytest.raises((KeyError, ValueError)):
                apply_evidence(g, delta)
            assert graph_bytes(g) == before
        with pytest.raises(ValueError, match="evidence-only"):
            apply_evidence(g, GraphDelta().add_node(name="p"))

    def test_detach_node(self):
        g = grid_graph(3, 3, seed=1)
        observe(g, 4, 0)
        res = apply_delta(g, GraphDelta().detach_node("4"))
        new = res.graph
        assert len(new.in_edges(4)) == 0 and len(new.out_edges(4)) == 0
        assert not new.observed[4]
        np.testing.assert_allclose(new.priors[4], 0.5)

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

    @pytest.mark.parametrize("named", [False, True])
    def test_duplicate_checks_without_a_pair_map(self, named):
        """Duplicates are found through the CSR and the name map: the same
        errors on unbuilt default names and on explicit names."""
        g = grid_graph(3, 3, seed=1)
        if named:
            g.node_names = [f"v{i}" for i in range(9)]
        name = (lambda i: f"v{i}") if named else str
        cases = [
            (GraphDelta().add_node(name=name(4)), f"node name '{name(4)}' already exists"),
            (GraphDelta().add_node(name="new").add_node(name="new"),
             "node name 'new' already exists"),
            (GraphDelta().add_edge(name(0), name(1)), "edge 0–1 already exists"),
            (GraphDelta().add_edge(name(1), name(0)), "edge 1–0 already exists"),
            (GraphDelta().add_edge(name(0), name(4)).add_edge(name(4), name(0)),
             "edge 4–0 added twice in one delta"),
            (GraphDelta().add_edge(name(0), name(4)).add_edge(name(0), name(4)),
             "edge 0–4 added twice in one delta"),
        ]
        for delta, message in cases:
            with pytest.raises(ValueError) as info:
                apply_delta(g, delta)
            assert str(info.value) == message
        # a new node's edges are checked too, and a fresh pair goes through
        ok = apply_delta(g, GraphDelta().add_node(name="p").add_edge("p", name(0))
                         .add_edge(name(0), name(4)))
        assert ok.added_edges == 4

    def test_remove_finds_either_orientation_and_the_last_duplicate(self):
        g = BeliefGraph.from_undirected(
            np.full((4, 2), 0.5), np.array([[0, 1], [1, 2], [0, 1], [2, 3]]),
            attractive_potential(2, 0.8), dedupe=False,
        )
        for u, v in (("0", "1"), ("1", "0")):
            res = apply_delta(g, GraphDelta().remove_edge(u, v))
            # the later copy of 0-1 (directed edges 4 and 5) goes
            assert res.edge_map.tolist() == [0, 1, 2, 3, -1, -1, 4, 5]
        with pytest.raises(ValueError, match="no edge 0–3 to remove"):
            apply_delta(g, GraphDelta().remove_edge("0", "3"))

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

    def test_journal_state_checked_on_load(self, tmp_path):
        path = tmp_path / "states.jsonl"
        path.write_text('{"observe": [["0", 1.0], ["1", "1"]]}\n', encoding="utf-8")
        (delta,) = DeltaJournal.load(path)
        assert delta.observe == [("0", 1), ("1", 1)]
        for bad in ("1.5", "true"):
            path.write_text(f'{{"observe": [["0", {bad}]]}}\n', encoding="utf-8")
            with pytest.raises(ValueError):
                DeltaJournal.load(path)

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
        schedule = make_schedule(name, 10, element_threshold=1e-3)
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

    @pytest.mark.parametrize("schedule", ["sync", "work_queue"])
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_evidence_patch_matches_a_cold_state(self, schedule, paradigm):
        # node 7's prior has an exact zero: releasing it must store the
        # clamped log prior a cold build stores (log TINY32), not -inf
        g = grid_graph(5, 5, seed=3)
        g.priors[7] = np.array([1.0, 0.0], dtype=np.float32)
        eng = IncrementalEngine(g, tight_config(schedule, paradigm))
        eng.converge()
        for delta in (GraphDelta().observe_node("7", 1),
                      GraphDelta().release_node("7"),
                      GraphDelta().observe_node("12", 0)):
            eng.apply(delta)
        cold = LoopyState(eng.graph)
        np.testing.assert_array_equal(eng._state.free_mask, cold.free_mask)
        np.testing.assert_array_equal(eng._state.log_priors, cold.log_priors)

    @pytest.mark.parametrize("schedule", ["sync", "work_queue"])
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_structural_delta_migrates_zero_messages(self, schedule, paradigm):
        # under a banded potential, node 0's evidence at state 2 sends
        # messages with exact zeros; the migrated state rebuilds its log
        # messages from them and must clamp as the sweeps do
        band = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.float32)
        priors = np.random.default_rng(0).dirichlet(np.ones(3), size=9)
        g = BeliefGraph.from_undirected(priors, grid_edges(3, 3), band)
        observe(g, 0, 2)
        cfg = tight_config(schedule, paradigm)
        eng = IncrementalEngine(g, cfg)
        eng.converge()
        inc = eng.apply(GraphDelta().add_edge("2", "6", band))
        full = LoopyBP(cfg).run(eng.graph.copy())
        assert inc.mode == "incremental"
        assert np.abs(np.asarray(inc.beliefs) - np.asarray(full.beliefs)).max() <= 1e-6

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
        # like the reference kernels
        deltas = [
            GraphDelta().observe_node("7", 1),
            GraphDelta().observe_node("12", 0),
            GraphDelta().release_node("7"),
        ]

        def run():
            cfg = tight_config(schedule, paradigm, threshold=1e-8)
            eng = IncrementalEngine(grid_graph(5, 5, seed=3), cfg)
            eng.converge()
            return [eng.apply(delta).result for delta in deltas]

        with interpreted_sweeps():
            reference = run()
        for ref, got in zip(reference, run()):
            assert_bitwise_run(got, ref)

    def test_patched_evidence_equals_dense_state(self):
        # the patch reads only the dirty rows of the priors; it must leave
        # the state a fresh LoopyState would build from all of them
        deltas = [
            GraphDelta().observe_node("7", 1),
            GraphDelta().release_node("7").observe_node("12", 0),
            GraphDelta().observe_node("7", 0),
            GraphDelta().observe_node("3", 1).release_node("3"),
            GraphDelta().release_node("7").release_node("12"),
        ]
        g = grid_graph(5, 5, seed=3)
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
            np.testing.assert_array_equal(eng.graph.beliefs, state.beliefs)
        assert not eng.graph.observed.any()

    def test_corner_delta_reconverges_in_few_rounds(self):
        # a priority round sweeps the whole eligible frontier, so a corner
        # delta re-converges in about as many rounds as it takes to spread
        # (11 here)
        cfg = LoopyConfig(
            paradigm="edge", schedule="residual",
            criterion=ConvergenceCriterion(threshold=1e-8, max_iterations=500),
        )
        grid = grid_graph(32, 32, n_states=2, seed=11, coupling=0.6)
        eng = IncrementalEngine(grid.copy(), cfg)
        eng.converge()
        delta = GraphDelta().observe_node("33", 1)
        inc = eng.apply(delta)
        assert inc.mode == "incremental" and inc.result.converged
        assert inc.result.iterations <= 12
        full = LoopyBP(cfg).run(apply_delta(grid, delta).graph)
        assert np.abs(np.asarray(inc.beliefs) - np.asarray(full.beliefs)).max() <= 1e-6

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_compacted_scatter_route_matches_reference(self, paradigm, monkeypatch):
        # on 80x80 (n = 6,400) a round of fewer than 192 edges scatters
        # through the compacted route (``is_sparse``): the compiled edge
        # rounds reuse their destination set, the node rounds and the
        # reference kernels deduplicate; a grid of 32x32 or less never
        # takes it
        deltas = [
            GraphDelta().observe_node("0", 1),
            GraphDelta().release_node("0").observe_node("81", 0),
            GraphDelta().observe_node("2", 1),
            GraphDelta().release_node("81").release_node("2"),
        ]
        original = LoopyState.scatter_log_delta
        routes = []

        def spy(state, dsts, log_delta, rows=None, ranks=None):
            if indexset.is_sparse(len(dsts), state.n):
                routes.append("known" if rows is not None else "compacted")
            return original(state, dsts, log_delta, rows, ranks)

        monkeypatch.setattr(LoopyState, "scatter_log_delta", spy)

        def run():
            cfg = tight_config("residual", paradigm, threshold=1e-8)
            eng = IncrementalEngine(grid_graph(80, 80, n_states=2, seed=11, coupling=0.6), cfg)
            eng.converge()
            routes.clear()
            results = [eng.apply(delta).result for delta in deltas]
            return results, set(routes)

        with interpreted_sweeps():
            reference, ref_routes = run()
        got, got_routes = run()
        assert ref_routes == {"compacted"}
        assert got_routes == {"known" if paradigm == "edge" else "compacted"}
        for ref, result in zip(reference, got):
            assert result.iterations > 1
            assert_bitwise_run(result, ref)

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_in_place_evidence_matches_copying_reference(self, paradigm, monkeypatch):
        # evidence deltas patch engine.graph in place; a reference engine
        # that takes every delta through apply_delta's copy (and rebinds
        # its state to the copy) must agree bit for bit at every step
        import repro.stream.incremental as incremental

        deltas = [
            GraphDelta().observe_node("7", 1),
            GraphDelta().release_node("7").observe_node("12", 0),
            GraphDelta().release_node("3"),  # never observed
            GraphDelta(),
            # the migration reads the warm beliefs from the graph's store
            GraphDelta().add_node(name="probe", prior=[0.7, 0.3]).add_edge("probe", "14"),
            GraphDelta().observe_node("probe", 1).release_node("12"),
            GraphDelta().observe_node("0", 1),
        ]
        crowd = GraphDelta()  # a dirty fraction above the ceiling: a full run
        for node in range(12):
            crowd.observe_node(str(node), node % 2)
        deltas += [crowd, GraphDelta().release_node("5"), GraphDelta().observe_node("20", 0)]

        def new_engine():
            eng = IncrementalEngine(
                grid_graph(6, 6, seed=3), tight_config("residual", paradigm, 1e-8)
            )
            eng.converge()
            return eng

        engine, reference = new_engine(), new_engine()

        def copying(graph, delta):
            before = graph_bytes(graph)
            res = apply_delta(graph, delta)
            assert graph_bytes(graph) == before  # the input is never mutated
            reference.graph = reference._state.graph = res.graph
            return res

        modes = []
        for delta in deltas:
            live = engine.graph
            got = engine.apply(delta)
            assert (engine.graph is live) == (not delta.structural)
            with monkeypatch.context() as patch:
                patch.setattr(incremental, "apply_evidence", copying)
                ref = reference.apply(delta)
            modes.append(got.mode)
            assert (got.mode, got.structural) == (ref.mode, ref.structural)
            assert got.result.iterations == ref.result.iterations
            assert got.edges_swept == ref.edges_swept
            assert got.result.delta_history == ref.result.delta_history
            assert got.beliefs.tobytes() == ref.beliefs.tobytes()
            assert graph_bytes(engine.graph) == graph_bytes(reference.graph)
        assert modes.count("full") == 1 and modes[-1] == "incremental"

    def test_large_dirty_fraction_falls_back_to_full(self):
        cfg = tight_config()
        g = grid_graph(4, 4, seed=1)
        eng = IncrementalEngine(g, cfg)
        eng.converge()
        delta = GraphDelta()
        for node in range(8):
            delta.observe_node(str(node), 0)
        assert 8 / g.n_nodes > INCREMENTAL_DIRTY_MAX_FRACTION
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
