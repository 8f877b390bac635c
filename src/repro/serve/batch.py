"""Micro-batched BP execution: many queries, one sweep.

Concurrent queries against the same registered graph differ only in
their evidence clamps.  The batch runner materializes ``K`` disjoint
replicas of the graph inside **one** :class:`~repro.core.graph.BeliefGraph`
(block-diagonal adjacency, shared potential store), clamps each replica
with its query's evidence, and drives belief propagation over the union:
each iteration issues *one* vectorized kernel call covering every live
query's active elements instead of ``K`` separate Python-dispatched
sweeps.  That is the Gonzalez-style amortization the serving layer is
built around — graph residency and kernel dispatch are paid once per
batch, not once per query.

Correctness contract (the serve ↔ one-shot parity guarantee): replicas
are *disjoint*, so each query's update trajectory inside the union is
element-for-element the trajectory of a solo run.  To keep it bitwise
faithful the runner mirrors :class:`~repro.core.loopy.LoopyBP` exactly,
per replica:

* one **schedule instance per query** (same thresholds, seeds and
  parameters a solo run would build), fed only its replica's deltas and
  downstream sets, in replica-local element ids;
* the edge paradigm's intra-sweep freshness chunking is preserved by
  slicing each replica's active set with the *solo* chunk boundaries —
  :func:`~repro.core.edge_kernel.chunk_slices`: at most ``edge_chunks``
  chunks, each of at least ``MIN_CHUNK_EDGES`` edges, so a replica with
  few active edges runs fewer chunks than one with many — and
  concatenating the k-th chunks across replicas into one kernel call;
* per-replica convergence: a query's beliefs are snapshotted the moment
  *its* criterion passes, even while other queries keep iterating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.edge_kernel import chunk_slices
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyConfig, _element_threshold_floor
from repro.core.observation import observe
from repro.core.potentials import PerEdgePotentialStore, SharedPotentialStore
from repro.core.scheduler import make_schedule
from repro.core.state import LoopyState
from repro.core.sweepstats import RunStats, SweepStats
from repro.kernels.compiled import CompiledExecutor, make_executor
from repro.telemetry import get_tracer

__all__ = ["BatchQueryRun", "replicate_graph", "reset_union", "run_batched"]


@dataclass
class BatchQueryRun:
    """Per-query outcome of one micro-batched execution."""

    beliefs: np.ndarray
    iterations: int
    converged: bool
    delta_history: list[float] = field(default_factory=list)
    #: operation counts of the *whole batched execution* (shared across
    #: the batch — union sweeps are joint kernel calls, so per-query
    #: attribution is not defined).  Includes the schedules' queue_ops,
    #: which the batched path used to drop on the floor.
    stats: SweepStats = field(default_factory=SweepStats)


def replicate_graph(graph: BeliefGraph, k: int) -> BeliefGraph:
    """``k`` disjoint copies of ``graph`` in one block-diagonal union.

    Replica ``q`` owns nodes ``[q*n, (q+1)*n)`` and edges
    ``[q*m, (q+1)*m)``.  The shared potential matrix stays shared across
    all replicas (one ``(b, b)`` matrix for ``k*m`` edges), which is what
    keeps the union's footprint near ``k×`` beliefs rather than ``k×``
    everything.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not graph.uniform:
        raise ValueError("micro-batching requires constant-width beliefs")
    n, m = graph.n_nodes, graph.n_edges
    priors = np.tile(np.asarray(graph.priors.dense(), dtype=np.float32), (k, 1))
    offsets_n = np.repeat(np.arange(k, dtype=np.int64) * n, m)
    src = np.tile(graph.src, k) + offsets_n
    dst = np.tile(graph.dst, k) + offsets_n
    rev = np.tile(graph.reverse_edge, k)
    paired = rev >= 0
    rev[paired] += np.repeat(np.arange(k, dtype=np.int64) * m, m)[paired]
    if graph.potentials.shared:
        pots = SharedPotentialStore(graph.potentials.matrix(0), k * m)
    else:
        pots = PerEdgePotentialStore(np.tile(graph.potentials.stacked(), (k, 1, 1)))
    return BeliefGraph(
        priors, src, dst, pots, reverse_edge=rev, layout=graph.layout
    )


def reset_union(union: BeliefGraph) -> None:
    """Return a cached union to its pristine (evidence-free) state."""
    union.observed[:] = False
    union.observed_state[:] = -1
    union.reset_beliefs()


def _gather_out(graph: BeliefGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-edge ids of ``nodes`` (concatenated) plus per-node sizes, in
    the *base* graph's local id space."""
    starts = graph.out_offsets[nodes]
    sizes = graph.out_offsets[nodes + 1] - starts
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), sizes
    seg_starts = np.repeat(starts, sizes)
    local = np.zeros(len(nodes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=local[1:])
    rank = np.arange(total) - np.repeat(local, sizes)
    return graph.out_edge_ids[seg_starts + rank], sizes


def run_batched(
    graph: BeliefGraph,
    config: LoopyConfig,
    evidences: list,
    *,
    union: BeliefGraph | None = None,
) -> tuple[list[BatchQueryRun], BeliefGraph]:
    """Run ``len(evidences)`` BP queries in one batched execution.

    ``evidences[q]`` is a list of ``(node_id, state)`` clamps for query
    ``q``.  ``union`` optionally recycles a previously built replica
    graph of matching width (it is reset in place); the one used is
    returned for caching.  Results are index-aligned with ``evidences``.
    """
    k = len(evidences)
    if k == 0:
        raise ValueError("empty batch")
    n, m, b = graph.n_nodes, graph.n_edges, graph.n_states
    if union is None or union.n_nodes != k * n:
        union = replicate_graph(graph, k)
    else:
        reset_union(union)
    for q, evidence in enumerate(evidences):
        for node, state_ in evidence:
            observe(union, q * n + int(node), int(state_))

    state = LoopyState(union)
    # One executor for the whole batch, lowered against the union state.
    # A full-sync batch concatenates to the union's complete element
    # range, which is exactly the compiled executor's fused fast path.
    executor = make_executor(state)
    crit: ConvergenceCriterion = config.criterion
    node_paradigm = config.paradigm == "node"
    if node_paradigm:
        n_elements = n
        element_threshold = max(
            crit.effective_threshold(), _element_threshold_floor(b)
        )
        node_threshold = crit.effective_threshold()
    else:
        n_elements = m
        mean_in_degree = max(m / max(n, 1), 1.0)
        node_threshold = crit.effective_threshold()
        element_threshold = max(
            node_threshold / mean_in_degree, _element_threshold_floor(b)
        )

    schedules = [
        make_schedule(
            config.schedule,
            n_elements,
            element_threshold,
            batch_fraction=config.batch_fraction,
            relaxation=config.relaxation,
            seed=config.schedule_seed,
        )
        for _ in range(k)
    ]
    want_downstream = config.requeue_downstream and schedules[0].wants_downstream

    tracer = get_tracer()
    run_stats = RunStats()
    results: list[BatchQueryRun | None] = [None] * k
    histories: list[list[float]] = [[] for _ in range(k)]
    live = list(range(k))
    iteration = 0
    while live and iteration < crit.max_iterations:
        iteration += 1
        actives = {q: schedules[q].active for q in live}
        sweep_span = tracer.span("serve.union_sweep", cat="serve")
        sweep_span.__enter__()
        if node_paradigm:
            deltas_by_q, iter_stats = _node_union_sweep(
                state, executor, config, live, actives, n
            )
            globals_by_q = {q: float(deltas_by_q[q].sum()) for q in live}
            for q in live:
                downstream = priority = None
                dq = deltas_by_q[q]
                if want_downstream and len(actives[q]):
                    dirty_mask = dq >= element_threshold
                    dirty = actives[q][dirty_mask]
                    if len(dirty):
                        out_eids, sizes = _gather_out(graph, dirty)
                        downstream = graph.dst[out_eids]
                        priority = np.repeat(dq[dirty_mask], sizes)
                schedules[q].update(actives[q], dq, downstream, priority)
        else:
            deltas_by_q, node_deltas_by_q, cand_by_q, iter_stats = _edge_union_sweep(
                state, executor, config, live, actives, graph, n, m
            )
            globals_by_q = {q: float(node_deltas_by_q[q].sum()) for q in live}
            for q in live:
                downstream = priority = None
                nd = node_deltas_by_q[q]
                if want_downstream and len(cand_by_q[q]):
                    changed_mask = nd >= node_threshold
                    changed = cand_by_q[q][changed_mask]
                    if len(changed):
                        downstream, sizes = _gather_out(graph, changed)
                        priority = np.repeat(nd[changed_mask], sizes)
                schedules[q].update(actives[q], deltas_by_q[q], downstream, priority)

        # the queue bookkeeping each replica's schedule performed this
        # round — previously dropped by the batched path entirely
        for q in live:
            schedules[q].charge(iter_stats)
        run_stats.append(iter_stats)
        if sweep_span:
            sweep_span.set(iteration=iteration, live=len(live),
                           **iter_stats.as_dict())
        sweep_span.__exit__(None, None, None)

        still_live = []
        for q in live:
            histories[q].append(globals_by_q[q])
            schedule = schedules[q]
            converged = (
                schedule.exhaustive and crit.is_converged(globals_by_q[q])
            ) or schedule.drained
            if converged or iteration >= crit.max_iterations:
                results[q] = BatchQueryRun(
                    beliefs=state.beliefs[q * n : (q + 1) * n].copy(),
                    iterations=iteration,
                    converged=converged,
                    delta_history=histories[q],
                )
            else:
                still_live.append(q)
        live = still_live

    for q in range(k):  # max_iterations == 0 style edge cases
        if results[q] is None:
            results[q] = BatchQueryRun(
                beliefs=state.beliefs[q * n : (q + 1) * n].copy(),
                iterations=iteration,
                converged=False,
                delta_history=histories[q],
            )
    # The union's belief store is NOT written back: per-query posteriors
    # were snapshotted at each query's own convergence point, and a
    # recycled union is reset from its priors before reuse anyway.
    total = run_stats.total
    for run in results:
        run.stats = total
    return results, union


def _node_union_sweep(
    state: LoopyState,
    executor: CompiledExecutor,
    config: LoopyConfig,
    live: list[int],
    actives: dict[int, np.ndarray],
    n: int,
) -> tuple[dict[int, np.ndarray], SweepStats]:
    """One node-paradigm sweep over every live replica's active nodes."""
    parts = [actives[q] + q * n for q in live if len(actives[q])]
    stats = SweepStats()
    if parts:
        union_active = parts[0] if len(parts) == 1 else np.concatenate(parts)
        deltas, stats = executor.node_sweep(
            state,
            union_active,
            update_rule=config.update_rule,
            semiring=config.semiring,
            damping=config.damping,
        )
    else:
        deltas = np.empty(0, dtype=np.float32)
    out: dict[int, np.ndarray] = {}
    offset = 0
    for q in live:
        count = len(actives[q])
        out[q] = deltas[offset : offset + count]
        offset += count
    return out, stats


def _edge_union_sweep(
    state: LoopyState,
    executor: CompiledExecutor,
    config: LoopyConfig,
    live: list[int],
    actives: dict[int, np.ndarray],
    graph: BeliefGraph,
    n: int,
    m: int,
):
    """One edge-paradigm sweep preserving per-replica chunk freshness.

    Chunk ``j`` of every replica runs in one kernel call; within a
    replica the chunk boundaries are exactly the solo boundaries, so the
    intra-sweep freshness (later chunks seeing earlier chunks' belief
    updates) matches a solo run chunk for chunk.
    """
    # Snapshot the beliefs each replica's sweep can change (solo: the
    # _EdgePlan candidate set), for the global convergence reduction.
    cand_by_q: dict[int, np.ndarray] = {}
    before_by_q: dict[int, np.ndarray] = {}
    for q in live:
        candidates = state.node_slots.unique(graph.dst[actives[q]])
        cand_by_q[q] = candidates
        before_by_q[q] = state.beliefs[candidates + q * n].copy()

    slices_by_q = {q: chunk_slices(len(actives[q]), config.edge_chunks) for q in live}
    deltas_by_q = {
        q: np.empty(len(actives[q]), dtype=np.float32) for q in live
    }
    stats = SweepStats()
    max_chunks = max((len(s) for s in slices_by_q.values()), default=0)
    for j in range(max_chunks):
        pieces = []
        spans = []
        for q in live:
            slices = slices_by_q[q]
            if j >= len(slices):
                continue
            lo, hi = slices[j]
            pieces.append(actives[q][lo:hi] + q * m)
            spans.append((q, lo, hi))
        if not pieces:
            continue
        union_chunk = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        chunk_deltas, _touched, chunk_stats = executor.edge_sweep(
            state,
            union_chunk,
            update_rule=config.update_rule,
            semiring=config.semiring,
            damping=config.damping,
            chunks=1,
        )
        stats += chunk_stats
        offset = 0
        for q, lo, hi in spans:
            deltas_by_q[q][lo:hi] = chunk_deltas[offset : offset + (hi - lo)]
            offset += hi - lo

    node_deltas_by_q = {
        q: np.abs(
            state.beliefs[cand_by_q[q] + q * n] - before_by_q[q]
        ).sum(axis=1)
        for q in live
    }
    return deltas_by_q, node_deltas_by_q, cand_by_q, stats
