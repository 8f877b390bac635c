"""Loopy belief propagation driver (paper Algorithm 1, §3.3, §3.5).

:class:`LoopyBP` orchestrates the iteration loop: it compiles the graph
into a :class:`~repro.core.state.LoopyState`, sweeps it with the per-node
or per-edge kernel, evaluates the convergence criterion (sum of L1 belief
changes, Algorithm 1 line 12) and drives a pluggable
:class:`~repro.core.scheduler.Schedule` that decides which elements each
sweep processes — full synchronous sweeps, the paper's §3.5 work queue,
max-residual priority, or a relaxed priority queue.

There is exactly **one** driver loop; the two processing paradigms (§3.3)
differ only in the element space the schedule ranges over (nodes vs
directed edges) and the sweep kernel, both captured by a small paradigm
plan.  The loop drives ``K`` independent runs over one state whose
nodes and edges form ``K`` equal disjoint blocks
(:meth:`LoopyBP.run_replicas`): each replica keeps its own schedule,
history and stopping point, and every sweep covers all live replicas in
one kernel call.  A solo run is ``K = 1``; serve's micro-batch
(:mod:`repro.serve.batch`) is ``K`` queries.

Two update rules are available:

``"sum_product"`` (default)
    Standard loopy BP messages with cavity exclusion — exact on trees,
    the semantics the paper's references (Pearl; Gonzalez et al.) define.

``"broadcast"``
    The literal Algorithm 1 of the paper: every node broadcasts its full
    current belief along each out-edge without excluding the recipient's
    own contribution.  Cheaper per edge, approximate on trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import indexset
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.scheduler import make_schedule, normalize_schedule
from repro.core.state import LoopyState
from repro.core.sweepstats import RunStats, SweepStats
from repro.kernels.compiled import cached_executor
from repro.telemetry import get_tracer

__all__ = ["LoopyConfig", "LoopyResult", "LoopyBP"]


@dataclass(frozen=True)
class LoopyConfig:
    """Knobs of a loopy-BP run.

    ``paradigm`` selects per-node or per-edge processing (§3.3);
    ``schedule`` selects the update-scheduling policy (one of
    :data:`~repro.core.scheduler.SCHEDULES` — ``"sync"``,
    ``"work_queue"`` (the §3.5 optimization, default), ``"residual"`` or
    ``"relaxed"``); ``edge_chunks`` is the most chunks one edge-paradigm
    sweep is split into — how much freshness it sees within one
    iteration (each chunk holds at least
    :data:`~repro.core.edge_kernel.MIN_CHUNK_EDGES` edges, so a small
    sweep runs fewer); ``damping`` mixes in the previous
    message (an extension, 0 disables); ``semiring`` switches to
    max-product for MAP queries (extension).

    Every sweep, full or partial, runs as one fused gather–scatter
    program over the active set's edges (:mod:`repro.kernels`,
    DESIGN.md §13).

    ``"residual"`` and ``"relaxed"`` sweep the work queue's frontier
    each round and differ from it only in their modeled queue cost and
    in never stopping on the global criterion alone
    (:mod:`repro.core.scheduler`).
    """

    paradigm: str = "node"
    update_rule: str = "sum_product"
    semiring: str = "sum"
    criterion: ConvergenceCriterion = field(default_factory=ConvergenceCriterion)
    schedule: str = "work_queue"
    damping: float = 0.0
    edge_chunks: int = 8

    def __post_init__(self) -> None:
        if self.paradigm not in ("node", "edge"):
            raise ValueError(f"paradigm must be 'node' or 'edge', got {self.paradigm!r}")
        if self.update_rule not in ("sum_product", "broadcast"):
            raise ValueError(f"unknown update_rule {self.update_rule!r}")
        if self.semiring not in ("sum", "max"):
            raise ValueError(f"unknown semiring {self.semiring!r}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.edge_chunks < 1:
            raise ValueError("edge_chunks must be at least 1")
        object.__setattr__(self, "schedule", normalize_schedule(self.schedule))


@dataclass
class LoopyResult:
    """Outcome of a loopy-BP run (any paradigm, any schedule)."""

    beliefs: np.ndarray
    iterations: int
    converged: bool
    delta_history: list[float]
    run_stats: RunStats
    config: LoopyConfig

    @property
    def final_delta(self) -> float:
        """The last iteration's global L1 belief change."""
        return self.delta_history[-1] if self.delta_history else 0.0

    @property
    def updates(self) -> int:
        """Total element updates across the run: message recomputations
        for the edge paradigm, node recomputations for the node paradigm
        — the hardware-independent measure of scheduling quality."""
        total = self.run_stats.total
        if self.config.paradigm == "edge":
            return total.edges_processed
        return total.nodes_processed

    def belief(self, node: int) -> np.ndarray:
        """Posterior belief vector of one node."""
        return self.beliefs[node]

    def map_states(self) -> np.ndarray:
        """Most probable state per node under the final beliefs."""
        return self.beliefs.argmax(axis=1)


def _element_threshold_floor(n_states: int) -> float:
    """Smallest per-element delta distinguishable from float32 noise.

    Messages and beliefs are float32; a one-ulp limit cycle produces a
    persistent L1 delta of up to ~``n_states`` ulps, so draining against
    a threshold below that never terminates.  The *global* criterion is
    not floored — only the schedules' per-element convergence check.
    """
    return float(np.finfo(np.float32).eps) * max(n_states, 2)


def _downstream(state: LoopyState, nodes: np.ndarray, *, to_nodes: bool) -> np.ndarray:
    """The elements the changed ``nodes`` feed: their out-edge ids, or
    with ``to_nodes`` those edges' destinations.

    A small set's out-edges are gathered through the CSR, in node order,
    with repeats; a large one's are marked instead, with one pass over
    every edge (:func:`~repro.core.indexset.frontier_by_mask`), and come
    once each, ascending.  :meth:`WorkQueue.repopulate` deduplicates
    either route, so the route never changes an active set.
    """
    if not indexset.frontier_by_mask(len(nodes), state.n):
        out = state.gather_out_edges(nodes)
        return state.dst[out] if to_nodes else out
    marked = np.zeros(state.n, dtype=bool)
    marked[nodes] = True
    out = np.flatnonzero(marked[state.src])
    if not to_nodes:
        return out
    marked[:] = False
    marked[state.dst[out]] = True
    return np.flatnonzero(marked)


def _union(live: list[int], parts: list[np.ndarray], size: int) -> np.ndarray:
    """The live replicas' element sets in union ids: replica ``q``'s
    local ids shifted by ``q · size``, concatenated in replica order.  A
    lone live replica 0 is passed through uncopied."""
    if len(live) == 1:
        q = live[0]
        return parts[0] + q * size if q else parts[0]
    return np.concatenate([part + q * size for q, part in zip(live, parts)])


def _by_block(ids: np.ndarray | None, live: list[int], size: int) -> list:
    """Split union ``ids`` into each live replica's local ids (``None``
    for each when ``ids`` is).

    ``ids`` must list replica blocks in order: ascending (a mask route,
    a sorted set) or gathered from replica-ordered nodes (the CSR
    route).  That is all ``searchsorted`` needs, because whether an
    entry lies below ``q · size`` is then true for a prefix of ``ids``
    and false after it.
    """
    if ids is None:
        return [None] * len(live)
    if len(live) == 1:
        q = live[0]
        return [ids - q * size if q else ids]
    cuts = np.searchsorted(ids, np.asarray(live[1:], dtype=np.int64) * size).tolist()
    bounds = [0, *cuts, len(ids)]
    return [ids[lo:hi] - q * size for q, lo, hi in zip(live, bounds, bounds[1:])]


def _by_length(values: np.ndarray, parts: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive runs of ``values``, as long as each of ``parts``."""
    if len(parts) == 1:
        return [values]
    return np.split(values, np.cumsum([len(part) for part in parts[:-1]]))


# A plan's sweep returns one step per live replica, as it and its
# schedule see it (in replica-local element ids): a tuple ``(deltas,
# global_delta, downstream)``.  A solo run (``replicas == 1``) is its own
# union, so its plan skips the three helpers above: their one-replica
# routes hand back the same arrays.


class _NodePlan:
    """Per-node paradigm: elements are nodes, deltas are belief deltas."""

    def __init__(
        self, state: LoopyState, cfg: LoopyConfig, executor_cache=None, replicas: int = 1
    ):
        self.state = state
        self.cfg = cfg
        self.solo = replicas == 1
        self.n_elements = state.n // replicas
        self.executor = cached_executor(executor_cache, state, paradigm="node")
        # Per-element convergence threshold (§3.5): an element whose own
        # delta is below the global threshold drops out of the schedule.
        # This is the paper's semantics — "most nodes converge quickly
        # after a few iterations" — and the source of the Fig. 9 wins;
        # downstream re-enqueueing keeps the fixed point sound.
        self.element_threshold = max(
            cfg.criterion.effective_threshold(), _element_threshold_floor(state.b)
        )

    def sweep(
        self, live: list[int], actives: list[np.ndarray], want_downstream: bool
    ) -> tuple[list[tuple], SweepStats]:
        """Sweep each live replica's ``actives`` in one kernel call; with
        ``want_downstream``, also find the nodes downstream of the ones
        still changing.  One step per live replica."""
        state, cfg, n = self.state, self.cfg, self.n_elements
        active = actives[0] if self.solo else _union(live, actives, n)
        deltas, stats = self.executor.node_sweep(
            state,
            active,
            update_rule=cfg.update_rule,
            semiring=cfg.semiring,
            damping=cfg.damping,
        )
        downstream = None
        if want_downstream and len(active):
            dirty = active[deltas >= self.element_threshold]
            if len(dirty):
                downstream = _downstream(state, dirty, to_nodes=True)
        if self.solo:
            return [(deltas, float(deltas.sum()), downstream)], stats
        steps = [
            (part, float(part.sum()), down)
            for part, down in zip(
                _by_length(deltas, actives), _by_block(downstream, live, n)
            )
        ]
        return steps, stats


class _EdgePlan:
    """Per-edge paradigm: elements are directed edges, deltas are message
    deltas; the global criterion still reduces over node beliefs."""

    def __init__(
        self, state: LoopyState, cfg: LoopyConfig, executor_cache=None, replicas: int = 1
    ):
        self.state = state
        self.cfg = cfg
        self.solo = replicas == 1
        self.n_nodes = state.n // replicas
        self.n_elements = state.m // replicas
        self.executor = cached_executor(
            executor_cache, state, paradigm="edge", chunks=cfg.edge_chunks
        )
        # An edge is converged when its message moves less than the node
        # threshold split across the destination's in-edges: the combined
        # per-node perturbation of fully-pruned edges then stays within
        # the criterion.  (Belief deltas use the plain threshold; message
        # deltas accumulate degree-fold into a belief.)
        mean_in_degree = max(self.n_elements / max(self.n_nodes, 1), 1.0)
        self.node_threshold = cfg.criterion.effective_threshold()
        self.element_threshold = max(
            self.node_threshold / mean_in_degree, _element_threshold_floor(state.b)
        )
        # A node change re-enqueues its out-edges only when it is both
        # above the criterion and distinguishable from float32 noise: an
        # unfloored filter lets a sub-floor limit cycle requeue forever.
        self.changed_threshold = max(self.node_threshold, self.element_threshold)

    def sweep(
        self, live: list[int], actives: list[np.ndarray], want_downstream: bool
    ) -> tuple[list[tuple], SweepStats]:
        """As :meth:`_NodePlan.sweep`, over directed edges.  Each replica
        keeps its solo chunk bounds (``segments``), so the freshness
        later chunks see within the sweep is its solo run's."""
        state, cfg = self.state, self.cfg
        active = actives[0] if self.solo else _union(live, actives, self.n_elements)
        # Snapshot the beliefs this sweep can change, for the global
        # convergence reduction (Alg. 1 line 12).  They come sorted, so
        # grouped by replica; the sweep reuses them as its destination
        # set.  (A fancy index already copies.)
        candidates = state.node_slots.unique(state.dst[active])
        before = state.beliefs[candidates]
        edge_deltas, _, stats = self.executor.edge_sweep(
            state,
            active,
            update_rule=cfg.update_rule,
            semiring=cfg.semiring,
            damping=cfg.damping,
            chunks=cfg.edge_chunks,
            segments=[len(a) for a in actives],
            dests=candidates,
        )
        node_deltas = np.abs(state.beliefs[candidates] - before).sum(axis=1)
        downstream = None
        if want_downstream and len(candidates):
            changed = candidates[node_deltas >= self.changed_threshold]
            if len(changed):
                downstream = _downstream(state, changed, to_nodes=False)
        if self.solo:
            return [(edge_deltas, float(node_deltas.sum()), downstream)], stats
        changes = _by_length(node_deltas, _by_block(candidates, live, self.n_nodes))
        steps = [
            (part, float(change.sum()), down)
            for part, change, down in zip(
                _by_length(edge_deltas, actives),
                changes,
                _by_block(downstream, live, self.n_elements),
            )
        ]
        return steps, stats


class LoopyBP:
    """Loopy belief propagation runner.

    >>> LoopyBP(paradigm="edge", schedule="residual").run(graph)  # doctest: +SKIP
    """

    def __init__(self, config: LoopyConfig | None = None, **overrides):
        base = config or LoopyConfig()
        self.config = replace(base, **overrides) if overrides else base

    # ------------------------------------------------------------------
    def run(
        self,
        graph: BeliefGraph,
        state: LoopyState | None = None,
        *,
        active_seed: np.ndarray | None = None,
        executor_cache: dict | None = None,
    ) -> LoopyResult:
        """Run BP to convergence (or the iteration cap) on ``graph``.

        The graph's belief store is updated in place with the final
        posteriors; the result additionally carries a dense copy.
        ``active_seed`` warm-starts the schedule on just those elements
        (see :meth:`Schedule.restrict`); ``executor_cache`` memoizes
        executor lowerings across runs over the same state buffers —
        both are the incremental re-convergence hooks (DESIGN.md §15).
        """
        state = state or LoopyState(graph)
        [result] = self.run_replicas(
            state, 1, active_seed=active_seed, executor_cache=executor_cache
        )
        state.export_beliefs()
        return result

    # ------------------------------------------------------------------
    def run_replicas(
        self,
        state: LoopyState,
        replicas: int,
        *,
        active_seed: np.ndarray | None = None,
        executor_cache: dict | None = None,
    ) -> list[LoopyResult]:
        """The single driver loop: ``replicas`` independent runs over one
        state whose nodes and edges form that many equal disjoint blocks
        (replica ``q`` owns nodes ``[q·n, (q+1)·n)`` and edges
        ``[q·m, (q+1)·m)``).

        Each replica keeps the schedule, history and stopping test a solo
        run on its block would; every sweep covers all live replicas in
        one kernel call.  A replica's beliefs are snapshotted when *its*
        run stops.  Results are per replica; their ``run_stats`` is the
        one shared record of every sweep.  The state's beliefs are not
        exported.
        """
        cfg = self.config
        crit = cfg.criterion
        plan = (_NodePlan if cfg.paradigm == "node" else _EdgePlan)(
            state, cfg, executor_cache, replicas
        )
        schedules = [
            make_schedule(cfg.schedule, plan.n_elements, plan.element_threshold)
            for _ in range(replicas)
        ]
        if active_seed is not None:
            seed = np.asarray(active_seed, dtype=np.int64)
            for schedule in schedules:
                schedule.restrict(seed)
        want_downstream = schedules[0].wants_downstream
        n = state.n // replicas

        tracer = get_tracer()
        run_stats = RunStats()
        histories: list[list[float]] = [[] for _ in range(replicas)]
        results: list[LoopyResult | None] = [None] * replicas
        live = list(range(replicas))
        iteration = 0
        with tracer.span("bp.run", cat="bp") as run_span:
            while live and iteration < crit.max_iterations:
                iteration += 1
                actives = [schedules[q].active for q in live]
                with tracer.span("bp.sweep", cat="bp") as sweep_span:
                    steps, stats = plan.sweep(live, actives, want_downstream)
                    with tracer.span("schedule.update", cat="schedule") as sched_span:
                        for q, active, (deltas, _, downstream) in zip(
                            live, actives, steps
                        ):
                            schedules[q].update(active, deltas, downstream)
                            schedules[q].charge(stats)
                        if sched_span:
                            sched_span.set(
                                schedule=cfg.schedule,
                                queue_ops=stats.queue_ops,
                                atomic_ops=stats.atomic_ops,
                            )
                    run_stats.append(stats)
                    if sweep_span:
                        sweep_span.set(
                            iteration=iteration,
                            replicas=replicas,
                            live=len(live),
                            active=sum(len(a) for a in actives),
                            global_delta=sum(step[1] for step in steps),
                            **stats.as_dict(),
                        )
                still_live = []
                for q, (_, global_delta, _) in zip(live, steps):
                    histories[q].append(global_delta)
                    schedule = schedules[q]
                    # A drained schedule means every element individually
                    # passed its per-element convergence check (§3.5);
                    # exhaustive schedules may also stop on the global sum
                    # criterion (their sweep covers every unconverged
                    # element, so the partial sum *is* the global delta).
                    converged = (
                        schedule.exhaustive and crit.is_converged(global_delta)
                    ) or schedule.drained
                    if converged or iteration == crit.max_iterations:
                        results[q] = LoopyResult(
                            beliefs=state.beliefs[q * n : (q + 1) * n].copy(),
                            iterations=iteration,
                            converged=converged,
                            delta_history=histories[q],
                            run_stats=run_stats,
                            config=cfg,
                        )
                    else:
                        still_live.append(q)
                live = still_live
            if run_span:
                run_span.set(
                    paradigm=cfg.paradigm,
                    schedule=cfg.schedule,
                    kernel_build_s=plan.executor.build_seconds,
                    n_elements=plan.n_elements * replicas,
                    replicas=replicas,
                    iterations=iteration,
                    converged=all(r.converged for r in results),
                )
        return results
