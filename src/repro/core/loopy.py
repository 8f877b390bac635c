"""Loopy belief propagation driver (paper Algorithm 1, §3.3, §3.5).

:class:`LoopyBP` orchestrates the iteration loop: it compiles the graph
into a :class:`~repro.core.state.LoopyState`, sweeps it with the per-node
or per-edge kernel, evaluates the convergence criterion (sum of L1 belief
changes, Algorithm 1 line 12) and drives a pluggable
:class:`~repro.core.scheduler.Schedule` that decides which elements each
sweep processes — full synchronous sweeps, the paper's §3.5 work queue,
max-residual priority, or relaxed priority sampling.

There is exactly **one** driver loop; the two processing paradigms (§3.3)
differ only in the element space the schedule ranges over (nodes vs
directed edges) and the sweep kernel, both captured by a small paradigm
plan.

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
from repro.core.scheduler import SCHEDULES, make_schedule, normalize_schedule
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

    ``batch_fraction``, ``relaxation`` and ``schedule_seed`` parameterize
    the priority schedules; the others ignore them.
    """

    paradigm: str = "node"
    update_rule: str = "sum_product"
    semiring: str = "sum"
    criterion: ConvergenceCriterion = field(default_factory=ConvergenceCriterion)
    schedule: str = "work_queue"
    requeue_downstream: bool = True
    damping: float = 0.0
    edge_chunks: int = 8
    batch_fraction: float = 0.5
    relaxation: int = 2
    schedule_seed: int = 0

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
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError("batch_fraction must lie in (0, 1]")
        if self.relaxation < 1:
            raise ValueError("relaxation must be at least 1")
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


def _downstream(
    state: LoopyState,
    nodes: np.ndarray,
    deltas: np.ndarray,
    *,
    to_nodes: bool,
    with_priority: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(downstream, priority)`` of the changed ``nodes``: the elements
    whose inputs they feed — their out-edge ids, or with ``to_nodes``
    those edges' destinations — and, ``with_priority``, the delta of the
    node each entry leaves.

    Priorities need the ragged form, one entry per out-edge, gathered
    through the CSR.  Without them a large set is marked instead, with
    one pass over every edge (:func:`~repro.core.indexset.frontier_by_mask`),
    and comes back once per element, ascending.  The two hold the same
    distinct elements, and :meth:`WorkQueue.repopulate` deduplicates
    either, so the route never changes an active set.
    """
    if with_priority or not indexset.frontier_by_mask(len(nodes), state.n):
        out = state.gather_out_edges(nodes)
        priority = None
        if with_priority:
            sizes = state.out_offsets[nodes + 1] - state.out_offsets[nodes]
            priority = np.repeat(deltas, sizes)
        return (state.dst[out] if to_nodes else out), priority
    marked = np.zeros(state.n, dtype=bool)
    marked[nodes] = True
    out = np.flatnonzero(marked[state.src])
    if not to_nodes:
        return out, None
    marked[:] = False
    marked[state.dst[out]] = True
    return np.flatnonzero(marked), None


@dataclass
class _Step:
    """One sweep's outcome, as the driver and schedule see it."""

    deltas: np.ndarray
    global_delta: float
    downstream: np.ndarray | None
    downstream_priority: np.ndarray | None
    stats: SweepStats


class _NodePlan:
    """Per-node paradigm: elements are nodes, deltas are belief deltas."""

    def __init__(self, state: LoopyState, cfg: LoopyConfig, executor_cache=None):
        self.state = state
        self.cfg = cfg
        self.n_elements = state.n
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
        self, active: np.ndarray, want_downstream: bool, want_priority: bool
    ) -> _Step:
        """Sweep ``active``; with ``want_downstream``, also return the
        nodes downstream of the ones still changing, and with
        ``want_priority`` their priorities (see :class:`Schedule`)."""
        state, cfg = self.state, self.cfg
        deltas, stats = self.executor.node_sweep(
            state,
            active,
            update_rule=cfg.update_rule,
            semiring=cfg.semiring,
            damping=cfg.damping,
        )
        downstream = downstream_priority = None
        if want_downstream and len(active):
            dirty_mask = deltas >= self.element_threshold
            dirty = active[dirty_mask]
            if len(dirty):
                downstream, downstream_priority = _downstream(
                    state, dirty, deltas[dirty_mask], to_nodes=True, with_priority=want_priority
                )
        return _Step(deltas, float(deltas.sum()), downstream, downstream_priority, stats)


class _EdgePlan:
    """Per-edge paradigm: elements are directed edges, deltas are message
    deltas; the global criterion still reduces over node beliefs."""

    def __init__(self, state: LoopyState, cfg: LoopyConfig, executor_cache=None):
        self.state = state
        self.cfg = cfg
        self.n_elements = state.m
        self.executor = cached_executor(
            executor_cache, state, paradigm="edge", chunks=cfg.edge_chunks
        )
        # An edge is converged when its message moves less than the node
        # threshold split across the destination's in-edges: the combined
        # per-node perturbation of fully-pruned edges then stays within
        # the criterion.  (Belief deltas use the plain threshold; message
        # deltas accumulate degree-fold into a belief.)
        mean_in_degree = max(state.m / max(state.n, 1), 1.0)
        self.node_threshold = cfg.criterion.effective_threshold()
        self.element_threshold = max(
            self.node_threshold / mean_in_degree, _element_threshold_floor(state.b)
        )

    def sweep(
        self, active: np.ndarray, want_downstream: bool, want_priority: bool
    ) -> _Step:
        """As :meth:`_NodePlan.sweep`, over directed edges."""
        state, cfg = self.state, self.cfg
        # Snapshot the beliefs this sweep can change, for the global
        # convergence reduction (Alg. 1 line 12).
        candidates = state.node_slots.unique(state.dst[active])
        before = state.beliefs[candidates].copy()
        edge_deltas, _touched, stats = self.executor.edge_sweep(
            state,
            active,
            update_rule=cfg.update_rule,
            semiring=cfg.semiring,
            damping=cfg.damping,
            chunks=cfg.edge_chunks,
        )
        node_deltas = np.abs(state.beliefs[candidates] - before).sum(axis=1)
        downstream = downstream_priority = None
        if want_downstream and len(candidates):
            changed_mask = node_deltas >= self.node_threshold
            changed = candidates[changed_mask]
            if len(changed):
                downstream, downstream_priority = _downstream(
                    state, changed, node_deltas[changed_mask],
                    to_nodes=False, with_priority=want_priority,
                )
        return _Step(
            edge_deltas,
            float(node_deltas.sum()),
            downstream,
            downstream_priority,
            stats,
        )


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
        result = self._run(state, active_seed=active_seed, executor_cache=executor_cache)
        state.export_beliefs()
        return result

    # ------------------------------------------------------------------
    def _run(
        self,
        state: LoopyState,
        *,
        active_seed: np.ndarray | None = None,
        executor_cache: dict | None = None,
    ) -> LoopyResult:
        """The single driver loop, parameterized by (paradigm, schedule)."""
        cfg = self.config
        crit = cfg.criterion
        plan = (
            _NodePlan(state, cfg, executor_cache)
            if cfg.paradigm == "node"
            else _EdgePlan(state, cfg, executor_cache)
        )
        schedule = make_schedule(
            cfg.schedule,
            plan.n_elements,
            plan.element_threshold,
            batch_fraction=cfg.batch_fraction,
            relaxation=cfg.relaxation,
            seed=cfg.schedule_seed,
        )
        if active_seed is not None:
            schedule.restrict(np.asarray(active_seed, dtype=np.int64))
        want_downstream = cfg.requeue_downstream and schedule.wants_downstream
        want_priority = schedule.wants_priority

        tracer = get_tracer()
        run_stats = RunStats()
        history: list[float] = []
        converged = False
        iteration = 0
        with tracer.span("bp.run", cat="bp") as run_span:
            while iteration < crit.max_iterations:
                iteration += 1
                active = schedule.active
                with tracer.span("bp.sweep", cat="bp") as sweep_span:
                    step = plan.sweep(active, want_downstream, want_priority)
                    history.append(step.global_delta)
                    with tracer.span("schedule.update", cat="schedule") as sched_span:
                        schedule.update(
                            active, step.deltas, step.downstream,
                            step.downstream_priority,
                        )
                        schedule.charge(step.stats)
                        if sched_span:
                            sched_span.set(
                                schedule=cfg.schedule,
                                queue_ops=step.stats.queue_ops,
                                atomic_ops=step.stats.atomic_ops,
                            )
                    run_stats.append(step.stats)
                    if sweep_span:
                        sweep_span.set(
                            iteration=iteration,
                            active=int(len(active)),
                            global_delta=step.global_delta,
                            **step.stats.as_dict(),
                        )
                # A drained schedule means every element individually passed
                # its per-element convergence check (§3.5); exhaustive
                # schedules may also stop on the global sum criterion (their
                # sweep covers every unconverged element, so the partial sum
                # *is* the global delta).
                if (
                    schedule.exhaustive and crit.is_converged(step.global_delta)
                ) or schedule.drained:
                    converged = True
                    break
            if run_span:
                run_span.set(
                    paradigm=cfg.paradigm,
                    schedule=cfg.schedule,
                    kernel_build_s=plan.executor.build_seconds,
                    n_elements=plan.n_elements,
                    iterations=iteration,
                    converged=converged,
                )

        return LoopyResult(
            beliefs=state.beliefs.copy(),
            iterations=iteration,
            converged=converged,
            delta_history=history,
            run_stats=run_stats,
            config=cfg,
        )
