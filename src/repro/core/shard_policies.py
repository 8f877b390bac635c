"""Shard execution policies: how the sharded driver advances shards.

PR 3's :class:`~repro.core.sharded.ShardedLoopyBP` hard-coded one
execution model — lockstep rounds with a full boundary exchange and a
barrier between them.  This module abstracts that choice behind a
:class:`ShardPolicy` so the driver stays policy-agnostic:

``"sync"``
    Today's bulk-synchronous behaviour, bit-exact preserved: every shard
    sweeps every round, then a global exchange + barrier.

``"async"``
    Stale-synchronous-parallel execution in the Gonzalez et al. /
    Aksenov et al. line (PAPERS.md): each shard keeps its own clock and
    a *versioned halo buffer* — it consumes boundary snapshots up to
    ``staleness`` rounds older than itself (``staleness=0`` degenerates
    to lockstep and stays bit-exact with ``sync``).  Shards are chosen
    by schedule :meth:`~repro.core.scheduler.Schedule.pressure`
    (Splash-style: hot shards sweep more often), and when
    ``staleness > 0`` each shard's active set is over-partitioned into
    contiguous regions that idle workers *steal* from stragglers —
    stolen regions sweep on private state clones and merge back over
    provably disjoint row sets.

The policy operates on a :class:`ShardRun` — the bundle of per-shard
states, paradigm plans and schedules the driver builds — and returns a
:class:`PolicyOutcome` the driver turns into a
:class:`~repro.core.sharded.ShardedResult`.

Determinism: every choice (shard selection, region splitting, LPT
assignment, merge order, feedback order) is a pure function of run
state with explicit tie-breaks, so repeated runs with the same seed are
identical — the property ``tests/test_sharded_async.py`` locks in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.indexset import SlotMap
from repro.core.sweepstats import RunStats, SweepStats
from repro.telemetry import get_tracer

__all__ = [
    "SHARD_POLICIES",
    "AsyncShardPolicy",
    "PolicyOutcome",
    "ShardPolicy",
    "ShardRun",
    "SyncShardPolicy",
    "TickRecord",
    "make_shard_policy",
    "normalize_shard_policy",
]

#: canonical policy names, sync first (the default)
SHARD_POLICIES = ("sync", "async")

_ALIASES = {
    "lockstep": "sync",
    "bsp": "sync",
    "ssp": "async",
    "stale": "async",
}


def normalize_shard_policy(name: str) -> str:
    """Canonical shard-policy name, accepting common aliases."""
    canonical = _ALIASES.get(name, name)
    if canonical not in SHARD_POLICIES:
        raise ValueError(
            f"unknown shard policy {name!r}; known: {list(SHARD_POLICIES)}"
        )
    return canonical


def make_shard_policy(
    name: str,
    *,
    staleness: int = 0,
    steal_factor: int = 8,
) -> "ShardPolicy":
    """Instantiate a policy by canonical (or aliased) name.

    ``staleness`` is the SSP bound ``k`` (async only; the sync policy
    rejects any non-zero value rather than silently ignoring it);
    ``steal_factor`` is the over-partitioning factor for work stealing.
    """
    canonical = normalize_shard_policy(name)
    if canonical == "sync":
        if staleness:
            raise ValueError(
                "the sync policy is staleness-free; use policy='async' "
                f"for staleness={staleness}"
            )
        return SyncShardPolicy()
    return AsyncShardPolicy(staleness=staleness, steal_factor=steal_factor)


# ----------------------------------------------------------------------
@dataclass(eq=False)
class ShardRun:
    """Everything a policy needs to drive one sharded run.

    Built by :class:`~repro.core.sharded.ShardedLoopyBP` — per-shard
    states, paradigm plans and schedules plus the pool and instrument.
    Kept duck-typed (``Any``) to avoid an import cycle with the driver.
    """

    sharded: Any
    states: list
    plans: list
    schedules: list
    want_downstream: list
    exhaustive: bool
    cfg: Any
    pool: Any = None
    instrument: Any = None
    #: parallel lanes available for sweeps (1 when running serially)
    workers: int = 1

    @property
    def n_shards(self) -> int:
        return len(self.states)

    def map(self, fn, items: list) -> list:
        """Run ``fn`` over ``items`` on the pool (or serially)."""
        if self.pool is not None and len(items) > 1:
            return list(self.pool.map(fn, items))
        return [fn(it) for it in items]

    def phase(self, label: str) -> None:
        """Global epoch boundary (all shards) for the race instrument."""
        if self.instrument is not None:
            self.instrument.on_phase(label)

    def shard_phase(self, shard: int, label: str) -> None:
        """Per-shard epoch boundary.  Async ticks advance shard clocks
        independently, so a *global* epoch bump would serialize epochs
        that legitimately overlap; instruments exposing
        ``on_shard_phase`` (the PR-4 race detector) get the precise
        per-domain bump, others fall back to a global one."""
        ins = self.instrument
        if ins is None:
            return
        hook = getattr(ins, "on_shard_phase", None)
        if hook is not None:
            hook(shard, label)
        else:
            ins.on_phase(f"shard{shard}:{label}")


@dataclass
class TickRecord:
    """One async tick, as the cost models replay it."""

    #: shard indices swept this tick (ascending)
    swept: tuple
    #: aggregated kernel stats per busy worker lane
    worker_stats: list
    #: boundary payload published this tick
    exchange_bytes: int = 0
    #: work items executed on state clones (stolen regions)
    stolen: int = 0
    #: oldest halo snapshot consumed this tick, in rounds
    max_staleness: int = 0


@dataclass
class PolicyOutcome:
    """What a policy hands back to the driver."""

    iterations: int
    converged: bool
    history: list
    run_stats: RunStats
    per_shard_stats: list
    exchange_bytes: int
    #: async only: per-tick replay records (empty for sync)
    ticks: list = field(default_factory=list)
    #: max halo-snapshot age each shard consumed, in rounds
    shard_staleness: list = field(default_factory=list)
    #: total stolen work items across the run
    stolen_items: int = 0


class ShardPolicy:
    """Abstract shard execution policy."""

    name: str = "abstract"

    def execute(self, run: ShardRun) -> PolicyOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


# ----------------------------------------------------------------------
def exchange_routes(sharded, states, plans, schedules, cfg) -> int:
    """Ship halo beliefs + ghost messages along every route, then
    reactivate the owned elements each change feeds.

    The sync policy's whole-graph exchange (one call per round); the
    async policy reuses the same reactivation math per applied snapshot
    so ``staleness=0`` reproduces this bit-for-bit.
    """
    row_bytes = 4 * sharded.n_states
    moved = 0
    pending_nodes: list[list[np.ndarray]] = [[] for _ in states]
    pending_node_delta: list[list[np.ndarray]] = [[] for _ in states]
    pending_edges: list[list[np.ndarray]] = [[] for _ in states]
    pending_edge_delta: list[list[np.ndarray]] = [[] for _ in states]

    for route in sharded.routes:
        producer = states[route.src]
        _apply_route_rows(
            states[route.dst],
            plans[route.dst].element_threshold,
            route,
            producer.beliefs[route.src_nodes] if len(route.src_nodes) else None,
            producer.messages[route.src_edges] if len(route.src_edges) else None,
            pending_nodes[route.dst],
            pending_node_delta[route.dst],
            pending_edges[route.dst],
            pending_edge_delta[route.dst],
        )
        moved += route.rows * row_bytes

    for i in range(len(states)):
        _reactivate_consumer(
            states[i],
            schedules[i],
            cfg,
            pending_nodes[i],
            pending_node_delta[i],
            pending_edges[i],
            pending_edge_delta[i],
        )
    return moved


def _apply_route_rows(
    consumer,
    thresh,
    route,
    node_rows,
    edge_rows,
    pending_nodes,
    pending_node_delta,
    pending_edges,
    pending_edge_delta,
) -> None:
    """Write one route's fresh halo/ghost rows into the consumer state,
    collecting the rows whose change clears the reactivation threshold."""
    if node_rows is not None:
        delta = np.abs(node_rows - consumer.beliefs[route.dst_nodes]).sum(axis=1)
        consumer.beliefs[route.dst_nodes] = node_rows
        changed = delta >= thresh
        if changed.any():
            pending_nodes.append(route.dst_nodes[changed])
            pending_node_delta.append(delta[changed])
    if edge_rows is not None:
        delta = np.abs(edge_rows - consumer.messages[route.dst_edges]).sum(axis=1)
        consumer.messages[route.dst_edges] = edge_rows
        changed = delta >= thresh
        if changed.any():
            pending_edges.append(route.dst_edges[changed])
            pending_edge_delta.append(delta[changed])


def _reactivate_consumer(
    st,
    schedule,
    cfg,
    pending_nodes,
    pending_node_delta,
    pending_edges,
    pending_edge_delta,
) -> None:
    """Turn collected halo/ghost changes into schedule reactivations."""
    edge_ids: list[np.ndarray] = []
    priorities: list[np.ndarray] = []
    if pending_nodes:
        halo = np.concatenate(pending_nodes)
        deltas = np.concatenate(pending_node_delta)
        sizes = st.out_offsets[halo + 1] - st.out_offsets[halo]
        # out-edges of a halo node all terminate at owned nodes
        edge_ids.append(st.gather_out_edges(halo))
        priorities.append(np.repeat(deltas, sizes))
    if pending_edges:
        ghost = np.concatenate(pending_edges)
        # a ghost edge's reverse is the boundary edge we own
        edge_ids.append(st.rev[ghost])
        priorities.append(np.concatenate(pending_edge_delta))
    if not edge_ids:
        return
    edges = np.concatenate(edge_ids)
    prio = np.concatenate(priorities)
    if cfg.paradigm == "node":
        elements = st.dst[edges]
    else:
        elements = edges
    schedule.reactivate(elements, prio)


# ----------------------------------------------------------------------
class SyncShardPolicy(ShardPolicy):
    """Lockstep rounds: all shards sweep, exchange, barrier — PR 3's
    behaviour, preserved bit-exactly (the parity suite's baseline)."""

    name = "sync"

    def execute(self, run: ShardRun) -> PolicyOutcome:
        cfg = run.cfg
        crit = cfg.criterion
        k = run.n_shards
        plans, schedules = run.plans, run.schedules
        tracer = get_tracer()

        run_stats = RunStats()
        per_shard_stats: list[list[SweepStats]] = []
        history: list[float] = []
        exchange_bytes = 0
        converged = False
        iteration = 0

        def sweep_one(i: int, active: np.ndarray):
            # the span lands on the worker thread's lane, so parallel
            # shard sweeps render side by side in the trace
            with tracer.span("shard.sweep", cat="shard") as span:
                step = plans[i].sweep(active, run.want_downstream[i],
                                       schedules[i].wants_priority)
                if span:
                    span.set(shard=i, active=int(len(active)),
                             **step.stats.as_dict())
            return step

        while iteration < crit.max_iterations:
            iteration += 1
            actives = [s.active for s in schedules]
            if run.pool is not None and k > 1:
                steps = list(run.pool.map(sweep_one, range(k), actives))
            else:
                steps = [sweep_one(i, actives[i]) for i in range(k)]
            # pool.map's join is a barrier: sweeps happen-before this
            run.phase("exchange")
            tracer.instant("shard.barrier", cat="shard",
                           args={"iteration": iteration} if tracer.enabled
                           else None)

            global_delta = 0.0
            round_stats = SweepStats()
            shard_stats: list[SweepStats] = []
            for i, step in enumerate(steps):
                ds, dsp = step.downstream, step.downstream_priority
                if ds is not None:
                    # downstream sets can point at halo nodes / ghost edges
                    # (local ids past the owned block) — those belong to
                    # other shards' schedules and arrive via the exchange
                    keep = ds < schedules[i].n_elements
                    ds = ds[keep]
                    dsp = dsp[keep] if dsp is not None else None
                schedules[i].update(actives[i], step.deltas, ds, dsp)
                schedules[i].charge(step.stats)
                global_delta += step.global_delta
                round_stats += step.stats
                shard_stats.append(step.stats)
            run_stats.append(round_stats)
            per_shard_stats.append(shard_stats)
            history.append(global_delta)

            with tracer.span("shard.exchange", cat="shard") as ex_span:
                moved = exchange_routes(run.sharded, run.states, plans,
                                        schedules, cfg)
                if ex_span:
                    ex_span.set(iteration=iteration, bytes=moved,
                                routes=len(run.sharded.routes))
            exchange_bytes += moved
            # next round's submissions happen-after the exchange
            run.phase("sweep")

            if (run.exhaustive and crit.is_converged(global_delta)) or all(
                s.drained for s in schedules
            ):
                converged = True
                break

        return PolicyOutcome(
            iterations=iteration,
            converged=converged,
            history=history,
            run_stats=run_stats,
            per_shard_stats=per_shard_stats,
            exchange_bytes=exchange_bytes,
            shard_staleness=[0] * k,
        )


# ----------------------------------------------------------------------
class AsyncShardPolicy(ShardPolicy):
    """Bounded-staleness shard execution with priority selection and
    region work stealing.

    Each shard ``i`` keeps a clock (completed local rounds).  Per tick:

    1. apply every pending halo snapshot (latest-only per route) and
       reactivate the owned elements it feeds — identical math to the
       sync exchange;
    2. a shard is *runnable* while ``clock[i] − min(clock) ≤ staleness``
       and its clock is below the iteration cap — the SSP gate;
    3. runnable shards are ranked by schedule pressure (residual mass /
       queue depth), so hot shards sweep more often;
    4. at ``staleness > 0`` each chosen shard's active set is split at
       region boundaries (``steal_factor`` contiguous local-id regions)
       and LPT-assigned to worker lanes, so idle workers steal regions
       from stragglers; stolen items sweep private state clones and
       merge back over disjoint rows.  At ``staleness = 0`` no split
       happens and the tick is bit-exact with one sync round.
    5. feedback and snapshot publication run in ascending shard order
       (the float-summation order the sync policy uses).

    Drained shards stay runnable (their sweeps are empty and free) so
    clocks never diverge — required for the ``staleness=0`` parity.
    """

    name = "async"

    def __init__(self, *, staleness: int = 1, steal_factor: int = 8):
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        if steal_factor < 1:
            raise ValueError("steal_factor must be at least 1")
        self.staleness = int(staleness)
        self.steal_factor = int(steal_factor)

    def __repr__(self) -> str:
        return (
            f"<AsyncShardPolicy staleness={self.staleness} "
            f"steal_factor={self.steal_factor}>"
        )

    # -- region maps ---------------------------------------------------
    def _element_regions(self, run: ShardRun, i: int) -> np.ndarray:
        """Region id per schedulable element of shard ``i``.

        Regions are ``steal_factor`` contiguous bands of local node ids;
        edge elements inherit the region of their destination node, so
        any two regions have disjoint write sets (messages, log-sums and
        beliefs all key on the destination)."""
        sh = run.sharded.shards[i]
        st = run.states[i]
        n = max(sh.n_owned, 1)
        if run.cfg.paradigm == "node":
            ids = np.arange(sh.n_owned, dtype=np.int64)
        else:
            ids = np.asarray(st.dst[: sh.n_owned_edges], dtype=np.int64)
        return np.minimum(ids * self.steal_factor // n, self.steal_factor - 1)

    # -- work items ----------------------------------------------------
    def _make_items(self, run, chosen, actives, regions):
        """Split chosen shards' active sets into work items.

        Returns ``(shard, positions, elements)`` triples: ``positions``
        indexes ``elements`` back into the shard's active array (``None``
        for an unsplit, in-place item).  Splits only happen at region
        boundaries and only when stealing is on."""
        items = []
        total = sum(len(actives[i]) for i in chosen)
        # fine enough for LPT to pack lanes evenly, coarse enough that
        # per-item overhead stays negligible
        cap = max(1, -(-total // max(run.workers * 4, 1)))
        for i in chosen:
            active = actives[i]
            if regions is None or len(active) <= cap:
                items.append((i, None, active))
                continue
            reg = regions[i][active]
            order = np.argsort(reg, kind="stable")
            bounds = np.flatnonzero(np.diff(reg[order])) + 1
            groups = np.split(order, bounds)
            if len(groups) == 1:
                items.append((i, None, active))
                continue
            bundle: list[np.ndarray] = []
            size = 0
            shard_items = []
            for g in groups:
                bundle.append(g)
                size += len(g)
                if size >= cap:
                    pos = np.concatenate(bundle)
                    shard_items.append((i, pos, active[pos]))
                    bundle, size = [], 0
            if bundle:
                pos = np.concatenate(bundle)
                shard_items.append((i, pos, active[pos]))
            if len(shard_items) == 1:
                items.append((i, None, active))
            else:
                items.extend(shard_items)
        return items

    @staticmethod
    def _lpt_lanes(items, workers: int):
        """Longest-processing-time assignment of items to worker lanes.

        Deterministic: items sorted by (size desc, shard, position),
        each placed on the least-loaded lane (lowest index on ties)."""
        order = sorted(
            range(len(items)),
            key=lambda j: (-len(items[j][2]), items[j][0], j),
        )
        loads = [0] * workers
        lanes: list[list[int]] = [[] for _ in range(workers)]
        for j in order:
            w = min(range(workers), key=lambda x: (loads[x], x))
            lanes[w].append(j)
            loads[w] += max(len(items[j][2]), 1)
        return [lane for lane in lanes if lane]

    # -- stolen-item execution ----------------------------------------
    @staticmethod
    def _clone_state(st):
        """Private copy of the mutable arrays; structure stays shared.

        ``np.array`` copies through the buffer protocol, so tracked
        (race-instrumented) arrays come back as plain ndarrays — clone
        sweeps are invisible to the detector, which is correct: their
        writes never leave the clone until the serial merge."""
        clone = object.__new__(st.__class__)
        clone.__dict__.update(st.__dict__)
        clone.beliefs = np.array(st.beliefs, copy=True, subok=False)
        clone.messages = np.array(st.messages, copy=True, subok=False)
        clone.log_messages = np.array(st.log_messages, copy=True, subok=False)
        clone.log_msg_sum = np.array(st.log_msg_sum, copy=True, subok=False)
        # slot-map scratch is per thread: clones sweep on other lanes
        clone.node_slots = SlotMap(st.n)
        return clone

    @staticmethod
    def _merge_item(run, i: int, clone, elements: np.ndarray) -> None:
        """Fold a stolen item's rows back into the shard state.

        Row sets are disjoint across items of one shard: node items own
        distinct node bands (in-edge sets of distinct nodes are
        disjoint); edge items are split by destination region, so every
        active edge into a node lands in the same item."""
        st = run.states[i]
        if run.cfg.paradigm == "node":
            nodes = elements
            edges, _ = st.gather_in_edges(nodes)
        else:
            edges = elements
            nodes = np.unique(np.asarray(st.dst, dtype=np.int64)[edges])
        st.beliefs[nodes] = clone.beliefs[nodes]
        st.log_msg_sum[nodes] = clone.log_msg_sum[nodes]
        if len(edges):
            st.messages[edges] = clone.messages[edges]
            st.log_messages[edges] = clone.log_messages[edges]

    # -- main loop -----------------------------------------------------
    def execute(self, run: ShardRun) -> PolicyOutcome:  # noqa: C901
        cfg = run.cfg
        crit = cfg.criterion
        k = run.n_shards
        plans, schedules, states = run.plans, run.schedules, run.states
        tracer = get_tracer()
        stale = self.staleness
        steal = stale > 0 and self.steal_factor > 1 and run.workers > 1
        regions = (
            [self._element_regions(run, i) for i in range(k)] if steal else None
        )

        routes = run.sharded.routes
        row_bytes = 4 * run.sharded.n_states
        inbound: list[list[int]] = [[] for _ in range(k)]
        outbound: list[list[int]] = [[] for _ in range(k)]
        for ri, route in enumerate(routes):
            inbound[route.dst].append(ri)
            outbound[route.src].append(ri)
        #: latest unconsumed snapshot per route: (version, nodes, edges)
        pending: list[tuple | None] = [None] * len(routes)

        clock = [0] * k
        deltas_by_round: dict[int, float] = {}
        checked_round = 0
        run_stats = RunStats()
        per_shard_stats: list[list[SweepStats]] = []
        history: list[float] = []
        ticks: list[TickRecord] = []
        shard_staleness = [0] * k
        stolen_items = 0
        exchange_bytes = 0
        converged = False

        def exec_lane(lane):
            out = []
            for j in lane:
                i, positions, elements = items[j]
                with tracer.span("shard.sweep", cat="shard") as span:
                    if positions is None:
                        step = plans[i].sweep(elements, run.want_downstream[i],
                                               schedules[i].wants_priority)
                        clone = None
                    else:
                        clone = self._clone_state(states[i])
                        plan = type(plans[i])(clone, cfg)
                        step = plan.sweep(elements, run.want_downstream[i],
                                          schedules[i].wants_priority)
                    if span:
                        span.set(shard=i, active=int(len(elements)),
                                 stolen=positions is not None,
                                 **step.stats.as_dict())
                out.append((j, step, clone))
            return out

        while True:
            # 1. consume pending halo snapshots (routes sorted by (src,
            #    dst), so per-consumer apply order matches the sync
            #    exchange's — required for staleness=0 bit-exactness)
            tick_staleness = 0
            for i in range(k):
                lanes_in = [ri for ri in inbound[i] if pending[ri] is not None]
                if not lanes_in:
                    continue
                pn: list[np.ndarray] = []
                pnd: list[np.ndarray] = []
                pe: list[np.ndarray] = []
                ped: list[np.ndarray] = []
                for ri in lanes_in:
                    version, node_rows, edge_rows = pending[ri]
                    pending[ri] = None
                    # fresher-than-us snapshots (producer ran ahead) are
                    # age 0; positive age = rounds of staleness consumed
                    age = max(0, clock[i] - version)
                    shard_staleness[i] = max(shard_staleness[i], age)
                    tick_staleness = max(tick_staleness, age)
                    _apply_route_rows(
                        states[i], plans[i].element_threshold, routes[ri],
                        node_rows, edge_rows, pn, pnd, pe, ped,
                    )
                _reactivate_consumer(states[i], schedules[i], cfg,
                                     pn, pnd, pe, ped)

            # 2. termination: every element converged and nothing in
            #    flight (the sync policy's post-exchange drain check;
            #    sync always runs at least one round, so only check
            #    once a tick has happened)
            if history and all(s.drained for s in schedules):
                converged = True
                break

            # 3. SSP gate + pressure selection: hot shards sweep every
            #    tick; cold (drained) shards sweep only when a hot shard
            #    is waiting on the staleness gate, so their cheap empty
            #    rounds advance the clock floor.  staleness=0 keeps the
            #    lockstep everyone-sweeps rule (sync parity).
            floor = min(clock)
            runnable = [
                i for i in range(k)
                if clock[i] < crit.max_iterations and clock[i] - floor <= stale
            ]
            if not runnable:
                break  # every shard retired at the iteration cap

            pressured = [i for i in runnable if schedules[i].pressure() > 0.0]
            blocked = any(
                clock[i] < crit.max_iterations
                and clock[i] - floor > stale
                and schedules[i].pressure() > 0.0
                for i in range(k)
            )
            if stale == 0 or not pressured:
                chosen = runnable
            elif blocked:
                chosen = sorted(
                    set(pressured) | {i for i in runnable if clock[i] == floor}
                )
            else:
                chosen = pressured
            actives = {i: schedules[i].active for i in chosen}
            items = self._make_items(run, chosen, actives, regions)
            lanes = self._lpt_lanes(items, run.workers)

            # 4. sweep: lanes in parallel, items within a lane serial
            for i in chosen:
                run.shard_phase(i, "sweep")
            results = run.map(exec_lane, lanes)
            for i in chosen:
                run.shard_phase(i, "exchange")

            lane_stats = []
            by_item: dict[int, tuple] = {}
            for lane_out in results:
                agg = SweepStats()
                for j, step, clone in lane_out:
                    by_item[j] = (step, clone)
                    agg += step.stats
                lane_stats.append(agg)

            # 5. serial merge of stolen items, deterministic item order
            tick_stolen = 0
            for j in sorted(by_item):
                step, clone = by_item[j]
                if clone is not None:
                    i, positions, elements = items[j]
                    self._merge_item(run, i, clone, elements)
                    tick_stolen += 1
            stolen_items += tick_stolen

            # 6. feedback in ascending shard order (sync's float order)
            tick_delta = 0.0
            tick_stats = SweepStats()
            shard_stats: list[SweepStats] = [SweepStats() for _ in range(k)]
            for i in chosen:
                active = actives[i]
                item_ids = [j for j in sorted(by_item)
                            if items[j][0] == i]
                if len(item_ids) == 1 and items[item_ids[0]][1] is None:
                    step = by_item[item_ids[0]][0]
                    deltas, ds, dsp = step.deltas, step.downstream, \
                        step.downstream_priority
                    shard_delta = step.global_delta
                    stats_i = step.stats
                else:
                    first = by_item[item_ids[0]][0]
                    deltas = np.zeros(len(active), dtype=first.deltas.dtype)
                    ds_parts: list[np.ndarray] = []
                    dsp_parts: list[np.ndarray] = []
                    shard_delta = 0.0
                    stats_i = SweepStats()
                    for j in item_ids:
                        step = by_item[j][0]
                        _, positions, _ = items[j]
                        deltas[positions] = step.deltas
                        if step.downstream is not None:
                            ds_parts.append(step.downstream)
                        if step.downstream_priority is not None:
                            dsp_parts.append(step.downstream_priority)
                        shard_delta += step.global_delta
                        stats_i += step.stats
                    ds = np.concatenate(ds_parts) if ds_parts else None
                    dsp = np.concatenate(dsp_parts) if dsp_parts else None
                if ds is not None:
                    keep = ds < schedules[i].n_elements
                    ds = ds[keep]
                    dsp = dsp[keep] if dsp is not None else None
                schedules[i].update(active, deltas, ds, dsp)
                schedules[i].charge(stats_i)
                tick_delta += shard_delta
                tick_stats += stats_i
                shard_stats[i] = stats_i
                r = clock[i] + 1
                deltas_by_round[r] = deltas_by_round.get(r, 0.0) + shard_delta
                clock[i] = r
            run_stats.append(tick_stats)
            per_shard_stats.append(shard_stats)
            history.append(tick_delta)

            # 7. publish fresh boundary snapshots (latest-only per route)
            with tracer.span("shard.exchange", cat="shard") as ex_span:
                tick_bytes = 0
                for i in chosen:
                    for ri in outbound[i]:
                        route = routes[ri]
                        node_rows = (
                            np.asarray(states[i].beliefs[route.src_nodes])
                            if len(route.src_nodes) else None
                        )
                        edge_rows = (
                            np.asarray(states[i].messages[route.src_edges])
                            if len(route.src_edges) else None
                        )
                        pending[ri] = (clock[i], node_rows, edge_rows)
                        tick_bytes += route.rows * row_bytes
                if ex_span:
                    ex_span.set(tick=len(ticks) + 1, bytes=tick_bytes,
                                staleness=tick_staleness,
                                stolen=tick_stolen)
            exchange_bytes += tick_bytes
            ticks.append(TickRecord(
                swept=tuple(chosen),
                worker_stats=lane_stats,
                exchange_bytes=tick_bytes,
                stolen=tick_stolen,
                max_staleness=tick_staleness,
            ))

            # 8. global criterion over *completed* rounds (every shard
            #    contributed), same float accumulation order as sync
            if run.exhaustive:
                stop = False
                while checked_round < min(clock):
                    checked_round += 1
                    if crit.is_converged(deltas_by_round.pop(checked_round)):
                        stop = True
                        break
                if stop:
                    converged = True
                    break

        return PolicyOutcome(
            iterations=max(clock) if clock else 0,
            converged=converged,
            history=history,
            run_stats=run_stats,
            per_shard_stats=per_shard_stats,
            exchange_bytes=exchange_bytes,
            ticks=ticks,
            shard_staleness=shard_staleness,
            stolen_items=stolen_items,
        )
