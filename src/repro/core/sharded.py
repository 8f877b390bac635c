"""Sharded BP execution over a measured graph partition (DESIGN.md §9).

:class:`ShardedGraph` splits a :class:`~repro.core.graph.BeliefGraph`
into per-shard subgraphs along a :class:`~repro.partition.Partition`.
Ownership follows *destinations*: shard ``s`` owns the nodes assigned to
it and every directed edge terminating at an owned node.  Each subgraph
additionally carries:

halo nodes
    Sources of boundary in-edges that live on another shard.  Their
    beliefs are read by the local cavity computation but never written
    locally — the owner ships fresh values each exchange round.

ghost edges
    The *reverses* of boundary in-edges (owned elsewhere).  Their
    message rows feed the local cavity division ``belief / m_rev``; the
    owner ships fresh messages each exchange round.

With this closure every locally-computed quantity — cavity messages,
per-node log-message sums, combined beliefs — depends only on local
rows, so a per-shard synchronous (Jacobi) sweep followed by a boundary
exchange reproduces the *global* synchronous sweep bit-for-bit: each
directed edge is recomputed by exactly one shard from the same snapshot
the unsharded kernel would read, and per-node accumulation order is
preserved.  That is the posterior-equivalence argument behind the
1e-6 parity suite (``tests/test_partition.py``).

:class:`ShardedLoopyBP` drives any PR-1 schedule per shard through a
pluggable **shard execution policy**
(:mod:`repro.core.shard_policies`): the default ``"sync"`` policy runs
lockstep rounds with a full exchange and barrier (bit-exact with the
unsharded kernels), while ``"async"`` runs bounded-staleness SSP ticks
with pressure-ranked shard selection and region work stealing.  Either
way the exchange copies halo beliefs and ghost messages along
precomputed routes and *reactivates* the owned elements they feed via
:meth:`~repro.core.scheduler.Schedule.reactivate`, so drained shards
wake up while neighbours still move.  Shard sweeps are independent and
can run on a thread pool — the BLAS matmuls inside the kernels release
the GIL, which is where the serving layer's wall-clock speedup comes
from.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyConfig, LoopyResult, _EdgePlan, _NodePlan
from repro.core.observation import observe as _observe
from repro.core.potentials import PerEdgePotentialStore, SharedPotentialStore
from repro.core.scheduler import make_schedule
from repro.core.shard_policies import ShardRun, exchange_routes, make_shard_policy
from repro.core.state import LoopyState
from repro.core.sweepstats import SweepStats
from repro.partition import Partition, make_partition
from repro.telemetry import get_metrics, get_tracer

__all__ = ["Shard", "ShardedGraph", "ShardedLoopyBP", "ShardedResult"]

_FLOAT = np.float32


@dataclass(eq=False)
class Shard:
    """One shard's subgraph plus its local ↔ global index maps."""

    index: int
    graph: BeliefGraph
    #: global ids of owned nodes; local node ids 0..n_owned-1, ascending
    owned_nodes: np.ndarray
    #: global ids of halo nodes; local ids n_owned.., ascending
    halo_nodes: np.ndarray
    #: global ids of owned edges; local edge ids 0..n_owned_edges-1
    owned_edges: np.ndarray
    #: global ids of ghost edges; local ids n_owned_edges..
    ghost_edges: np.ndarray

    @property
    def n_owned(self) -> int:
        return len(self.owned_nodes)

    @property
    def n_owned_edges(self) -> int:
        return len(self.owned_edges)

    def copy(self) -> "Shard":
        """Fresh belief/observation state, shared structure (index maps)."""
        return replace(self, graph=self.graph.copy())


@dataclass(eq=False)
class _Route:
    """One producer → consumer exchange lane (local index spaces)."""

    src: int
    dst: int
    #: producer-local owned node ids → consumer-local halo node ids
    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    #: producer-local owned edge ids → consumer-local ghost edge ids
    src_edges: np.ndarray
    dst_edges: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.src_nodes) + len(self.src_edges)


class ShardedGraph:
    """A :class:`BeliefGraph` split into halo-closed per-shard subgraphs.

    Build once per (graph, partition) with :meth:`build`; take cheap
    per-query copies with :meth:`instance` (structure and routes are
    shared, belief/observation state is fresh) — the serving hot path.
    """

    def __init__(
        self,
        partition: Partition,
        shards: list[Shard],
        routes: list[_Route],
        *,
        source: BeliefGraph | None,
        n_nodes: int,
        n_states: int,
        resolve,
        halo_locations: dict[int, list[tuple[int, int]]],
        owned_pos: np.ndarray,
        owned_local: np.ndarray,
    ):
        self.partition = partition
        self.shards = shards
        self.routes = routes
        #: the master graph this was built from (None on instances — they
        #: must not write posteriors back into the registered master)
        self.source = source
        self.n_nodes = n_nodes
        self.n_states = n_states
        self._resolve = resolve
        self._halo_locations = halo_locations
        self._owned_pos = owned_pos
        self._owned_local = owned_local

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: BeliefGraph,
        partition: Partition | None = None,
        *,
        n_shards: int | None = None,
        method: str = "bfs",
        seed: int = 0,
    ) -> "ShardedGraph":
        """Split ``graph`` along ``partition`` (or partition it here).

        Empty shards (more shards than populated regions) are dropped;
        the remaining shards jointly own every node and edge exactly
        once.  Requires a uniform-width graph (the vectorized kernels'
        precondition, §2.2).
        """
        if partition is None:
            if n_shards is None:
                raise ValueError("provide a partition or n_shards")
            partition = make_partition(graph, n_shards, method, seed=seed)
        if len(partition.assignment) != graph.n_nodes:
            raise ValueError("partition does not match the graph")
        if not graph.uniform:
            raise ValueError(
                "sharded execution requires constant-width beliefs; "
                "run heterogeneous graphs through the reference backend"
            )

        n, m = graph.n_nodes, graph.n_edges
        a = partition.assignment
        beliefs_dense = graph.beliefs.dense()
        priors_dense = graph.priors.dense()

        owned_pos = np.full(n, -1, dtype=np.int64)
        owned_local = np.full(n, -1, dtype=np.int64)
        edge_owner_local = np.full(m, -1, dtype=np.int64)
        shards: list[Shard] = []
        per_shard_g2l: list[np.ndarray] = []

        for s in range(partition.n_shards):
            owned = np.flatnonzero(a == s).astype(np.int64)
            if not len(owned):
                continue
            pos = len(shards)
            owned_edges = (
                np.flatnonzero(a[graph.dst] == s).astype(np.int64)
                if m
                else np.empty(0, dtype=np.int64)
            )
            boundary = owned_edges[a[graph.src[owned_edges]] != s]
            halo = np.unique(graph.src[boundary]).astype(np.int64)
            ghost = graph.reverse_edge[boundary]
            ghost = np.unique(ghost[ghost >= 0]).astype(np.int64)

            local_nodes = np.concatenate((owned, halo))
            g2l = np.full(n, -1, dtype=np.int64)
            g2l[local_nodes] = np.arange(len(local_nodes), dtype=np.int64)
            local_edges = np.concatenate((owned_edges, ghost))
            e_g2l = np.full(m, -1, dtype=np.int64)
            e_g2l[local_edges] = np.arange(len(local_edges), dtype=np.int64)

            lsrc = g2l[graph.src[local_edges]]
            ldst = g2l[graph.dst[local_edges]]
            grev = graph.reverse_edge[local_edges]
            lrev = np.full(len(local_edges), -1, dtype=np.int64)
            paired = grev >= 0
            lrev[paired] = e_g2l[grev[paired]]

            if graph.potentials.shared:
                pots = SharedPotentialStore(
                    graph.potentials.matrix(0), len(local_edges)
                )
            else:
                pots = PerEdgePotentialStore(graph.potentials.stacked(local_edges))

            sub = BeliefGraph(
                priors_dense[local_nodes],
                lsrc,
                ldst,
                pots,
                reverse_edge=lrev,
                node_names=[graph.node_names[int(g)] for g in local_nodes],
                layout=graph.layout,
            )
            # bypass the constructor's re-normalization: a float32 row that
            # sums to 1±ulp would drift by a division, breaking the
            # bit-exact sync parity with the unsharded kernels
            sub.priors.load_dense(priors_dense[local_nodes])
            sub.beliefs.load_dense(beliefs_dense[local_nodes])
            sub.observed[:] = graph.observed[local_nodes]
            sub.observed_state[:] = graph.observed_state[local_nodes]

            owned_pos[owned] = pos
            owned_local[owned] = np.arange(len(owned), dtype=np.int64)
            edge_owner_local[owned_edges] = np.arange(len(owned_edges), dtype=np.int64)
            per_shard_g2l.append(g2l)
            shards.append(
                Shard(
                    index=pos,
                    graph=sub,
                    owned_nodes=owned,
                    halo_nodes=halo,
                    owned_edges=owned_edges,
                    ghost_edges=ghost,
                )
            )

        routes, halo_locations = cls._build_routes(
            shards, a, graph.dst, owned_pos, owned_local, edge_owner_local
        )
        return cls(
            partition,
            shards,
            routes,
            source=graph,
            n_nodes=n,
            n_states=graph.n_states,
            resolve=graph.node_id,
            halo_locations=halo_locations,
            owned_pos=owned_pos,
            owned_local=owned_local,
        )

    @staticmethod
    def _build_routes(shards, assignment, dst, owned_pos, owned_local, edge_owner_local):
        routes: dict[tuple[int, int], dict[str, list]] = {}
        halo_locations: dict[int, list[tuple[int, int]]] = {}

        def lane(src: int, dst_: int) -> dict[str, list]:
            return routes.setdefault(
                (src, dst_),
                {"sn": [], "dn": [], "se": [], "de": []},
            )

        for sh in shards:
            for li, g in enumerate(sh.halo_nodes):
                g = int(g)
                producer = int(owned_pos[g])
                entry = lane(producer, sh.index)
                entry["sn"].append(int(owned_local[g]))
                entry["dn"].append(sh.n_owned + li)
                halo_locations.setdefault(g, []).append((sh.index, sh.n_owned + li))
            for li, e in enumerate(sh.ghost_edges):
                e = int(e)
                producer = int(owned_pos[int(dst[e])])
                entry = lane(producer, sh.index)
                entry["se"].append(int(edge_owner_local[e]))
                entry["de"].append(sh.n_owned_edges + li)

        built = [
            _Route(
                src=src,
                dst=dst_,
                src_nodes=np.asarray(entry["sn"], dtype=np.int64),
                dst_nodes=np.asarray(entry["dn"], dtype=np.int64),
                src_edges=np.asarray(entry["se"], dtype=np.int64),
                dst_edges=np.asarray(entry["de"], dtype=np.int64),
            )
            for (src, dst_), entry in sorted(routes.items())
        ]
        return built, halo_locations

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Populated shards (empty ones were dropped at build time)."""
        return len(self.shards)

    def instance(self) -> "ShardedGraph":
        """A cheap evidence-isolated copy for one query: fresh beliefs and
        observation flags per shard, shared structure and routes."""
        return ShardedGraph(
            self.partition,
            [sh.copy() for sh in self.shards],
            self.routes,
            source=None,
            n_nodes=self.n_nodes,
            n_states=self.n_states,
            resolve=self._resolve,
            halo_locations=self._halo_locations,
            owned_pos=self._owned_pos,
            owned_local=self._owned_local,
        )

    def observe(self, node: int | str, state: int) -> None:
        """Clamp ``node`` to ``state`` in every shard that sees it — the
        owner plus each shard holding it as a halo node."""
        g = int(self._resolve(node))
        pos = int(self._owned_pos[g])
        if pos < 0:
            raise KeyError(f"node {node!r} is not owned by any shard")
        _observe(self.shards[pos].graph, int(self._owned_local[g]), state)
        for shard_pos, local in self._halo_locations.get(g, ()):
            _observe(self.shards[shard_pos].graph, local, state)

    def gather_beliefs(self) -> np.ndarray:
        """Assemble the global ``(n, b)`` belief matrix from shard-owned rows."""
        out = np.empty((self.n_nodes, self.n_states), dtype=_FLOAT)
        for sh in self.shards:
            out[sh.owned_nodes] = sh.graph.beliefs.dense()[: sh.n_owned]
        return out

    def exchange_profile(self) -> dict[str, float]:
        """Static per-round exchange traffic (the routes never change).

        ``bytes_per_round`` is the total boundary payload; ``max_device``
        the heaviest single shard's in+out bytes — what a per-link
        interconnect model charges per bulk-synchronous round.
        """
        row_bytes = 4 * self.n_states
        k = self.n_shards
        inbound = np.zeros(k)
        outbound = np.zeros(k)
        total = 0
        for r in self.routes:
            nbytes = r.rows * row_bytes
            outbound[r.src] += nbytes
            inbound[r.dst] += nbytes
            total += nbytes
        max_device = float((inbound + outbound).max()) if k else 0.0
        return {
            "bytes_per_round": float(total),
            "max_device_bytes": max_device,
            "boundary_rows": float(sum(r.rows for r in self.routes)),
            "n_routes": float(len(self.routes)),
        }

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(n_shards={self.n_shards}, n_nodes={self.n_nodes}, "
            f"partition={self.partition!r})"
        )


@dataclass
class ShardedResult(LoopyResult):
    """A :class:`LoopyResult` plus the sharded run's exchange accounting."""

    partition: Partition | None = None
    #: boundary payload actually copied across shards, whole run
    exchange_bytes: int = 0
    #: per-iteration list of per-shard SweepStats (straggler analysis)
    per_shard_stats: list[list[SweepStats]] = field(default_factory=list)
    #: shard execution policy that drove the run
    policy: str = "sync"
    #: SSP staleness bound the run allowed (0 under sync)
    staleness: int = 0
    #: async only: per-tick replay records for the cost models
    ticks: list = field(default_factory=list)
    #: max halo-snapshot age each shard consumed, in rounds
    shard_staleness: list = field(default_factory=list)
    #: work items executed on state clones by stealing workers
    stolen_items: int = 0

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards if self.partition is not None else 1


class ShardedLoopyBP:
    """Loopy BP over a :class:`ShardedGraph`: any schedule per shard,
    driven by a pluggable shard execution policy.

    ``policy`` selects the execution model
    (:data:`~repro.core.shard_policies.SHARD_POLICIES`): ``"sync"``
    (default) is the bit-exact lockstep behaviour, ``"async"`` runs
    bounded-staleness ticks — ``staleness`` rounds of halo-snapshot
    age are tolerated (0 degenerates to lockstep) and each shard's
    active set is over-partitioned into ``steal_factor`` regions that
    idle workers steal.

    ``pool`` (an external ``ThreadPoolExecutor``) or ``max_workers``
    (own pool per run) enable parallel shard sweeps; the default is
    serial — numerics are identical either way, because every sweep
    touches only its own shard (or a private clone) and the exchange
    runs on the caller.

    ``instrument`` accepts any object with the
    :class:`~repro.analysis.races.RaceDetector` hook protocol —
    ``on_states(states)`` is called once after the per-shard states are
    built (before any sweep), ``on_phase(label)`` at every global
    fork-join barrier, and ``on_shard_phase(shard, label)`` (when
    present) at per-shard epoch boundaries in async runs.
    """

    def __init__(
        self,
        config: LoopyConfig | None = None,
        *,
        pool: ThreadPoolExecutor | None = None,
        max_workers: int | None = None,
        instrument=None,
        policy: str = "sync",
        staleness: int = 0,
        steal_factor: int = 8,
        **overrides,
    ):
        base = config or LoopyConfig()
        self.config = replace(base, **overrides) if overrides else base
        self._pool = pool
        self._max_workers = max_workers
        self._instrument = instrument
        # validate eagerly so bad specs fail at construction, not run time
        self.policy = make_shard_policy(
            policy, staleness=staleness, steal_factor=steal_factor
        )
        self.staleness = int(staleness)
        self.steal_factor = int(steal_factor)

    # ------------------------------------------------------------------
    def run(self, sharded: ShardedGraph) -> ShardedResult:
        if self._pool is not None or self._max_workers is None:
            return self._run(sharded, self._pool)
        with ThreadPoolExecutor(max_workers=self._max_workers) as pool:
            return self._run(sharded, pool)

    def run_graph(
        self,
        graph: BeliefGraph,
        *,
        n_shards: int,
        method: str = "bfs",
        seed: int = 0,
    ) -> ShardedResult:
        """Convenience: partition + build + run in one call; posteriors
        are written back into ``graph``'s belief store."""
        return self.run(ShardedGraph.build(graph, n_shards=n_shards, method=method, seed=seed))

    # ------------------------------------------------------------------
    def _run(self, sharded: ShardedGraph, pool: ThreadPoolExecutor | None) -> ShardedResult:
        cfg = self.config
        crit = cfg.criterion
        shards = sharded.shards
        k = len(shards)

        states = [LoopyState(sh.graph) for sh in shards]
        for sh, st in zip(shards, states):
            # halo rows are owned elsewhere: never update them locally
            st.free_mask[sh.n_owned:] = False
        instrument = self._instrument
        if instrument is not None:
            # before plan construction, so plans capture the tracked views
            instrument.on_states(states)

        plans = []
        schedules = []
        for pos, (sh, st) in enumerate(zip(shards, states)):
            plan = _NodePlan(st, cfg) if cfg.paradigm == "node" else _EdgePlan(st, cfg)
            n_elem = sh.n_owned if cfg.paradigm == "node" else sh.n_owned_edges
            plans.append(plan)
            schedules.append(
                make_schedule(
                    cfg.schedule,
                    n_elem,
                    plan.element_threshold,
                    batch_fraction=cfg.batch_fraction,
                    relaxation=cfg.relaxation,
                    seed=cfg.schedule_seed + pos,
                )
            )
        want_downstream = [
            cfg.requeue_downstream and s.wants_downstream for s in schedules
        ]
        exhaustive = all(s.exhaustive for s in schedules)

        run = ShardRun(
            sharded=sharded,
            states=states,
            plans=plans,
            schedules=schedules,
            want_downstream=want_downstream,
            exhaustive=exhaustive,
            cfg=cfg,
            pool=pool,
            instrument=instrument,
            workers=(getattr(pool, "_max_workers", 0) or 1)
            if pool is not None else 1,
        )

        tracer = get_tracer()
        with tracer.span("bp.sharded_run", cat="bp") as run_span:
            outcome = self.policy.execute(run)
            if run_span:
                run_span.set(n_shards=k, schedule=cfg.schedule,
                             paradigm=cfg.paradigm,
                             policy=self.policy.name,
                             staleness=self.staleness,
                             iterations=outcome.iterations,
                             converged=outcome.converged,
                             exchange_bytes=outcome.exchange_bytes)

        metrics = get_metrics()
        for i, age in enumerate(outcome.shard_staleness):
            metrics.gauge(f"sharded.staleness.shard{i}").set(age)

        beliefs = np.empty((sharded.n_nodes, sharded.n_states), dtype=_FLOAT)
        for sh, st in zip(shards, states):
            st.export_beliefs()
            beliefs[sh.owned_nodes] = st.beliefs[: sh.n_owned]
        if sharded.source is not None:
            sharded.source.beliefs.load_dense(beliefs)

        return ShardedResult(
            beliefs=beliefs,
            iterations=outcome.iterations,
            converged=outcome.converged,
            delta_history=outcome.history,
            run_stats=outcome.run_stats,
            config=cfg,
            partition=sharded.partition,
            exchange_bytes=outcome.exchange_bytes,
            per_shard_stats=outcome.per_shard_stats,
            policy=self.policy.name,
            staleness=self.staleness,
            ticks=outcome.ticks,
            shard_staleness=outcome.shard_staleness,
            stolen_items=outcome.stolen_items,
        )

    # ------------------------------------------------------------------
    #: kept as an API alias — the exchange now lives with the policies
    _exchange = staticmethod(exchange_routes)
