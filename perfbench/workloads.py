"""The four workloads of the Credo benchmark.

Each drives the program only through a public entry point:

* ``oneshot-rand200k`` — :meth:`Credo.run_file` with default arguments
  (what ``credo run`` does) on the Table 1 ``200kx800k`` binary graph;
* ``grid8-sync`` — :meth:`Credo.run` with plans frozen by
  :meth:`Credo.plan`, alternating ``c-node:sync`` and ``c-edge:sync``, on
  a 160x160 8-state grid;
* ``stream-churn`` — :meth:`IncrementalEngine.apply` with evidence deltas
  confined to a 4x4 corner of a 256x256 binary grid;
* ``serve-mixed`` — :meth:`InferenceServer.submit` open loop at 25 q/s
  with a structural :meth:`InferenceServer.update_model` every 100
  queries, then a closed loop holding 32 requests outstanding.

A workload makes its inputs from the seed (:meth:`Workload.prepare`,
untimed, which also computes references and runs the small-instance
oracle checks), sets the program up (:meth:`Workload.setup`, timed and
repeated for ``setup_s``) and runs ops for a given number of seconds
(:meth:`Workload.run`), checking every output outside the timed region.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

from common import (
    ROOT,
    SRC,
    HostSpeed,
    Phase,
    Tally,
    check_posteriors,
    median,
    plant_fault,
    tail_percentile,
    timed_loop,
)

#: max |posterior - junction tree| on the small tree instances.  BP is
#: exact on trees; the slack covers float32 rounding and the per-element
#: threshold at which work queues stop re-sweeping an element.
TREE_TOL = 2e-3


def _tree_graph(n: int, n_states: int, potential, rng):
    """A random recursive tree with Dirichlet priors: BP is exact on it."""
    from repro.core.graph import BeliefGraph
    from repro.graphs.synthetic import random_priors

    parents = np.array([rng.integers(0, i) for i in range(1, n)], dtype=np.int64)
    edges = np.column_stack([np.arange(1, n, dtype=np.int64), parents])
    return BeliefGraph.from_undirected(
        random_priors(n, n_states, rng), edges, potential, dedupe=False
    )


def _oracle(graph) -> np.ndarray:
    from repro.core.junction import junction_tree_marginals

    return junction_tree_marginals(graph)


def _record_oracle(tally: Tally, errors: dict, name: str, beliefs, converged, exact):
    diff = float(np.abs(np.asarray(beliefs, dtype=np.float64) - exact).max())
    errors[name] = diff
    problem = check_posteriors(beliefs, converged)
    if problem is None and diff > TREE_TOL:
        problem = "oracle_mismatch"
    tally.record(None if problem is None else f"{name}:{problem}")


class Workload:
    """Base class; see the module docstring for the life cycle."""

    name = ""
    #: program set-ups per run; ``setup_s`` is their median
    setup_reps = 5
    #: scale timings by host speed (common.HostSpeed); off where the op
    #: time is mostly waiting, which does not scale with the host
    scaled = True

    def __init__(self, seed: int, *, tiny: bool = False, plant: bool = False):
        self.seed = seed
        self.tiny = tiny
        #: corrupt one checked output so the self-test can see it counted
        self.plant = plant
        #: max |error| seen by each check, printed with the result
        self.errors: dict[str, float] = {}
        self.host = HostSpeed() if self.scaled else None

    def params(self) -> dict:
        raise NotImplementedError

    def prepare(self, tally: Tally) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tally: Tally, probe=None) -> Phase:
        raise NotImplementedError

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Seconds of each of ``setup_reps`` program set-ups, scaled by
        host speed and as measured; the last set-up stays for the ops."""
        def one(rep):
            if rep:
                self.teardown()
            t0 = time.perf_counter()
            self.setup()
            return time.perf_counter() - t0

        return self._timed_reps(one)

    def _timed_reps(self, one) -> tuple[list[float], list[float]]:
        scaled, raw = [], []
        for rep in range(self.setup_reps):
            elapsed = one(rep)
            raw.append(elapsed)
            scaled.append(elapsed * (self.host.scale(elapsed) if self.host else 1.0))
        return scaled, raw

    def teardown(self) -> None:
        """Release what one :meth:`setup` holds (untimed, between set-ups)."""

    def close(self) -> None:
        """Release what :meth:`prepare` and :meth:`setup` hold."""

    def _planted(self, beliefs):
        """The planted wrong posterior, once, when planting is on."""
        if self.plant:
            self.plant = False
            return plant_fault(beliefs)
        return beliefs

    def _track(self, name: str, beliefs, reference) -> None:
        diff = float(np.abs(np.asarray(beliefs, dtype=np.float64) - reference).max())
        self.errors[name] = max(self.errors.get(name, 0.0), diff)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _cold_setup(spec: dict) -> float:
    """One cold set-up in a fresh interpreter (cold_setup.py)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("cold_setup.py")), json.dumps(spec)],
        check=True, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip())


def _root(probe):
    """The benchmark's own span around one op, or a no-op."""
    from contextlib import nullcontext

    return probe.span("bench.op") if probe is not None else nullcontext()


# ----------------------------------------------------------------------
class OneShot(Workload):
    name = "oneshot-rand200k"
    #: max |solve - sync reference| (measured ~2e-4 on seeds 1-3)
    tol = 2e-3

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.n_nodes, self.n_edges = (2_000, 8_000) if self.tiny else (200_000, 800_000)
        self.dir: Path | None = None

    def params(self):
        return {"graph": f"{self.n_nodes}x{self.n_edges} binary synthetic (Table 1)",
                "format": "mtx dual-file", "entry": "Credo.run_file defaults",
                "reference": "c-node:sync threshold 1e-5", "tol": self.tol}

    def prepare(self, tally):
        from repro.core.potentials import attractive_potential
        from repro.credo.runner import Credo

        workdir = ROOT / ".perfbench_work"
        workdir.mkdir(exist_ok=True)
        self.dir = workdir / f"{self.name}-{self.seed}-{os.getpid()}"
        self.dir.mkdir()
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("make_inputs.py")),
             str(self.seed), str(self.n_nodes), str(self.n_edges), str(self.dir)],
            check=True, env=_child_env(), timeout=170,
        )
        self.node_path = self.dir / "graph.mtx"
        self.edge_path = self.dir / "graph.edges"
        self.reference = np.load(self.dir / "reference.npy")

        # the plan default selection picks at full size, on a tree
        rng = np.random.default_rng(self.seed + 1)
        tree = _tree_graph(300, 2, attractive_potential(2, 0.75), rng)
        result = Credo().run(tree.copy(), backend="cuda-node:work_queue")
        _record_oracle(tally, self.errors, "oracle.tree", result.beliefs,
                       result.converged, _oracle(tree))

    def setup(self):
        from repro.credo.runner import Credo

        self.credo = Credo()

    def measure_setup(self):
        times = self._timed_reps(lambda rep: _cold_setup({}))
        self.setup()
        return times

    def run(self, seconds, tally, probe=None):
        modeled, wall, plans = [], [], set()

        def op():
            t0 = time.perf_counter()
            with _root(probe):
                result = self.credo.run_file(self.node_path, self.edge_path)
            elapsed = time.perf_counter() - t0
            modeled.append(result.modeled_time)
            wall.append(result.wall_time)
            plans.add(f"{result.backend}:{result.detail.get('schedule')}"
                      f"!{result.detail.get('executor')}")
            beliefs = self._planted(result.beliefs)
            self._track("reference", beliefs, self.reference)
            tally.record(check_posteriors(beliefs, result.converged,
                                          self.reference, self.tol))
            return elapsed

        lat, raw = timed_loop(seconds, op, self.host)
        extra = {"solve_s": (median(lat), "s")}
        tail = tail_percentile(lat)
        if tail is not None:
            extra["solve_p90_s"] = (tail[1], "s")
        extra["modeled_s"] = (median(modeled), "s")
        extra["modeled_over_wall"] = (sum(modeled) / sum(wall), "ratio")
        return Phase(lat, len(lat) / sum(lat), extra, raw, info={"plans": sorted(plans)})

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
class Grid8(Workload):
    name = "grid8-sync"
    coupling = 0.3
    n_states = 8
    backends = ("c-node:sync", "c-edge:sync")
    #: summed L1 threshold of the reference solve; float32 rounding keeps
    #: the summed change of 25.6k 8-state rows near 1e-4, so 10x tighter
    #: than the default 1e-3 is as tight as converges
    ref_threshold = 2e-4
    #: max |solve - reference| (measured <= 9e-6 on ten seeds)
    tol = 1e-4

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.side = 12 if self.tiny else 160

    def params(self):
        return {"graph": f"{self.side}x{self.side} 4-connected grid",
                "states": self.n_states, "coupling": self.coupling,
                "plans": list(self.backends),
                "reference": f"c-node:sync threshold {self.ref_threshold}",
                "tol": self.tol}

    def prepare(self, tally):
        from repro.core.convergence import ConvergenceCriterion
        from repro.core.potentials import attractive_potential
        from repro.credo.runner import Credo
        from repro.graphs.grids import grid_graph

        self.graph = grid_graph(self.side, self.side, n_states=self.n_states,
                                seed=self.seed, coupling=self.coupling)
        ref = Credo(criterion=ConvergenceCriterion(self.ref_threshold, 400)).run(
            self.graph.copy(), backend="c-node:sync", executor="compiled")
        if not ref.converged:
            tally.fail("reference_not_converged")
        self.reference = ref.beliefs

        # both frozen plans, compiled as at full size, on a tree
        rng = np.random.default_rng(self.seed + 1)
        tree = _tree_graph(64, self.n_states,
                           attractive_potential(self.n_states, self.coupling), rng)
        exact = _oracle(tree)
        credo = Credo()
        for backend in self.backends:
            plan = credo.plan(tree, backend=backend, executor="compiled")
            result = credo.run(tree.copy(), plan=plan)
            _record_oracle(tally, self.errors, f"oracle.tree.{backend}",
                           result.beliefs, result.converged, exact)

    def setup(self):
        from repro.credo.runner import Credo

        self.credo = Credo()
        self.plans = [self.credo.plan(self.graph, backend=b) for b in self.backends]

    def measure_setup(self):
        spec = {"grid": [self.side, self.n_states, self.seed, self.coupling],
                "backends": list(self.backends)}
        times = self._timed_reps(lambda rep: _cold_setup(spec))
        self.setup()
        return times

    def run(self, seconds, tally, probe=None):
        count = [0]
        modeled = []

        def op():
            plan = self.plans[count[0] % len(self.plans)]
            count[0] += 1
            graph = self.graph.copy()
            t0 = time.perf_counter()
            with _root(probe):
                result = self.credo.run(graph, plan=plan)
            elapsed = time.perf_counter() - t0
            modeled.append(result.modeled_time)
            beliefs = self._planted(result.beliefs)
            self._track("reference", beliefs, self.reference)
            tally.record(check_posteriors(beliefs, result.converged,
                                          self.reference, self.tol))
            return elapsed

        lat, raw = timed_loop(seconds, op, self.host)
        extra = {"solve_s": (median(lat), "s")}
        tail = tail_percentile(lat)
        if tail is not None:
            extra["solve_p90_s"] = (tail[1], "s")
        extra["modeled_s"] = (median(modeled), "s")
        return Phase(lat, len(lat) / sum(lat), extra, raw,
                     info={"plans": [p.qualified for p in self.plans]})


# ----------------------------------------------------------------------
class StreamChurn(Workload):
    name = "stream-churn"
    setup_reps = 3
    coupling = 0.6
    #: the grid is fixed and the seed drives the delta stream: priors
    #: drawn per seed moved the sweeps per update by +-7% between seeds
    graph_seed = 11
    corner = 4
    #: max |incremental - cold full re-run| (measured <= 6e-6 over 300
    #: updates on ten seeds: the warm start drifts a little)
    tol = 2e-5

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.side = 16 if self.tiny else 256
        #: compare with a cold full re-run on every k-th update
        self.check_every = 3 if self.tiny else 100

    def params(self):
        return {"graph": f"{self.side}x{self.side} binary grid",
                "graph_seed": self.graph_seed, "coupling": self.coupling, "paradigm": "edge",
                "schedule": "residual", "threshold": 1e-8,
                "deltas": f"observe/release in the {self.corner}x{self.corner} corner",
                "full_rerun_every": self.check_every, "tol": self.tol}

    def _config(self):
        from repro.core.convergence import ConvergenceCriterion
        from repro.core.loopy import LoopyConfig

        return LoopyConfig(paradigm="edge", schedule="residual",
                           criterion=ConvergenceCriterion(1e-8, 500))

    def _deltas(self, rng, side):
        """Endless seeded churn: release the last observation, observe a
        new corner node."""
        from repro.stream import GraphDelta

        prev = None
        while True:
            r, c = rng.integers(self.corner, size=2)
            node = int(r * side + c)
            if node == prev:
                continue
            delta = GraphDelta()
            if prev is not None:
                delta.release_node(prev)
            yield delta.observe_node(node, int(rng.integers(2)))
            prev = node

    def _cold(self, graph) -> np.ndarray:
        from repro.core.loopy import LoopyBP

        cold = graph.copy()
        cold.reset_beliefs()
        result = LoopyBP(self._config()).run(cold)
        return result.beliefs

    def prepare(self, tally):
        from repro.graphs.grids import grid_graph
        from repro.stream import IncrementalEngine

        self.graph = grid_graph(self.side, self.side, n_states=2,
                                seed=self.graph_seed, coupling=self.coupling)
        self.stream = self._deltas(np.random.default_rng(self.seed), self.side)

        # the same engine and deltas on a 1xN chain (a tree of the family)
        chain = grid_graph(1, 24, n_states=2, seed=self.seed, coupling=self.coupling)
        engine = IncrementalEngine(chain, self._config())
        engine.converge()
        deltas = self._deltas(np.random.default_rng(self.seed + 8), self.corner)
        for step in range(3):
            inc = engine.apply(next(deltas))
            _record_oracle(tally, self.errors, f"oracle.chain.{step}",
                           inc.beliefs, inc.result.converged, _oracle(engine.graph))

    def setup(self):
        from repro.stream import IncrementalEngine

        self.engine = IncrementalEngine(self.graph.copy(), self._config())
        self.engine.converge()

    def run(self, seconds, tally, probe=None):
        n = [0]
        edges, sweeps, dirty, modes = [], [], [], []

        def op():
            delta = next(self.stream)
            t0 = time.perf_counter()
            with _root(probe):
                inc = self.engine.apply(delta)
            elapsed = time.perf_counter() - t0
            n[0] += 1
            edges.append(inc.edges_swept)
            sweeps.append(inc.result.iterations)
            dirty.append(inc.dirty_fraction)
            modes.append(inc.mode)
            reference = None
            beliefs = inc.beliefs
            if n[0] % self.check_every == 0:
                reference = self._cold(self.engine.graph)
                beliefs = self._planted(beliefs)
                self._track("full_rerun", beliefs, reference)
            tally.record(check_posteriors(beliefs, inc.result.converged,
                                          reference, self.tol))
            return elapsed

        lat, raw = timed_loop(seconds, op, self.host)
        ms = [1e3 * x for x in lat]
        extra = {"update_ms": (median(ms), "ms")}
        tail = tail_percentile(ms)
        if tail is not None:
            extra["update_p90_ms"] = (tail[1], "ms")
        counters = {
            "stream.edges_per_update": float(np.mean(edges)),
            "stream.sweeps_per_update": float(np.mean(sweeps)),
            "stream.dirty_fraction": float(np.mean(dirty)),
            "stream.incremental_frac": modes.count("incremental") / len(modes),
        }
        return Phase(lat, len(lat) / sum(lat), extra, raw, counters)


# ----------------------------------------------------------------------
class ServeMixed(Workload):
    name = "serve-mixed"
    setup_reps = 11
    scaled = False
    #: open-loop arrival rate.  Queueing amplifies the shared host's speed
    #: drift: the run-to-run spread of p50 latency was 21-31% at 100 q/s,
    #: 25% at 50 q/s and 6% at 25 q/s
    rate = 25.0
    update_every = 100
    window = 32
    #: share of the run spent in the open loop; the closed loop follows
    open_share = 0.5
    #: check one open-loop response in this many against a solo run
    sample_every = 10
    #: max |served - solo Credo.run| (measured <= 4e-7 on ten seeds:
    #: union sweeps run the same plan)
    tol = 1e-5
    #: the model is fixed and the seed drives the traffic: a model drawn
    #: per seed changed closed-loop throughput by up to 2x between seeds
    model_seed = 42

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.n_nodes, self.n_edges, self.n_states = (30, 60, 3) if self.tiny else (150, 450, 3)
        #: distinct evidence sets: ~20% of queries repeat one within
        #: the 100-query cache generation between updates
        self.pool_size = 20 if self.tiny else 200
        self.server = None

    def params(self):
        return {"model": f"{self.n_nodes}x{self.n_edges} synthetic, {self.n_states} states",
                "model_seed": self.model_seed,
                "config": "ServerConfig() defaults", "open_loop_qps": self.rate,
                "update_every": self.update_every, "closed_loop_window": self.window,
                "evidence_pool": self.pool_size, "sample_every": self.sample_every,
                "tol": self.tol}

    def prepare(self, tally):
        from repro.core.observation import observe
        from repro.core.potentials import attractive_potential
        from repro.graphs.synthetic import synthetic_graph
        from repro.serve import InferenceServer, ServerConfig

        rng = np.random.default_rng(self.seed)
        self.graph = synthetic_graph(self.n_nodes, self.n_edges,
                                     n_states=self.n_states, seed=self.model_seed)
        self.pool = []
        for _ in range(self.pool_size):
            k = int(rng.integers(1, 4))
            nodes = rng.choice(self.n_nodes, size=k, replace=False)
            self.pool.append({self.graph.node_names[int(v)]: int(rng.integers(self.n_states))
                              for v in nodes})
        self.rng = rng
        adjacent = set(zip(self.graph.src.tolist(), self.graph.dst.tolist()))
        self.absent = [(u, v) for u in range(self.n_nodes) for v in range(u + 1, self.n_nodes)
                       if (u, v) not in adjacent]
        rng.shuffle(self.absent)

        # the served path on a tree model: union sweeps under the frozen plan
        tree = _tree_graph(40, self.n_states,
                           attractive_potential(self.n_states, 0.75),
                           np.random.default_rng(self.seed + 1))
        server = InferenceServer(ServerConfig())
        try:
            server.register_model("tree", tree)
            for j, evidence in enumerate(({}, {"3": 1}, {"5": 0, "17": 2})):
                view = tree.copy()
                for node, state in evidence.items():
                    observe(view, node, state)
                resp = server.query("tree", evidence, timeout=60)
                if not resp.ok:
                    tally.fail(f"oracle.tree.{j}:{resp.error}")
                    continue
                _record_oracle(tally, self.errors, f"oracle.tree.{j}",
                               _dense(resp, tree), resp.converged, _oracle(view))
        finally:
            server.stop()

    def setup(self):
        from repro.serve import InferenceServer, ServerConfig

        self.server = InferenceServer(ServerConfig())
        self.server.register_model("m", self.graph.copy())
        resp = self.server.query("m", {}, timeout=60)
        if not resp.ok:
            raise RuntimeError(f"first query failed: {resp.error}")

    def run(self, seconds, tally, probe=None):
        from repro.core.observation import observe
        from repro.credo.runner import Credo
        from repro.serve.admission import AdmissionRejected
        from repro.serve.protocol import QueryRequest
        from repro.stream import GraphDelta

        server = self.server
        model = server.registry.get("m")
        epochs = [model.graph.copy()]
        #: unsettled queries, oldest first:
        #: [due, send, future or None, evidence, epoch, closed loop?, index, clean?]
        pending = deque()
        samples = []  # (epoch, evidence, posteriors, converged) for solo checks
        latencies, lags, total_s, update_ms = [], [], [], []
        counts = {"sent": 0, "hits": 0, "closed_done": 0}

        def settle(entry):
            """Check one answered query and keep only what the metrics need,
            so responses do not pile up in the measured process."""
            due, send, fut, evidence, epoch, closed, index, clean = entry
            counts["closed_done"] += closed
            if fut is None:
                tally.fail("rejected")
                return
            resp = fut.result(60)
            if not resp.ok:
                tally.fail(resp.error or "error")
                return
            total_s.append(resp.timings["total_s"])
            counts["hits"] += bool(resp.cached)
            if not closed:
                lags.append(send - due)
                latencies.append(send - due + resp.timings["total_s"])
            beliefs = _dense(resp, epochs[epoch])
            if clean and not closed and index % self.sample_every == 0:
                samples.append((epoch, evidence, beliefs, bool(resp.converged)))
            else:
                tally.record(check_posteriors(beliefs, bool(resp.converged)))

        def drain():
            while pending and (pending[0][2] is None or pending[0][2].done()):
                settle(pending.popleft())

        def submit(evidence, due, closed):
            send = time.perf_counter()
            try:
                fut = server.submit(QueryRequest(model="m", evidence=dict(evidence))).future
            except AdmissionRejected:
                fut = None
            pending.append([due, send, fut, evidence, len(epochs) - 1, closed,
                            counts["sent"], True])
            counts["sent"] += 1
            if counts["sent"] % self.update_every == 0:
                # a query still unanswered when its model changes may be
                # served by either graph: no solo comparison for it
                drain()
                for entry in pending:
                    entry[7] = False
                u, v = self.absent.pop()
                delta = GraphDelta().add_edge(u, v)
                t0 = time.perf_counter()
                _, result = server.update_model("m", delta)
                update_ms.append(1e3 * (time.perf_counter() - t0))
                epochs.append(result.graph.copy())

        def draw():
            return self.pool[int(self.rng.integers(self.pool_size))]

        with _root(probe):
            # open loop: query i is due at start + i / rate
            start = time.perf_counter()
            open_s = self.open_share * seconds
            i = 0
            while True:
                due = start + i / self.rate
                if due - start >= open_s:
                    break
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                submit(draw(), due, False)
                drain()
                i += 1
            # closed loop: keep `window` requests outstanding
            closed_start = time.perf_counter()
            while time.perf_counter() - closed_start < seconds - open_s:
                while len(pending) < self.window:
                    submit(draw(), time.perf_counter(), True)
                if pending[0][2] is not None:
                    pending[0][2].result(60)
                drain()
            while pending:
                settle(pending.popleft())
            closed_s = time.perf_counter() - closed_start

        solo = Credo.from_server_config(server.config)
        for epoch, evidence, beliefs, converged in samples:
            view = epochs[epoch].copy()
            for node, state in evidence.items():
                observe(view, node, state)
            reference = solo.run(view, plan=model.plan).beliefs
            beliefs = self._planted(beliefs)
            self._track("solo", beliefs, reference)
            tally.record(check_posteriors(beliefs, converged, reference, self.tol))

        ms = [1e3 * x for x in latencies]
        extra = {"query_p50_ms": (median(ms), "ms")}
        tail = tail_percentile(ms)
        if tail is not None:
            extra["query_p90_ms"] = (tail[1], "ms")
        closed_qps = counts["closed_done"] / closed_s
        extra["serve_qps"] = (closed_qps, "1/s")
        extra["update_ms"] = (median(update_ms), "ms") if update_ms else (0.0, "ms")
        extra["generator_lag_p50_ms"] = (1e3 * median(lags), "ms")
        extra["generator_lag_max_ms"] = (1e3 * max(lags), "ms")
        stats = server.stats()
        counters = {
            "serve.update_apply_ms": float(np.mean(update_ms)) if update_ms else 0.0,
            "serve.queue_wait_ms": 1e3 * stats["latency"].get("queue_wait", {}).get("mean_s", 0.0),
            "serve.run_ms": 1e3 * stats["latency"].get("run", {}).get("mean_s", 0.0),
            "serve.batch_size": stats["batch"]["mean_size"],
            "serve.cache_hit_rate": counts["hits"] / max(len(total_s), 1),
            "serve.rejected_frac": stats["rejected_total"] / max(stats["requests_total"], 1),
            "serve.total_s": float(sum(total_s)),
            "serve.answered": float(len(total_s)),
        }
        return Phase(latencies, closed_qps, extra, latencies, counters)

    def teardown(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    close = teardown


def _dense(resp, graph) -> np.ndarray:
    """A response's posteriors as an ``(n, b)`` array in node-id order."""
    return np.array([resp.posteriors[name] for name in graph.node_names],
                    dtype=np.float64)


WORKLOADS = {w.name: w for w in (OneShot, Grid8, StreamChurn, ServeMixed)}
