"""The pluggable scheduling layer: parity, shim, units, integration.

The headline contract: all four schedules × both paradigms reach the
same fixed point.  Plus unit coverage of each Schedule class, the
deprecated ``work_queue`` shim, schedule-qualified registry names,
Credo schedule selection and the per-schedule gpusim cost hooks.
"""

import warnings

import numpy as np
import pytest

from repro.backends.registry import CORE_BACKENDS, get_backend
from repro.core.convergence import ConvergenceCriterion
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.scheduler import (
    SCHEDULES,
    RelaxedPrioritySchedule,
    ResidualSchedule,
    SynchronousSchedule,
    WorkQueueSchedule,
    make_schedule,
    normalize_schedule,
)
from repro.core.sweepstats import SweepStats
from repro.credo.runner import Credo
from tests.conftest import make_loopy_graph, make_tree_graph

TIGHT = ConvergenceCriterion(threshold=1e-7, max_iterations=2000)


def _grid():
    return make_loopy_graph(seed=5, n_nodes=16, n_edges=24)


class TestSchedulerParity:
    """Same fixed point, any schedule, any paradigm (acceptance bound 1e-6)."""

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_tree_fixed_point(self, paradigm, schedule):
        ref = LoopyBP(paradigm=paradigm, schedule="sync", criterion=TIGHT).run(
            make_tree_graph(seed=3)
        )
        run = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=TIGHT).run(
            make_tree_graph(seed=3)
        )
        assert run.converged
        np.testing.assert_allclose(run.beliefs, ref.beliefs, atol=1e-6)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_grid_fixed_point(self, paradigm, schedule):
        ref = LoopyBP(paradigm=paradigm, schedule="sync", criterion=TIGHT).run(_grid())
        run = LoopyBP(paradigm=paradigm, schedule=schedule, criterion=TIGHT).run(_grid())
        assert run.converged
        np.testing.assert_allclose(run.beliefs, ref.beliefs, atol=1e-6)

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_already_converged_graph_terminates_identically(self, paradigm):
        """Satellite: on a graph whose first sweep already satisfies the
        criterion, sync and work_queue exit on the same iteration (the
        old duplicated loops each re-evaluated the break guard here)."""
        loose = ConvergenceCriterion(threshold=50.0, max_iterations=50)
        results = {
            s: LoopyBP(paradigm=paradigm, schedule=s, criterion=loose).run(
                make_tree_graph(seed=9)
            )
            for s in ("sync", "work_queue")
        }
        assert all(r.converged for r in results.values())
        assert results["sync"].iterations == results["work_queue"].iterations == 1


class TestFloat32Floor:
    def test_edge_work_queue_drains_below_the_float32_floor(self):
        """At a criterion below float32 resolution, sub-floor node changes
        must not re-enqueue their out-edges: the edge work queue drains
        in the iterations the priority names take, not at the cap."""
        from repro.graphs import grid_graph

        crit = ConvergenceCriterion(1e-8, 500)
        runs = {
            s: LoopyBP(paradigm="edge", schedule=s, criterion=crit).run(
                grid_graph(32, 32, n_states=2, seed=3, coupling=0.6)
            )
            for s in ("work_queue", "residual")
        }
        assert runs["work_queue"].converged
        assert runs["work_queue"].iterations == runs["residual"].iterations == 12


class TestDeprecationShim:
    def test_shim_selects_matching_schedule_class(self):
        from repro.core.loopy import _NodePlan
        from repro.core.state import LoopyState

        for name, expected in (("work_queue", WorkQueueSchedule), ("sync", SynchronousSchedule)):
            cfg = LoopyConfig(schedule=name)
            state = LoopyState(make_tree_graph(seed=1))
            plan = _NodePlan(state, cfg)
            sched = make_schedule(cfg.schedule, plan.n_elements, plan.element_threshold)
            assert isinstance(sched, expected)

    def test_schedule_api_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LoopyConfig(schedule="residual")
            LoopyBP(schedule="relaxed")

    def test_workqueue_module_is_gone(self):
        import importlib
        import sys

        sys.modules.pop("repro.core.workqueue", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.workqueue")
        from repro.core.scheduler import WorkQueue  # canonical home

        assert WorkQueue is not None

    def test_residual_module_is_gone(self):
        import importlib
        import sys

        sys.modules.pop("repro.core.residual", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.residual")
        from repro.core.scheduler import ResidualSchedule  # canonical home

        assert ResidualSchedule is not None


class TestScheduleUnits:
    def test_normalize_aliases(self):
        assert normalize_schedule("fifo") == "work_queue"
        assert normalize_schedule("splash") == "residual"
        assert normalize_schedule("multiqueue") == "relaxed"
        with pytest.raises(ValueError, match="unknown schedule"):
            normalize_schedule("lifo")

    def test_sync_is_exhaustive_and_full(self):
        s = SynchronousSchedule(5, 1e-3)
        assert s.exhaustive and not s.wants_downstream
        np.testing.assert_array_equal(s.active, np.arange(5))
        assert not s.drained

    def test_work_queue_drains(self):
        s = WorkQueueSchedule(4, 1e-3)
        assert len(s.active) == 4
        s.update(s.active, np.zeros(4))
        assert s.drained

    def test_residual_active_is_the_eligible_set(self):
        s = ResidualSchedule(10, 1e-3)
        np.testing.assert_array_equal(s.active, np.arange(10))
        # every element at or above the threshold, in ascending order —
        # not a top slice of them — plus the downstream elements
        s.update(
            np.arange(10),
            np.array([0.0, 9, 0.5, 8, 1e-3, 7, 0.5, 1e-4, 0.5, 0.5]),
        )
        np.testing.assert_array_equal(s.active, [1, 2, 3, 4, 5, 6, 8, 9])
        s.update(s.active, np.array([0.0, 2, 0, 0, 0, 0, 0, 0]), downstream=np.array([7, 7, 0]))
        np.testing.assert_array_equal(s.active, [0, 2, 7])

    def test_residual_downstream_boost(self):
        s = ResidualSchedule(4, 1e-3)
        s.update(np.arange(4), np.zeros(4))
        assert s.drained
        s.update(np.empty(0, np.int64), np.empty(0), downstream=np.array([2]))
        assert not s.drained
        np.testing.assert_array_equal(s.active, [2])

    def test_relaxed_sweeps_what_residual_sweeps(self):
        rng = np.random.default_rng(7)
        exact, relaxed = ResidualSchedule(50, 1e-3), RelaxedPrioritySchedule(50, 1e-3)
        for _ in range(6):
            active = exact.active
            np.testing.assert_array_equal(relaxed.active, active)
            deltas = rng.exponential(2e-3, size=len(active))
            downstream = rng.integers(0, 50, size=8)
            exact.update(active, deltas, downstream)
            relaxed.update(active, deltas, downstream)
        np.testing.assert_array_equal(relaxed.active, exact.active)
        assert relaxed.drained == exact.drained

    def test_charges_differ_by_schedule(self):
        """FIFO pays O(1)/push, residual O(log n)/push, relaxed O(1)."""
        charged = {}
        for name in ("work_queue", "residual", "relaxed"):
            s = make_schedule(name, 1024, 1e-3)
            s.update(np.arange(1024), np.full(1024, 1.0))
            stats = SweepStats()
            s.charge(stats)
            charged[name] = stats.atomic_ops
        assert charged["residual"] == 10 * charged["relaxed"]
        assert charged["work_queue"] <= charged["relaxed"] + 1024


class TestBackendIntegration:
    @pytest.mark.parametrize("name", CORE_BACKENDS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_every_core_backend_runs_every_schedule(self, name, schedule):
        result = get_backend(name).run(_grid(), schedule=schedule)
        assert result.converged
        assert result.detail["schedule"] == schedule
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-3)

    def test_schedule_qualified_registry_names(self):
        backend = get_backend("c-node:residual")
        assert backend.default_schedule == "residual"
        result = backend.run(_grid())
        assert result.detail["schedule"] == "residual"

    def test_openacc_coerces_to_sync(self):
        result = get_backend("openacc").run(_grid(), schedule="residual")
        assert result.detail["schedule"] == "sync"

    def test_gpusim_modeled_time_differs_across_schedules(self):
        """The cost hooks fire: per-schedule queue/atomic pricing shows
        up in modeled_time on a non-trivial graph."""
        g = make_loopy_graph(seed=11, n_nodes=400, n_edges=1200, coupling=0.85)
        crit = ConvergenceCriterion(threshold=1e-5, max_iterations=300)
        times = {
            s: get_backend("cuda-edge").run(g.copy(), schedule=s, criterion=crit).modeled_time
            for s in SCHEDULES
        }
        assert len({round(t, 9) for t in times.values()}) == len(SCHEDULES)

    def test_gpusim_breakdown_has_queue_component(self):
        result = get_backend("cuda-node").run(_grid(), schedule="work_queue")
        assert result.detail["breakdown"].queue > 0.0
        sync = get_backend("cuda-node").run(_grid(), schedule="sync")
        assert sync.detail["breakdown"].queue == 0.0


class TestCredoSchedules:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_run_with_pinned_schedule(self, schedule):
        result = Credo(schedule=schedule).run(_grid())
        assert result.converged
        assert result.detail["schedule"] == schedule

    def test_qualified_backend_name(self):
        result = Credo().run(_grid(), backend="c-edge:relaxed")
        assert result.backend == "c-edge"
        assert result.detail["selected"] == "c-edge"
        assert result.detail["schedule"] == "relaxed"

    def test_selector_picks_a_valid_schedule(self):
        credo = Credo()
        g = _grid()
        chosen = credo.select_schedule(g)
        assert chosen in SCHEDULES
        result = credo.run(g)
        assert result.detail["schedule"] in SCHEDULES

    def test_unpinned_schedule_is_the_work_queue(self):
        """``residual`` and ``relaxed`` run the work queue's sweeps, so
        Credo has no schedule to choose: it keeps the §3.5 queue unless
        one is pinned."""
        g = _grid()
        assert Credo().select_schedule(g) == "work_queue"
        assert Credo(schedule="relaxed").select_schedule(g) == "relaxed"
        assert Credo().run(g).detail["schedule"] == "work_queue"
