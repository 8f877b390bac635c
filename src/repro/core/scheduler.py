"""Pluggable update-scheduling strategies for loopy BP.

The paper's §3.5 work queue is one point in a larger scheduling design
space.  This module abstracts "which elements does the next sweep
process, and when does the run stop" behind a :class:`Schedule` object so
that the single driver loop in :class:`~repro.core.loopy.LoopyBP` can run
any policy, with any paradigm, through any backend:

``"sync"``
    Full synchronous sweeps — every element, every iteration
    (Algorithm 1 without the §3.5 refinement).

``"work_queue"``
    The paper's §3.5 queue of unconverged elements: after each sweep the
    queue "clears itself and populates atomically with the indices of
    elements which have yet to converge", plus the downstream
    re-enqueueing refinement that keeps the fixed point sound.

``"residual"``
    Max-residual priority scheduling (Gonzalez et al.; Van der Merwe et
    al., *Message Scheduling for Performant, Many-Core Belief
    Propagation*), taken as whole-frontier batches: each round sweeps
    every element that has not yet converged.

``"relaxed"``
    Relaxed concurrent priority scheduling (Aksenov et al., *Relaxed
    Scheduling for Scalable Belief Propagation*): the same frontier
    batches over a MultiQueue-style relaxed queue.

A batch that takes the whole frontier needs no priority order, so the
three frontier schedules sweep exactly the work queue's elements and run
on its bookkeeping (:class:`WorkQueue`).  They differ in what their
queues cost — :meth:`Schedule.charge`, which the CPU/GPU cost models
price — and in when they may stop (:attr:`Schedule.exhaustive`).  The
numerical kernels never change.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.indexset import SlotMap
from repro.core.sweepstats import SweepStats
from repro.telemetry import get_tracer

__all__ = [
    "SCHEDULES",
    "Schedule",
    "SynchronousSchedule",
    "WorkQueueSchedule",
    "ResidualSchedule",
    "RelaxedPrioritySchedule",
    "WorkQueue",
    "make_schedule",
    "normalize_schedule",
]

#: the canonical schedule names, in ablation-ladder order
SCHEDULES = ("sync", "work_queue", "residual", "relaxed")

_ALIASES = {
    "synchronous": "sync",
    "full": "sync",
    "fifo": "work_queue",
    "queue": "work_queue",
    "workqueue": "work_queue",
    "residual_priority": "residual",
    "priority": "residual",
    "splash": "residual",
    "relaxed_priority": "relaxed",
    "multiqueue": "relaxed",
}


def normalize_schedule(name: str) -> str:
    """Canonical schedule name, accepting common aliases."""
    canonical = _ALIASES.get(name, name)
    if canonical not in SCHEDULES:
        raise ValueError(f"unknown schedule {name!r}; known: {list(SCHEDULES)}")
    return canonical


class WorkQueue:
    """Iteration-scoped queue of active element indices (paper §3.5).

    "From profiling, we observe that most nodes converge quickly after a
    few iterations and that graph convergence becomes dependent on a few
    nodes."  The queue therefore holds only the indices of elements
    (nodes for the per-node paradigm, directed edges for the per-edge
    paradigm) that have yet to converge; after every iteration it "clears
    itself and populates atomically with the indices of elements which
    have yet to converge to a given threshold".

    One refinement keeps the fixed point *sound*: when an element is
    still changing, its downstream neighbours are re-enqueued too
    (otherwise a node that converged early would never observe later
    changes upstream) — matching how the residual-scheduling literature
    the paper builds on (Gonzalez et al.) maintains its queues.

    Parameters
    ----------
    n_elements:
        Total number of schedulable elements.
    element_threshold:
        An element is considered locally converged when its own delta
        drops below this value; the loopy driver derives it from the
        global criterion.
    """

    def __init__(self, n_elements: int, element_threshold: float):
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        if element_threshold <= 0:
            raise ValueError("element_threshold must be positive")
        self.n_elements = n_elements
        self.element_threshold = float(element_threshold)
        #: None until first read: a run that is seeded never builds the
        #: every-element start
        self._active: np.ndarray | None = None
        self._slots = SlotMap(n_elements)
        #: cumulative count of queue push operations (cost accounting, §3.5)
        self.pushes = 0
        #: cumulative number of repopulation rounds
        self.rounds = 0

    @property
    def active(self) -> np.ndarray:
        """Indices scheduled for the next sweep (sorted, unique)."""
        if self._active is None:
            self._active = np.arange(self.n_elements, dtype=np.int64)
        return self._active

    def __len__(self) -> int:
        return len(self.active)

    @property
    def empty(self) -> bool:
        return len(self.active) == 0

    def repopulate(
        self,
        deltas: np.ndarray,
        neighbours_of_dirty: np.ndarray | None = None,
    ) -> np.ndarray:
        """Clear and refill the queue after a sweep.

        ``deltas`` holds the per-element change of every element *processed
        this sweep* aligned with the previous active set; elements whose
        delta is still ≥ the threshold stay enqueued.
        ``neighbours_of_dirty`` optionally adds downstream elements that
        must be reconsidered because their inputs changed.
        """
        if len(deltas) != len(self.active):
            raise ValueError("deltas must align with the active set")
        with get_tracer().span("queue.repopulate", cat="schedule") as span:
            dirty = self._active[deltas >= self.element_threshold]
            # Dedup through the slot map: O(pushes) for a small queue, one
            # membership mask over the elements for a large one.
            if neighbours_of_dirty is not None and len(neighbours_of_dirty):
                self._active = self._slots.unique(dirty, neighbours_of_dirty)
            else:
                self._active = dirty
            self.pushes += len(self._active)
            self.rounds += 1
            if span:
                span.set(pushed=int(len(self._active)), round=self.rounds)
        return self._active

    def seed(self, elements: np.ndarray) -> None:
        """Replace the active set with ``elements`` (duplicates fine).

        The warm-start entry point: incremental re-convergence
        (:mod:`repro.stream.incremental`) populates the queue with just
        the dirty region instead of every element.
        """
        elements = np.asarray(elements, dtype=np.int64).reshape(-1)
        self._active = self._slots.unique(elements)
        self.pushes += len(self._active)

    def reset(self) -> None:
        """Re-enqueue every element (start of a run)."""
        self._active = None
        self.pushes = 0
        self.rounds = 0


class Schedule:
    """Which elements the next sweep processes, and when the run drains.

    A schedule is bound to ``n_elements`` flat element indices (nodes or
    directed edges) and the per-element convergence threshold the driver
    derives from the global criterion.  Each driver round:

    1. reads :attr:`active` — the element batch to sweep;
    2. sweeps it (kernels are schedule-agnostic);
    3. calls :meth:`update` with the observed per-element deltas and the
       downstream elements whose inputs changed;
    4. calls :meth:`charge` so the schedule's bookkeeping cost (queue
       pushes, heap maintenance) lands in the sweep's
       :class:`~repro.core.sweepstats.SweepStats` and is priced by the
       CPU/GPU cost models.
    """

    name: str = "abstract"
    #: does the driver need to compute downstream re-activation sets?
    wants_downstream: bool = True
    #: does :attr:`active` cover *every* still-unconverged element each
    #: round?  Exhaustive schedules may also terminate on the global sum
    #: criterion; the others stop only when they drain.
    exhaustive: bool = True

    def __init__(self, n_elements: int, element_threshold: float):
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        if element_threshold <= 0:
            raise ValueError("element_threshold must be positive")
        self.n_elements = n_elements
        self.element_threshold = float(element_threshold)

    @property
    def active(self) -> np.ndarray:
        """Element indices to process this round (int64)."""
        raise NotImplementedError

    def update(
        self,
        processed: np.ndarray,
        deltas: np.ndarray,
        downstream: np.ndarray | None = None,
    ) -> None:
        """Feed back one sweep's per-element deltas.

        ``downstream`` (optional, duplicates allowed, any order) lists
        elements whose inputs changed.
        """

    def restrict(self, elements: np.ndarray) -> None:
        """Limit the *initial* active set to ``elements`` (warm start).

        Incremental re-convergence (:mod:`repro.stream.incremental`)
        calls this once, before the first sweep: a run warm-started from
        a converged state only needs to repopulate the dirty region —
        the normal :meth:`update` feedback then grows the active set as
        far as the perturbation actually propagates.  Synchronous
        schedules ignore it: they sweep every element anyway, and their
        warm-start saving is fewer iterations.
        """

    @property
    def drained(self) -> bool:
        """True when every element individually passed its convergence
        check — the §3.5 termination condition."""
        return False

    def charge(self, stats: SweepStats) -> None:
        """Account this round's scheduling overhead into ``stats``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n_elements}>"


class SynchronousSchedule(Schedule):
    """Full sweeps: every element, every round, no queue bookkeeping."""

    name = "sync"
    wants_downstream = False

    def __init__(self, n_elements: int, element_threshold: float):
        super().__init__(n_elements, element_threshold)
        self._all = np.arange(n_elements, dtype=np.int64)

    @property
    def active(self) -> np.ndarray:
        return self._all


class WorkQueueSchedule(Schedule):
    """The paper's §3.5 FIFO queue of unconverged elements."""

    name = "work_queue"

    def __init__(self, n_elements: int, element_threshold: float):
        super().__init__(n_elements, element_threshold)
        self.queue = WorkQueue(n_elements, element_threshold)
        self._last_processed = n_elements

    @property
    def active(self) -> np.ndarray:
        return self.queue.active

    def update(self, processed, deltas, downstream=None):
        self._last_processed = len(processed)
        self.queue.repopulate(deltas, downstream)

    def restrict(self, elements):
        self.queue.seed(np.asarray(elements, dtype=np.int64))

    @property
    def drained(self) -> bool:
        return self.queue.empty

    def charge(self, stats: SweepStats) -> None:
        # clear + atomic pushes (§3.5): one compare-and-push per survivor
        pushes = len(self.queue.active)
        stats.queue_ops += self._last_processed + pushes
        stats.atomic_ops += pushes


class ResidualSchedule(WorkQueueSchedule):
    """Max-residual priority scheduling, as whole-frontier batches.

    Each round takes every element that has not yet converged, plus the
    elements downstream of a change — the §3.5 queue's active set — so
    no priority value ever chooses what a round sweeps, and the queue's
    bookkeeping is all it needs.  What differs is the modeled cost of
    the queue: an exact priority queue pays O(log n) heap levels per
    push, each an atomic-visible compare-exchange.
    """

    name = "residual"
    #: the priority names stop only when the queue drains, never on the
    #: global criterion, as they always have: their runs keep their bits
    exhaustive = False

    def __init__(self, n_elements: int, element_threshold: float):
        super().__init__(n_elements, element_threshold)
        # exact priority order: every push pays O(log n) heap levels, each
        # an atomic-visible compare-exchange — the contention the relaxed
        # literature (Aksenov et al.) removes
        self._depth = max(1, int(math.ceil(math.log2(max(n_elements, 2)))))

    def charge(self, stats: SweepStats) -> None:
        pushes = len(self.queue.active)
        stats.queue_ops += self._last_processed + pushes
        stats.atomic_ops += pushes * self._depth


class RelaxedPrioritySchedule(WorkQueueSchedule):
    """Relaxed concurrent priority queue (Aksenov et al., MultiQueue-style).

    It sweeps the same frontier as :class:`ResidualSchedule` (a
    whole-frontier batch needs no priority order at all), but prices its
    queue as a MultiQueue: every push is one contention-free atomic into
    one of many independent queues, and every pop compares the heads of
    two of them.
    """

    name = "relaxed"
    exhaustive = False  # as residual

    def charge(self, stats: SweepStats) -> None:
        # relaxed queues: O(1) per push, no serialized heap root — each
        # push is a single atomic; each pop reads two queue heads
        pushes = len(self.queue.active)
        stats.queue_ops += 2 * self._last_processed + pushes
        stats.atomic_ops += pushes


def make_schedule(name: str, n_elements: int, element_threshold: float) -> Schedule:
    """Instantiate a schedule by canonical (or aliased) name."""
    canonical = normalize_schedule(name)
    if canonical == "sync":
        return SynchronousSchedule(n_elements, element_threshold)
    if canonical == "work_queue":
        return WorkQueueSchedule(n_elements, element_threshold)
    if canonical == "residual":
        return ResidualSchedule(n_elements, element_threshold)
    return RelaxedPrioritySchedule(n_elements, element_threshold)
