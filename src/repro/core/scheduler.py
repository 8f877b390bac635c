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
    Propagation*): each element keeps its last residual, raised by the
    changes upstream of it, and each round sweeps the whole eligible
    frontier — every element whose priority is at least the element
    threshold.  Exact priority order costs heap maintenance — O(log n)
    atomic-visible operations per push — which the cost models price
    via :meth:`Schedule.charge`.

``"relaxed"``
    Relaxed concurrent priority scheduling (Aksenov et al., *Relaxed
    Scheduling for Scalable Belief Propagation*): the same frontier
    batches over a MultiQueue-style relaxed queue, which trades strict
    priority order for O(1) contention-free queue operations.  A batch
    that takes the whole frontier needs no order, so the two sweep the
    same elements and differ only in what their queues cost.

Every schedule is a small amount of state over a flat priority/activity
view of the elements (nodes for the per-node paradigm, directed edges
for the per-edge paradigm); the numerical kernels never change.

The §3.5 :class:`WorkQueue` lives here too; the ``repro.core.workqueue``
and ``repro.core.residual`` modules that once re-exported it are gone —
this module is the only home.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.indexset import SlotMap, is_sparse
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
       downstream elements whose inputs changed — with their priorities
       only for the schedules that read them (:attr:`wants_priority`:
       residual and relaxed; sync and the work queue do not);
    4. calls :meth:`charge` so the schedule's bookkeeping cost (queue
       pushes, heap maintenance) lands in the sweep's
       :class:`~repro.core.sweepstats.SweepStats` and is priced by the
       CPU/GPU cost models.
    """

    name: str = "abstract"
    #: does the driver need to compute downstream re-activation sets?
    wants_downstream: bool = True
    #: does :meth:`update` read ``downstream_priority``?  The priority
    #: schedules (residual, relaxed) do, so their downstream list holds
    #: one entry per out-edge, aligned with the priorities, in no set
    #: order.  The work queue reads only the set, which the driver may
    #: then hand over deduplicated (``downstream_priority`` is None)
    wants_priority: bool = True
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
        downstream_priority: np.ndarray | None = None,
    ) -> None:
        """Feed back one sweep's per-element deltas.

        ``downstream`` (optional, duplicates allowed) lists elements whose
        inputs changed; ``downstream_priority`` aligns with it and carries
        the size of the upstream change (a residual lower bound).  The
        driver passes priorities only to schedules that set
        :attr:`wants_priority`.
        """

    def restrict(
        self, elements: np.ndarray, priorities: np.ndarray | None = None
    ) -> None:
        """Limit the *initial* active set to ``elements`` (warm start).

        Incremental re-convergence (:mod:`repro.stream.incremental`)
        calls this once, before the first sweep: a run warm-started from
        a converged state only needs to repopulate the dirty region —
        the normal :meth:`update` feedback then grows the active set as
        far as the perturbation actually propagates.  ``priorities``
        (aligned, optional) carries residual estimates for the priority
        schedules.  Synchronous schedules ignore it: they sweep every
        element anyway, and their warm-start saving is fewer iterations.
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
    wants_priority = False

    def __init__(self, n_elements: int, element_threshold: float):
        super().__init__(n_elements, element_threshold)
        self._all = np.arange(n_elements, dtype=np.int64)

    @property
    def active(self) -> np.ndarray:
        return self._all


class WorkQueueSchedule(Schedule):
    """The paper's §3.5 FIFO queue of unconverged elements."""

    name = "work_queue"
    wants_priority = False

    def __init__(self, n_elements: int, element_threshold: float):
        super().__init__(n_elements, element_threshold)
        self.queue = WorkQueue(n_elements, element_threshold)
        self._last_processed = n_elements

    @property
    def active(self) -> np.ndarray:
        return self.queue.active

    def update(self, processed, deltas, downstream=None, downstream_priority=None):
        self._last_processed = len(processed)
        self.queue.repopulate(deltas, downstream)

    def restrict(self, elements, priorities=None):
        self.queue.seed(np.asarray(elements, dtype=np.int64))

    @property
    def drained(self) -> bool:
        return self.queue.empty

    def charge(self, stats: SweepStats) -> None:
        # clear + atomic pushes (§3.5): one compare-and-push per survivor
        stats.queue_ops += self._last_processed + len(self.queue)
        stats.atomic_ops += len(self.queue)


class ResidualSchedule(Schedule):
    """Lazy max-priority scheduling over per-element residuals.

    Keeps a dense priority array (the batch-parallel equivalent of the
    lazy max-heap: stale entries are overwritten rather than popped) and
    each round processes the whole eligible frontier, every element with
    ``priority >= element_threshold`` — the §3.5 queue's "every element
    that has not yet converged", taken as one batch (Aksenov et al.'s
    frontier batches).  A round carries a fixed per-call cost, so a
    smaller batch would only buy more rounds.  Every element starts
    eligible.

    The eligible set (ascending) is kept incrementally while it is small:
    :meth:`update` and :meth:`restrict` re-examine only the indices they
    write, so a round over a small frontier costs O(frontier), not
    O(n_elements).  A large set (see :mod:`repro.core.indexset`) is kept
    as a mask rebuilt in one pass.
    """

    name = "residual"
    exhaustive = False

    def __init__(self, n_elements: int, element_threshold: float):
        super().__init__(n_elements, element_threshold)
        #: last residual per element; None until first written.  Every
        #: element starts eligible and the first round processes them
        #: all, so no start value is ever read, and a seeded run builds
        #: only the zeros :meth:`restrict` allocates
        self._priority: np.ndarray | None = None
        #: ``priority >= element_threshold`` (None: the all-eligible
        #: start) and, while the eligible set is small, its ascending
        #: indices (None: scan the mask when asked)
        self._is_eligible: np.ndarray | None = None
        self._eligible: np.ndarray | None = None
        self._n_eligible = n_elements
        self._last_processed = 0
        self._last_pushes = 0

    @property
    def priority(self) -> np.ndarray:
        """Per-element priority (the last residual seen, or the largest
        upstream change since)."""
        if self._priority is None:
            self._priority = np.zeros(self.n_elements)
        return self._priority

    # -- eligible set ----------------------------------------------------
    def _eligible_set(self) -> np.ndarray:
        """Ascending indices with ``priority >= element_threshold``."""
        if self._eligible is not None:
            return self._eligible
        if self._is_eligible is None:
            return np.arange(self.n_elements, dtype=np.int64)
        return np.flatnonzero(self._is_eligible)

    def _refresh(self, *written: np.ndarray) -> None:
        """Bring the eligible set up to date after priority writes at the
        indices in ``written`` (duplicates fine)."""
        n_written = sum(len(part) for part in written)
        if not n_written:
            return
        if self._eligible is None or not is_sparse(
            n_written + len(self._eligible), self.n_elements
        ):
            # a large set keeps only the mask, rebuilt in one pass
            self._is_eligible = np.greater_equal(
                self.priority, self.element_threshold, out=self._is_eligible
            )
            self._n_eligible = int(np.count_nonzero(self._is_eligible))
            self._eligible = (
                np.flatnonzero(self._is_eligible)
                if is_sparse(self._n_eligible, self.n_elements)
                else None
            )
            return
        written = np.concatenate(written) if len(written) > 1 else written[0]
        now = self.priority[written] >= self.element_threshold
        was = self._is_eligible[written]
        self._is_eligible[written] = now
        if (was & ~now).any():
            self._eligible = self._eligible[self._is_eligible[self._eligible]]
        gained = written[now & ~was]
        if len(gained):
            # the stable sort (a merge of presorted runs) keeps this
            # O(eligible + gained log gained); duplicates can only come
            # from repeats in ``written``, and sit side by side after it
            merged = np.sort(np.concatenate((self._eligible, gained)), kind="stable")
            self._eligible = merged[np.diff(merged, prepend=-1) != 0]
        self._n_eligible = len(self._eligible)

    @property
    def active(self) -> np.ndarray:
        return self._eligible_set()

    # -- feedback ------------------------------------------------------
    def update(self, processed, deltas, downstream=None, downstream_priority=None):
        self._last_processed = len(processed)
        if len(processed):
            self.priority[processed] = deltas
        pushes = int(np.count_nonzero(deltas >= self.element_threshold))
        if downstream is not None and len(downstream):
            if downstream_priority is None:
                raise ValueError("downstream elements need priorities")
            # lazy-heap insert: keep the larger of the stale and new keys
            np.maximum.at(self.priority, downstream, downstream_priority)
            pushes += len(downstream)
            self._refresh(processed, downstream)
        else:
            self._refresh(processed)
        self._last_pushes = pushes

    def restrict(self, elements, priorities=None):
        # drop the all-eligible start, then mark only the dirty region
        # eligible — the lazy-heap equivalent of seeding the queue
        self._priority = np.zeros(self.n_elements)
        self._is_eligible = np.zeros(self.n_elements, dtype=bool)
        self._eligible = np.empty(0, dtype=np.int64)
        self._n_eligible = 0
        elements = np.asarray(elements, dtype=np.int64)
        if not len(elements):
            return
        if priorities is None:
            self._priority[elements] = np.inf
        else:
            self._priority[elements] = np.maximum(
                np.asarray(priorities, dtype=float), self.element_threshold
            )
        self._refresh(elements)

    @property
    def drained(self) -> bool:
        return self._n_eligible == 0

    def charge(self, stats: SweepStats) -> None:
        # exact priority order: every push pays O(log n) heap levels, each
        # an atomic-visible compare-exchange — the contention the relaxed
        # literature (Aksenov et al.) removes
        depth = max(1, int(math.ceil(math.log2(max(self.n_elements, 2)))))
        stats.queue_ops += self._last_processed + self._last_pushes
        stats.atomic_ops += self._last_pushes * depth


class RelaxedPrioritySchedule(ResidualSchedule):
    """Relaxed concurrent priority queue (Aksenov et al., MultiQueue-style).

    It sweeps the same eligible frontier as :class:`ResidualSchedule`
    (a whole-frontier batch needs no priority order at all), but prices
    its queue as a relaxed one: every push is O(1) and contention-free,
    with no serialized heap root.
    """

    name = "relaxed"

    def charge(self, stats: SweepStats) -> None:
        # relaxed queues: O(1) per push, no serialized heap root — each
        # push is a single atomic to one of many independent queues
        stats.queue_ops += self._last_processed + self._last_pushes
        stats.atomic_ops += self._last_pushes


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
