"""Admission control: bounded queue, deadlines, backpressure.

A production BP service cannot let an unbounded backlog build behind a
slow graph — the paper's target ("serving heavy traffic") implies load
shedding.  The admission queue is strictly bounded: when full, submits
fail *immediately* with :class:`AdmissionRejected` carrying a
``retry_after`` hint derived from the observed service rate, so clients
back off instead of piling on.  Each ticket carries a deadline; tickets
whose deadline passed while queued are answered with a timeout instead
of being run (late answers are wasted work).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["AdmissionRejected", "DeadlineExpired", "Ticket", "AdmissionQueue"]


class AdmissionRejected(RuntimeError):
    """The queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, retry_after: float):
        super().__init__(
            f"admission queue full ({depth} waiting); retry after "
            f"{retry_after:.3f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


class DeadlineExpired(RuntimeError):
    """The request's deadline passed before it could be served."""


@dataclass
class Ticket:
    """One admitted request waiting for (or undergoing) execution."""

    request: Any
    model: str
    enqueued_at: float
    deadline: float | None = None
    future: "_Future" = field(default_factory=lambda: _Future())
    #: the clock that stamped ``enqueued_at`` and ``deadline``
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (self.clock() if now is None else now) > self.deadline


class _Future:
    """Minimal thread-safe future (concurrent.futures-free, no executor)."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None

    def set_result(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("result not ready")
        if self._error is not None:
            raise self._error
        return self._value


class AdmissionQueue:
    """Bounded FIFO with model-affinity batch popping.

    ``submit`` never blocks: it admits or rejects.  The worker side pops
    a *batch* — the head ticket plus up to ``max_batch - 1`` more tickets
    for the same model that are already queued.  It never waits for
    stragglers: under load, tickets pile up while the previous batch runs,
    so batch size follows arrival rate × service time, and a lone query is
    dispatched the moment it arrives.
    """

    def __init__(self, capacity: int, *, clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.clock = clock
        self._tickets: deque[Ticket] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # service-rate estimate for the retry-after hint
        self._ewma_service_s = 0.01

    # -- producer side -------------------------------------------------
    def submit(self, request: Any, model: str, deadline_s: float | None = None) -> Ticket:
        """Admit ``request`` or raise :class:`AdmissionRejected`."""
        now = self.clock()
        with self._not_empty:
            if self._closed:
                raise RuntimeError("admission queue is closed")
            depth = len(self._tickets)
            if depth >= self.capacity:
                retry_after = max(self._ewma_service_s * depth, 1e-3)
                raise AdmissionRejected(depth, retry_after)
            ticket = Ticket(
                request=request,
                model=model,
                enqueued_at=now,
                deadline=None if deadline_s is None else now + deadline_s,
                clock=self.clock,
            )
            self._tickets.append(ticket)
            self._not_empty.notify()
            return ticket

    # -- consumer side -------------------------------------------------
    def pop_batch(self, max_batch: int, timeout: float | None = None) -> list[Ticket]:
        """Pop the next model-affine batch (possibly empty on timeout).

        Blocks until at least one ticket is available (or ``timeout``),
        then takes the same-model tickets already queued, up to
        ``max_batch``, and returns without waiting for more.
        """
        deadline = None if timeout is None else self.clock() + timeout
        with self._not_empty:
            while not self._tickets:
                if self._closed:
                    return []
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    return []
                self._not_empty.wait(remaining)
            head = self._tickets.popleft()
            batch = [head]
            self._gather_same_model(batch, head.model, max_batch)
            return batch

    def _gather_same_model(self, batch: list[Ticket], model: str, max_batch: int) -> None:
        """Move queued tickets of ``model`` into ``batch`` (caller holds lock)."""
        if len(batch) >= max_batch:
            return
        kept: deque[Ticket] = deque()
        while self._tickets and len(batch) < max_batch:
            ticket = self._tickets.popleft()
            if ticket.model == model:
                batch.append(ticket)
            else:
                kept.append(ticket)
        while self._tickets:
            kept.append(self._tickets.popleft())
        self._tickets = kept

    # -- bookkeeping ----------------------------------------------------
    def observe_service_time(self, seconds: float) -> None:
        """Feed one request's service time into the retry-after EWMA."""
        with self._lock:
            self._ewma_service_s = 0.8 * self._ewma_service_s + 0.2 * max(seconds, 0.0)

    def depth(self) -> int:
        with self._lock:
            return len(self._tickets)

    def close(self) -> None:
        """Wake consumers; subsequent submits fail, pops drain then return []."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
