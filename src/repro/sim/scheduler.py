"""Deterministic discrete-event scheduler.

This is the heart of the simulation substrate: a priority queue of timed
callbacks with deterministic tie-breaking.  All higher layers (links,
timers, cooperative tasks, failure schedules) reduce to ``schedule`` calls.

The heap holds ``(time, seq, handle)`` tuples.  ``seq`` is unique, so
``heapq`` orders entries with C-level float and int comparisons and never
reaches the handle.  :meth:`Scheduler.run` is the one loop: one inline
``heappop`` per event, lazy deletion of cancelled entries, and the
callback called directly — no per-event method call besides the callback.
A repeating event (:meth:`Scheduler.schedule_every`) is re-armed by the
same loop, so a periodic tick is one pop and one push of the same handle.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Any, Callable, Optional

from ..errors import ConfigurationError, SimulationError
from ..types import Time
from .events import EventHandle, Periodic

__all__ = ["Scheduler"]


class Scheduler:
    """A virtual-time event loop.

    Events fire in ``(time, seq)`` order: those scheduled for the same
    instant fire in scheduling order, which (together with seeded RNG
    streams, see :mod:`repro.sim.rng`) makes every simulation run
    bit-for-bit reproducible.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[Time, int, EventHandle]] = []
        self._seqs = itertools.count()
        self._now: Time = 0.0
        self._events_fired = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> Time:
        """Current simulated time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    @property
    def pending_count(self) -> int:
        """Number of not-yet-fired, not-cancelled events (approximate upper
        bound: cancelled events are removed lazily)."""
        return sum(1 for e in self._heap if not e[2].cancelled)

    # ------------------------------------------------------------ scheduling
    def schedule_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback(*args)* at absolute simulated *time*.

        Scheduling in the past is rejected: asynchronous systems may delay
        events arbitrarily but never deliver them before they were sent.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        handle = EventHandle(callback, args)
        heapq.heappush(self._heap, (time, next(self._seqs), handle))
        return handle

    def schedule(
        self, delay: Time, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback(*args)* after *delay* time units (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        handle = EventHandle(callback, args)
        heapq.heappush(self._heap, (time, next(self._seqs), handle))
        return handle

    def schedule_every(self, period: Time, callback: Callable[[], None]) -> Periodic:
        """Run *callback()* every *period*, first after one period, until
        the handle's ``stop()``.  :meth:`run` re-arms the handle right
        after each fire (see :class:`~repro.sim.events.Periodic`)."""
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        handle = Periodic(callback)
        handle.period = period
        heapq.heappush(self._heap, (self._now + period, next(self._seqs), handle))
        return handle

    # --------------------------------------------------------------- running
    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` if the heap is empty."""
        return self.run(max_events=1) == 1

    def run(
        self, until: Optional[Time] = None, max_events: Optional[int] = None
    ) -> int:
        """Run events until the heap drains, *until* is reached, or
        *max_events* callbacks have fired (whichever comes first).

        When stopping because of *until* or a drained heap, simulated time
        is advanced to *until* so subsequent relative scheduling behaves
        intuitively.  A stop on *max_events* does the same exactly when no
        live event at or before *until* remains; otherwise it leaves the
        clock at the last event fired.

        A repeating event goes back on the heap right after its callback
        returns, at ``(time + period, next seq)``, unless the callback
        stopped or disarmed it.

        Returns:
            The number of events fired by this call.
        """
        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        stop = math.inf if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        fired = 0
        while heap:
            if fired >= limit:
                # Cancelled entries on top do not count as events left.
                while heap and heap[0][2].cancelled:
                    pop(heap)
                if heap and heap[0][0] <= stop:
                    return fired
                break
            entry = pop(heap)
            time, _, handle = entry
            if handle.cancelled:
                continue
            if time > stop:
                push(heap, entry)
                break
            self._now = time
            self._events_fired += 1
            fired += 1
            period = handle.period
            if period is None:
                callback, args = handle.callback, handle.args
                # Drop references so fired events do not pin their closures
                # alive.
                handle.callback, handle.args = None, ()  # type: ignore[assignment]
                callback(*args)
            else:
                handle.callback()
                if handle.period is not None and not handle.cancelled:
                    push(heap, (time + period, next(self._seqs), handle))
                else:  # stopped or disarmed by its own callback
                    handle.callback = None  # type: ignore[assignment]
        if until is not None and until > self._now:
            self._now = until
        return fired

    def compact(self) -> None:
        """Drop cancelled entries from the heap (housekeeping for very long
        runs with heavy timer churn; never required for correctness).

        The heap is filtered in place, so a callback may call this while
        :meth:`run` is draining it."""
        heap = self._heap
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapq.heapify(heap)
