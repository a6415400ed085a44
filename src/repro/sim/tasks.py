"""Cooperative generator tasks.

The paper's pseudocode is written as concurrent *tasks* containing blocking
``wait until <condition>`` statements.  This module provides a tiny task
runtime that lets the algorithm implementations mirror that pseudocode
almost line for line::

    def round_task(self):
        ...
        yield WaitUntil(lambda: len(self.acks) >= self.majority)
        ...
        yield Sleep(self.period)

Tasks are plain Python generators driven by the deterministic event loop:

* ``yield Sleep(d)`` suspends the task for *d* simulated time units;
* ``yield WaitUntil(pred)`` suspends until *pred()* is true.  Predicates are
  re-evaluated whenever the owning component is *poked* — which happens on
  every message delivery and every local failure-detector output change, the
  only events that can change a predicate's value in these algorithms.

Because tasks only switch at ``yield`` points and the event loop is
deterministic, there are no data races: this models the standard formal
treatment where the adversary controls scheduling through message delays.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Union

from ..errors import TaskError
from ..types import Time
from .events import EventHandle, Periodic
from .scheduler import Scheduler

__all__ = ["Sleep", "WaitUntil", "Task", "TaskRuntime"]


class Sleep:
    """Directive: suspend the yielding task for *duration* time units."""

    __slots__ = ("duration",)

    def __init__(self, duration: Time) -> None:
        if duration < 0:
            raise TaskError(f"negative sleep {duration}")
        self.duration = duration


class WaitUntil:
    """Directive: suspend the yielding task until *predicate()* is true.

    The predicate must be side-effect free: it may be called any number of
    times, including several times at the same instant.
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[], bool]) -> None:
        self.predicate = predicate


Directive = Union[Sleep, WaitUntil, None]
TaskGen = Generator[Directive, None, None]


class Task:
    """A running (or finished) cooperative task."""

    __slots__ = ("gen", "name", "done", "_waiting", "_sleep_handle")

    def __init__(self, gen: TaskGen, name: str) -> None:
        self.gen = gen
        self.name = name
        self.done = False
        self._waiting: Optional[WaitUntil] = None
        self._sleep_handle: Optional[EventHandle] = None

    @property
    def parked(self) -> bool:
        """``True`` while the task is blocked on a :class:`WaitUntil`."""
        return self._waiting is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else ("parked" if self.parked else "running")
        return f"Task({self.name!r}, {state})"


class TaskRuntime:
    """Runs the cooperative tasks of one component, and owns its repeating
    timers."""

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._tasks: List[Task] = []
        self._timers: List[Periodic] = []
        #: ``True`` once :meth:`stop` has run.
        self.stopped = False
        self._poking = False

    # ----------------------------------------------------------- life cycle
    def spawn(self, gen: TaskGen, name: str = "task") -> Task:
        """Start *gen* as a new task and run it until its first suspension."""
        if self.stopped:
            raise TaskError("runtime already stopped")
        task = Task(gen, name)
        self._tasks.append(task)
        self._advance(task)
        return task

    def every(self, period: Time, callback: Callable[[], None]) -> Periodic:
        """Run *callback* every *period* until :meth:`stop` (see
        :meth:`~repro.sim.scheduler.Scheduler.schedule_every`)."""
        timer = self._scheduler.schedule_every(period, callback)
        if self.stopped:
            timer.disarm()
        else:
            self._timers.append(timer)
        return timer

    def stop(self) -> None:
        """Kill all tasks (the owning process crashed, or the component was
        detached).  Each repeating timer's queued tick still fires once, as
        a no-op, and is not re-armed (:meth:`Periodic.disarm`)."""
        self.stopped = True
        for timer in self._timers:
            timer.disarm()
        # A kept timer's callback is bound to the component: a cycle.
        self._timers.clear()
        for task in self._tasks:
            if task._sleep_handle is not None:
                task._sleep_handle.cancel()
                # The handle holds the task (its wake-up argument): a kept
                # handle would leave the pair for the cycle collector.
                task._sleep_handle = None
            task.gen.close()
            task.done = True
        self._tasks.clear()

    @property
    def alive(self) -> int:
        """Number of tasks that have not finished."""
        return sum(1 for t in self._tasks if not t.done)

    # ------------------------------------------------------------- stepping
    def poke(self) -> None:
        """Re-evaluate the wait predicates of every parked task.

        A resumed task may change state that unblocks *another* parked task
        at the same instant, so we loop until a fixed point.  Re-entrant
        pokes (a resumed task delivering a loopback that pokes us again) are
        flattened into the current pass.
        """
        if self.stopped or self._poking or not self._tasks:
            return
        self._poking = True
        try:
            progressed = True
            while progressed:
                progressed = False
                for task in list(self._tasks):
                    if task.done or task._waiting is None:
                        continue
                    if task._waiting.predicate():
                        task._waiting = None
                        self._advance(task)
                        progressed = True
        finally:
            self._poking = False

    def _advance(self, task: Task) -> None:
        """Drive *task* forward until it suspends or finishes."""
        while not self.stopped and not task.done:
            try:
                directive = task.gen.send(None)
            except StopIteration:
                task.done = True
                self._tasks.remove(task)
                return
            if directive is None:
                # Bare ``yield``: let all other events at this instant fire
                # first, then continue.
                directive = Sleep(0.0)
            if isinstance(directive, Sleep):
                task._sleep_handle = self._scheduler.schedule(
                    directive.duration, self._wake, task
                )
                return
            if isinstance(directive, WaitUntil):
                if directive.predicate():
                    continue
                task._waiting = directive
                return
            raise TaskError(f"task {task.name!r} yielded {directive!r}")

    def _wake(self, task: Task) -> None:
        task._sleep_handle = None
        if not self.stopped and not task.done:
            self._advance(task)
            # Waking may have changed state other parked tasks wait on.
            self.poke()
