"""Tests for the discrete-event scheduler."""

import functools

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sim import EventHandle, Periodic, Scheduler
from repro.sim.tasks import TaskRuntime


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Scheduler().now == 0.0

    def test_fires_in_time_order(self):
        sched = Scheduler()
        fired = []
        sched.schedule(3.0, fired.append, "c")
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(2.0, fired.append, "b")
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sched = Scheduler()
        fired = []
        for label in "abcde":
            sched.schedule(1.0, fired.append, label)
        sched.run()
        assert fired == list("abcde")

    def test_time_advances_to_event_time(self):
        sched = Scheduler()
        seen = []
        sched.schedule(5.0, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [5.0]

    def test_schedule_at_absolute_time(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(7.0, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [7.0]

    def test_rejects_past_scheduling(self):
        sched = Scheduler()
        sched.schedule(5.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.schedule_at(1.0, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Scheduler().schedule(-1.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sched = Scheduler()
        fired = []

        def outer():
            fired.append(("outer", sched.now))
            sched.schedule(2.0, inner)

        def inner():
            fired.append(("inner", sched.now))

        sched.schedule(1.0, outer)
        sched.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_zero_delay_fires_after_current_event(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, lambda: (fired.append("first"),
                                     sched.schedule(0.0, fired.append, "zero")))
        sched.schedule(1.0, fired.append, "second")
        sched.run()
        assert fired == ["first", "second", "zero"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = Scheduler()
        fired = []
        handle = sched.schedule(1.0, fired.append, "x")
        handle.cancel()
        sched.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sched = Scheduler()
        handle = sched.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sched.run() == 0

    def test_pending_count_excludes_cancelled(self):
        sched = Scheduler()
        handles = [sched.schedule(1.0, lambda: None) for _ in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        assert sched.pending_count == 2

    def test_compact_removes_cancelled(self):
        sched = Scheduler()
        keep = sched.schedule(2.0, lambda: None)
        for _ in range(10):
            sched.schedule(1.0, lambda: None).cancel()
        sched.compact()
        assert len(sched._heap) == 1
        assert sched._heap[0][2] is keep


class TestRunLimits:
    def test_run_until_stops_and_advances_clock(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(10.0, fired.append, "b")
        sched.run(until=5.0)
        assert fired == ["a"]
        assert sched.now == 5.0
        sched.run()
        assert fired == ["a", "b"]

    def test_max_events(self):
        sched = Scheduler()
        fired = []
        for i in range(10):
            sched.schedule(float(i + 1), fired.append, i)
        assert sched.run(max_events=3) == 3
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False

    def test_events_fired_counter(self):
        sched = Scheduler()
        for i in range(5):
            sched.schedule(1.0, lambda: None)
        sched.run()
        assert sched.events_fired == 5

    def test_run_empty_returns_zero(self):
        assert Scheduler().run() == 0


class TestDeterminismProperty:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_any_delay_set_fires_in_sorted_stable_order(self, delays):
        sched = Scheduler()
        fired = []
        for i, d in enumerate(delays):
            sched.schedule(d, fired.append, (d, i))
        sched.run()
        # Stable sort by time: equal times keep insertion order.
        assert fired == sorted(
            [(d, i) for i, d in enumerate(delays)], key=lambda x: (x[0], x[1])
        )

    @given(st.integers(min_value=1, max_value=30))
    def test_chained_scheduling_advances_monotonically(self, n):
        sched = Scheduler()
        times = []

        def tick(remaining):
            times.append(sched.now)
            if remaining:
                sched.schedule(1.0, tick, remaining - 1)

        sched.schedule(0.0, tick, n)
        sched.run()
        assert times == [float(i) for i in range(n + 1)]


class SortedListScheduler:
    """The scheduler's rules written over a list kept sorted by
    ``(time, seq)``.  A cancelled entry stays listed until a drain reaches
    it; a ``max_events`` stop advances to *until* exactly when no live
    entry at or before *until* is left."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self.entries = []
        self.seq = 0

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise SimulationError("past")
        handle = EventHandle(callback, args)
        self.entries.append((time, self.seq, handle))
        self.seq += 1
        self.entries.sort(key=lambda e: e[:2])
        return handle

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError("negative")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_every(self, period, callback):
        if period <= 0:
            raise ConfigurationError("period")
        return ReArmingTimer(self, period, callback)

    def step(self):
        return self.run(max_events=1) == 1

    def compact(self):
        self.entries = [e for e in self.entries if not e[2].cancelled]

    def run(self, until=None, max_events=None):
        fired = 0
        while self.entries:
            if max_events is not None and fired >= max_events:
                if any(not h.cancelled and (until is None or t <= until)
                       for t, _, h in self.entries):
                    return fired
                break
            time, _, head = self.entries[0]
            live = not head.cancelled
            if live and until is not None and time > until:
                break
            del self.entries[0]
            if live:
                self.now = time
                callback, args = head.callback, head.args
                head.callback, head.args = None, ()
                self.events_fired += 1
                fired += 1
                callback(*args)
        if until is not None and until > self.now:
            self.now = until
        return fired


class ReArmingTimer:
    """A repeating timer as one-shot events: each tick runs the callback,
    then schedules the next tick with ``schedule(period)``.  After
    ``disarm()`` the queued tick still fires, doing nothing, and schedules
    no other."""

    def __init__(self, sched, period, callback):
        self.sched, self.period, self.callback = sched, period, callback
        self.running, self.armed = True, True
        self.handle = sched.schedule(period, self._tick)

    def _tick(self):
        if self.running and self.armed:
            self.callback()
            if self.running and self.armed:
                self.handle = self.sched.schedule(self.period, self._tick)

    def cancel(self):
        self.running = False
        self.handle.cancel()

    stop = cancel

    def disarm(self):
        self.armed = False


class TimerList:
    """A task runtime's rule for its repeating timers: stopping it disarms
    each, and a timer made after the stop is disarmed at once."""

    def __init__(self, sched):
        self.sched, self.timers, self.stopped = sched, [], False

    def every(self, period, callback):
        timer = self.sched.schedule_every(period, callback)
        if self.stopped:
            timer.disarm()
        else:
            self.timers.append(timer)
        return timer

    def stop(self):
        self.stopped = True
        for timer in self.timers:
            timer.disarm()


TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 7.0])
ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.5, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("compact"), st.none()),
    st.tuples(st.just("stop_self"), st.none()),
    st.tuples(st.just("stop_runtime"), st.none()),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0]),
                  ACTIONS),
        st.tuples(st.just("schedule_at"), TIMES, ACTIONS),
        st.tuples(st.just("every"), st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                  ACTIONS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("stop_runtime"),),
        st.tuples(st.just("step"),),
        st.tuples(st.just("compact"),),
        st.tuples(st.just("run"), st.none() | TIMES, st.none() | st.integers(0, 4)),
    ),
    max_size=40,
)


def drive(sched, ops, runtime):
    """Apply *ops* to *sched*; return what was observable after each call,
    and every handle it gave out.  Repeating timers belong to *runtime*, as
    a component's do; ``stop_runtime`` stops it (a crash)."""
    fired, handles, seen = [], [], []
    add = handles.append

    def fire(ident, action):
        fired.append((ident, sched.now))
        if action is None:
            return
        kind, arg = action
        if kind == "spawn":
            add(sched.schedule(arg, fire, len(handles), None))
        elif kind == "compact":
            sched.compact()
        elif kind == "stop_self":
            handles[ident].cancel()
        elif kind == "stop_runtime":
            runtime.stop()
        else:
            handles[arg % len(handles)].cancel()

    for op in ops:
        kind = op[0]
        try:
            if kind == "schedule":
                result = add(sched.schedule(op[1], fire, len(handles), op[2]))
            elif kind == "schedule_at":
                result = add(sched.schedule_at(op[1], fire, len(handles), op[2]))
            elif kind == "every":
                tick = functools.partial(fire, len(handles), op[2])
                result = add(runtime.every(op[1], tick))
            elif kind == "cancel":
                result = handles[op[1] % len(handles)].cancel() if handles else None
            elif kind == "stop_runtime":
                result = runtime.stop()
            elif kind == "step":
                result = sched.step()
            elif kind == "compact":
                result = sched.compact()
            else:
                until, limit = op[1], op[2]
                if until is None and limit is None:
                    limit = 60  # a live repeating timer never drains
                result = sched.run(until=until, max_events=limit)
        except (ConfigurationError, SimulationError) as exc:
            result = type(exc).__name__
        seen.append((result, sched.now, sched.events_fired, list(fired)))
    return seen, handles


class TestDrainMatchesSortedList:
    @given(OPS)
    # The first run drops the cancelled entry past its *until*; the
    # max_events stop then has nothing live left, so it advances to 7.0.
    @example([("schedule", 1.0, None), ("schedule", 4.0, None), ("cancel", 1),
              ("run", 2.0, None), ("schedule", 0.5, None), ("run", 7.0, 1)])
    # A repeating timer, a one-shot at its second tick (2.0) cancelling
    # it, then a timer stopping itself on its first tick.
    @example([("every", 1.0, None), ("schedule", 2.0, ("cancel", 0)),
              ("every", 0.5, ("stop_self", None)), ("run", 7.0, None)])
    # A one-shot stops the runtime at 1.0, the same instant as the timer's
    # first tick but queued after it: the tick at 2.0 is a dead fire.
    @example([("every", 1.0, None), ("schedule", 1.0, ("stop_runtime", None)),
              ("run", 7.0, None)])
    # A timer that stops the runtime from its own callback: no dead fire;
    # a timer made on the stopped runtime: exactly one.
    @example([("every", 2.5, ("stop_runtime", None)), ("run", 7.0, None),
              ("every", 0.5, None), ("run", None, None)])
    # A tick that schedules an event one period ahead: the event fires
    # before the next tick, which is re-armed after the callback.
    @example([("every", 0.5, ("spawn", 0.5)), ("run", 2.0, None)])
    # A second runtime stop leaves a timer made after the first, and
    # already dead-fired, alone.
    @example([("stop_runtime",), ("every", 0.5, None), ("step",),
              ("stop_runtime",)])
    def test_same_fire_order_clock_and_counts(self, ops):
        sched = Scheduler()
        seen, handles = drive(sched, ops, TaskRuntime(sched))
        oracle = SortedListScheduler()
        assert seen == drive(oracle, ops, TimerList(oracle))[0]
        fired = {ident for ident, _ in seen[-1][3]} if seen else set()
        for ident in fired:
            handle = handles[ident]
            if not isinstance(handle, Periodic):
                assert not handle.pending
                assert handle.callback is None and handle.args == ()
        assert sched.pending_count == sum(h.pending for h in handles)

    def test_runtime_stop_gives_exactly_one_dead_fire(self):
        sched = Scheduler()
        runtime = TaskRuntime(sched)
        ticks = []
        runtime.every(1.0, lambda: ticks.append(sched.now))
        sched.schedule(2.5, runtime.stop)
        assert sched.run(until=10.0) == 4  # ticks at 1 and 2, stop, dead 3
        assert ticks == [1.0, 2.0]
        late = runtime.every(1.0, lambda: ticks.append("late"))
        assert sched.run(until=20.0) == 1 and ticks == [1.0, 2.0]
        assert not late.pending and sched.pending_count == 0

    def test_max_events_stop_leaves_clock_at_last_event(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(2.0, fired.append, "b")
        assert sched.run(until=5.0, max_events=1) == 1
        assert fired == ["a"]
        assert sched.now == 1.0

    def test_max_events_stop_past_only_cancelled_advances_to_until(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None).cancel()
        assert sched.run(until=5.0, max_events=1) == 1
        assert sched.now == 5.0

    def test_max_events_stop_with_nothing_live_before_until_advances(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(7.0, fired.append, "b")
        assert sched.run(until=5.0, max_events=1) == 1
        assert fired == ["a"]
        assert sched.now == 5.0
        assert sched.pending_count == 1
