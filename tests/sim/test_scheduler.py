"""Tests for the discrete-event scheduler."""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import SimulationError
from repro.sim import EventHandle, Scheduler


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
        handle = EventHandle(time, self.seq, callback, args)
        self.seq += 1
        self.entries.append(handle)
        self.entries.sort(key=lambda e: (e.time, e.seq))
        return handle

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError("negative")
        return self.schedule_at(self.now + delay, callback, *args)

    def step(self):
        return self.run(max_events=1) == 1

    def compact(self):
        self.entries = [e for e in self.entries if not e.cancelled]

    def run(self, until=None, max_events=None):
        fired = 0
        while self.entries:
            if max_events is not None and fired >= max_events:
                if any(not e.cancelled and (until is None or e.time <= until)
                       for e in self.entries):
                    return fired
                break
            head = self.entries[0]
            live = not head.cancelled
            if live and until is not None and head.time > until:
                break
            del self.entries[0]
            if live:
                self.now = head.time
                callback, args = head.callback, head.args
                head.callback, head.args = None, ()
                self.events_fired += 1
                fired += 1
                callback(*args)
        if until is not None and until > self.now:
            self.now = until
        return fired


TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 7.0])
ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.5, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("compact"), st.none()),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0]),
                  ACTIONS),
        st.tuples(st.just("schedule_at"), TIMES, ACTIONS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("step"),),
        st.tuples(st.just("compact"),),
        st.tuples(st.just("run"), st.none() | TIMES, st.none() | st.integers(0, 4)),
    ),
    max_size=40,
)


def drive(sched, ops):
    """Apply *ops* to *sched*; return what was observable after each call,
    and every handle it gave out."""
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
        else:
            handles[arg % len(handles)].cancel()

    for op in ops:
        kind = op[0]
        try:
            if kind == "schedule":
                result = add(sched.schedule(op[1], fire, len(handles), op[2]))
            elif kind == "schedule_at":
                result = add(sched.schedule_at(op[1], fire, len(handles), op[2]))
            elif kind == "cancel":
                result = handles[op[1] % len(handles)].cancel() if handles else None
            elif kind == "step":
                result = sched.step()
            elif kind == "compact":
                result = sched.compact()
            else:
                result = sched.run(until=op[1], max_events=op[2])
        except SimulationError:
            result = "error"
        seen.append((result, sched.now, sched.events_fired, list(fired)))
    return seen, handles


class TestDrainMatchesSortedList:
    @given(OPS)
    # The first run drops the cancelled entry past its *until*; the
    # max_events stop then has nothing live left, so it advances to 7.0.
    @example([("schedule", 1.0, None), ("schedule", 4.0, None), ("cancel", 1),
              ("run", 2.0, None), ("schedule", 0.5, None), ("run", 7.0, 1)])
    def test_same_fire_order_clock_and_counts(self, ops):
        sched = Scheduler()
        seen, handles = drive(sched, ops)
        assert seen == drive(SortedListScheduler(), ops)[0]
        fired = {ident for ident, _ in seen[-1][3]} if seen else set()
        for ident in fired:
            handle = handles[ident]
            assert not handle.pending
            assert handle.callback is None and handle.args == ()
        assert sched.pending_count == sum(h.pending for h in handles)

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
