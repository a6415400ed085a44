"""Scheduled-event records for the discrete-event scheduler.

An :class:`EventHandle` is returned by every ``schedule`` call and supports
O(1) cancellation (lazy deletion: the heap entry stays in place but is skipped
when popped).  A :class:`Periodic` is the handle of a repeating event
(``schedule_every``): the scheduler's run loop pushes the same handle back
one period after each fire.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..types import Time

__all__ = ["EventHandle", "Periodic"]


class EventHandle:
    """A pending callback in the simulation's event heap.

    The heap orders ``(time, seq, handle)`` entries; ``seq`` is a
    monotonically increasing insertion counter, so simultaneous events fire
    in the order they were scheduled and a handle itself is never compared.
    This is what makes runs fully deterministic.  The entry, not the
    handle, holds the time.
    """

    __slots__ = ("callback", "args", "cancelled")

    #: ``None``: a one-shot event (a :class:`Periodic` sets its own).
    period: Optional[Time] = None

    def __init__(self, callback: Callable[..., None], args: tuple = ()) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; O(1)."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """``True`` while the event has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None


def _noop() -> None:
    pass


class Periodic(EventHandle):
    """A repeating event: fires every ``period``, first one period after it
    was scheduled.

    After each fire the scheduler pushes this same handle back at
    ``(time + period, next seq)`` — what ``schedule(period)`` called at the
    end of the callback would assign — so a tick costs one heap push.
    """

    __slots__ = ("period",)

    #: Stop firing, also from inside the callback.  Idempotent.
    stop = EventHandle.cancel

    def disarm(self) -> None:
        """End the repetition but let the queued tick fire once more, as a
        no-op: a stopped task runtime's *dead tick*, which still counts in
        ``events_fired``.  From inside the callback, no tick follows."""
        self.callback, self.period = _noop, None
