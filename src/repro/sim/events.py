"""Scheduled-event records for the discrete-event scheduler.

An :class:`EventHandle` is returned by every ``schedule`` call and supports
O(1) cancellation (lazy deletion: the heap entry stays in place but is skipped
when popped).
"""

from __future__ import annotations

from typing import Any, Callable

from ..types import Time

__all__ = ["EventHandle"]


class EventHandle:
    """A pending callback in the simulation's event heap.

    The heap orders ``(time, seq, handle)`` entries; ``seq`` is a
    monotonically increasing insertion counter, so simultaneous events fire
    in the order they were scheduled and a handle itself is never compared.
    This is what makes runs fully deterministic.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: Time, seq: int, callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
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
