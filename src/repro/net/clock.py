"""Clocks for the live runtime — the :class:`~repro.sim.api.SchedulerAPI`
implementations that replace the simulator's virtual-time heap.

Two clocks cover the two ways the runtime is used:

* :class:`AsyncioClock` — wall time.  ``now`` is seconds since the clock
  started (so traces from a live run have the same "starts at 0" shape as
  simulated ones), ``schedule`` maps to ``loop.call_later`` and
  ``schedule_every`` to a handle that re-arms its own ``call_later`` after
  each fire.  Components' timers, periodic tasks, and ``Sleep`` directives
  all become real asyncio timers with no component-code changes.
* :class:`VirtualClock` — a thin veneer over the simulator's deterministic
  :class:`~repro.sim.scheduler.Scheduler`.  Used with the loopback transport
  it makes an entire multi-node *runtime* cluster (host adapters, codec,
  transport framing, fault step and all) bit-for-bit reproducible, which is
  what the sim↔net parity tests run on.

:class:`SkewedClock` is the fault-injection veneer over either: a per-node
proxy whose ``now`` reads *offset* seconds away from the shared underlying
clock.  The scenario layer's ``skew`` verb mutates the offset at runtime,
which is how a cluster gives each node its own (deliberately wrong) notion
of time without forking the timer machinery.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from ..errors import ConfigurationError, SimulationError
from ..sim.scheduler import Scheduler
from ..types import Time

__all__ = ["AsyncioTimerHandle", "AsyncioClock", "VirtualClock", "SkewedClock"]


class AsyncioTimerHandle:
    """Cancellable wrapper over an asyncio timer (TimerHandleAPI)."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True
        self._handle.cancel()

    # A repeating timer's ``stop``; wall time counts no events, so its
    # ``disarm`` (the simulator's dead tick) is a cancel too.
    stop = disarm = cancel


class AsyncioClock:
    """Wall-clock scheduler over an asyncio event loop.

    The zero point is fixed at construction (or explicitly via
    :meth:`rebase`): ``now`` counts seconds from there, keeping live traces
    comparable with simulated ones and keeping ``schedule_at`` meaningful.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop
        self._t0: Optional[float] = None
        if loop is not None:
            self._t0 = loop.time()

    # ------------------------------------------------------------- lifecycle
    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop, bound lazily to the running loop on first use."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            if self._t0 is None:
                self._t0 = self._loop.time()
        return self._loop

    def rebase(self) -> None:
        """Reset the zero point to the current instant (run start)."""
        self._t0 = self.loop.time()

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> Time:
        """Seconds elapsed since the zero point."""
        if self._t0 is None:
            return 0.0
        return self.loop.time() - self._t0

    # ------------------------------------------------------------ scheduling
    def schedule(
        self, delay: Time, callback: Callable[..., None], *args: Any
    ) -> AsyncioTimerHandle:
        """Run ``callback(*args)`` after *delay* seconds of wall time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return AsyncioTimerHandle(self.loop.call_later(delay, callback, *args))

    def schedule_every(
        self, period: Time, callback: Callable[[], None]
    ) -> AsyncioTimerHandle:
        """Run ``callback()`` every *period* seconds until ``stop()``:
        each fire re-arms the same handle with ``call_later(period)`` after
        the callback, like the simulator's run loop."""
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        loop = self.loop

        def fire() -> None:
            callback()
            if not timer.cancelled:
                timer._handle = loop.call_later(period, fire)

        timer = AsyncioTimerHandle(loop.call_later(period, fire))
        return timer

    def schedule_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> AsyncioTimerHandle:
        """Run ``callback(*args)`` at absolute clock time *time*."""
        delay = time - self.now
        if delay < -1e-9:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self.schedule(max(delay, 0.0), callback, *args)


class SkewedClock:
    """A per-node proxy clock running *offset* seconds off its inner clock.

    ``now`` is ``inner.now + offset`` — a pure float add, so a zero-offset
    proxy over a :class:`VirtualClock` is still bit-for-bit deterministic.
    Relative scheduling delegates unchanged (a frozen-rate skew model: the
    node's clock is *displaced*, not *faster*, matching a one-shot NTP-style
    step); so does ``schedule_every``, through ``__getattr__``.  Absolute
    scheduling translates the skewed target back into the inner timeline;
    a target the forward-skewed node believes is already past fires
    immediately, exactly what a real clock jump does to pending deadline
    math.

    Everything else (``rebase``, ``loop``, ``is_virtual``, the scheduler
    drain methods of a virtual inner clock) passes through untouched.
    """

    def __init__(self, inner: Any, offset: Time = 0.0) -> None:
        self.inner = inner
        self.offset = offset

    def skew(self, offset: Time) -> None:
        """Step this node's clock by *offset* seconds (cumulative)."""
        self.offset += offset

    @property
    def now(self) -> Time:
        return self.inner.now + self.offset

    def schedule(self, delay: Time, callback: Callable[..., None], *args: Any):
        return self.inner.schedule(delay, callback, *args)

    def schedule_at(self, time: Time, callback: Callable[..., None], *args: Any):
        if self.offset == 0.0:
            # Exact delegation: a never-skewed proxy is indistinguishable
            # from its inner clock (same heap entries, same error behavior),
            # which is what keeps virtual-clock parity runs byte-identical.
            return self.inner.schedule_at(time, callback, *args)
        delay = time - self.offset - self.inner.now
        return self.inner.schedule(max(delay, 0.0), callback, *args)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SkewedClock {self.offset:+.6f}s over {self.inner!r}>"


class VirtualClock(Scheduler):
    """The simulator's deterministic scheduler, reused as a runtime clock.

    Inherits everything — this subclass exists so runtime code can express
    "a clock suitable for NodeHost" without importing the sim layer, and so
    isinstance checks can distinguish deterministic from wall-clock hosts
    (async transports refuse to run on a virtual clock; see
    :mod:`repro.cluster.local`).
    """

    @property
    def is_virtual(self) -> bool:
        return True
