"""The component-facing runtime API, as structural protocols.

:class:`~repro.sim.component.Component` subclasses — failure detectors,
transformations, broadcast primitives, consensus algorithms — never talk to
the discrete-event simulator directly.  Everything they touch goes through a
narrow surface:

* a **scheduler** (``world.scheduler``) with a ``now`` clock and timed
  callbacks (:class:`SchedulerAPI`);
* a **message fabric** (``world.network``) with a fire-and-forget ``send`` /
  ``send_many`` (:class:`NetworkAPI`);
* a **world** exposing ``n``, a :class:`~repro.sim.Trace`, and named
  RNG streams (:class:`WorldAPI`);
* a **process** container with ``pid`` / ``crashed`` / FD-change fan-out
  (:class:`ProcessAPI`).

Two substrates implement this surface today: the deterministic virtual-time
simulator (:class:`repro.sim.world.World`) and the live asyncio runtime
(:class:`repro.net.host.NodeHost`), which hosts the *same, unchanged*
component classes over real transports.  Anything new that satisfies these
protocols (they are structural — no inheritance needed) can host the
algorithm layer too.

Oracle components (:mod:`repro.fd.oracle`) deliberately step outside this
API: they read the global failure pattern (``world.processes``,
``world.correct_pids``), which only a simulator can expose.  They are
simulation-only by design; every *message-passing* construction in the
library stays inside the surface defined here.
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Callable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..types import Channel, ProcessId, Time

__all__ = [
    "TimerHandleAPI",
    "SchedulerAPI",
    "NetworkAPI",
    "WorldAPI",
    "ProcessAPI",
]


@runtime_checkable
class TimerHandleAPI(Protocol):
    """A cancellable pending callback (returned by every ``schedule``)."""

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""


@runtime_checkable
class SchedulerAPI(Protocol):
    """A clock plus timed callbacks.

    The simulator implements this with a virtual-time event heap
    (:class:`repro.sim.scheduler.Scheduler`); the live runtime with
    wall-clock asyncio timers (:class:`repro.net.clock.AsyncioClock`) or a
    reused virtual heap for deterministic tests
    (:class:`repro.net.clock.VirtualClock`).
    """

    @property
    def now(self) -> Time:
        """Current time (virtual units or wall-clock seconds since start)."""
        ...

    def schedule(
        self, delay: Time, callback: Callable[..., None], *args: Any
    ) -> TimerHandleAPI:
        """Run ``callback(*args)`` after *delay* (``delay >= 0``)."""
        ...

    def schedule_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> TimerHandleAPI:
        """Run ``callback(*args)`` at absolute *time* (not in the past)."""
        ...

    def schedule_every(
        self, period: Time, callback: Callable[[], None]
    ) -> TimerHandleAPI:
        """Run ``callback()`` every *period* (``> 0``), first after one
        period.  The handle's ``stop()`` ends it; ``disarm()`` ends it but
        lets the queued tick fire once more, as a no-op."""
        ...


@runtime_checkable
class NetworkAPI(Protocol):
    """The fire-and-forget message fabric components send through."""

    def send(
        self,
        src: ProcessId,
        dst: ProcessId,
        channel: Channel,
        payload: Any,
        tag: Optional[str] = None,
        round: Optional[int] = None,
    ) -> Any:
        """Inject one message; delivery (or loss) is the substrate's call."""
        ...

    def send_many(
        self,
        src: ProcessId,
        dsts: Sequence[ProcessId],
        channel: Channel,
        payload: Any,
        tag: Optional[str] = None,
        round: Optional[int] = None,
    ) -> Any:
        """Inject one payload for many destinations, in *dsts* order; the
        per-message effects equal calling :meth:`send` once per destination."""
        ...


class WorldAPI(Protocol):
    """What a component sees as ``self.world``.

    ``trace`` must quack like :class:`repro.sim.Trace` and ``rng``
    like :class:`repro.sim.rng.RandomSource`; both are substrate-independent
    classes reused verbatim by the live runtime, so they appear here as
    attribute declarations rather than re-modelled protocols.
    """

    n: int
    crash_epoch: int

    @property
    def scheduler(self) -> SchedulerAPI: ...

    @property
    def network(self) -> NetworkAPI: ...

    @property
    def trace(self) -> Any: ...

    @property
    def rng(self) -> Any: ...


class ProcessAPI(Protocol):
    """What a component sees as ``self.process``."""

    pid: ProcessId
    crashed: bool

    @property
    def world(self) -> WorldAPI: ...

    def notify_fd_change(self, source: Any = None) -> None:
        """Fan an FD output change out to sibling components."""
        ...


def stream_for(world: WorldAPI, channel: Channel, pid: ProcessId) -> random.Random:
    """The deterministic RNG stream a component at (*channel*, *pid*) uses.

    Kept here so both substrates derive identically-named streams and stay
    comparable under the same master seed.
    """
    return world.rng.stream(f"{channel}:{pid}")
