"""Protocol components.

A :class:`Component` is one protocol module running on one process: a failure
detector, a transformation, a broadcast primitive, a consensus instance, …
Several components coexist on a process and are multiplexed over the network
by their ``channel`` name — e.g. a ◇C detector, the Fig. 2 transformation
querying it, and a consensus algorithm querying both all run side by side on
every process, exactly like the paper's "failure detection module attached to
a process".

Subclasses override the ``on_*`` hooks and use the ``send`` / ``broadcast`` /
``set_timer`` / ``periodically`` / ``spawn`` helpers.  All helpers become
no-ops once the host process has crashed, so algorithm code never needs to
check for its own death.

Components never reach past these helpers into the host: everything they
touch is the narrow structural surface defined in :mod:`repro.sim.api`
(scheduler ``now``/``schedule``, network ``send``/``send_many``, trace, rng,
``n``).
That is what lets the *same* component classes run both on the simulated
:class:`~repro.sim.world.World` and on the live asyncio runtime's
:class:`~repro.net.host.NodeHost` without modification.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..errors import ConfigurationError
from ..types import Channel, ProcessId, Time
from .events import EventHandle, Periodic
from .tasks import TaskGen, TaskRuntime, Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import Process
    from .world import World

__all__ = ["Component"]


class Component:
    """Base class for every protocol module (see module docstring)."""

    #: Default channel; subclasses usually set this as a class attribute.
    channel: Channel = ""
    #: Id of the host process, set on attach (a host's pid never changes).
    pid: ProcessId

    def __init__(self, channel: Optional[Channel] = None) -> None:
        if channel is not None:
            self.channel = channel
        if not self.channel:
            raise ConfigurationError(
                f"{type(self).__name__} has no channel name"
            )
        self.process: "Process" = None  # type: ignore[assignment]
        self.world: "World" = None  # type: ignore[assignment]
        self.tasks: TaskRuntime = None  # type: ignore[assignment]

    # -------------------------------------------------------------- wiring
    def _attach(self, process: "Process") -> None:
        self.process = process
        self.pid = process.pid
        self.world = process.world
        self.tasks = TaskRuntime(self.world.scheduler)

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self.world.n

    @property
    def now(self) -> Time:
        """Current simulated time."""
        return self.world.scheduler.now

    @property
    def rng(self) -> random.Random:
        """This component's deterministic random stream."""
        return self.world.rng.stream(f"{self.channel}:{self.pid}")

    @property
    def crashed(self) -> bool:
        """``True`` once the host process has crashed."""
        return self.process.crashed

    @property
    def metrics(self):
        """The world's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.world.metrics

    # ------------------------------------------------------------ overrides
    def on_start(self) -> None:
        """Called once when the world starts (time 0)."""

    def on_message(self, src: ProcessId, payload: Any) -> None:
        """Called for every message delivered on this component's channel."""

    def on_crash(self) -> None:
        """Called when the host process crashes (after tasks are stopped)."""

    def on_detach(self) -> None:
        """Called when the component is detached from its process (after
        its tasks are stopped).  Drop references that would keep other
        detached components alive."""

    def on_fd_change(self) -> None:
        """Called when a failure detector on the same process changes output.

        The default re-evaluates this component's parked task predicates,
        which is what consensus-style algorithms waiting on
        ``coordinator in D.suspected`` need.
        """
        self.tasks.poke()

    # ------------------------------------------------------------- messaging
    def send(
        self,
        dst: ProcessId,
        payload: Any,
        tag: Optional[str] = None,
        round: Optional[int] = None,
    ) -> None:
        """Send *payload* to process *dst* on this component's channel."""
        self._send_many((dst,), payload, tag, round)

    def _send_many(
        self,
        dsts: Sequence[ProcessId],
        payload: Any,
        tag: Optional[str],
        round: Optional[int],
    ) -> None:
        if self.crashed:
            return
        if self._stubborn_last is not None:
            for dst in dsts:
                if dst != self.pid:
                    self._stubborn_last[(dst, tag)] = (payload, round)
        self.world.network.send_many(
            self.pid, dsts, self.channel, payload, tag, round
        )

    #: Per-destination last message, when stubborn resending is enabled.
    _stubborn_last: Optional[dict] = None

    def enable_stubborn_resend(self, period: Time) -> None:
        """Turn this component's outgoing channels into *stubborn channels*:
        the most recent message to each destination is retransmitted every
        *period* until replaced by a newer one.

        Stubborn channels are the classic construction that lets protocols
        designed for reliable links survive message loss (fair-lossy links
        plus retransmission simulate reliable ones), at the price of steady
        background traffic.  Retransmission slots are keyed by
        ``(destination, tag)``, i.e. one slot per protocol message stream,
        so a later proposition does not cancel the retransmission of a lost
        coordinator announcement.  Receivers must tolerate duplicates — all
        protocol handlers in this library are idempotent.  Off by default
        so nice-run message counts match the paper exactly.
        """
        if self._stubborn_last is None:
            self._stubborn_last = {}
            self.periodically(period, self._stubborn_tick)

    def _stubborn_tick(self) -> None:
        for (dst, tag), (payload, round) in self._stubborn_last.items():
            self.world.network.send(
                self.pid, dst, self.channel, payload, tag, round
            )

    def send_self(
        self, payload: Any, tag: Optional[str] = None, round: Optional[int] = None
    ) -> None:
        """Loopback send to this very component (delivered as a message at
        the same instant, after currently queued events)."""
        self.send(self.pid, payload, tag=tag, round=round)

    def broadcast(
        self,
        payload: Any,
        include_self: bool = False,
        tag: Optional[str] = None,
        round: Optional[int] = None,
    ) -> None:
        """Send *payload* to every other process (and optionally to self)."""
        dsts = [
            dst for dst in range(self.n) if dst != self.pid or include_self
        ]
        self._send_many(dsts, payload, tag, round)

    # --------------------------------------------------------------- timing
    def set_timer(
        self, delay: Time, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run *callback(*args)* after *delay*, unless the process crashes
        or the component is detached first."""
        return self.world.scheduler.schedule(delay, self._guarded, callback, args)

    def _guarded(self, callback: Callable[..., None], args: tuple) -> None:
        # Crash and detach both stop the task runtime (see Process).
        if not self.tasks.stopped:
            callback(*args)

    def periodically(self, period: Time, callback: Callable[[], None]) -> Periodic:
        """Run *callback* every *period*, first one period from now, until
        the returned handle's ``stop()``, a crash or a detach (the queued
        tick then fires once more, as a no-op)."""
        return self.tasks.every(period, callback)

    def spawn(self, gen: TaskGen, name: str = "task") -> Task:
        """Start a cooperative task (see :mod:`repro.sim.tasks`)."""
        return self.tasks.spawn(gen, name=f"{self.channel}@{self.pid}:{name}")

    # --------------------------------------------------------------- tracing
    def trace(self, kind: str, /, **data: Any) -> None:
        """Record a trace event attributed to this process."""
        sink = self.world.trace
        if sink.wants(kind):
            sink.record(self.now, kind, self.pid, **data)

    # ------------------------------------------------------------- internals
    def _handle_message(self, src: ProcessId, payload: Any) -> None:
        self.on_message(src, payload)
        # A delivered message may satisfy a parked ``wait until``.
        self.tasks.poke()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pid = self.process.pid if self.process is not None else "?"
        return f"<{type(self).__name__} channel={self.channel!r} pid={pid}>"
