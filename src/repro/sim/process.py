"""Simulated processes.

A :class:`Process` is a container of :class:`~repro.sim.component.Component`
objects plus crash state.  Crashes are *permanent* (the paper's model:
crash-stop, no recovery): once crashed, a process executes nothing further —
its timers are suppressed, its tasks are killed, and messages addressed to it
are discarded.  Messages it sent *before* crashing may still be delivered,
which is the standard asynchronous-crash semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..obs.metrics import channel_slot
from ..types import Channel, ProcessId, Time
from .component import Component
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .world import World

__all__ = ["Process"]


class Process:
    """One process of the distributed system (see module docstring)."""

    def __init__(self, pid: ProcessId, world: "World") -> None:
        self.pid = pid
        self.world = world
        self.components: Dict[Channel, Component] = {}
        self._order: List[Component] = []
        self.crashed = False
        self.crash_time: Optional[Time] = None
        self._started = False
        # Messages for channels whose component is not attached yet.
        # Components may be attached dynamically (e.g. one consensus
        # instance per replicated-log slot), and a fast replica can send on
        # a new channel before a slow one has created it.
        self._pending: Dict[Channel, List[Message]] = {}
        # Retired channels: a message arriving on one later is dropped,
        # never parked (nobody will claim it again).  Kept as the highest
        # detached slot per channel family (``rsm.c*.rb`` -> 17), so its
        # size does not grow with the slots a run opens.  A low-water mark
        # is exact because slots are detached in apply order
        # (``consensus.multi``) and a slot below the mark is never opened
        # again; a channel without a slot number is its own family, slot -1.
        self._retired: Dict[Channel, int] = {}

    # -------------------------------------------------------------- wiring
    def attach(self, component: Component) -> Component:
        """Install *component*; its channel must be unique on this process."""
        if component.channel in self.components:
            raise ConfigurationError(
                f"process {self.pid} already has a component on channel "
                f"{component.channel!r}"
            )
        component._attach(self)
        if self.crashed:
            component.tasks.stop()  # as crash() did to every earlier one
        self.components[component.channel] = component
        self._order.append(component)
        if self._started and not self.crashed:
            self._start_component(component)
            if self._pending.get(component.channel):
                # Flush parked messages one scheduler tick later (same
                # simulated time): the caller may still be wiring companion
                # components at this instant — e.g. a consensus instance
                # subscribing to the broadcast component it is attached
                # with — and a synchronous flush would deliver before the
                # subscription exists.
                self.world.scheduler.schedule(
                    0.0, self._flush_pending, component
                )
        return component

    def detach(self, component: Component) -> None:
        """The inverse of :meth:`attach`: stop *component*'s tasks, call its
        ``on_detach`` and remove it.  Its channel is retired — a message arriving on it later is a
        ``drop`` with ``reason="retired"``.  Must not run inside one of the
        component's own tasks (defer it by a scheduler tick)."""
        component.tasks.stop()
        component.on_detach()
        del self.components[component.channel]
        self._order.remove(component)
        family, slot = channel_slot(component.channel)
        self._retired[family] = max(slot, self._retired.get(family, slot))

    def _flush_pending(self, component: Component) -> None:
        for msg in self._pending.pop(component.channel, []):
            if not self.crashed:
                component._handle_message(msg.src, msg.payload)

    def component(self, channel: Channel) -> Component:
        """Look up the component on *channel* (KeyError if absent)."""
        return self.components[channel]

    @property
    def pending_channels(self) -> List[Channel]:
        """Channels holding parked messages with no component attached."""
        return [ch for ch, msgs in self._pending.items() if msgs]

    # ---------------------------------------------------------- life cycle
    def start(self) -> None:
        """Invoke ``on_start`` on every attached component, in attach order.

        A component's ``on_start`` may attach further components (e.g. a
        replicated log opening its first consensus instance); those are
        started exactly once, at attach time, and skipped by this loop.
        """
        self._started = True
        index = 0
        while index < len(self._order):
            if not self.crashed:
                self._start_component(self._order[index])
            index += 1

    def _start_component(self, component: Component) -> None:
        if not getattr(component, "_on_start_done", False):
            component._on_start_done = True
            component.on_start()

    def crash(self) -> None:
        """Crash permanently at the current simulated time.  Idempotent."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_time = self.world.scheduler.now
        self.world.crash_epoch += 1
        self.world.trace.record(self.crash_time, "crash", self.pid)
        for component in self._order:
            component.tasks.stop()
            component.on_crash()

    # ------------------------------------------------------------- delivery
    def deliver(self, msg: Message) -> None:
        """Hand a delivered message to the component owning its channel."""
        if self.crashed:
            self._drop(msg, "crashed")
            return
        component = self.components.get(msg.channel)
        if component is None:
            family, slot = channel_slot(msg.channel)
            if slot <= self._retired.get(family, -2):
                self._drop(msg, "retired")
                return
            # Hold the message until a component claims the channel (see
            # __init__).  Messages parked on channels nobody ever attaches
            # indicate a wiring bug; they stay visible via pending_channels.
            self._pending.setdefault(msg.channel, []).append(msg)
            self.world.trace.record(
                self.world.scheduler.now, "parked", self.pid,
                channel=msg.channel, src=msg.src,
            )
            return
        component._handle_message(msg.src, msg.payload)

    def _drop(self, msg: Message, reason: str) -> None:
        self.world.metrics.inc("messages_dropped_total", reason=reason)
        self.world.trace.record(
            self.world.scheduler.now, "drop", self.pid,
            channel=msg.channel, src=msg.src, dst=msg.dst, reason=reason,
        )

    # -------------------------------------------------------- notifications
    def notify_fd_change(self, source: Any = None) -> None:
        """Tell every component (except *source*) that a local failure
        detector's output changed, so parked waits get re-evaluated."""
        if self.crashed:
            return
        for component in self._order:
            if component is not source:
                component.on_fd_change()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "crashed" if self.crashed else "up"
        return f"<Process {self.pid} ({state}) components={list(self.components)}>"
