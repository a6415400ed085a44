"""Transport abstraction: how encoded messages reach other nodes.

A :class:`Transport` moves opaque byte frames between nodes identified by
process id.  It is deliberately dumber than the simulator's
:class:`~repro.sim.network.Network`: no channels, no links, no delivery
callback into processes — just frames out, frames in.  The
:class:`~repro.net.host.NodeHost` layers the codec and the component-facing
semantics on top; loss/delay/partition injection happens above it, in the
send path (:mod:`repro.sim.faults`).

Lifecycle (driven by :class:`~repro.cluster.LocalCluster` or by user
code for multi-process deployments)::

    transport.set_receiver(on_bytes)     # wiring
    await transport.bind()               # allocate sockets / register
    transport.set_peers({pid: address})  # learn the address book
    transport.send(dst, frame)           # fire-and-forget, loop thread
    await transport.close()

``send`` is synchronous because protocol components call it from timer and
delivery callbacks; implementations must never block (UDP writes to the
socket, TCP enqueues to a per-peer writer task, loopback defers through the
clock).

This module holds the ABC and the in-process :class:`LoopbackTransport`;
:mod:`repro.net.udp` and :mod:`repro.net.tcp` carry the socket transports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional

from ..errors import ConfigurationError
from ..types import ProcessId

__all__ = ["Transport", "LoopbackHub", "LoopbackTransport"]

Receiver = Callable[[bytes], None]
#: ``observer(event, **fields)`` — transport-level incidents (e.g.
#: ``net.peer_unreachable``); event names must be registered trace kinds.
Observer = Callable[..., None]


class Transport(ABC):
    """Moves byte frames between nodes addressed by process id."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self._receiver: Optional[Receiver] = None
        self._observer: Optional[Observer] = None
        self._peers: Dict[ProcessId, Any] = {}
        self.closed = False
        # Cheap counters, mirrored after sim.Network's always-on ones.
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_errors = 0

    # ---------------------------------------------------------------- wiring
    def set_receiver(self, receiver: Receiver) -> None:
        """Install the callback invoked (in the loop thread) per frame."""
        self._receiver = receiver

    def set_observer(self, observer: Observer) -> None:
        """Install the callback invoked per transport incident.

        The :class:`~repro.net.host.NodeHost` installs one that records
        each incident as a trace event at the host clock's current time,
        so transport trouble (dead peers, exhausted retries) lands in the
        same stream the analysis layer already reads.
        """
        self._observer = observer

    def set_peers(self, addresses: Dict[ProcessId, Any]) -> None:
        """Learn every node's address (including our own, which is ignored)."""
        self._peers = dict(addresses)

    @property
    def local_address(self) -> Any:
        """This node's address, valid after :meth:`bind`."""
        return self._peers.get(self.pid)

    # -------------------------------------------------------------- lifecycle
    @abstractmethod
    def bind(self):
        """Allocate resources; may be a coroutine (socket transports are)."""

    @abstractmethod
    def send(self, dst: ProcessId, data: bytes) -> None:
        """Queue one frame for *dst*.  Fire-and-forget; must not block."""

    @abstractmethod
    def close(self):
        """Release resources; may be a coroutine.  Idempotent."""

    # -------------------------------------------------------------- internals
    def _dispatch(self, data: bytes) -> None:
        """Hand one received frame to the receiver (drop if none/closed)."""
        if self.closed or self._receiver is None:
            return
        self.frames_received += 1
        self.bytes_received += len(data)
        self._receiver(data)

    def _notify(self, event: str, **fields: Any) -> None:
        """Report one incident to the observer (no-op when none installed)."""
        if self._observer is not None:
            self._observer(event, **fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return f"<{type(self).__name__} pid={self.pid} {state}>"


class LoopbackHub:
    """The shared \"wire\" of an in-process cluster.

    Registered transports exchange frames through deferred callbacks on a
    clock (:class:`~repro.net.clock.VirtualClock` for deterministic tests,
    :class:`~repro.net.clock.AsyncioClock` for live in-process runs).  Going
    through the clock — never calling the receiver inline — preserves the
    simulator's "sends complete before anything is delivered" semantics, so
    protocol code sees the same event shapes on every substrate.
    """

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self._endpoints: Dict[ProcessId, LoopbackTransport] = {}

    def register(self, transport: "LoopbackTransport") -> None:
        if transport.pid in self._endpoints:
            raise ConfigurationError(
                f"loopback hub already has an endpoint for pid {transport.pid}"
            )
        self._endpoints[transport.pid] = transport

    def unregister(self, pid: ProcessId) -> None:
        self._endpoints.pop(pid, None)

    def carry(self, dst: ProcessId, data: bytes) -> None:
        """Schedule delivery of *data* to *dst* (dropped if unknown/closed)."""
        self.clock.schedule(0.0, self._arrive, dst, data)

    def _arrive(self, dst: ProcessId, data: bytes) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            endpoint._dispatch(data)


class LoopbackTransport(Transport):
    """In-process transport over a :class:`LoopbackHub`.

    Frames still round-trip through the codec (the host encodes before
    calling :meth:`send`), so loopback runs exercise the full wire path —
    serialization bugs show up here, deterministically, before any socket
    is involved.
    """

    def __init__(self, pid: ProcessId, hub: LoopbackHub) -> None:
        super().__init__(pid)
        self.hub = hub

    def bind(self) -> None:
        self.hub.register(self)
        self._peers.setdefault(self.pid, f"loopback:{self.pid}")

    def send(self, dst: ProcessId, data: bytes) -> None:
        if self.closed:
            return
        self.frames_sent += 1
        self.bytes_sent += len(data)
        self.hub.carry(dst, data)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.hub.unregister(self.pid)
