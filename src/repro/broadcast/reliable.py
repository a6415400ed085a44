"""Reliable Broadcast (R-broadcast / R-deliver).

The classic crash-tolerant relay algorithm of Chandra–Toueg [6]: to
R-broadcast *m*, send *m* to every process (including yourself); on first
receipt of *m*, relay it to every other process *before* R-delivering it.
With reliable links this guarantees:

* **validity** — a correct broadcaster eventually R-delivers its own message;
* **agreement** — if any correct process R-delivers *m*, every correct
  process eventually R-delivers *m* (the relay step covers broadcasters that
  crash mid-send);
* **uniform integrity** — every process R-delivers *m* at most once, and
  only if *m* was R-broadcast.

Each broadcast costs Θ(n²) messages; the paper's per-round message counts
deliberately exclude these, and so does the metrics layer (RB messages are
tagged ``rb`` on their own channel).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Set, Tuple

from ..sim.component import Component
from ..types import ProcessId

__all__ = ["ReliableBroadcast"]

#: Message id: (origin pid, per-origin sequence number).
MessageId = Tuple[ProcessId, int]


class ReliableBroadcast(Component):
    """R-broadcast / R-deliver component (see module docstring).

    Parameters:
        retransmit_period: when set, every known message is periodically
            re-relayed to all processes.  The base algorithm needs this on
            *reliable* links never — it exists for runs that deliberately
            violate the model (network partitions): retransmission restores
            the agreement property once the partition heals, at the price
            of steady background chatter.  ``None`` (default) keeps the
            paper's one-shot relay and its message counts.
    """

    channel = "rb"

    def __init__(
        self,
        channel: str = "rb",
        retransmit_period: float | None = None,
    ) -> None:
        super().__init__(channel)
        self._seq = 0
        self._delivered: Set[MessageId] = set()
        self._payloads: Dict[MessageId, Any] = {}
        self._callbacks: List[Callable[[ProcessId, Any], None]] = []
        self.delivered_log: List[Tuple[float, ProcessId, Any]] = []
        self.retransmit_period = retransmit_period

    def on_start(self) -> None:
        if self.retransmit_period is not None:
            self.periodically(self.retransmit_period, self._retransmit)

    def on_detach(self) -> None:
        # A detached broadcast delivers nothing more.  Its subscriber (a
        # retired consensus instance) holds it too; dropping the callbacks
        # lets reference counting free both at once.
        self._callbacks.clear()

    def _retransmit(self) -> None:
        for mid, payload in self._payloads.items():
            self.broadcast((mid, payload), tag="rb-retransmit")

    # ----------------------------------------------------------------- API
    def on_deliver(self, callback: Callable[[ProcessId, Any], None]) -> None:
        """Register *callback(origin, payload)* for every R-delivery."""
        self._callbacks.append(callback)

    def rbroadcast(self, payload: Any) -> MessageId:
        """R-broadcast *payload* to the whole system (including self)."""
        mid: MessageId = (self.pid, self._seq)
        self._seq += 1
        self._handle(mid, payload)
        return mid

    # ------------------------------------------------------------ internals
    def on_message(self, src: ProcessId, wire: Any) -> None:
        mid, payload = wire
        self._handle(mid, payload)

    def _handle(self, mid: MessageId, payload: Any) -> None:
        if mid in self._delivered:
            return
        self._delivered.add(mid)
        self._payloads[mid] = payload
        # Relay before delivering, so that if delivery triggers a crash (in
        # fault-injection tests) agreement is already secured.
        self.broadcast((mid, payload), tag="rb")
        self._deliver(mid[0], payload)

    def _deliver(self, origin: ProcessId, payload: Any) -> None:
        self.delivered_log.append((self.now, origin, payload))
        self.trace("rdeliver", origin=origin)
        for callback in self._callbacks:
            callback(origin, payload)
