"""Chandra–Toueg ◇S consensus (rotating coordinator) — baseline.

The classical centralized algorithm of [6], reproduced as the paper's main
comparison target:

* the coordinator of round *r* is process ``(r − 1) mod n`` — the *rotating
  coordinator paradigm* whose worst case Theorem 3 bounds;
* **Phase 1** — everyone sends ``(estimate, ts)`` to the round's coordinator;
* **Phase 2** — the coordinator waits for the first ⌈(n+1)/2⌉ estimates and
  proposes the one with the largest timestamp;
* **Phase 3** — each process waits for the proposal or suspicion of the
  coordinator; it adopts & acks the proposal, or nacks on suspicion;
* **Phase 4** — the coordinator waits for the first ⌈(n+1)/2⌉ replies and
  decides (via Reliable Broadcast) only if **all** of them are acks — the
  "one single negative reply blocks the decision" behaviour that the ◇C
  algorithm's majority-of-positives rule improves on (experiment E7).

4 phases per round, ≈3n messages per round in nice runs (Section 5.4).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..broadcast.reliable import ReliableBroadcast
from ..fd.base import FailureDetector
from ..sim.tasks import Sleep, WaitUntil
from ..types import ProcessId
from .base import ConsensusProtocol
from .ec_consensus import NULL

__all__ = ["ChandraTouegConsensus"]

_EST = "EST"
_PROP = "PROP"
_ACK = "ACK"
_NACK = "NACK"


class ChandraTouegConsensus(ConsensusProtocol):
    """Rotating-coordinator ◇S consensus (see module docstring)."""

    name = "ct"

    def __init__(
        self,
        fd: FailureDetector,
        rb: ReliableBroadcast,
        round_step: float = 0.01,
        channel: str = "consensus",
    ) -> None:
        super().__init__(channel)
        self.fd = fd
        self.rb = rb
        # Per-round local processing cost; see ECConsensus.round_step.
        self.round_step = round_step
        self._est_msgs: Dict[int, Dict[ProcessId, Tuple[Any, int]]] = {}
        self._props: Dict[int, Dict[ProcessId, Any]] = {}
        self._replies: Dict[int, Dict[ProcessId, bool]] = {}
        self.r = 0
        self.estimate: Any = None
        self.ts = 0

    # ------------------------------------------------------------- start-up
    def on_start(self) -> None:
        self.rb.on_deliver(self._on_rdeliver)

    def _on_propose(self, value: Any) -> None:
        self.estimate = value
        self.ts = 0
        self.r = 1
        self.spawn(self._main(), "main")

    def coordinator_of(self, r: int) -> ProcessId:
        """The rotating coordinator of round *r*."""
        return (r - 1) % self.n

    # --------------------------------------------------------- the main task
    def _main(self):
        majority = self.n // 2 + 1
        while not self.decided:
            if self.r > 1 and self.round_step:
                yield Sleep(self.round_step)
                if self.decided:
                    return
            r = self.r
            coord = self.coordinator_of(r)
            self.mark_round(r)

            # Phase 1: all processes send their estimate to the coordinator.
            self.mark_phase(r, 1)
            self.send(coord, (_EST, r, self.estimate, self.ts), tag="est", round=r)

            proposal: Any = NULL
            if coord == self.pid:
                # Phase 2: wait for the first majority of estimates.
                self.mark_phase(r, 2)
                ests = self._est_msgs.setdefault(r, {})
                yield WaitUntil(lambda: self.decided or len(ests) >= majority)
                if self.decided:
                    return
                _, _, best = max(
                    ((est, ts, q) for q, (est, ts) in ests.items()),
                    key=lambda item: (item[1], -item[2]),
                )
                proposal = ests[best][0]
                self.broadcast(
                    (_PROP, r, proposal), include_self=True, tag="prop", round=r
                )

            # Phase 3: wait for the proposal or suspicion of the coordinator.
            self.mark_phase(r, 3)
            props = self._props.setdefault(r, {})
            suspected = self.fd.suspected
            yield WaitUntil(
                lambda: self.decided or coord in props or coord in suspected()
            )
            if self.decided:
                return
            if coord in props:
                self.estimate = props[coord]
                self.ts = r
                self.send(coord, (_ACK, r), tag="ack", round=r)
            else:
                self.send(coord, (_NACK, r), tag="nack", round=r)

            if coord == self.pid and proposal is not NULL:
                # Phase 4: first majority of replies; all must be positive.
                self.mark_phase(r, 4)
                replies = self._replies.setdefault(r, {})
                yield WaitUntil(lambda: self.decided or len(replies) >= majority)
                if self.decided:
                    return
                if all(replies.values()):
                    self.rb.rbroadcast(("DECIDE", self.channel, r, proposal))

            self.r = r + 1

    # ------------------------------------------------------------- receiving
    def on_message(self, src: ProcessId, payload: Any) -> None:
        kind = payload[0]
        if kind == _EST:
            _, r, est, ts = payload
            self._est_msgs.setdefault(r, {})[src] = (est, ts)
        elif kind == _PROP:
            _, r, value = payload
            self._props.setdefault(r, {})[src] = value
        elif kind == _ACK:
            _, r = payload
            self._replies.setdefault(r, {})[src] = True
        elif kind == _NACK:
            _, r = payload
            self._replies.setdefault(r, {})[src] = False

    # --------------------------------------------------------------- deciding
    def _on_rdeliver(self, origin: ProcessId, payload: Any) -> None:
        if payload[0] == "DECIDE" and payload[1] == self.channel:
            _, _, r, value = payload
            self._decide(value, round=r)
