"""Chandra–Toueg-style all-to-all heartbeat ◇P.

Every process sends an ``ALIVE`` heartbeat to every other process each
*period* (n·(n−1) messages per period system-wide — the Θ(n²) baseline the
paper's Section 4 cost comparison is made against).  Each process keeps an
adaptive timeout per peer: missing a heartbeat raises a suspicion; a
heartbeat from a suspected peer retracts the suspicion and enlarges that
peer's timeout, so on partially synchronous links each peer is falsely
suspected at most a bounded number of times — the standard argument giving
eventual strong accuracy, hence ◇P.
"""

from __future__ import annotations

from ..types import ProcessId
from .base import TimeoutDetector

__all__ = ["HeartbeatEventuallyPerfect"]

_ALIVE = "ALIVE"


class HeartbeatEventuallyPerfect(TimeoutDetector):
    """All-to-all heartbeat implementation of ◇P (see module docstring);
    ``period`` is the heartbeat send period (η), the other parameters are
    :class:`~repro.fd.base.TimeoutDetector`'s."""

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        super().on_start()
        self._beat()
        self.periodically(self.period, self._beat)
        self.periodically(self.check_period, self._check)

    # --------------------------------------------------------------- sending
    def _beat(self) -> None:
        self.broadcast(_ALIVE, tag="hb")

    # ------------------------------------------------------------- receiving
    def on_message(self, src: ProcessId, payload: object) -> None:
        if payload != _ALIVE:  # pragma: no cover - defensive
            return
        self._last_heard[src] = self.now
        if src in self._suspected:
            # False suspicion: retract and widen the timeout (Task 4 logic).
            self._widen(src)
            self._set_output(suspected=self._suspected - {src})

    # ------------------------------------------------------------ monitoring
    def _check(self) -> None:
        overdue = self._overdue(self._suspected)
        if overdue:
            self._set_output(suspected=self._suspected | overdue)
