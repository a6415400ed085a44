"""Leader-based Ω (in the style of Larrea, Fernández, Arévalo — SRDS 2000).

Processes consider candidates in pid order.  Each process's *candidate* is
the smallest pid it has not ruled out; a process whose candidate is itself
considers itself leader and broadcasts ``LEADER-ALIVE`` heartbeats (n−1
messages per period — the "optimal" cost the paper leans on when arguing ◇C
comes for free).  Every other process monitors only its current candidate:

* candidate heartbeat missing past an adaptive timeout → rule the candidate
  out, advance to the next pid;
* heartbeat received from a smaller or ruled-out pid → reinstate it, widen
  its timeout, and fall back to it.

On partially synchronous links the first correct process is ruled out at
most a bounded number of times at each process (each mistake widens the
timeout), after which every correct process permanently trusts it — the Ω
property.  The ``suspected`` output is the local ruled-out set; note that it
is **not** strongly complete (crashed processes *larger* than the eventual
leader are never examined), which is exactly why the paper composes this
algorithm with a ◇S suspect list — or the trivial complement — to obtain ◇C
(see :mod:`repro.fd.eventually_consistent`).
"""

from __future__ import annotations

from typing import Set

from ..types import ProcessId
from .base import TimeoutDetector

__all__ = ["LeaderBasedOmega"]

_LEADER_ALIVE = "LEADER-ALIVE"


class LeaderBasedOmega(TimeoutDetector):
    """Ω implementation with n−1 steady-state messages per period."""

    _ruled_out: Set[ProcessId]

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        self._ruled_out = set()
        self._publish()
        super().on_start()
        self._beat()
        self.periodically(self.period, self._beat)
        self.periodically(self.check_period, self._check)

    # ---------------------------------------------------------------- output
    def _candidate(self) -> ProcessId:
        for q in range(self.n):
            if q not in self._ruled_out:
                return q
        # Everyone (including self) ruled out cannot happen: we never rule
        # out ourselves.
        raise AssertionError("unreachable: self is never ruled out")

    def _publish(self) -> None:
        self._set_output(
            suspected=frozenset(self._ruled_out), trusted=self._candidate()
        )

    # --------------------------------------------------------------- beating
    def _beat(self) -> None:
        if self._candidate() == self.pid:
            self.broadcast(_LEADER_ALIVE, tag="leader-hb")

    # ------------------------------------------------------------ monitoring
    def _check(self) -> None:
        cand = self._candidate()
        if cand == self.pid:
            return
        if self._expired(cand):
            self._ruled_out.add(cand)
            self._restart(self._candidate())
            self._publish()

    # ------------------------------------------------------------- receiving
    def on_message(self, src: ProcessId, payload: object) -> None:
        if payload != _LEADER_ALIVE:  # pragma: no cover - defensive
            return
        self._last_heard[src] = self.now
        if src in self._ruled_out:
            # False suspicion: reinstate and widen the timeout.  If src is
            # the candidate again, its watch starts from this heartbeat.
            self._ruled_out.discard(src)
            self._widen(src)
        self._publish()
