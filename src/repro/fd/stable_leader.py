"""Stable Ω — leader election that does not churn (Aguilera et al. style).

The paper's related work highlights "stable" Ω implementations: *once a
leader is elected, it remains the leader for as long as it does not crash
and its links behave well* (Aguilera, Delporte-Gallet, Fauconnier, Toueg,
DISC 2001).  The simple leader-based Ω of :mod:`repro.fd.leader_based` is
not stable in one specific way: a lower-id process with *flaky* links keeps
being reinstated whenever one of its heartbeats slips through, displacing a
perfectly good working leader — leadership churns forever.

This module implements the accusation-counter approach:

* every process keeps, for each process q, an *accusation counter*;
* the current leader of p is the process minimizing ``(counter, pid)``;
* a process that believes itself leader broadcasts heartbeats;
* when p's current leader times out, p broadcasts an ``ACCUSE(leader, c)``
  message carrying its current count ``c``; every process (including the
  accused and the accuser) applies the idempotent merge
  ``counter = max(counter, c + 1)``.  Merging by maximum makes the counters
  conflict-free replicated state: every correct process receives every
  accusation, so all counters converge regardless of delivery order;
* timeouts are adaptive, as usual.

Stability follows because demotion requires a *fresh accusation* — a flaky
low-id process accumulates accusations and stays demoted, instead of
flip-flopping with the working leader; and counters only grow, so all
correct processes converge on the same minimum.  The Ω property follows
from the standard partial-synchrony argument: a correct process with
eventually-timely links is accused finitely often, so its counter freezes,
while every crashed process is accused forever.

Ablation A4 (``bench_a4_leader_stability.py``) measures the churn
difference against :class:`~repro.fd.leader_based.LeaderBasedOmega`.
"""

from __future__ import annotations

from typing import Dict

from ..types import ProcessId
from .base import TimeoutDetector

__all__ = ["StableLeaderOmega"]

_LEADER_ALIVE = "S-LEADER-ALIVE"
_ACCUSE = "ACCUSE"


class StableLeaderOmega(TimeoutDetector):
    """Accusation-counter Ω with stable leadership (see module docstring)."""

    _counter: Dict[ProcessId, int]
    leader_changes = 0  # introspection for the stability ablation

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        self._counter = dict.fromkeys(range(self.n), 0)
        self._publish(initial=True)
        super().on_start()
        self._beat()
        self.periodically(self.period, self._beat)
        self.periodically(self.check_period, self._check)

    # ---------------------------------------------------------------- output
    def _current_leader(self) -> ProcessId:
        return min(range(self.n), key=lambda q: (self._counter[q], q))

    def _publish(self, initial: bool = False) -> None:
        leader = self._current_leader()
        if not initial and leader != self._trusted:
            self.leader_changes += 1
        # Ω semantics: implicitly suspect everyone but the leader.
        self._set_output(
            suspected=frozenset(
                q for q in range(self.n) if q != leader and q != self.pid
            ),
            trusted=leader,
        )

    # --------------------------------------------------------------- beating
    def _beat(self) -> None:
        if self._current_leader() == self.pid:
            self.broadcast((_LEADER_ALIVE,), tag="leader-hb")

    # ------------------------------------------------------------ monitoring
    def _check(self) -> None:
        leader = self._current_leader()
        if leader == self.pid:
            return
        if self._expired(leader):
            # Accuse the silent leader; the merge demotes it locally at once
            # and at everyone else via gossip.  Its timeout grows, but an
            # accusation is not a premature suspicion, so it is not counted.
            accused_count = self._counter[leader]
            self._merge(leader, accused_count)
            self.broadcast((_ACCUSE, leader, accused_count), tag="accuse")
            self._timeout[leader] += self.timeout_increment
            self._restart(self._current_leader())
            self._publish()

    def _merge(self, q: ProcessId, accused_count: int) -> None:
        """Idempotent, order-independent counter merge (see module doc)."""
        self._counter[q] = max(self._counter[q], accused_count + 1)

    # ------------------------------------------------------------- receiving
    def on_message(self, src: ProcessId, payload: object) -> None:
        kind = payload[0]  # type: ignore[index]
        if kind == _LEADER_ALIVE:
            self._last_heard[src] = self.now
            # A heartbeat does NOT reinstate src past the current leader —
            # that is the stability difference from LeaderBasedOmega.
            return
        if kind == _ACCUSE:
            _, accused, accused_count = payload  # type: ignore[misc]
            old_leader = self._current_leader()
            self._merge(accused, accused_count)
            leader = self._current_leader()
            if leader != old_leader:
                self._restart(leader)
            self._publish()

    # ---------------------------------------------------------- introspection
    def counter_of(self, q: ProcessId) -> int:
        """Current accusation counter for *q*."""
        return self._counter[q]
