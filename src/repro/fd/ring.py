"""Ring-based ◇S / ◇P (Larrea, Arévalo, Fernández — DISC'99 style).

Processes are arranged on a logical ring in pid order.  Each process polls
its nearest *non-suspected* predecessor with a ``PING`` every period; the
predecessor answers with a ``PONG``.  Both message kinds piggyback the
sender's *suspicion knowledge* — a per-process ``(epoch, suspected)`` entry
merged by highest epoch — so suspicion and refutation information travels
around the ring one neighbour hop per period.  System-wide steady-state cost
is 2n messages per period (n pings + n pongs), the figure the paper quotes
for this algorithm; the hop-by-hop propagation is also why its
crash-detection *latency* is Θ(n) periods, the drawback experiment E8
measures against the Fig. 2 transformation.

Timeouts are adaptive (grown on every false suspicion), giving the usual
partial-synchrony convergence argument.  The detector additionally exposes
the ring leader rule of the paper's Section 3: eventually every correct
process agrees on "the first non-suspected process starting from the initial
candidate ``p0`` in ring order", which is what makes this ◇S usable as a ◇C
at no extra message cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..types import ProcessId
from .base import TimeoutDetector, first_non_suspected

__all__ = ["RingDetector"]

_PING = "PING"
_PONG = "PONG"

# knowledge entry: (epoch, suspected)
_Entry = Tuple[int, bool]


class RingDetector(TimeoutDetector):
    """Ring-polling failure detector with knowledge piggybacking.

    Only the predecessor being polled is watched; it is heard from by its
    ``PONG``."""

    _knowledge: Dict[ProcessId, _Entry]
    _target: Optional[ProcessId] = None

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        self._knowledge = dict.fromkeys(range(self.n), (0, False))
        self._retarget()
        self._publish()
        super().on_start()
        self._poll()
        self.periodically(self.period, self._poll)
        self.periodically(self.check_period, self._check)

    # ---------------------------------------------------------------- output
    def _suspects_now(self) -> frozenset[ProcessId]:
        return frozenset(
            q for q, (_, susp) in self._knowledge.items() if susp and q != self.pid
        )

    def _publish(self) -> None:
        suspected = self._suspects_now()
        self._set_output(
            suspected=suspected,
            trusted=first_non_suspected(suspected, self.n),
        )

    # --------------------------------------------------------------- polling
    def _predecessor_chain(self):
        """Predecessors of self in ring order: p-1, p-2, ... (mod n)."""
        for k in range(1, self.n):
            yield (self.pid - k) % self.n

    def _retarget(self) -> None:
        suspects = self._suspects_now()
        new_target = None
        for q in self._predecessor_chain():
            if q not in suspects:
                new_target = q
                break
        if new_target != self._target:
            self._target = new_target
            if new_target is not None:
                self._restart(new_target)

    def _poll(self) -> None:
        if self._target is not None:
            self.send(self._target, (_PING, dict(self._knowledge)), tag="ping")

    def _check(self) -> None:
        target = self._target
        if target is not None and self._expired(target):
            self._suspect(target)

    # ------------------------------------------------------------- knowledge
    def _bump(self, q: ProcessId, suspected: bool) -> None:
        epoch, _ = self._knowledge[q]
        self._knowledge[q] = (epoch + 1, suspected)

    def _suspect(self, q: ProcessId) -> None:
        self._bump(q, True)
        self._retarget()
        self._publish()

    def _refute(self, q: ProcessId) -> None:
        """Direct evidence that *q* is alive."""
        if self._knowledge[q][1]:
            self._bump(q, False)
            self._widen(q)
            self._retarget()
            self._publish()

    def _merge(self, remote: Dict[ProcessId, _Entry]) -> None:
        changed = False
        know = self._knowledge
        for q, entry in remote.items():
            if q == self.pid:
                continue  # never adopt suspicions of ourselves
            mine = know[q]
            # Higher epoch wins; on a tie, suspicion wins (conservative:
            # completeness is safety-critical here, accuracy self-heals via
            # direct refutation by q's monitor).
            if entry[0] > mine[0] or (entry[0] == mine[0] and entry[1] and not mine[1]):
                know[q] = entry
                changed = True
        if changed:
            self._retarget()
            self._publish()

    # ------------------------------------------------------------- receiving
    def on_message(self, src: ProcessId, payload: object) -> None:
        kind, remote = payload  # type: ignore[misc]
        # Any direct message proves the sender alive.
        self._refute(src)
        self._merge(remote)
        if kind == _PING:
            self.send(src, (_PONG, dict(self._knowledge)), tag="pong")
        elif kind == _PONG:
            self._last_heard[src] = self.now

    # ---------------------------------------------------------- introspection
    @property
    def target(self) -> Optional[ProcessId]:
        """The predecessor currently being monitored (tests/benchmarks)."""
        return self._target
