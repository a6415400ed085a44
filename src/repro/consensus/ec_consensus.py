"""◇C-based Uniform Consensus (the paper's Figs. 3–4 — core contribution).

The algorithm proceeds in asynchronous rounds of five phases.  Unlike the
rotating-coordinator ◇S algorithms, the coordinator of a round is whoever
the ◇C detector's *leader election* output designates, so one round after
the detector stabilizes the (unique, unsuspected, correct) leader drives a
decision — Theorem 3 shows rotating coordinators can need n more rounds.

Round structure (main task, Fig. 3):

* **Phase 0** — a process whose ``D.trusted`` is itself becomes coordinator
  and announces itself to everybody; everyone else waits for an
  announcement.  An announcement for a *higher* round makes the waiting
  process jump to that round (footnote 2).
* **Phase 1** — send ``(estimate, ts)`` to the chosen coordinator.
* **Phase 2** (coordinator) — gather estimates until a majority has arrived
  **and** every non-suspected process has answered (the ◇C accuracy
  improvement); with a majority of *non-null* estimates, propose the one
  with the largest timestamp, else propose null.
* **Phase 3** — wait for the coordinator's proposition, stop early on
  suspicion or on a non-null proposition from another coordinator; adopt &
  ``ack`` non-null propositions, ``nack`` a suspected coordinator.
* **Phase 4** (coordinator that proposed non-null) — gather ack/nacks until
  a majority **and** every non-suspected process replied; with a majority
  of acks — *even in the presence of nacks* — R-broadcast the decision.

Concurrent tasks (Fig. 4): null estimates are sent to coordinators of
current/previous rounds other than one's own (so no coordinator blocks in
Phase 2), and non-null propositions from late coordinators are nacked (so
none blocks in Phase 4); decisions are taken upon R-delivery.

The ``merged_phase01`` flag implements the Section 5.4 variant that merges
Phases 0 and 1 — every process sends its estimate to its own leader and
null estimates to everyone else — trading the announcement phase for
Θ(n²) messages per round (ablation A1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..broadcast.reliable import ReliableBroadcast
from ..fd.base import FailureDetector
from ..sim.tasks import Sleep, WaitUntil
from ..types import ProcessId
from .base import ConsensusProtocol

__all__ = ["ECConsensus", "NULL"]


class _NullEstimate:
    """Singleton sentinel for the algorithm's ``null_estimate`` marker
    (distinct from ``None`` so user proposals may be any value)."""

    _instance: Optional["_NullEstimate"] = None

    def __new__(cls) -> "_NullEstimate":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NULL"


#: The null estimate/proposition marker.
NULL = _NullEstimate()

# Wire tags
_COORD = "COORD"
_EST = "EST"
_PROP = "PROP"
_ACK = "ACK"
_NACK = "NACK"


class ECConsensus(ConsensusProtocol):
    """Uniform Consensus from any ◇C detector (see module docstring).

    Parameters:
        fd: the local ◇C detector module (same process).
        rb: the local Reliable Broadcast component used for decisions.
        merged_phase01: enable the merged Phase 0/1 variant (A1).
    """

    name = "ec"

    def __init__(
        self,
        fd: FailureDetector,
        rb: ReliableBroadcast,
        merged_phase01: bool = False,
        round_step: float = 0.01,
        stubborn_period: Optional[float] = None,
        channel: str = "consensus",
    ) -> None:
        super().__init__(channel)
        self.fd = fd
        self.rb = rb
        self.merged_phase01 = merged_phase01
        # Stubborn-channel retransmission (see Component.enable_stubborn_
        # resend): lets the protocol survive runs that violate the
        # reliable-links model, e.g. network partitions.  None = off.
        self.stubborn_period = stubborn_period
        # Local processing cost charged before every round after the first.
        # Without it, a process whose detector simultaneously elects and
        # suspects the same coordinator could start unboundedly many rounds
        # at one simulated instant (every wait already satisfied) — real
        # processors cannot.  Round 1 cannot spin: it is entered once, on
        # propose, so charging it would only delay every decision.
        self.round_step = round_step
        # Round-indexed message state.  Entries are never discarded: a round
        # may receive messages long after the process moved on.
        self._coord_annc: Dict[int, List[ProcessId]] = {}
        self._est_msgs: Dict[int, Dict[ProcessId, Tuple[Any, int]]] = {}
        self._props: Dict[int, Dict[ProcessId, Any]] = {}
        self._replies: Dict[int, Dict[ProcessId, bool]] = {}
        self._my_coord: Dict[int, ProcessId] = {}
        self._acked: Dict[int, ProcessId] = {}
        self._past_phase3: Set[int] = set()
        self._responded_est: Set[Tuple[int, ProcessId]] = set()
        self._nacked: Set[Tuple[int, ProcessId]] = set()
        self.r = 0
        self.estimate: Any = None
        self.ts = 0

    # ------------------------------------------------------------- start-up
    def on_start(self) -> None:
        self.rb.on_deliver(self._on_rdeliver)
        if self.stubborn_period is not None:
            self.enable_stubborn_resend(self.stubborn_period)

    def _on_propose(self, value: Any) -> None:
        self.estimate = value
        self.ts = 0
        self.r = 1
        self.spawn(self._main(), "main")

    # --------------------------------------------------------- the main task
    def _main(self):
        majority = self.n // 2 + 1
        while not self.decided:
            if self.r > 1 and self.round_step:
                yield Sleep(self.round_step)
                if self.decided:
                    return
            r = self.r
            self.mark_round(r)
            if self.merged_phase01:
                coord = yield from self._merged_phase01(r)
            else:
                coord = yield from self._phase0(r)
                if coord is None:
                    continue  # jumped rounds (or decided)
                yield from self._phase1(r, coord)
            if self.decided:
                return
            if coord is None:
                continue
            decidable = False
            proposal: Any = NULL
            if coord == self.pid:
                decidable, proposal = yield from self._phase2(r, majority)
            if self.decided:
                return
            yield from self._phase3(r, coord)
            if self.decided:
                return
            if decidable:
                yield from self._phase4(r, majority, proposal)
            if self.r == r:
                self.r = r + 1

    # ---------------------------------------------------------------- phases
    def _phase0(self, r: int):
        """Determine the coordinator of round *r* (or jump to a higher
        round).  Returns the coordinator pid, or ``None`` after a jump."""
        self.mark_phase(r, 0)
        yield WaitUntil(
            lambda: self.decided
            or self.fd.trusted() == self.pid
            or self._best_announced(r) is not None
        )
        if self.decided:
            return None
        announced = self._best_announced(r)
        if announced is not None:
            ann_round, ann_coord = announced
            if ann_round > r:
                self.r = ann_round
                self._enter_round(ann_round, ann_coord)
                return None
            self._enter_round(r, ann_coord)
            return ann_coord
        # We trust ourselves: become coordinator and announce.
        self._enter_round(r, self.pid)
        self.broadcast((_COORD, r), tag="coord", round=r)
        return self.pid

    def _phase1(self, r: int, coord: ProcessId):
        """Send the current estimate to the coordinator."""
        self.mark_phase(r, 1)
        self._responded_est.add((r, coord))
        self.send(coord, (_EST, r, self.estimate, self.ts), tag="est", round=r)
        return
        yield  # pragma: no cover - makes this a generator

    def _merged_phase01(self, r: int):
        """A1 variant: estimate to own leader, nulls to everyone else."""
        self.mark_phase(r, 1)
        yield WaitUntil(
            lambda: self.decided
            or self.fd.trusted() is not None
            or self._max_seen_round(r) is not None
        )
        if self.decided:
            return None
        jump = self._max_seen_round(r)
        if jump is not None:
            self.r = jump
            self._enter_round(jump, None)
            return None
        coord = self.fd.trusted()
        self._enter_round(r, coord)
        self._responded_est.add((r, coord))
        self.send(coord, (_EST, r, self.estimate, self.ts), tag="est", round=r)
        for q in range(self.n):
            if q != self.pid and q != coord:
                self._responded_est.add((r, q))
                self.send(q, (_EST, r, NULL, 0), tag="null-est", round=r)
        return coord

    def _phase2(self, r: int, majority: int):
        """Coordinator: gather estimates, then propose."""
        self.mark_phase(r, 2)
        ests = self._est_msgs.setdefault(r, {})
        suspected = self.fd.suspected

        def gathered() -> bool:
            return (
                len(ests) >= majority
                and all(
                    q in ests or q in suspected() or q == self.pid
                    for q in range(self.n)
                )
                and self.pid in ests
            )

        yield WaitUntil(
            lambda: self.decided
            or gathered()
            or (self.merged_phase01 and self._max_seen_round(r) is not None)
        )
        if self.decided:
            return False, NULL
        if self.merged_phase01 and not gathered():
            # Merged variant only: without Phase 0 announcements, round
            # catch-up happens by observing higher-round traffic.  Abandon
            # this round; participants escape their Phase 3 the same way.
            jump = self._max_seen_round(r)
            self.r = jump  # type: ignore[assignment]
            self._enter_round(jump, None)  # type: ignore[arg-type]
            return False, NULL
        non_null = [(est, ts, q) for q, (est, ts) in ests.items() if est is not NULL]
        if len(non_null) >= majority:
            # Largest timestamp wins; pid breaks ties deterministically.
            _, _, best = max(non_null, key=lambda item: (item[1], -item[2]))
            proposal = ests[best][0]
            self.broadcast(
                (_PROP, r, proposal), include_self=True, tag="prop", round=r
            )
            return True, proposal
        self.broadcast((_PROP, r, NULL), include_self=True, tag="null-prop", round=r)
        return False, NULL

    def _phase3(self, r: int, coord: ProcessId):
        """Wait for a proposition; adopt/ack, pass on null, nack a suspect."""
        self.mark_phase(r, 3)
        props = self._props.setdefault(r, {})
        suspected = self.fd.suspected

        def actionable() -> bool:
            return (
                coord in props
                or coord in suspected()
                or any(v is not NULL for v in props.values())
            )

        yield WaitUntil(
            lambda: self.decided
            or actionable()
            or (self.merged_phase01 and self._max_seen_round(r) is not None)
        )
        if self.decided:
            return
        if self.merged_phase01 and not actionable():
            # Merged-variant round catch-up (see _phase2).  Obligations to
            # the coordinators of the skipped rounds are settled by
            # _enter_round / the late-nack rule.
            jump = self._max_seen_round(r)
            self.r = jump  # type: ignore[assignment]
            self._enter_round(jump, None)  # type: ignore[arg-type]
            return
        chosen: Optional[ProcessId] = None
        if props.get(coord, NULL) is not NULL and coord in props:
            chosen = coord
        else:
            for sender, value in props.items():
                if value is not NULL:
                    chosen = sender
                    break
        if chosen is not None:
            # Adopt the proposition and ack its coordinator.
            self.estimate = props[chosen]
            self.ts = r
            self._acked[r] = chosen
            self.send(chosen, (_ACK, r), tag="ack", round=r)
        elif coord in props:
            pass  # null proposition from our coordinator: move on silently
        else:
            # We came to suspect our coordinator.
            self._nacked.add((r, coord))
            self.send(coord, (_NACK, r), tag="nack", round=r)
        self._past_phase3.add(r)

    def _phase4(self, r: int, majority: int, proposal: Any):
        """Coordinator that proposed non-null: gather acks, maybe decide."""
        self.mark_phase(r, 4)
        replies = self._replies.setdefault(r, {})
        suspected = self.fd.suspected
        yield WaitUntil(
            lambda: self.decided
            or (
                len(replies) >= majority
                and all(
                    q in replies or q in suspected() or q == self.pid
                    for q in range(self.n)
                )
                and self.pid in replies
            )
        )
        if self.decided:
            return
        acks = sum(1 for positive in replies.values() if positive)
        if acks >= majority:
            # Majority of positive replies suffices even alongside nacks —
            # the paper's improvement over the one-nack-blocks rule.
            self.rb.rbroadcast(("DECIDE", self.channel, r, proposal))

    # ------------------------------------------------------- round accounting
    def _enter_round(self, r: int, coord: Optional[ProcessId]) -> None:
        """Fix our coordinator for round *r* and settle obligations to
        coordinators of now-previous rounds (Fig. 4 tasks 1 and 2 for
        announcements/propositions that were buffered while we advanced).
        Settled rounds are then pruned: messages for rounds below the
        current one are always answered immediately on arrival, so their
        buffers can never be read again — without pruning, runs with long
        unstable prefixes (thousands of rounds) degrade quadratically."""
        if coord is not None:
            self._my_coord[r] = coord
        for ann_round, senders in self._coord_annc.items():
            if ann_round > r:
                continue
            for sender in senders:
                if ann_round == r and sender == coord:
                    continue
                self._send_null_est(ann_round, sender)
        for prop_round, senders in self._props.items():
            if prop_round >= r:
                continue
            for sender, value in senders.items():
                self._maybe_late_nack(prop_round, sender, value)
        self._prune_below(r)

    def _prune_below(self, r: int) -> None:
        """Drop all buffered state for rounds < *r* (see _enter_round)."""
        for store in (
            self._coord_annc,
            self._est_msgs,
            self._props,
            self._replies,
            self._my_coord,
            self._acked,
        ):
            stale = [rr for rr in store if rr < r]
            for rr in stale:
                del store[rr]
        self._past_phase3 = {rr for rr in self._past_phase3 if rr >= r}
        self._responded_est = {
            key for key in self._responded_est if key[0] >= r
        }
        self._nacked = {key for key in self._nacked if key[0] >= r}

    def _send_null_est(self, r: int, coord: ProcessId) -> None:
        if (r, coord) in self._responded_est:
            return
        self._responded_est.add((r, coord))
        self.send(coord, (_EST, r, NULL, 0), tag="null-est", round=r)

    def _maybe_late_nack(self, r: int, sender: ProcessId, value: Any) -> None:
        if value is NULL:
            return
        if self._acked.get(r) == sender or (r, sender) in self._nacked:
            return
        self._nacked.add((r, sender))
        self.send(sender, (_NACK, r), tag="nack", round=r)

    def _best_announced(self, r: int) -> Optional[Tuple[int, ProcessId]]:
        """The highest-round announcement with round >= *r* (first sender
        wins within a round), or ``None``."""
        best: Optional[Tuple[int, ProcessId]] = None
        for ann_round, senders in self._coord_annc.items():
            if ann_round >= r and senders and (best is None or ann_round > best[0]):
                best = (ann_round, senders[0])
        return best

    def _max_seen_round(self, r: int) -> Optional[int]:
        """Merged variant: highest round > *r* seen in any message."""
        best = None
        for store in (self._est_msgs, self._props):
            for seen_round in store:
                if seen_round > r and (best is None or seen_round > best):
                    best = seen_round
        return best

    # ------------------------------------------------------------- receiving
    def on_message(self, src: ProcessId, payload: Any) -> None:
        kind = payload[0]
        if kind == _COORD:
            _, r = payload
            self._coord_annc.setdefault(r, []).append(src)
            if r < self.r:
                self._send_null_est(r, src)
            elif r == self.r and self.r in self._my_coord and src != self._my_coord[self.r]:
                self._send_null_est(r, src)
            # Otherwise the Phase 0 wait predicate consumes the buffer.
        elif kind == _EST:
            _, r, est, ts = payload
            self._est_msgs.setdefault(r, {})[src] = (est, ts)
        elif kind == _PROP:
            _, r, value = payload
            self._props.setdefault(r, {})[src] = value
            if value is not NULL and (
                r < self.r or (r in self._past_phase3 and self._acked.get(r) != src)
            ):
                self._maybe_late_nack(r, src, value)
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
