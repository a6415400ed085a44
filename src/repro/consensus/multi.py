"""Replicated state machine on repeated ◇C consensus.

The classical motivation for consensus — and the paper's implicit
application — is state-machine replication: run one consensus instance per
log slot and apply decided commands in slot order.  This component does
exactly that on top of any of the library's consensus algorithms
(:class:`~repro.consensus.ec_consensus.ECConsensus` by default):

* clients call :meth:`submit` at any replica; the command is disseminated
  to every replica, which enqueues it (deduplicated, ordered by id);
* each open slot proposes a **batch** of pending commands (up to
  ``max_batch``; one bare command in the legacy ``max_batch=1`` shape), so
  slot rate and command rate decouple;
* up to ``pipeline_depth`` slots run concurrently — commands arriving
  while slot *k* is undecided propose straight into slot *k + 1* instead
  of queueing behind it — while applies stay strictly in slot order;
* when slot *i* decides, its commands are applied in batch order (exactly
  once — commands re-decided by an overlapping batch are skipped), the
  queue is trimmed, and the window slides forward;
* an applied slot is retired: its consensus instance and broadcast are
  detached from the process, so a long-running replica holds only the
  slots in its window, not one pair of components per slot ever decided.

Batches are an ordering optimization, not a new trust boundary: a decided
batch fans back out to per-command ``on_apply`` callbacks, so everything
downstream (the KV session table, the log verdicts) still sees a stream of
single commands.  With ``max_batch=1, pipeline_depth=1`` the component is
behaviourally identical to the historical one-command-per-slot machine —
the parity tests pin that.

This is the substrate for the replicated key-value-store example.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..broadcast.reliable import ReliableBroadcast
from ..errors import ConfigurationError
from ..fd.base import FailureDetector
from ..sim.component import Component
from ..types import ProcessId
from .base import ConsensusProtocol
from .ec_consensus import ECConsensus

__all__ = ["ReplicatedStateMachine", "NOOP", "BATCH"]

#: Decision filler for slots where a replica had nothing to propose.
NOOP = ("__noop__",)

#: Tag marking a batched slot value: ``(BATCH, (command, command, ...))``.
BATCH = "__batch__"

#: A command: (submitting pid, per-submitter sequence, payload).
Command = Tuple[ProcessId, int, Any]


class ReplicatedStateMachine(Component):
    """Slot-by-slot replicated log driven by repeated consensus."""

    channel = "rsm"

    def __init__(
        self,
        fd: FailureDetector,
        consensus_cls: Type[ConsensusProtocol] = ECConsensus,
        channel: str = "rsm",
        rebroadcast_period: Optional[float] = None,
        consensus_kwargs: Optional[dict] = None,
        idle_grace: Optional[float] = None,
        max_batch: int = 1,
        pipeline_depth: int = 1,
    ) -> None:
        super().__init__(channel)
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        self.fd = fd
        self.consensus_cls = consensus_cls
        self.consensus_kwargs = dict(consensus_kwargs or {})
        # When set: periodically re-disseminate pending commands and use
        # retransmitting Reliable Broadcast for decisions.  Both are needed
        # only when the run violates the reliable-links model (partitions);
        # they implement the usual "clients retry" recovery story.
        self.rebroadcast_period = rebroadcast_period
        # When set: a head slot with nothing to propose delays its NOOP
        # proposal by this long.  Liveness is untouched — a command
        # arriving mid-grace is proposed immediately (dissemination
        # reaches every replica, so every replica un-parks the slot), and
        # the timer is only the fallback keeping wholly idle clusters
        # live.  Off (None) by default: the eager-NOOP behaviour is what
        # the deterministic parity runs pin down.  Long-running services
        # want it, because an idle service otherwise burns one consensus
        # instance per slot at full speed forever.
        self.idle_grace = idle_grace
        #: Most commands one slot value may carry; 1 keeps the legacy
        #: bare-command wire shape.
        self.max_batch = max_batch
        #: How many slots may be undecided at once.  Non-head slots only
        #: propose when they have fresh commands to carry; they never burn
        #: eager NOOPs, so a deep window on an idle cluster costs nothing.
        self.pipeline_depth = pipeline_depth
        self.log: List[Any] = []
        self._pending: List[Command] = []
        self._seen: set = set()
        self._applied: set = set()
        self._next_seq = 0
        self._instances: Dict[int, ConsensusProtocol] = {}
        #: Command ids proposed per undecided slot; used
        #: to keep concurrent slots from proposing overlapping batches.
        self._inflight: Dict[int, Tuple[Tuple[ProcessId, int], ...]] = {}
        #: Decided values buffered until every lower slot has applied.
        self._decided: Dict[int, Any] = {}
        self._apply_next = 0
        self._next_open = 0
        self._noop_timer = None
        self._apply_callbacks: List[Callable[[int, Any], None]] = []

    # ----------------------------------------------------------------- API
    def on_apply(self, callback: Callable[[int, Any], None]) -> None:
        """Register *callback(slot, command_payload)* for applied commands."""
        self._apply_callbacks.append(callback)

    def submit(self, payload: Any) -> Command:
        """Submit a command at this replica; it will eventually be applied
        at every correct replica (in the same log position everywhere)."""
        command: Command = (self.pid, self._next_seq, payload)
        self._next_seq += 1
        self.broadcast(("CMD", command), include_self=True, tag="cmd")
        return command

    @property
    def current_slot(self) -> int:
        """Index of the lowest slot still being agreed on."""
        return self._apply_next

    @property
    def pending_count(self) -> int:
        """Commands queued in the batch accumulator, not yet applied."""
        return len(self._pending)

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        self._fill_window()
        if self.rebroadcast_period is not None:
            self.periodically(self.rebroadcast_period, self._rebroadcast)

    def _rebroadcast(self) -> None:
        for command in self._pending:
            self.broadcast(("CMD", command), tag="cmd-retry")

    @staticmethod
    def _cid(command: Command) -> Tuple[ProcessId, int]:
        """Stable command identity (the payload itself may be unhashable)."""
        return (command[0], command[1])

    def on_message(self, src: ProcessId, payload: Any) -> None:
        kind, command = payload
        if kind != "CMD" or self._cid(command) in self._seen:
            return
        self._seen.add(self._cid(command))
        if self._cid(command) not in self._applied:
            # Ids are unique (``_seen``), so this is the sorted order.
            insort(self._pending, command, key=self._cid)
            self._reconsider_open_slots()

    # ------------------------------------------------------------- proposing
    def _fill_window(self) -> None:
        while self._next_open < self._apply_next + self.pipeline_depth:
            self._open_slot(self._next_open)
            self._next_open += 1

    def _open_slot(self, slot: int) -> None:
        rb = ReliableBroadcast(
            channel=f"{self.channel}.c{slot}.rb",
            retransmit_period=self.rebroadcast_period,
        )
        self.process.attach(rb)
        instance = self.consensus_cls(
            self.fd, rb, channel=f"{self.channel}.c{slot}",
            **self.consensus_kwargs,
        )
        self.process.attach(instance)
        self._instances[slot] = instance
        instance.on_decide(lambda value, s=slot: self._on_slot_decided(s, value))
        self._consider_proposal(slot)

    def _reconsider_open_slots(self) -> None:
        for slot in range(self._apply_next, self._next_open):
            self._consider_proposal(slot)

    def _proposable(self, slot: int) -> List[Command]:
        """Pending commands not already carried by another undecided slot."""
        taken = set()
        for other, cids in self._inflight.items():
            if other != slot:
                taken.update(cids)
        batch = [c for c in self._pending if self._cid(c) not in taken]
        return batch[: self.max_batch]

    def _consider_proposal(self, slot: int) -> None:
        instance = self._instances.get(slot)
        if instance is None or instance.proposed or instance.decided:
            return
        batch = self._proposable(slot)
        if batch:
            # A non-full batch proposes at once: under load the pipeline
            # itself accumulates batches (commands arriving while slots are
            # in flight pile up for the next one).
            self._propose(slot, batch)
            return
        if slot != self._apply_next:
            return  # non-head slots wait for commands; no eager NOOPs
        if self.idle_grace is None:
            self._propose(slot, None)
        elif self._noop_timer is None or self._noop_timer[0] != slot:
            # Idle head slot: park it; a CMD arrival or the grace timer
            # (the liveness fallback) proposes later.
            if self._noop_timer is not None:
                self._noop_timer[1].cancel()
            self._noop_timer = (
                slot, self.set_timer(self.idle_grace, self._grace_expired, slot)
            )

    @staticmethod
    def _span_of(command: Command) -> Optional[str]:
        """The causal-span id riding *command*'s payload, if any."""
        payload = command[2]
        if isinstance(payload, dict):
            span = payload.get("span")
            return span if isinstance(span, str) else None
        return None

    def _trace_spans(self, kind: str, slot: int, commands) -> None:
        """Emit one ``span.*`` stage event per span-carrying command."""
        if not self.world.trace.wants(kind):
            return
        for command in commands:
            span = self._span_of(command)
            if span is not None:
                self.trace(kind, span=span, slot=slot)

    def _propose(self, slot: int, batch: Optional[List[Command]]) -> None:
        self._cancel_slot_timers(slot)
        instance = self._instances[slot]
        if not batch:
            self._inflight.pop(slot, None)
            instance.propose(NOOP)
            return
        self._inflight[slot] = tuple(self._cid(c) for c in batch)
        self._trace_spans("span.propose", slot, batch)
        if self.max_batch == 1:
            instance.propose(batch[0])
            return
        self.trace("rsm.batch_proposed", slot=slot, size=len(batch))
        self.metrics.observe("rsm_batch_size", len(batch))
        instance.propose((BATCH, tuple(batch)))

    def _grace_expired(self, slot: int) -> None:
        if self._noop_timer is not None and self._noop_timer[0] == slot:
            self._noop_timer = None
        instance = self._instances.get(slot)
        if instance is None or instance.proposed or instance.decided:
            return
        self._propose(slot, self._proposable(slot) or None)

    def _cancel_slot_timers(self, slot: int) -> None:
        if self._noop_timer is not None and self._noop_timer[0] == slot:
            self._noop_timer[1].cancel()
            self._noop_timer = None

    # -------------------------------------------------------------- applying
    @staticmethod
    def _commands_in(value: Any) -> Tuple[Command, ...]:
        """The commands a decided slot value carries, in batch order."""
        if value == NOOP:
            return ()
        if (
            isinstance(value, (tuple, list))
            and len(value) == 2
            and value[0] == BATCH
        ):
            return tuple(tuple(c) for c in value[1])
        return (tuple(value),)

    def _on_slot_decided(self, slot: int, value: Any) -> None:
        self._cancel_slot_timers(slot)
        self._inflight.pop(slot, None)
        self._trace_spans("span.decide", slot, self._commands_in(value))
        self._decided[slot] = value
        while self._apply_next in self._decided:
            self._apply_value(
                self._apply_next, self._decided.pop(self._apply_next)
            )
            # One tick later: the decision is delivered inside the slot's
            # own running task, which cannot be stopped from within.
            self.set_timer(0.0, self._retire, self._apply_next)
            self._apply_next += 1
        self._fill_window()
        self._reconsider_open_slots()

    def _retire(self, slot: int) -> None:
        """Release an applied slot: detach its consensus instance and its
        broadcast — unless the broadcast retransmits, which is what lets a
        replica cut off by a partition learn the decision once it heals."""
        instance = self._instances.pop(slot)
        self.process.detach(instance)
        if instance.rb.retransmit_period is None:
            self.process.detach(instance.rb)

    def _apply_value(self, slot: int, value: Any) -> None:
        commands = self._commands_in(value)
        if not commands:
            return
        is_batch = (
            isinstance(value, (tuple, list))
            and len(value) == 2
            and value[0] == BATCH
        )
        duplicates = 0
        index = 0
        for command in commands:
            cid = self._cid(command)
            if cid in self._applied:
                # An overlapping batch (a retried command proposed into two
                # slots) already applied it; exactly-once holds here.
                duplicates += 1
                continue
            self._applied.add(cid)
            self.log.append(command[2])
            self.trace("apply", slot=slot, index=index, command=command[2])
            span = self._span_of(command)
            if span is not None:
                self.trace("span.apply", span=span, slot=slot)
            for callback in self._apply_callbacks:
                callback(slot, command[2])
            index += 1
        if is_batch:
            self.trace(
                "rsm.batch_applied",
                slot=slot, size=len(commands), duplicates=duplicates,
            )
        decided = set(self._cid(c) for c in commands)
        self._pending = [
            c for c in self._pending if self._cid(c) not in decided
        ]
