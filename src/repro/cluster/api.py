"""The one cluster contract: :class:`ClusterAPI` and the shared verdicts.

Two very different runtimes host the paper's protocol stacks:

* :class:`~repro.cluster.local.LocalCluster` — *n* :class:`NodeHost`\\ s in
  one OS process sharing a clock (wall or virtual) and one trace sink;
* :class:`~repro.proc.ProcessCluster` — one OS process *per node*, crashes
  delivered as real ``SIGKILL``\\ s, traces shipped as per-process JSONL
  files and merged postmortem.

Test harnesses, examples, and the CLI should not care which one they
drive.  :class:`ClusterAPI` is the structural protocol both implement —
the whole crash-recovery experiment is expressible against it::

    cluster.crash(pid=0, at=2.5)          # schedule a crash-stop kill
    cluster.partition([[0], [1, 2]], at=1.0)   # fault verbs, same shape
    cluster.heal(at=2.0)
    await cluster.start()                 # boot every node
    await cluster.wait_quiescent(30.0)    # let the scenario play out
    await cluster.stop()                  # tear down, flush traces
    trace = cluster.traces()              # one time-ordered stream
    verdicts = cluster.verdicts()         # machine-checked properties

Beyond ``crash``, the protocol carries the full fault surface in
:data:`FAULT_VERBS` — stalls, partitions, link degradation, loss storms,
clock skew — every verb schedulable via ``at=`` exactly like ``crash``.
The verbs are sugar: each is one call of ``fault(op, args, at=None)``, the
single entry point over the :data:`~repro.sim.faults.FAULT_OPS`
vocabulary, written once in :class:`FaultVerbs` — which is what the
declarative :mod:`repro.scenario` layer compiles to.

Crashes follow the paper's **crash-stop** model: a crashed process never
recovers and is excluded from the correct set (no restart semantics).

:func:`standard_verdicts` is the shared postmortem: it runs the
:mod:`repro.analysis` property checkers for the paper's ◇C class (strong
completeness, eventual weak accuracy, Ω eventual leader agreement,
trusted ∉ suspected) plus the four Uniform Consensus properties over any
trace source, so an in-memory live trace and a merged multi-process trace
are judged by exactly the same code; :func:`stack_verdicts` is the one
dispatch (``rsm`` stack → :func:`rsm_verdicts`) every substrate calls.
"""

from __future__ import annotations

from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Protocol, Sequence,
    Tuple, runtime_checkable,
)

from ..analysis import check_consensus, check_fd_class, extract_outcome
from ..errors import ConfigurationError
from ..fd.classes import EVENTUALLY_CONSISTENT, FDClass
from ..obs.reader import TraceSource, as_trace
from ..obs.sinks import MemorySink
from ..sim.faults import FAULT_OPS, check_fault
from ..types import ProcessId, Time

__all__ = [
    "ClusterAPI",
    "FAULT_VERBS",
    "FaultVerbs",
    "stack_verdicts",
    "standard_verdicts",
    "rsm_verdicts",
    "verdicts_ok",
]

#: Every fault verb a :class:`ClusterAPI` implementation must carry: one
#: per op of the shared vocabulary.
FAULT_VERBS = tuple(FAULT_OPS)


@runtime_checkable
class ClusterAPI(Protocol):
    """What every cluster runtime exposes (see module docstring).

    The protocol is structural and ``@runtime_checkable``, so
    ``isinstance(cluster, ClusterAPI)`` verifies a new implementation
    carries the whole surface.
    """

    n: int

    @property
    def correct_pids(self) -> FrozenSet[ProcessId]:
        """Nodes not (yet) crashed — the paper's correct set, so far."""
        ...

    async def start(self) -> None:
        """Boot every node and flush any pre-start crash schedule."""
        ...

    async def stop(self) -> None:
        """Tear the cluster down and flush trace outputs.  Idempotent."""
        ...

    def crash(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        """Crash-stop node *pid* at cluster time *at* (``None`` = now).

        May be called before :meth:`start` to schedule the failure
        pattern up front.  Crashed nodes never restart.
        """
        ...

    # ------------------------------------------------------- fault verbs
    # Every verb takes ``at`` — cluster time to fire at (``None`` = now),
    # schedulable before start() like crash() — so a declarative scenario
    # compiles to the same calls on either substrate.

    def fault(
        self, op: str, args: Dict[str, Any], at: Optional[Time] = None
    ) -> None:
        """Inject one fault of the :data:`~repro.sim.faults.FAULT_OPS`
        vocabulary — the entry point every named verb below is sugar
        over.  Validates eagerly (a bad fault raises here, not inside a
        timer callback), queues before :meth:`start`, arms after it."""
        ...

    def stall(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        """Freeze node *pid*: it stops executing (process cluster:
        ``SIGSTOP``) or falls silent (local cluster: every message from
        or to it dropped) until :meth:`resume`.  Unlike :meth:`crash`,
        the node stays in the correct set — a stall models the
        crash-recovery-adjacent pause the paper's detectors must forgive
        without violating crash-stop."""
        ...

    def resume(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        """Unfreeze a stalled node (process cluster: ``SIGCONT``)."""
        ...

    def partition(
        self,
        groups: Sequence[Iterable[ProcessId]],
        at: Optional[Time] = None,
    ) -> None:
        """Split the network into *groups*; traffic crossing a group
        boundary is dropped in both directions.  Pids named in no group
        form an implicit final group."""
        ...

    def heal(self, at: Optional[Time] = None) -> None:
        """Remove the active network partition."""
        ...

    def isolate(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        """Partition node *pid* away from everyone else."""
        ...

    def degrade(
        self,
        src: ProcessId,
        dst: ProcessId,
        loss: Optional[float] = None,
        delay: Optional[Time] = None,
        at: Optional[Time] = None,
    ) -> None:
        """Make the directed link ``src -> dst`` lossy (*loss* probability
        in [0, 1]) and/or slow (*delay* extra seconds per message)."""
        ...

    def restore(
        self, src: ProcessId, dst: ProcessId, at: Optional[Time] = None
    ) -> None:
        """Undo :meth:`degrade` for the directed link ``src -> dst``."""
        ...

    def storm(self, loss: float, at: Optional[Time] = None) -> None:
        """Start a cluster-wide message-loss storm: every link drops
        messages with at least probability *loss* until :meth:`calm`."""
        ...

    def calm(self, at: Optional[Time] = None) -> None:
        """End the active message-loss storm."""
        ...

    def skew(
        self, pid: ProcessId, offset: Time, at: Optional[Time] = None
    ) -> None:
        """Step node *pid*'s clock by *offset* seconds (cumulative across
        calls) — the one-shot NTP-style clock jump."""
        ...

    async def wait_quiescent(self, timeout: Optional[Time] = None) -> bool:
        """Block until the scenario has played out (every node finished
        its run or crashed); returns whether quiescence was reached
        within *timeout* seconds."""
        ...

    def traces(self) -> MemorySink:
        """The run's events as one time-ordered in-memory stream."""
        ...

    def verdicts(self, channel: str = "fd", algo: str = "ec") -> Dict[str, Any]:
        """Machine-checked FD + consensus properties of the run."""
        ...


class FaultVerbs:
    """The fault half of :class:`ClusterAPI`, written once for every substrate.

    :meth:`fault` validates, queues before start and arms after it; the
    eleven named verbs are one-liners over it (contracts documented on
    :class:`ClusterAPI`).  A substrate supplies only what is genuinely its
    own: ``_call_at(at, callback, *args)`` — run a callback at cluster time
    *at* — and ``_deliver(op, args)`` — make one validated fault happen now.
    """

    n: int

    def __init__(self) -> None:
        self._started = False
        self._pending_faults: List[
            Tuple[str, Dict[str, Any], Optional[Time]]
        ] = []

    def fault(
        self, op: str, args: Dict[str, Any], at: Optional[Time] = None
    ) -> None:
        check_fault(op, args, self.n)
        if not self._started:
            self._pending_faults.append((op, args, at))
        else:
            self._arm(op, args, at)

    def _arm(self, op: str, args: Dict[str, Any], at: Optional[Time]) -> None:
        if at is None:
            self._deliver(op, args)
        else:
            self._call_at(at, self._deliver, op, args)

    def _mark_started(self) -> None:
        if self._started:
            raise ConfigurationError("cluster already started")
        self._started = True

    def _arm_pending_faults(self) -> None:
        """Move the pre-start schedule onto the clock, in call order (call
        once the substrate's time zero is fixed)."""
        for op, args, at in self._pending_faults:
            self._arm(op, args, at)
        self._pending_faults.clear()

    def crash(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        self.fault("crash", {"pid": pid}, at)

    def stall(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        self.fault("stall", {"pid": pid}, at)

    def resume(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        self.fault("resume", {"pid": pid}, at)

    def partition(
        self,
        groups: Sequence[Iterable[ProcessId]],
        at: Optional[Time] = None,
    ) -> None:
        self.fault("partition", {"groups": [list(g) for g in groups]}, at)

    def heal(self, at: Optional[Time] = None) -> None:
        self.fault("heal", {}, at)

    def isolate(self, pid: ProcessId, at: Optional[Time] = None) -> None:
        self.fault("isolate", {"pid": pid}, at)

    def degrade(
        self,
        src: ProcessId,
        dst: ProcessId,
        loss: Optional[float] = None,
        delay: Optional[Time] = None,
        at: Optional[Time] = None,
    ) -> None:
        self.fault(
            "degrade",
            {"src": src, "dst": dst, "loss": loss, "delay": delay}, at,
        )

    def restore(
        self, src: ProcessId, dst: ProcessId, at: Optional[Time] = None
    ) -> None:
        self.fault("restore", {"src": src, "dst": dst}, at)

    def storm(self, loss: float, at: Optional[Time] = None) -> None:
        self.fault("storm", {"loss": loss}, at)

    def calm(self, at: Optional[Time] = None) -> None:
        self.fault("calm", {}, at)

    def skew(
        self, pid: ProcessId, offset: Time, at: Optional[Time] = None
    ) -> None:
        self.fault("skew", {"pid": pid, "offset": offset}, at)


def stack_verdicts(
    stack: str,
    trace: TraceSource,
    correct: FrozenSet[ProcessId],
    channel: str = "fd",
    algo: str = "ec",
    end_time: Optional[Time] = None,
) -> Dict[str, Any]:
    """Judge a run of a deployment of *stack* — the one dispatch every
    substrate's ``verdicts()`` calls: an ``rsm`` stack by
    :func:`rsm_verdicts` (log-level agreement/prefix/progress), anything
    else by :func:`standard_verdicts` (one-shot Uniform Consensus)."""
    if stack == "rsm":
        return rsm_verdicts(trace, correct, channel=channel, end_time=end_time)
    return standard_verdicts(
        trace, correct, channel=channel, algo=algo, end_time=end_time)


def _fd_verdicts(
    trace: TraceSource,
    correct: FrozenSet[ProcessId],
    channel: str,
    fd_class: FDClass,
    end_time: Optional[Time],
    margin: float,
) -> Dict[str, Any]:
    """The ``fd.<property>`` block both judges open with."""
    return {
        f"fd.{name}": result
        for name, result in check_fd_class(
            trace, fd_class, correct,
            channel=channel, margin=margin, end_time=end_time,
        ).items()
    }


def standard_verdicts(
    trace: TraceSource,
    correct: FrozenSet[ProcessId],
    channel: str = "fd",
    algo: str = "ec",
    fd_class: FDClass = EVENTUALLY_CONSISTENT,
    end_time: Optional[Time] = None,
    margin: float = 0.1,
) -> Dict[str, Any]:
    """Judge one run: ◇C class properties plus Uniform Consensus.

    Returns a flat dict: ``fd.<property>`` keys map to
    :class:`~repro.analysis.PropertyCheck` objects (truthy when satisfied)
    and ``consensus.<property>`` keys map to plain bools.  Use
    :func:`verdicts_ok` for the single pass/fail bit.
    """
    trace = as_trace(trace)
    verdicts = _fd_verdicts(trace, correct, channel, fd_class, end_time, margin)
    outcome = extract_outcome(trace, algo)
    for name, ok in check_consensus(outcome, correct).items():
        verdicts[f"consensus.{name}"] = ok
    return verdicts


def rsm_verdicts(
    trace: TraceSource,
    correct: FrozenSet[ProcessId],
    channel: str = "fd",
    fd_class: FDClass = EVENTUALLY_CONSISTENT,
    end_time: Optional[Time] = None,
    margin: float = 0.1,
) -> Dict[str, Any]:
    """Judge one replicated-state-machine run (``--stack rsm``).

    The FD-class checks are the same as :func:`standard_verdicts`, but the
    one-shot Uniform Consensus checks do not fit a slot-by-slot log (many
    ``decide`` events per pid; trailing slots legitimately differ while a
    replica catches up).  The log-level properties are checked from the
    ``apply`` events instead:

    * ``rsm.agreement`` — no two replicas applied different commands in
      the same slot;
    * ``rsm.prefix`` — each replica's applied log is a prefix of the
      longest: its applied slots are exactly the globally applied slots
      up to its own frontier (NOOP slots record no ``apply``, so slot
      sets are sparse but must stay aligned);
    * ``rsm.progress`` — every correct replica applied at least one
      command whenever any replica did.
    """
    trace = as_trace(trace)
    verdicts = _fd_verdicts(trace, correct, channel, fd_class, end_time, margin)
    # Log positions are (slot, index): batched slots apply several
    # commands, each traced with its position inside the batch (older
    # traces without the key collapse to index 0, the unbatched shape).
    logs: Dict[ProcessId, Dict[Tuple[int, int], Any]] = {}
    for event in trace.events:
        if event.kind == "apply" and event.pid is not None:
            position = (event.get("slot"), event.get("index") or 0)
            logs.setdefault(event.pid, {})[position] = event.get("command")
    positions: Dict[Tuple[int, int], Any] = {}
    agreement = True
    for log in logs.values():
        for position, command in log.items():
            if position in positions and positions[position] != command:
                agreement = False
            positions.setdefault(position, command)
    prefix = True
    applied_positions = sorted(positions)
    for log in logs.values():
        frontier = max(log)
        expected = [p for p in applied_positions if p <= frontier]
        if sorted(log) != expected:
            prefix = False
    progress = (not positions) or all(pid in logs for pid in correct)
    verdicts["rsm.agreement"] = agreement
    verdicts["rsm.prefix"] = prefix
    verdicts["rsm.progress"] = progress
    return verdicts


def verdicts_ok(verdicts: Dict[str, Any]) -> bool:
    """True iff every verdict in *verdicts* holds."""
    return all(bool(result) for result in verdicts.values())
