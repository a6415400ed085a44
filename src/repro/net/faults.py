"""Fault injection for live transports — the runtime twin of
:mod:`repro.sim.links` and :class:`repro.sim.partition.NetworkController`.

A :class:`FaultPlan` is the cluster-wide control surface: per-directed-pair
loss probability, delay models, partitions, process stalls, and loss
storms, with the same verbs the simulator's controller exposes
(``partition`` / ``heal`` / ``isolate`` / ``degrade`` / ``restore``) plus
the scenario-layer additions (``stall`` / ``resume`` / ``storm`` /
``calm``).  A :class:`FaultyTransport` wraps any real transport and
consults the shared plan on every send: drop, delay (through the host
clock, so virtual-clock runs stay deterministic), or pass through.

Injecting at the *sender* mirrors the simulator, where the outgoing link
decides a message's fate at send time; it also means a partition is
symmetric only if the plan says so — directed pairs are first-class, as in
:mod:`repro.sim.links`.

The fault *vocabulary* is defined here too, once: :data:`FAULT_OPS` names
every op and its argument shape, :func:`check_fault` is the only validator
of those arguments, and :meth:`FaultPlan.apply` is the only op → plan
dispatch — it also returns the ``scenario.*`` trace payload, so the event
a fault records is defined once as well.  Every substrate (the cluster
verbs, the scenario layer, the per-node control endpoint, the CLI) is a
thin driver of these three.

An idle plan (no partition, no stalls, no loss, no delay) costs one
attribute read per send: :attr:`FaultPlan.active` is maintained by the
mutating verbs, and :meth:`FaultyTransport.send` forwards straight to the
wrapped transport while it is ``False``.  That is what lets every cluster
wrap its transports unconditionally — the fault surface is always
reachable, and the no-fault hot path stays as fast as a bare transport.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..sim.delays import DelayModel, FixedDelay
from ..sim.partition import resolve_groups
from ..types import ProcessId, Time
from .transport import Transport

__all__ = [
    "FAULT_OPS", "PID_ARGS", "check_fault", "FaultPlan", "FaultyTransport",
]

Pair = Tuple[ProcessId, ProcessId]

#: The fault vocabulary: op -> (required arg names, optional arg names).
#: An optional arg may also be passed as ``None``.  A new fault family is
#: one row here plus one branch in :meth:`FaultPlan.apply`.
FAULT_OPS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "crash": (("pid",), ()),
    "stall": (("pid",), ()),
    "resume": (("pid",), ()),
    "partition": (("groups",), ()),
    "heal": ((), ()),
    "isolate": (("pid",), ()),
    "degrade": (("src", "dst"), ("loss", "delay")),
    "restore": (("src", "dst"), ()),
    "storm": (("loss",), ()),
    "calm": ((), ()),
    "skew": (("pid", "offset"), ()),
}

#: Arg names holding one process id (``groups`` holds lists of them); every
#: other arg is a number.
PID_ARGS = ("pid", "src", "dst")


def _check_pid(pid: Any, n: Optional[int]) -> None:
    if not isinstance(pid, int) or isinstance(pid, bool):
        raise ConfigurationError(f"pid must be an int, got {pid!r}")
    if n is not None and not 0 <= pid < n:
        raise ConfigurationError(f"pid {pid} out of range for n={n}")


def _check_loss(loss: float) -> float:
    """Validate a loss probability: the full closed interval is legal
    (1.0 = drop everything, the blackhole link)."""
    if not 0.0 <= loss <= 1.0:
        raise ConfigurationError(f"loss {loss} outside [0, 1]")
    return loss


def check_fault(op: Any, args: Dict[str, Any], n: Optional[int] = None) -> None:
    """Validate one ``(op, args)`` fault against :data:`FAULT_OPS`.

    The single place arg shapes, pid ranges (when the cluster size *n* is
    known), ``loss`` in [0, 1], ``delay`` >= 0 and partition-group
    disjointness are checked; raises :class:`ConfigurationError`.
    """
    if not isinstance(op, str) or op not in FAULT_OPS:
        raise ConfigurationError(
            f"unknown fault op {op!r}; known ops: " + ", ".join(FAULT_OPS)
        )
    required, optional = FAULT_OPS[op]
    missing = [name for name in required if name not in args]
    if missing:
        raise ConfigurationError(f"fault op {op!r} missing arg(s): {missing}")
    unknown = sorted(set(args) - set(required) - set(optional))
    if unknown:
        raise ConfigurationError(
            f"fault op {op!r} got unknown arg(s): {unknown}"
        )
    for name, value in args.items():
        if name in PID_ARGS:
            _check_pid(value, n)
        elif name == "groups":
            resolve_groups(value, n)
        elif value is None and name in optional:
            continue
        elif (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            raise ConfigurationError(
                f"fault op {op!r}: {name} must be a finite number, "
                f"got {value!r}"
            )
        elif name == "loss":
            _check_loss(value)
        elif name == "delay" and value < 0:
            raise ConfigurationError(f"negative delay {value}")


class FaultPlan:
    """Shared, mutable description of what the network does to traffic."""

    def __init__(
        self,
        n: int,
        seed: int = 0,
        loss_prob: float = 0.0,
        delay: Optional[DelayModel] = None,
    ) -> None:
        self.n = n
        self.rng = random.Random(seed)
        self.default_loss = _check_loss(loss_prob)
        self.default_delay = delay
        self._pair_loss: Dict[Pair, float] = {}
        self._pair_delay: Dict[Pair, Optional[DelayModel]] = {}
        self._cut: Dict[Pair, bool] = {}
        self._partition_groups: Optional[List[List[ProcessId]]] = None
        self._stalled: Set[ProcessId] = set()
        self._storm_loss: Optional[float] = None
        self._storm_delay: Optional[DelayModel] = None
        #: pid -> that node's steppable clock (anything with ``skew(offset)``),
        #: registered by whoever owns the node; the ``skew`` op steps it.
        self.clocks: Dict[ProcessId, Any] = {}
        self.dropped = 0
        self.delayed = 0
        self._refresh_active()

    # ------------------------------------------------------------- fast path
    @property
    def active(self) -> bool:
        """``False`` while the plan would pass every send through untouched
        (the :class:`FaultyTransport` fast path)."""
        return self._active

    def _refresh_active(self) -> None:
        self._active = bool(
            self._cut
            or self._stalled
            or self._pair_loss
            or self._pair_delay
            or self._storm_loss is not None
            or self._storm_delay is not None
            or self.default_loss
            or self.default_delay is not None
        )

    # ------------------------------------------------------------ one entry
    def apply(
        self, op: str, args: Dict[str, Any]
    ) -> Tuple[str, Optional[ProcessId], Dict[str, Any]]:
        """Apply one fault that :func:`check_fault` accepted.

        Returns the ``(kind, pid, data)`` of the ``scenario.*`` trace event
        narrating it; recording it is the caller's business.  ``crash`` is
        not a plan fault — tearing a node down is each substrate's own.
        """
        pid = args.get("pid")
        if op == "partition":
            groups = self.partition(*args["groups"])
            return "scenario.partition", None, {"groups": groups}
        if op == "isolate":
            return "scenario.partition", None, {"groups": self.isolate(pid)}
        if op in ("stall", "resume"):
            getattr(self, op)(pid)
            return f"scenario.{op}", pid, {"target": pid, "signal": "silence"}
        if op == "degrade":
            loss, delay = args.get("loss"), args.get("delay")
            self.degrade(
                args["src"], args["dst"], loss_prob=loss,
                delay=None if delay is None else FixedDelay(delay),
            )
            return "scenario.degrade", None, {
                "src": args["src"], "dst": args["dst"],
                "loss": loss, "delay": delay,
            }
        if op == "restore":
            self.restore(args["src"], args["dst"])
            return "scenario.restore", None, {
                "src": args["src"], "dst": args["dst"],
            }
        if op == "storm":
            self.storm(args["loss"])
            return "scenario.storm", None, {"loss": args["loss"]}
        if op in ("heal", "calm"):
            getattr(self, op)()
            return f"scenario.{op}", None, {}
        if op == "skew" and pid in self.clocks:
            self.clocks[pid].skew(args["offset"])
            return "scenario.skew", pid, {
                "target": pid, "offset": args["offset"],
            }
        raise ConfigurationError(
            f"fault {op!r} with {args!r} cannot be applied to this plan"
        )

    # ------------------------------------------------------------ partitions
    def partition(self, *groups: Iterable[ProcessId]) -> List[List[ProcessId]]:
        """Cut every directed pair crossing group boundaries (now).

        Processes not named in any group form an implicit final group —
        the exact contract of
        :meth:`repro.sim.partition.NetworkController.partition`.  Returns
        the full, explicit group list (implicit rest group included) so
        callers can record exactly what was applied.
        """
        all_groups = resolve_groups(groups, self.n)
        membership = {
            pid: idx for idx, group in enumerate(all_groups) for pid in group
        }
        for src in range(self.n):
            for dst in range(self.n):
                if src != dst:
                    self._cut[(src, dst)] = membership[src] != membership[dst]
        self._partition_groups = all_groups
        self._refresh_active()
        return all_groups

    def isolate(self, pid: ProcessId) -> List[List[ProcessId]]:
        """Partition *pid* away from everyone else."""
        return self.partition([pid])

    def heal(self) -> None:
        """Remove any active partition."""
        self._cut.clear()
        self._partition_groups = None
        self._refresh_active()

    @property
    def partitioned(self) -> bool:
        """True while a partition is in force."""
        return self._partition_groups is not None

    # ---------------------------------------------------------------- stalls
    def stall(self, pid: ProcessId) -> None:
        """Silence *pid* entirely: every send from or to it is dropped.

        This is the in-process approximation of ``SIGSTOP`` — the node's
        timers keep running but nothing it says reaches the wire and
        nothing reaches it, so peers observe exactly the silence a frozen
        process produces.  (A real ``SIGSTOP`` buffers rather than drops;
        for loss-tolerant protocols the observable difference is resumed
        duplicates, which the stacks already absorb.)  Idempotent.
        """
        _check_pid(pid, self.n)
        self._stalled.add(pid)
        self._refresh_active()

    def resume(self, pid: ProcessId) -> None:
        """Undo :meth:`stall` for *pid*.  Idempotent."""
        _check_pid(pid, self.n)
        self._stalled.discard(pid)
        self._refresh_active()

    @property
    def stalled(self) -> frozenset:
        """Pids currently stalled."""
        return frozenset(self._stalled)

    # ---------------------------------------------------------------- storms
    def storm(
        self, loss_prob: float, delay: Optional[DelayModel] = None
    ) -> None:
        """Start a cluster-wide message-loss storm.

        Every directed pair loses messages with at least *loss_prob*
        (per-pair overrides and the default loss still apply when they
        are harsher), optionally under a congestion *delay* model.  A new
        storm replaces the previous one; :meth:`calm` ends it.
        """
        self._storm_loss = _check_loss(loss_prob)
        self._storm_delay = delay
        self._refresh_active()

    def calm(self) -> None:
        """End an active loss storm.  Idempotent."""
        self._storm_loss = None
        self._storm_delay = None
        self._refresh_active()

    @property
    def storming(self) -> bool:
        """True while a loss storm is in force."""
        return self._storm_loss is not None

    # ----------------------------------------------------------- degradation
    def degrade(
        self,
        src: ProcessId,
        dst: ProcessId,
        loss_prob: Optional[float] = None,
        delay: Optional[DelayModel] = None,
    ) -> None:
        """Override loss and/or delay for the directed pair ``src -> dst``."""
        _check_pid(src, self.n)
        _check_pid(dst, self.n)
        if loss_prob is not None:
            self._pair_loss[(src, dst)] = _check_loss(loss_prob)
        if delay is not None:
            self._pair_delay[(src, dst)] = delay
        self._refresh_active()

    def restore(self, src: ProcessId, dst: ProcessId) -> None:
        """Undo :meth:`degrade` for ``src -> dst``."""
        self._pair_loss.pop((src, dst), None)
        self._pair_delay.pop((src, dst), None)
        self._refresh_active()

    # --------------------------------------------------------------- verdicts
    def plan(self, src: ProcessId, dst: ProcessId) -> Optional[Time]:
        """Decide one send's fate: ``None`` = drop, else extra delay (>= 0).

        Same shape as :meth:`repro.sim.links.Link.plan`, minus the message
        (injection here is content-blind).
        """
        if self._stalled and (src in self._stalled or dst in self._stalled):
            self.dropped += 1
            return None
        if self._cut.get((src, dst), False):
            self.dropped += 1
            return None
        loss = self._pair_loss.get((src, dst), self.default_loss)
        if self._storm_loss is not None and self._storm_loss > loss:
            loss = self._storm_loss
        if loss and (loss >= 1.0 or self.rng.random() < loss):
            self.dropped += 1
            return None
        model = self._pair_delay.get((src, dst), self._storm_delay)
        if model is None:
            model = self.default_delay
        if model is None:
            return 0.0
        delay = model.sample(self.rng, 0.0)
        if delay > 0:
            self.delayed += 1
        return delay


class FaultyTransport(Transport):
    """A proxy transport applying a :class:`FaultPlan` to every send.

    Wraps the real transport of one node; the clock is used to realize
    injected delays, so wrapping loopback-on-virtual-clock keeps runs
    deterministic while still exercising the full fault machinery.  While
    the plan is idle (:attr:`FaultPlan.active` is ``False``) a send is
    one extra attribute read plus a delegated call.
    """

    def __init__(self, inner: Transport, plan: FaultPlan, clock: Any) -> None:
        # Deliberately not calling ``super().__init__``: the traffic
        # counters must live on ``inner`` — it is the transport actually
        # putting frames on the wire — and are re-exposed as read-only
        # properties below so stats read off the proxy stay truthful.
        self.pid = inner.pid
        self.closed = False
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.injected_drops = 0

    frames_sent = property(lambda self: self.inner.frames_sent)
    frames_received = property(lambda self: self.inner.frames_received)
    bytes_sent = property(lambda self: self.inner.bytes_sent)
    bytes_received = property(lambda self: self.inner.bytes_received)
    send_errors = property(lambda self: self.inner.send_errors)

    # Receiver, observer, and peers pass straight through to the wrapped
    # transport.
    def set_receiver(self, receiver) -> None:
        self.inner.set_receiver(receiver)

    def set_observer(self, observer) -> None:
        self.inner.set_observer(observer)

    def set_peers(self, addresses: Dict[ProcessId, Any]) -> None:
        self.inner.set_peers(addresses)

    @property
    def local_address(self) -> Any:
        return self.inner.local_address

    def bind(self):
        return self.inner.bind()

    def close(self):
        self.closed = True
        return self.inner.close()

    def send(self, dst: ProcessId, data: bytes) -> None:
        plan = self.plan
        if not plan.active:
            self.inner.send(dst, data)
            return
        verdict = plan.plan(self.pid, dst)
        if verdict is None:
            self.injected_drops += 1
            return
        if verdict <= 0.0:
            self.inner.send(dst, data)
        else:
            self.clock.schedule(verdict, self.inner.send, dst, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultyTransport over {self.inner!r}>"
