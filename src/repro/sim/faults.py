"""The fault step of the message path — one vocabulary, one plan.

A :class:`FaultPlan` is what the network does to a message between send
and deliver, beyond its static :mod:`~repro.sim.links` model:
per-directed-pair loss probability and delay models, partitions, process
stalls and loss storms (``partition`` / ``heal`` / ``isolate`` /
``degrade`` / ``restore`` / ``stall`` / ``resume`` / ``storm`` /
``calm``).  The one send path (:mod:`repro.sim.network`) consults it once
per network message, on every substrate: a ``None`` verdict is a counted,
recorded ``drop`` with ``reason="fault"``, anything else is extra delay
the substrate's crossing realises on its own clock.

Injecting at the *sender* means a partition is symmetric only if the plan
says so — directed pairs are first-class, as in :mod:`repro.sim.links` —
and that a process cluster, where every node holds its own plan, must
install a partition on both sides.

The fault *vocabulary* is defined here too, once: :data:`FAULT_OPS` names
every op and its argument shape, :func:`check_fault` is the only validator
of those arguments, and :meth:`FaultPlan.apply` is the only op → plan
dispatch — it also returns the ``scenario.*`` trace payload, so the event
a fault records is defined once as well.  Every substrate (``World.fault``,
the cluster verbs, the scenario layer, the per-node control endpoint, the
CLI) is a thin driver of these three.

An idle plan (no partition, no stalls, no loss, no delay) costs one
attribute read per ``send_many`` call: :attr:`FaultPlan.active` is
maintained by the mutating verbs, and the send path skips the step while
it is ``False`` — the fault surface is always reachable, and the no-fault
hot path pays nothing per message.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..types import ProcessId, Time
from .delays import DelayModel, FixedDelay

__all__ = [
    "FAULT_OPS", "PID_ARGS", "check_fault", "resolve_groups", "FaultPlan",
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


def resolve_groups(
    groups: Iterable[Iterable[ProcessId]], n: Optional[int] = None
) -> List[List[ProcessId]]:
    """The explicit, sorted group list a partition over *n* processes names.

    Pids named in no group form an implicit final group (only computable —
    and pid ranges only checkable — when *n* is known).  This is the one
    definition of what a ``groups`` argument means.
    """
    try:
        named = [sorted(set(group)) for group in groups]
    except TypeError:
        named = None
    if named is None or not all(
        isinstance(pid, int) for group in named for pid in group
    ):
        raise ConfigurationError(
            f"partition groups must be a list of pid lists, got {groups!r}"
        )
    seen: set = set()
    for pid in (pid for group in named for pid in group):
        if pid in seen:
            raise ConfigurationError(f"pid {pid} in two groups")
        if n is not None and pid not in range(n):
            raise ConfigurationError(f"pid {pid} out of range for n={n}")
        seen.add(pid)
    rest = [] if n is None else [pid for pid in range(n) if pid not in seen]
    return named + ([rest] if rest else [])


def check_fault(op: Any, args: Dict[str, Any], n: Optional[int] = None) -> None:
    """Validate one ``(op, args)`` fault against :data:`FAULT_OPS`.

    The single place arg shapes, pid ranges (when the cluster size *n* is
    known), ``src != dst`` (a self-send never crosses the network),
    ``loss`` in [0, 1], ``delay`` >= 0 and partition-group disjointness
    are checked; raises :class:`ConfigurationError`.
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
    if "src" in args and args["src"] == args["dst"]:
        raise ConfigurationError(
            f"fault op {op!r}: src and dst are both {args['src']}; a "
            f"self-send never crosses the network"
        )


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
        self._cut: Set[Pair] = set()
        self._stalled: Set[ProcessId] = set()
        self._storm_loss: Optional[float] = None
        self._storm_delay: Optional[DelayModel] = None
        #: pid -> that node's steppable clock (anything with ``skew(offset)``),
        #: registered by whoever owns the node; the ``skew`` op steps it.
        self.clocks: Dict[ProcessId, Any] = {}
        self._refresh_active()

    # ------------------------------------------------------------- fast path
    @property
    def active(self) -> bool:
        """``False`` while the plan would pass every send through untouched
        (the send path then skips the fault step)."""
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

        Processes not named in any group form an implicit final group.
        Replaces any previous partition; a single group cuts nothing and
        leaves the plan idle.  Returns the full, explicit group list
        (implicit rest group included) so callers can record exactly what
        was applied.
        """
        all_groups = resolve_groups(groups, self.n)
        membership = {
            pid: idx for idx, group in enumerate(all_groups) for pid in group
        }
        self._cut = {
            (src, dst) for src in membership for dst in membership
            if membership[src] != membership[dst]
        }
        self._refresh_active()
        return all_groups

    def isolate(self, pid: ProcessId) -> List[List[ProcessId]]:
        """Partition *pid* away from everyone else."""
        return self.partition([pid])

    def heal(self) -> None:
        """Remove any active partition."""
        self._cut.clear()
        self._refresh_active()

    @property
    def partitioned(self) -> bool:
        """True while a partition is in force (some pair is cut)."""
        return bool(self._cut)

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
        (injection here is content-blind).  Counting and recording the
        outcome is the send path's business.
        """
        if self._stalled and (src in self._stalled or dst in self._stalled):
            return None
        if (src, dst) in self._cut:
            return None
        loss = self._pair_loss.get((src, dst), self.default_loss)
        if self._storm_loss is not None and self._storm_loss > loss:
            loss = self._storm_loss
        if loss and (loss >= 1.0 or self.rng.random() < loss):
            return None
        model = self._pair_delay.get((src, dst), self._storm_delay)
        if model is None:
            model = self.default_delay
        return 0.0 if model is None else model.sample(self.rng, 0.0)
