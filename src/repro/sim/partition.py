"""Dynamic network control: partitions, healing, degradation.

The link models in :mod:`repro.sim.links` are static per pair.  Real
experiments also need *scheduled changes* — a partition that opens at t₁
and heals at t₂, a link that degrades mid-run.  :class:`NetworkController`
wraps every link in a switchable shim and provides declarative operations:

* :meth:`partition` / :meth:`heal` — split the process set into groups with
  no communication across groups (messages are dropped, as on dead links);
* :meth:`isolate` — single-process partition;
* :meth:`degrade` / :meth:`restore` — temporarily replace a link's delay
  behaviour.

Partitions violate the paper's link-reliability assumption while active, so
eventual properties are only guaranteed once healed — which is exactly what
the partition tests demonstrate.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..types import ProcessId, Time
from .links import Link
from .message import Message
from .world import World

__all__ = ["NetworkController", "resolve_groups"]


def resolve_groups(
    groups: Iterable[Iterable[ProcessId]], n: Optional[int] = None
) -> List[List[ProcessId]]:
    """The explicit, sorted group list a partition over *n* processes names.

    Pids named in no group form an implicit final group (only computable —
    and pid ranges only checkable — when *n* is known).  This is the one
    definition of what a ``groups`` argument means, shared by the
    simulator's :class:`NetworkController` and the runtime's
    :class:`~repro.net.faults.FaultPlan`.
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


class _SwitchableLink(Link):
    """A link shim that can be cut or rerouted at runtime."""

    def __init__(self, inner: Link) -> None:
        self.inner = inner
        self.override: Optional[Link] = None
        self.cut = False

    def plan(self, msg: Message, now: Time, rng: random.Random):
        if self.cut:
            return None
        active = self.override if self.override is not None else self.inner
        return active.plan(msg, now, rng)


class NetworkController:
    """Runtime switchboard over a world's directed links."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._shims: Dict[Tuple[ProcessId, ProcessId], _SwitchableLink] = {}
        for src in world.pids:
            for dst in world.pids:
                if src == dst:
                    continue
                shim = _SwitchableLink(world.network.link(src, dst))
                world.network.set_link(src, dst, shim)
                self._shims[(src, dst)] = shim
        self._partition_groups: Optional[List[List[ProcessId]]] = None

    # ------------------------------------------------------------ partitions
    def partition(self, *groups: Iterable[ProcessId]) -> None:
        """Cut every link between different *groups* (now).

        Processes not named in any group form an implicit final group.
        """
        all_groups = resolve_groups(groups, self.world.n)
        membership = {
            pid: idx for idx, group in enumerate(all_groups) for pid in group
        }
        for (src, dst), shim in self._shims.items():
            shim.cut = membership[src] != membership[dst]
        self._partition_groups = all_groups
        self.world.trace.record(
            self.world.now, "partition", None, groups=all_groups
        )

    def isolate(self, pid: ProcessId) -> None:
        """Partition *pid* away from everyone else."""
        self.partition([pid])

    def heal(self) -> None:
        """Remove any active partition (all links carry traffic again)."""
        for shim in self._shims.values():
            shim.cut = False
        self._partition_groups = None
        self.world.trace.record(self.world.now, "heal", None)

    @property
    def partitioned(self) -> bool:
        """True while a partition is in force."""
        return self._partition_groups is not None

    # ------------------------------------------------------------ scheduling
    def partition_between(
        self, start: Time, end: Time, *groups: Iterable[ProcessId]
    ) -> None:
        """Schedule a partition for the window ``[start, end)``."""
        frozen = [list(g) for g in groups]
        self.world.scheduler.schedule_at(
            start, lambda: self.partition(*frozen)
        )
        self.world.scheduler.schedule_at(end, self.heal)

    # ----------------------------------------------------------- degradation
    def degrade(self, src: ProcessId, dst: ProcessId, link: Link) -> None:
        """Replace the behaviour of ``src -> dst`` with *link* (until
        :meth:`restore`)."""
        self._shims[(src, dst)].override = link

    def restore(self, src: ProcessId, dst: ProcessId) -> None:
        """Undo :meth:`degrade` for ``src -> dst``."""
        self._shims[(src, dst)].override = None

    def degrade_between(
        self, start: Time, end: Time, src: ProcessId, dst: ProcessId,
        link: Link,
    ) -> None:
        """Schedule a degradation window for one directed link."""
        self.world.scheduler.schedule_at(
            start, lambda: self.degrade(src, dst, link)
        )
        self.world.scheduler.schedule_at(
            end, lambda: self.restore(src, dst)
        )
