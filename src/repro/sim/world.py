"""The :class:`World`: scheduler + network + processes + trace, wired together.

Typical usage::

    world = World(n=5, seed=42)
    for pid in world.pids:
        fd = world.attach(pid, OracleEventuallyConsistent(...))
        world.attach(pid, ECConsensus(fd=fd))
    world.start()
    world.run(until=500.0)

Everything in a world is deterministic given ``(topology, seed)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..obs.sinks import MemorySink, TraceSink
from ..types import ProcessId, Time, validate_pid
from .component import Component
from .faults import FaultPlan, check_fault
from .links import Link
from .message import Message
from .network import Network
from .process import Process
from .rng import RandomSource
from .scheduler import Scheduler

__all__ = ["World"]


class World:
    """A complete simulated distributed system of *n* processes."""

    def __init__(
        self,
        n: int,
        seed: int = 0,
        default_link: Optional[Link] = None,
        trace_kinds: Optional[Iterable[str]] = None,
        trace_enabled: bool = True,
        trace: Optional[TraceSink] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if trace is not None and trace_kinds is not None:
            raise ConfigurationError(
                "pass either a ready trace sink or trace_kinds, not both "
                "(apply the kind filter when constructing the sink)"
            )
        self.n = n
        self.scheduler = Scheduler()
        self.rng = RandomSource(seed)
        #: Any :class:`repro.obs.TraceSink`; defaults to the queryable
        #: in-memory log.  Pass e.g. a ``JsonlSink`` (or a ``TeeSink`` of
        #: both) to stream events out of the simulation as they happen.
        self.trace: TraceSink = (
            trace if trace is not None
            else MemorySink(kinds=trace_kinds, enabled=trace_enabled)
        )
        #: Per-world metric store (see :mod:`repro.obs.metrics`); components
        #: reach it as ``self.metrics``, the substrate increments the
        #: message/byte counters, and a :class:`~repro.obs.MetricsReporter`
        #: component periodically dumps it into the trace.
        self.metrics = MetricsRegistry()
        #: Callables run right before each metrics snapshot (live hosts
        #: register a transport-counter sampler here; empty in the sim).
        self.metrics_samplers: List[Callable[[MetricsRegistry], None]] = []
        #: What the network does to messages beyond its static links —
        #: partitions, stalls, loss, delay; mutate it through :meth:`fault`.
        self.plan = FaultPlan(n, seed)
        self.network = Network(
            n=n,
            scheduler=self.scheduler,
            trace=self.trace,
            rng=self.rng.stream("network"),
            plan=self.plan,
            default_link=default_link,
            metrics=self.metrics,
        )
        self.network.set_deliver(self._deliver)
        self.processes: List[Process] = [Process(pid, self) for pid in range(n)]
        self._started = False
        #: Bumped on every crash; cheap change-detection for components
        #: whose state depends only on the failure pattern (oracles).
        self.crash_epoch = 0

    # -------------------------------------------------------------- basics
    @property
    def pids(self) -> range:
        """All process ids, ``0 .. n-1``."""
        return range(self.n)

    @property
    def now(self) -> Time:
        """Current simulated time."""
        return self.scheduler.now

    @property
    def majority(self) -> int:
        """Size of a strict majority quorum, ``floor(n/2) + 1``."""
        return self.n // 2 + 1

    def process(self, pid: ProcessId) -> Process:
        """The process object for *pid*."""
        return self.processes[validate_pid(pid, self.n)]

    # -------------------------------------------------------------- wiring
    def attach(self, pid: ProcessId, component: Component) -> Component:
        """Attach *component* to process *pid*; returns the component."""
        return self.process(pid).attach(component)

    def attach_all(
        self, factory: Callable[[ProcessId], Component]
    ) -> List[Component]:
        """Attach ``factory(pid)`` to every process; returns the components
        in pid order."""
        return [self.attach(pid, factory(pid)) for pid in self.pids]

    def component(self, pid: ProcessId, channel: str) -> Component:
        """Look up the component on *channel* at process *pid*."""
        return self.process(pid).component(channel)

    # ----------------------------------------------------------- life cycle
    def start(self) -> None:
        """Start every process (calls each component's ``on_start``)."""
        if self._started:
            raise ConfigurationError("world already started")
        self._started = True
        for process in self.processes:
            process.start()

    def run(
        self, until: Optional[Time] = None, max_events: Optional[int] = None
    ) -> int:
        """Run the event loop (auto-starting if needed).  See
        :meth:`repro.sim.scheduler.Scheduler.run`."""
        if not self._started:
            self.start()
        return self.scheduler.run(until=until, max_events=max_events)

    # -------------------------------------------------------------- crashes
    def crash(self, pid: ProcessId) -> None:
        """Crash *pid* right now."""
        self.process(pid).crash()

    def schedule_crash(self, pid: ProcessId, time: Time) -> None:
        """Crash *pid* at absolute simulated *time*."""
        validate_pid(pid, self.n)
        self.scheduler.schedule_at(time, self.crash, pid)

    # --------------------------------------------------------------- faults
    def fault(
        self, op: str, args: Dict[str, Any], at: Optional[Time] = None
    ) -> None:
        """Inject one fault of the :data:`~repro.sim.faults.FAULT_OPS`
        vocabulary at absolute simulated time *at* (``None`` = now) — the
        same entry point every cluster runtime has.  Validated here; a
        ``crash`` crashes the process, anything else mutates :attr:`plan`
        and is narrated as one ``scenario.*`` event."""
        check_fault(op, args, self.n)
        if at is not None:
            self.scheduler.schedule_at(at, self._apply_fault, op, args)
        else:
            self._apply_fault(op, args)

    def _apply_fault(self, op: str, args: Dict[str, Any]) -> None:
        if op == "crash":
            self.crash(args["pid"])
            return
        kind, pid, data = self.plan.apply(op, args)
        self.trace.record(self.now, kind, pid, **data)

    @property
    def correct_pids(self) -> frozenset[ProcessId]:
        """Processes that have not crashed (so far)."""
        return frozenset(p.pid for p in self.processes if not p.crashed)

    @property
    def crashed_pids(self) -> frozenset[ProcessId]:
        """Processes that have crashed (so far)."""
        return frozenset(p.pid for p in self.processes if p.crashed)

    # ------------------------------------------------------------- internals
    def _deliver(self, msg: Message) -> None:
        self.processes[msg.dst].deliver(msg)
