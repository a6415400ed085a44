"""In-process clusters of :class:`~repro.net.host.NodeHost` nodes.

:class:`LocalCluster` spins up *n* hosts sharing one clock and one trace
recorder, wires a transport per node (loopback, UDP, or TCP) and one
shared :class:`~repro.sim.faults.FaultPlan` every host's send path
consults (the ClusterAPI fault verbs mutate it), and drives the run:

* **wall mode** (default) — an :class:`~repro.net.clock.AsyncioClock` and
  real sockets; drive it with ``await cluster.start() / run(seconds) /
  stop()`` inside ``asyncio.run``;
* **virtual mode** (``clock="virtual"``, loopback only) — the simulator's
  deterministic scheduler under the full runtime path (fault step, codec,
  transport framing); drive it synchronously with ``start_virtual()`` /
  ``run_virtual(until)``.  This is what the sim↔net parity tests use: same
  components, same seeds, bit-for-bit reproducible.

Either way, a ``LocalCluster`` implements the unified
:class:`~repro.cluster.api.ClusterAPI` protocol — ``crash(pid, at)``
schedules crash-stop kills (before or after start), ``wait_quiescent``
waits out a fixed-``duration`` scenario, and ``traces()`` /
``verdicts()`` hand the run to the same postmortem pipeline a
multi-process :class:`~repro.proc.ProcessCluster` uses.

Because all hosts share one trace with one time base, everything in
:mod:`repro.analysis` — property checkers, QoS metrics, ASCII timelines —
works on a live run's trace without modification.  Pass ``trace_out`` to
*also* ship the stream to disk as it happens: a ``*.jsonl`` path writes
one combined file, a directory writes one ``node-<pid>.jsonl`` per node
(each with its own provenance header, ready for ``repro trace merge``).

:func:`attach_standard_stack` deploys the paper's full pipeline on every
node: leader-based Ω + a ◇S source + the ◇C combiner, the Fig. 2 ◇C→◇P
transformation, reliable broadcast, and ◇C-based consensus — the live
counterpart of :func:`repro.fd.attach_ec_stack` plus consensus wiring.
:meth:`LocalCluster.deploy_standard_stack` is the self-driving variant
(stack plus a scheduled proposal round), mirroring what each node of a
process cluster does for itself.
"""

from __future__ import annotations

import asyncio
import inspect
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..broadcast.reliable import ReliableBroadcast
from ..consensus.ec_consensus import ECConsensus
from ..consensus.multi import ReplicatedStateMachine
from ..errors import ConfigurationError
from ..fd.eventually_consistent import CombinedDetector
from ..fd.heartbeat import HeartbeatEventuallyPerfect
from ..fd.leader_based import LeaderBasedOmega
from ..fd.ring import RingDetector
from ..net.clock import AsyncioClock, SkewedClock, VirtualClock
from ..net.codec import Codec, default_codec
from ..net.host import NodeHost
from ..net.tcp import TCPTransport
from ..net.transport import LoopbackHub, LoopbackTransport, Transport
from ..net.udp import UDPTransport
from ..obs.live import StreamingSink
from ..obs.metrics import MetricsReporter
from ..obs.sinks import JsonlSink, MemorySink, TeeSink, TraceSink
from ..sim.component import Component
from ..sim.faults import FaultPlan
from ..transform.c_to_p import CToPTransformation
from ..types import ProcessId, Time
from .api import FaultVerbs, stack_verdicts
from .config import NodeConfig

__all__ = [
    "LocalCluster",
    "attach_standard_stack",
    "attach_node_stack",
    "TRANSPORTS",
]

#: Transport kinds `LocalCluster` can build itself.
TRANSPORTS = ("loopback", "udp", "tcp")


async def _maybe(value: Any) -> Any:
    """Await *value* if it is awaitable (loopback lifecycle calls are sync)."""
    if inspect.isawaitable(value):
        return await value
    return value


class LocalCluster(FaultVerbs):
    """*n* live nodes in one OS process (see module docstring)."""

    def __init__(
        self,
        n: int,
        transport: str = "loopback",
        clock: str = "wall",
        seed: int = 0,
        codec: Optional[Codec] = None,
        bind_host: str = "127.0.0.1",
        trace_kinds: Optional[Iterable[str]] = None,
        trace_out: Optional[Union[str, Path]] = None,
        duration: Optional[Time] = None,
        ship_to: Optional[str] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; pick one of {TRANSPORTS}"
            )
        if clock not in ("wall", "virtual"):
            raise ConfigurationError(f"clock must be 'wall' or 'virtual'")
        if clock == "virtual" and transport != "loopback":
            raise ConfigurationError(
                "virtual-clock clusters are deterministic in-process runs; "
                "only the loopback transport can ride a virtual clock"
            )
        if ship_to is not None and clock == "virtual":
            raise ConfigurationError(
                "ship_to needs a wall clock: live shipping runs on the "
                "event loop and a virtual run has no wall epoch to rebase"
            )
        #: What every node runs (:class:`NodeConfig`).  ``seed`` and
        #: ``ship_to`` are fixed here — hosts and sinks are built in
        #: this constructor; the stack settings join them when
        #: :func:`attach_standard_stack` deploys (the defaults until then).
        self.config = NodeConfig(seed=seed, ship_to=ship_to)
        super().__init__()  # the pre-start fault queue (ClusterAPI.fault)
        self.n = n
        self.transport_kind = transport
        self.clock = VirtualClock() if clock == "virtual" else AsyncioClock()
        self.virtual = clock == "virtual"
        #: Scenario length in cluster seconds; `wait_quiescent` waits it out.
        self.duration = duration
        #: Analysis-facing in-memory log, always shared by every host.
        self.trace = MemorySink(kinds=trace_kinds)
        # Trace shipping: a `*.jsonl` path streams one combined file; a
        # directory streams one per-node file (own provenance header each,
        # the input shape `repro trace merge` reassembles).
        self._jsonl_sinks: List[JsonlSink] = []
        host_traces: List[TraceSink] = [self.trace] * n
        if trace_out is not None:
            # Virtual runs have no meaningful wall epoch; zero it so the
            # files stay byte-for-byte deterministic (and trivially merge).
            epochs = (
                {"epoch_wall": 0.0, "epoch_mono": 0.0} if self.virtual else {}
            )
            out = Path(trace_out)
            if out.suffix == ".jsonl":
                out.parent.mkdir(parents=True, exist_ok=True)
                combined = JsonlSink(
                    out, node=None, kinds=trace_kinds, **epochs
                )
                self._jsonl_sinks.append(combined)
                host_traces = [TeeSink(self.trace, combined)] * n
            else:
                out.mkdir(parents=True, exist_ok=True)
                host_traces = []
                for pid in range(n):
                    sink = JsonlSink(
                        out / f"node-{pid}.jsonl", node=pid,
                        kinds=trace_kinds, **epochs
                    )
                    self._jsonl_sinks.append(sink)
                    host_traces.append(TeeSink(self.trace, sink))
        # Live shipping: one combined StreamingSink for the whole cluster
        # (hosts share a time base, so a single ``node=None`` stream is
        # what the collector expects) teed around every host trace.
        self._streaming: Optional[StreamingSink] = None
        if ship_to is not None:
            self._streaming = StreamingSink(ship_to, node=None)
            host_traces = [
                TeeSink(sink, self._streaming) for sink in host_traces
            ]
        self.codec = codec if codec is not None else default_codec()
        # Sink the cluster-level scenario.* narration goes through: the
        # same object node 0 traces into, so combined/per-node JSONL
        # shipping sees the fault events too (not just the MemorySink).
        self._cluster_sink: TraceSink = host_traces[0]
        #: The always-on fault surface, shared by every host's send path;
        #: an idle plan costs one flag read per send call (see
        #: FaultPlan.active), so the ClusterAPI fault verbs are always live.
        self.plan = FaultPlan(n, seed=seed)
        self._hub = LoopbackHub(self.clock) if transport == "loopback" else None
        # (time, value-factory) proposal rounds from deploy_standard_stack.
        self._pending_proposals: List[Time] = []
        self._pending_note: Optional[tuple] = None  # see note_scenario
        #: Components per role when `deploy_standard_stack` was used.
        self.stacks: Optional[Dict[str, List[Component]]] = None
        # In-flight async transport closes from kill(); referenced here so
        # the tasks cannot be garbage-collected mid-close, reaped in stop().
        self._closing: set = set()
        self.hosts: List[NodeHost] = []
        for pid in range(n):
            wire: Transport
            if transport == "loopback":
                wire = LoopbackTransport(pid, self._hub)
            elif transport == "udp":
                wire = UDPTransport(pid, host=bind_host)
            else:
                wire = TCPTransport(pid, host=bind_host)
            # Per-node clock proxy: zero-offset (exact) until the skew verb
            # steps it — every host keeps its *own* notion of time over
            # the one shared timeline.
            host_clock = self.plan.clocks[pid] = SkewedClock(self.clock)
            self.hosts.append(
                NodeHost(
                    pid, n, wire, self.plan,
                    clock=host_clock, codec=self.codec,
                    trace=host_traces[pid], seed=seed,
                )
            )

    # ---------------------------------------------------------------- basics
    @property
    def pids(self) -> range:
        return range(self.n)

    def host(self, pid: ProcessId) -> NodeHost:
        return self.hosts[pid]

    @property
    def correct_pids(self) -> frozenset:
        """Nodes that have not been crashed/killed (so far)."""
        return frozenset(h.pid for h in self.hosts if not h.crashed)

    @property
    def now(self) -> Time:
        return self.clock.now

    # ---------------------------------------------------------------- wiring
    def attach(self, pid: ProcessId, component: Component) -> Component:
        """Attach *component* to node *pid*; returns the component."""
        return self.hosts[pid].attach(component)

    def attach_all(
        self, factory: Callable[[ProcessId], Component]
    ) -> List[Component]:
        """Attach ``factory(pid)`` on every node; returns them in pid order."""
        return [self.attach(pid, factory(pid)) for pid in self.pids]

    def deploy_standard_stack(
        self, propose_after: Optional[Time] = None, **settings: Any
    ) -> Dict[str, List[Component]]:
        """Deploy the paper's full pipeline and make the run self-driving.

        Attaches :func:`attach_standard_stack` on every node (*settings*
        are :class:`NodeConfig` fields; ``stack`` selects the ◇S suspect
        source) and, when *propose_after* is given, schedules one proposal
        round at that cluster time: every still-correct node proposes
        ``value-from-p<pid>``.  This mirrors exactly what each node of a
        :class:`~repro.proc.ProcessCluster` does for itself, so the same
        scenario drives both runtimes.
        """
        self.stacks = attach_standard_stack(self, **settings)
        if propose_after is not None:
            self._pending_proposals.append(propose_after)
        return self.stacks

    def _propose_all(self) -> None:
        """One proposal round: every correct node proposes its own value.

        On a one-shot consensus stack each node proposes into its single
        instance; on an ``rsm`` stack each node submits one command into
        the replicated log (same scenario shape, different substrate).
        """
        for protocol in (self.stacks or {}).get("consensus", []):
            if not protocol.crashed:
                protocol.propose(f"value-from-p{protocol.pid}")
        for rsm in (self.stacks or {}).get("rsm", []):
            if not rsm.crashed:
                rsm.submit(f"value-from-p{rsm.pid}")

    # ------------------------------------------------------- wall-clock mode
    async def start(self) -> None:
        """Bind every transport, share the address book, start every node.

        Virtual-clock clusters are redirected to :meth:`start_virtual`, so
        the unified ``await cluster.start()`` harness drives both modes.
        """
        if self.virtual:
            self.start_virtual()
            return
        self._mark_started()
        for h in self.hosts:
            await _maybe(h.transport.bind())
        addresses = {h.pid: h.transport.local_address for h in self.hosts}
        for h in self.hosts:
            h.transport.set_peers(addresses)
        if isinstance(self.clock, AsyncioClock):
            self.clock.rebase()  # trace time 0 = the instant components start
            for sink in self._jsonl_sinks:
                sink.rebase_epoch()  # headers must reference the same zero
        if self._streaming is not None:
            self._streaming.rebase_epoch()  # hello frame carries this epoch
            await self._streaming.start()
        for h in self.hosts:
            h.start()
        self._flush_pending()

    async def run(self, seconds: float) -> None:
        """Let the cluster run for *seconds* of wall time."""
        await asyncio.sleep(seconds)

    async def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        poll: float = 0.01,
    ) -> bool:
        """Run until ``predicate()`` holds or *timeout* elapses; returns
        whether the predicate was met."""
        deadline = self.clock.now + timeout
        while self.clock.now < deadline:
            if predicate():
                return True
            await asyncio.sleep(poll)
        return predicate()

    async def wait_quiescent(self, timeout: Optional[Time] = None) -> bool:
        """Wait out the scenario (ClusterAPI contract).

        With a ``duration`` configured, waits until the cluster clock
        reaches it (virtual clusters run their scheduler to that point) —
        always quiescent, returns ``True``.  Without one, waits up to
        *timeout* seconds for every node to have crashed.
        """
        if self.duration is not None:
            if self.virtual:
                self.run_virtual(until=self.duration)
            else:
                remaining = self.duration - self.now
                if remaining > 0:
                    await asyncio.sleep(remaining)
            return True
        if self.virtual:
            self.run_virtual()
            return all(h.crashed for h in self.hosts)
        if timeout is None:
            raise ConfigurationError(
                "wait_quiescent needs a timeout when the cluster has no "
                "configured duration"
            )
        return await self.run_until(
            lambda: all(h.crashed for h in self.hosts), timeout=timeout
        )

    async def stop(self) -> None:
        """Close every transport and flush trace files (idempotent)."""
        if self.virtual:
            self.close_traces()
            return
        for h in self.hosts:
            await _maybe(h.transport.close())
        if self._closing:
            await asyncio.gather(*self._closing, return_exceptions=True)
            self._closing.clear()
        if self._streaming is not None:
            await self._streaming.aclose()  # drain before the sync close
        self.close_traces()

    def close_traces(self) -> None:
        """Flush and close any ``trace_out`` JSONL files (idempotent).

        ``stop()`` calls this; virtual-clock runs driven by hand (no
        ``stop()``) call it directly once the run is over.
        """
        for sink in self._jsonl_sinks:
            sink.close()
        if self._streaming is not None:
            self._streaming.close()

    # --------------------------------------------------------- virtual mode
    def start_virtual(self) -> None:
        """Deterministic start: bind, share addresses, start components."""
        if not self.virtual:
            raise ConfigurationError(
                "start_virtual() needs clock='virtual'; use `await start()`"
            )
        self._mark_started()
        for h in self.hosts:
            h.transport.bind()
        addresses = {h.pid: h.transport.local_address for h in self.hosts}
        for h in self.hosts:
            h.transport.set_peers(addresses)
        for h in self.hosts:
            h.start()
        self._flush_pending()

    def run_virtual(
        self, until: Optional[Time] = None, max_events: Optional[int] = None
    ) -> int:
        """Drive the shared virtual clock (see sim ``Scheduler.run``)."""
        if not self.virtual:
            raise ConfigurationError("run_virtual() needs clock='virtual'")
        if not self._started:
            self.start_virtual()
        return self.clock.run(until=until, max_events=max_events)

    def schedule_kill(self, pid: ProcessId, time: Time) -> None:
        """Schedule :meth:`kill` at absolute clock *time* (both modes)."""
        self.clock.schedule_at(time, self.kill, pid)

    # ----------------------------------------------------------------- kills
    def kill(self, pid: ProcessId) -> None:
        """Kill node *pid*: crash its process and tear down its transport.

        Unlike a bare ``host.crash()`` (which keeps receiving and counting
        drops, like a simulated crashed process), a kill takes the node off
        the network entirely — peers see silence, TCP peers see resets and
        enter retry/backoff: the "killed leader process" scenario.
        """
        host = self.hosts[pid]
        host.crash()
        result = host.transport.close()
        if inspect.isawaitable(result):
            task = asyncio.ensure_future(result)
            self._closing.add(task)
            task.add_done_callback(self._closing.discard)

    # ---------------------------------------------------------------- faults
    # The verbs themselves (crash ... skew, and fault(op, args, at=None)
    # under them) are FaultVerbs'; this is the substrate half.

    def _call_at(
        self, at: Time, callback: Callable[..., None], *args: Any
    ) -> None:
        self.clock.schedule_at(at, callback, *args)

    def _deliver(self, op: str, args: Dict[str, Any]) -> None:
        """Make one fault happen now: a crash is a :meth:`kill`; everything
        else mutates the shared plan (a stall is full send/receive silence,
        the in-process stand-in for ``SIGSTOP``; a skew steps the node's
        clock proxy) and is narrated as one ``scenario.*`` event."""
        if op == "crash":
            self.kill(args["pid"])
            return
        kind, pid, data = self.plan.apply(op, args)
        self._cluster_sink.record(self.clock.now, kind, pid, **data)

    def note_scenario(
        self, name: str, events: int, seed: Optional[int] = None
    ) -> None:
        """Record that a scenario schedule was armed (``scenario.run``).

        A wall-clock run fixes its time zero (and its JSONL epochs) in
        :meth:`start`, so a note taken before that is recorded there.
        """
        if not (self._started or self.virtual):
            self._pending_note = (name, events, seed)
            return
        extra = {} if seed is None else {"seed": seed}
        self._cluster_sink.record(
            self.clock.now, "scenario.run", None,
            name=name, events=events, **extra,
        )

    # ------------------------------------------------------------ postmortem
    def traces(self) -> MemorySink:
        """The run's events as one time-ordered stream (ClusterAPI)."""
        return self.trace

    def verdicts(self, channel: str = "fd", algo: str = "ec") -> Dict[str, Any]:
        """Machine-checked FD + consensus properties of the run so far
        (:func:`~repro.cluster.api.stack_verdicts`)."""
        return stack_verdicts(
            self.config.stack, self.trace, self.correct_pids,
            channel=channel, algo=algo, end_time=self.now,
        )

    # -------------------------------------------------------------- internals
    def _flush_pending(self) -> None:
        """Move pre-start fault/proposal schedules onto the clock."""
        if self._pending_note is not None:
            self.note_scenario(*self._pending_note)
        self._arm_pending_faults()
        for at in self._pending_proposals:
            self.clock.schedule_at(at, self._propose_all)
        self._pending_proposals.clear()

    def __repr__(self) -> str:
        mode = "virtual" if self.virtual else "wall"
        return (
            f"<LocalCluster n={self.n} transport={self.transport_kind} "
            f"clock={mode} stack={self.config.stack}>"
        )


def attach_node_stack(
    attach: Callable[[Component], Component],
    config: NodeConfig,
    with_consensus: bool = True,
) -> Dict[str, Component]:
    """Deploy one node's slice of the paper's pipeline via *attach*.

    *attach* receives each component in dependency order and must return
    it attached — ``host.attach`` for a bare :class:`NodeHost` (this is
    what ``repro node`` runs in every OS process), or a closure over
    ``cluster.attach(pid, ...)`` for in-process clusters.  Returns the
    components by role.

    ``config.stack == "rsm"`` deploys the service substrate: the
    ring-sourced ◇C detectors as usual, but a slot-by-slot
    :class:`~repro.consensus.multi.ReplicatedStateMachine` (role
    ``rsm``) in place of the one-shot consensus instance.  ``max_batch``
    and ``pipeline_depth`` shape its command path (they only matter for
    that stack); ``max_batch=1, pipeline_depth=1`` restores the
    historical one-command-per-slot machine.
    """
    parts: Dict[str, Component] = {}
    period = config.period
    timeouts = {
        "initial_timeout": config.initial_timeout,
        "timeout_increment": config.timeout_increment,
    }
    omega = LeaderBasedOmega(period=period, channel="fd.omega", **timeouts)
    attach(omega)
    detector = (
        HeartbeatEventuallyPerfect if config.stack == "heartbeat"
        else RingDetector
    )
    source: Component = detector(
        period=period, channel="fd.suspects", **timeouts
    )
    attach(source)
    combined = CombinedDetector(omega, source, channel="fd")
    attach(combined)
    parts["omega"] = omega
    parts["suspects"] = source
    parts["fd"] = combined
    fdp = CToPTransformation(
        combined, send_period=period, alive_period=period, channel="fdp",
        **timeouts,
    )
    attach(fdp)
    parts["fdp"] = fdp
    if config.stack == "rsm":
        rsm = ReplicatedStateMachine(
            combined,
            channel="rsm",
            consensus_kwargs={"round_step": period / 5.0},
            # A service sits mostly idle between bursts; without grace it
            # would burn one NOOP consensus instance per slot forever.
            idle_grace=2 * period,
            max_batch=config.max_batch,
            pipeline_depth=config.pipeline_depth,
        )
        attach(rsm)
        parts["rsm"] = rsm
    elif with_consensus:
        rb = ReliableBroadcast(channel="consensus.rb")
        attach(rb)
        protocol = ECConsensus(combined, rb, round_step=period / 5.0)
        attach(protocol)
        parts["rb"] = rb
        parts["consensus"] = protocol
    if config.metrics_interval is not None:
        reporter = MetricsReporter(config.metrics_interval)
        attach(reporter)
        parts["metrics"] = reporter
    return parts


def attach_standard_stack(
    cluster: LocalCluster, with_consensus: bool = True, **settings: Any
) -> Dict[str, List[Component]]:
    """Deploy the paper's full pipeline on every node of *cluster*.

    *settings* are :class:`NodeConfig` fields (``stack``, ``period``,
    timeouts, ...; the result is ``cluster.config`` afterwards).  An
    unknown keyword is a :class:`ConfigurationError`, and so is a
    ``seed`` / ``ship_to`` that contradicts what the cluster
    was constructed with.  Per node: leader-based Ω (``fd.omega``) + a ◇S
    suspect source (``fd.suspects``, ring or heartbeat) + the ◇C combiner
    (``fd``); the Fig. 2 ◇C→◇P transformation (``fdp``); and reliable
    broadcast (``consensus.rb``) + ◇C-based consensus (``consensus``)
    unless *with_consensus* is off — or, on the ``rsm`` stack, the
    replicated state machine instead.  Defaults are scaled for wall-clock
    seconds (50 ms period) — pass sim-scale values for virtual-clock
    parity runs.

    Returns the components per role, each a pid-ordered list (only the
    roles the chosen stack actually deploys appear as keys).
    """
    for name in ("seed", "ship_to"):
        fixed = getattr(cluster.config, name)
        if settings.setdefault(name, fixed) != fixed:
            raise ConfigurationError(
                f"{name}={settings[name]!r} contradicts the {fixed!r} this "
                "cluster was constructed with"
            )
    cluster.config = NodeConfig.from_dict(settings)
    stacks: Dict[str, List[Component]] = {}
    for pid in cluster.pids:
        parts = attach_node_stack(
            lambda component, pid=pid: cluster.attach(pid, component),
            cluster.config, with_consensus=with_consensus,
        )
        for role, component in parts.items():
            stacks.setdefault(role, []).append(component)
    return stacks
