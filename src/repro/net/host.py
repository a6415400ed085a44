"""The :class:`NodeHost`: one live node running unchanged protocol stacks.

This is the runtime's counterpart of one slot of the simulator's
:class:`~repro.sim.world.World`.  It assembles the component-facing surface
(:mod:`repro.sim.api`) out of live parts —

* a clock (:mod:`repro.net.clock`) in place of the virtual-time heap,
* a :class:`RuntimeNetwork` — the one message path of
  :mod:`repro.sim.network` (admit → record → self-send or fault → cross →
  deliver) whose crossing is a codec frame handed to a transport,
* any :class:`~repro.obs.TraceSink` (an analysis-facing
  :class:`~repro.obs.MemorySink` by default; a streaming
  :class:`~repro.obs.JsonlSink`, or a tee of both, for trace shipping),
  plus the *same* :class:`~repro.sim.rng.RandomSource` and — crucially —
  :class:`~repro.sim.process.Process` classes, reused verbatim —

and attaches ordinary :class:`~repro.sim.component.Component` subclasses to
it.  A ◇C detector, the Fig. 2 transformation, reliable broadcast, and the
consensus algorithms run here without a line of change: their timers become
asyncio timers, their ``send``/``broadcast`` become datagrams or TCP
frames, and their trace events land in a recorder the analysis layer reads
exactly as it reads simulated traces.

One host serves one process id.  Multi-node single-machine runs are
orchestrated by :class:`~repro.cluster.LocalCluster`; a multi-machine
deployment would create one host per box and share the address book
out of band.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry, channel_family
from ..obs.sinks import MemorySink, TraceSink
from ..sim.faults import FaultPlan
from ..sim.message import Message
from ..sim.network import _MessagePath
from ..sim.process import Process
from ..sim.rng import RandomSource
from ..types import Channel, ProcessId, Time
from .clock import AsyncioClock
from .codec import Codec, CodecError, default_codec
from .transport import Transport

__all__ = ["RuntimeNetwork", "RuntimeWorld", "NodeHost"]


class RuntimeNetwork(_MessagePath):
    """The live :class:`~repro.sim.api.NetworkAPI`: the shared message path
    of :mod:`repro.sim.network` with a codec + transport crossing."""

    def __init__(self, host: "NodeHost") -> None:
        super().__init__(host.clock, host.trace, host.plan, host.metrics)
        self._host = host
        self._bytes_sent = host.metrics.bind("bytes_sent_total", "channel")

    def _cross(self, msgs: List[Message], extra: Iterable[Time]) -> None:
        # Same-content messages: the codec encodes the shared part once.
        # Bytes count at send time; only the transport hop is held back.
        host = self._host
        frames = host.codec.encode_message_batch(msgs)
        key = (channel_family(msgs[0].channel),)
        self._bytes_sent[key] = (
            self._bytes_sent.get(key, 0) + sum(map(len, frames)))
        for msg, frame, held in zip(msgs, frames, extra):
            if held > 0.0:
                host.clock.schedule(held, host.transport.send, msg.dst, frame)
            else:
                host.transport.send(msg.dst, frame)


class RuntimeWorld:
    """The live :class:`~repro.sim.api.WorldAPI` backing one node.

    Satisfies exactly the surface components touch (``n``, ``scheduler``,
    ``network``, ``trace``, ``rng``, ``crash_epoch``) — oracle components,
    which read the simulator's global failure pattern, are out of scope by
    design and fail fast with a clear error if attached.
    """

    def __init__(
        self,
        n: int,
        scheduler: Any,
        network: RuntimeNetwork,
        trace: TraceSink,
        rng: RandomSource,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.n = n
        self.scheduler = scheduler
        self.network = network
        self.trace = trace
        self.rng = rng
        self.crash_epoch = 0
        #: Same surface as :attr:`repro.sim.world.World.metrics`.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Samplers run before each metrics snapshot; the owning
        #: :class:`NodeHost` registers one copying the transport counters.
        self.metrics_samplers: list = []

    @property
    def now(self) -> float:
        """Current clock time (seconds since the host's zero point)."""
        return self.scheduler.now

    @property
    def processes(self) -> None:
        raise ConfigurationError(
            "world.processes is simulator-only (a live node cannot see the "
            "global failure pattern); oracle components cannot run on a "
            "NodeHost — use a message-passing detector instead"
        )


class NodeHost:
    """Hosts the protocol components of one process over a live transport.

    Parameters:
        pid / n: this node's id and the cluster size.
        transport: a bound-later :class:`~repro.net.transport.Transport`.
        plan: the :class:`~repro.sim.faults.FaultPlan` this node's sends
            are judged by (kept as :attr:`plan`) — one shared by every
            host of an in-process cluster, the node's own in a process
            cluster.
        clock: any :class:`~repro.sim.api.SchedulerAPI`; defaults to a
            fresh wall-clock :class:`~repro.net.clock.AsyncioClock`.
        codec: wire codec; defaults to :func:`~repro.net.codec.default_codec`.
        trace: any :class:`~repro.obs.TraceSink` — a shared recorder for
            in-process clusters, a per-node :class:`~repro.obs.JsonlSink`
            (or a tee of both) for trace shipping, or ``None`` for a
            private in-memory one.
        seed: master seed for this node's deterministic RNG streams.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        transport: Transport,
        plan: FaultPlan,
        clock: Optional[Any] = None,
        codec: Optional[Codec] = None,
        trace: Optional[TraceSink] = None,
        seed: int = 0,
    ) -> None:
        if not 0 <= pid < n:
            raise ConfigurationError(f"pid {pid} out of range for n={n}")
        if transport.pid != pid:
            raise ConfigurationError(
                f"transport is addressed as pid {transport.pid}, host is {pid}"
            )
        self.pid = pid
        self.n = n
        self.transport = transport
        self.plan = plan
        self.clock = clock if clock is not None else AsyncioClock()
        self.codec = codec if codec is not None else default_codec()
        self.trace: TraceSink = trace if trace is not None else MemorySink()
        #: The node's metric store (shared with ``world.metrics``).
        self.metrics = MetricsRegistry()
        self._bytes_received = self.metrics.bind(
            "bytes_received_total", "channel")
        # Per-node seed spaces: the same master seed never makes two nodes'
        # jitter streams collide, yet runs stay reproducible.
        self.world = RuntimeWorld(
            n=n,
            scheduler=self.clock,
            network=RuntimeNetwork(self),
            trace=self.trace,
            rng=RandomSource(seed).spawn(f"node:{pid}"),
            metrics=self.metrics,
        )
        self.process = Process(pid, self.world)  # reused verbatim from sim
        self.world.network.set_deliver(self.process.deliver)
        self.world.metrics_samplers.append(self._sample_transport_metrics)
        transport.set_receiver(self._on_frame)
        transport.set_observer(self._on_transport_event)

    # ----------------------------------------------------------------- wiring
    def attach(self, component) -> Any:
        """Attach *component* (any sim Component subclass); returns it."""
        return self.process.attach(component)

    def component(self, channel: Channel):
        """Look up the attached component on *channel*."""
        return self.process.component(channel)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start every attached component (their ``on_start`` hooks run)."""
        self.process.start()

    def crash(self) -> None:
        """Crash the hosted process (component tasks stop, sends turn into
        no-ops).  The transport keeps receiving; frames for a crashed
        process are counted as drops, as in the simulator."""
        self.process.crash()

    @property
    def crashed(self) -> bool:
        return self.process.crashed

    # -------------------------------------------------------------- receiving
    def _on_frame(self, data: bytes) -> None:
        try:
            msg = self.codec.decode_message(data)
        except CodecError:
            # A malformed datagram (bit rot, port scanner, version skew) must
            # never take the node down — count it and move on.
            self._drop_frame("undecodable")
            return
        if msg.dst != self.pid:
            self._drop_frame(
                "misrouted", channel=msg.channel, src=msg.src, dst=msg.dst
            )
            return
        key = (channel_family(msg.channel),)
        self._bytes_received[key] = self._bytes_received.get(key, 0) + len(data)
        self.world.network._finish_delivery(msg)

    def _drop_frame(self, reason: str, **fields: Any) -> None:
        """Count and record a received frame that is not delivered."""
        self.metrics.inc("messages_dropped_total", reason=reason)
        if self.trace.wants("drop"):
            self.trace.record(
                self.clock.now, "drop", self.pid, **fields, reason=reason
            )

    def _on_transport_event(self, event: str, **fields: Any) -> None:
        """Land transport incidents (``net.peer_unreachable``, ...) in the
        trace, timestamped on this host's clock."""
        self.metrics.inc("transport_incidents_total", event=event)
        if self.trace.wants(event):
            self.trace.record(self.clock.now, event, self.pid, **fields)

    def _sample_transport_metrics(self, registry: MetricsRegistry) -> None:
        """Copy the transport's always-on counters into gauges — run by the
        :class:`~repro.obs.MetricsReporter` right before each snapshot."""
        transport = self.transport
        registry.set("transport_frames_sent", transport.frames_sent)
        registry.set("transport_frames_received", transport.frames_received)
        registry.set("transport_bytes_sent", transport.bytes_sent)
        registry.set("transport_bytes_received", transport.bytes_received)
        registry.set("transport_send_errors", transport.send_errors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "crashed" if self.crashed else "up"
        return (
            f"<NodeHost pid={self.pid}/{self.n} ({state}) "
            f"components={list(self.process.components)}>"
        )
