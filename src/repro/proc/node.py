"""One node per OS process: the ``repro node`` entrypoint.

This is the runtime half of the multi-process story: read the address
book, bind this pid's socket, attach the paper's standard stack on a
single :class:`~repro.net.host.NodeHost`, ship the trace to a per-node
JSONL file, run for the configured duration, exit 0.  Everything the
node does is self-driving — proposals fire from the book's
``propose_after``, timers run on a wall :class:`AsyncioClock` — because
a process cluster has no in-process orchestrator to poke components.

Crashes are *not* handled here, and that is the point: the launcher
``kill -9``'s the process, the OS reclaims the sockets, and the peers
observe genuine silence.  The node never traps signals, so there is no
cooperative-shutdown path that could soften the failure model — stalls
arrive the same way, as real ``SIGSTOP``/``SIGCONT``.  *Network* faults,
by contrast, need the node's cooperation (only it can drop its own
sends), so each node's send path consults an idle per-node
:class:`~repro.sim.faults.FaultPlan` and — when the address book names a
``control_port`` — binds a :class:`~repro.net.control.FaultControlEndpoint`
through which the launcher's partition/degrade/storm/skew verbs mutate
that plan (and the node's clock) at runtime.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import ConfigurationError
from ..net.clock import AsyncioClock, SkewedClock
from ..net.control import FaultControlEndpoint
from ..net.host import NodeHost
from ..net.stats import StatsEndpoint, parse_stats_addr
from ..net.tcp import TCPTransport
from ..net.udp import UDPTransport
from ..obs.live import StreamingSink
from ..obs.sinks import JsonlSink, MemorySink, TeeSink, TraceSink
from ..sim.faults import FaultPlan
from ..cluster.local import attach_node_stack
from ..svc.frontend import ServiceFrontend
from ..types import ProcessId
from .book import AddressBook

__all__ = ["build_node", "run_node"]


def build_node(
    book: AddressBook,
    pid: ProcessId,
    trace: Optional[TraceSink] = None,
) -> NodeHost:
    """Assemble (but do not start) node *pid* of the cluster in *book*.

    The host gets its listening address from the book, the paper's
    standard stack attached (``book.stack`` selects the ◇S source), and
    *trace* as its sink (an in-memory one by default).  Components by
    role are available as ``host.stacks`` afterwards.
    """
    host_addr, port = book.address(pid)
    if book.transport == "udp":
        transport: Any = UDPTransport(pid, host=host_addr, port=port)
    else:
        transport = TCPTransport(pid, host=host_addr, port=port)
    # The node's own fault surface: an (idle, near-free) plan its sends
    # run through and a steppable clock — the fault-control endpoint
    # mutates both on command from the launcher.  Decorrelate the plan's
    # rng from peers so "30% loss everywhere" is not 3 identical streams.
    plan = FaultPlan(book.n, seed=book.seed * 1009 + pid)
    clock = plan.clocks[pid] = SkewedClock(AsyncioClock())
    host = NodeHost(
        pid, book.n, transport, plan,
        clock=clock,
        trace=trace if trace is not None else MemorySink(),
        seed=book.seed,
    )
    host.stacks = attach_node_stack(  # type: ignore[attr-defined]
        host.attach, book.config
    )
    return host


async def run_node(
    book: AddressBook,
    pid: ProcessId,
    trace_out: Optional[Union[str, Path]] = None,
    duration: Optional[float] = None,
    stats_addr: Optional[str] = None,
    serve_addr: Optional[str] = None,
    ship_to: Optional[str] = None,
) -> Dict[str, int]:
    """Run node *pid* to completion; returns transport counters.

    The lifecycle mirrors one slot of ``LocalCluster.start()``: bind,
    learn the peer map, rebase trace time zero, start components,
    schedule the proposal round, sleep out the duration, tear down.

    *stats_addr* (``HOST:PORT`` / ``:PORT`` / ``PORT``) additionally
    binds the UDP introspection endpoint serving the node's metrics
    registry in Prometheus text format (see :mod:`repro.net.stats`).

    On an ``rsm`` stack, a KV :class:`~repro.svc.ServiceFrontend` is
    bound for real clients when either *serve_addr* (same spec syntax
    as *stats_addr*) or the book's per-node ``serve_port`` names a
    listen address.

    *ship_to* (``HOST:PORT``, overriding the book's ``ship_to``)
    additionally tees the node's trace into a
    :class:`~repro.obs.live.StreamingSink` forwarding every event to a
    live collector (``repro watch``); its shipper counters ride both
    the ``obs_stream_*`` gauges and the returned counter dict.
    """
    base_sink: TraceSink
    if trace_out is not None:
        base_sink = JsonlSink(Path(trace_out), node=pid)
    else:
        base_sink = MemorySink()
    sink = base_sink
    streaming: Optional[StreamingSink] = None
    ship_spec = ship_to if ship_to is not None else book.ship_to
    if ship_spec is not None:
        streaming = StreamingSink(ship_spec, node=pid)
        sink = TeeSink(base_sink, streaming)
    host = build_node(book, pid, trace=sink)
    control: Optional[FaultControlEndpoint] = None
    control_at = book.control_address(pid)
    if control_at is not None:
        control = FaultControlEndpoint(
            host, listen_host=control_at[0], port=control_at[1]
        )
        await control.bind()
    stats: Optional[StatsEndpoint] = None
    if stats_addr is not None:
        stats_host, stats_port = parse_stats_addr(stats_addr)
        stats = StatsEndpoint(
            host.metrics, samplers=host.world.metrics_samplers,
            host=stats_host, port=stats_port,
        )
        await stats.bind()
    frontend: Optional[ServiceFrontend] = None
    rsm = host.stacks.get("rsm")  # type: ignore[attr-defined]
    serve_at = (
        parse_stats_addr(serve_addr)
        if serve_addr is not None
        else book.serve_address(pid)
    )
    if serve_at is not None:
        if rsm is None:
            raise ConfigurationError(
                "a serve address needs the 'rsm' stack (the KV frontend "
                "submits into the replicated log)"
            )
        # Construct before start so no applied command can slip past the
        # frontend's on_apply registration.
        frontend = ServiceFrontend(
            host, rsm, host.stacks["fd"],  # type: ignore[attr-defined]
            listen_host=serve_at[0], port=serve_at[1],
        )
    await host.transport.bind()
    host.transport.set_peers(book.addresses())
    host.clock.rebase()  # trace time 0 = the instant this node starts
    if isinstance(base_sink, JsonlSink):
        base_sink.rebase_epoch()
    if streaming is not None:
        streaming.rebase_epoch()
        await streaming.start()
        shipper = streaming  # bind for the sampler closure

        def _sample_stream(registry) -> None:
            registry.set("obs_stream_events_shipped", shipper.events_shipped)
            registry.set("obs_stream_events_dropped", shipper.events_dropped)
            registry.set("obs_stream_batches_shipped", shipper.batches_shipped)
            registry.set("obs_stream_reconnects", shipper.reconnects)

        host.world.metrics_samplers.append(_sample_stream)
    host.start()
    if frontend is not None:
        await frontend.bind()
        frontend.set_peers(book.serve_addresses())
    if book.propose_after is not None:
        protocol = host.stacks.get("consensus")  # type: ignore[attr-defined]
        if protocol is not None:
            host.clock.schedule_at(
                book.propose_after,
                lambda: protocol.propose(f"value-from-p{pid}"),
            )
        if rsm is not None:
            host.clock.schedule_at(
                book.propose_after,
                lambda: rsm.submit(f"value-from-p{pid}"),
            )
    run_for = duration if duration is not None else book.duration
    await asyncio.sleep(run_for)
    if control is not None:
        control.close()
    if stats is not None:
        stats.close()
    if frontend is not None:
        await frontend.close()
    await host.transport.close()
    if streaming is not None:
        await streaming.aclose()
    sink.close()
    counters = {
        "frames_sent": host.transport.frames_sent,
        "frames_received": host.transport.frames_received,
        "send_errors": host.transport.send_errors,
    }
    if streaming is not None:
        counters["events_shipped"] = streaming.events_shipped
        counters["events_dropped"] = streaming.events_dropped
    return counters
