"""Live asyncio runtime: the sim's protocol stacks over real transports.

Where :mod:`repro.sim` executes the paper's algorithms in deterministic
virtual time, this subpackage executes the *same, unchanged*
:class:`~repro.sim.component.Component` subclasses on real asyncio event
loops and real sockets:

* :mod:`~repro.net.codec` — the JSON wire codec that round-trips every
  payload shape the protocols produce;
* :mod:`~repro.net.clock` — wall-clock and deterministic virtual clocks
  implementing the shared :mod:`repro.sim.api` scheduler protocol;
* :mod:`~repro.net.transport` / :mod:`~repro.net.udp` /
  :mod:`~repro.net.tcp` — in-process loopback, UDP datagrams, and TCP with
  length-prefixed framing plus reconnect backoff;
* :mod:`~repro.net.host` — the :class:`NodeHost` adapter that makes one
  live node look like one slot of a simulated
  :class:`~repro.sim.world.World`;
* :class:`LocalCluster` — n nodes in one process sharing a clock and a
  trace, so :mod:`repro.analysis` works on live runs unchanged.  Its
  canonical home is now :mod:`repro.cluster` (next to the unified
  :class:`~repro.cluster.api.ClusterAPI` contract); it is still
  re-exported here for convenience.

See ``docs/runtime.md`` for the architecture and the sim-vs-live guarantee
matrix, and ``python -m repro cluster`` for the end-to-end demo.
"""

from .clock import AsyncioClock, SkewedClock, VirtualClock
from .codec import Codec, CodecError, JsonCodec, default_codec
from .control import FaultControlEndpoint, send_fault_command
from ..sim.faults import FaultPlan
from .host import NodeHost, RuntimeNetwork, RuntimeWorld
from .stats import StatsEndpoint, fetch_stats, parse_stats_addr
from .tcp import TCPTransport
from .transport import LoopbackHub, LoopbackTransport, Transport
from .udp import UDPTransport

__all__ = [
    "StatsEndpoint",
    "fetch_stats",
    "parse_stats_addr",
    "AsyncioClock",
    "SkewedClock",
    "VirtualClock",
    "FaultControlEndpoint",
    "send_fault_command",
    "LocalCluster",
    "TRANSPORTS",
    "attach_standard_stack",
    "Codec",
    "CodecError",
    "JsonCodec",
    "default_codec",
    "FaultPlan",
    "NodeHost",
    "RuntimeNetwork",
    "RuntimeWorld",
    "TCPTransport",
    "LoopbackHub",
    "LoopbackTransport",
    "Transport",
    "UDPTransport",
]

_MOVED_TO_CLUSTER = ("LocalCluster", "TRANSPORTS", "attach_standard_stack")


def __getattr__(name: str):
    # Re-exported lazily from their new home: repro.cluster imports this
    # package (clocks, transports, NodeHost), so an eager import here
    # would be circular.
    if name in _MOVED_TO_CLUSTER:
        from .. import cluster as _cluster

        return getattr(_cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
