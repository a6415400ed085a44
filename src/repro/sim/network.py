"""The message path: every message any substrate carries goes through here.

One path, written once, in five steps — **admit → record → self-send or
fault → cross → deliver**:

1. *admit*: :meth:`send_many` builds one :class:`Message` per destination
   and bumps ``sent_total`` / ``sent_by_channel`` (keyed, like every
   per-channel counter, by :func:`~repro.obs.metrics.channel_family`)
   once per call, by the number of messages.  The registry's
   ``messages_sent_total`` / ``messages_delivered_total`` series are bound
   once, at construction (:meth:`~repro.obs.metrics.MetricsRegistry.bind`),
   so each count is one dict increment;
2. *record*: a ``send`` trace event per destination, flagged ``loopback``
   for a self-send;
3. *self-send or fault*: a self-send (``src == dst``) is scheduled at +0 —
   local, never lost, never a network message; anything else counts in
   ``sent_network`` and, once every destination of the call has been
   admitted and while the :class:`~repro.sim.faults.FaultPlan` is active,
   asks it for a verdict in destination order — ``None`` is a ``drop``
   with ``reason="fault"``, anything else is extra delay;
4. *cross*: the surviving messages and their extra delays are handed to
   the substrate's one hook, :meth:`_cross`, which realises the delay on
   its own clock;
5. *deliver*: :meth:`_finish_delivery` counts, records ``deliver`` and
   runs the deliver callback.

So one call emits all its ``send`` records before any ``drop``, and its
self-send is queued ahead of its network sends — visible only where a
link has zero delay.  The simulator's crossing is :class:`Network` below
(a link decides loss and delay); the live runtime's is
:class:`repro.net.host.RuntimeNetwork` (codec frame → transport).  The
paper's per-round message counts (e.g. "4n for the ◇C protocol") are
network messages, so the metrics layer reads ``sent_network`` by default.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry, channel_family
from ..obs.sinks import TraceSink
from ..types import Channel, ProcessId, Time
from .api import SchedulerAPI
from .faults import FaultPlan
from .links import Link, ReliableLink
from .message import Message

__all__ = ["Network"]

#: The extra delays of a crossing while the plan is idle.
_NO_EXTRA: Iterable[Time] = repeat(0.0)


class _MessagePath:
    """Every step but the crossing; subclasses add :meth:`_cross`."""

    def __init__(
        self,
        scheduler: SchedulerAPI,
        trace: TraceSink,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
        deliver: Optional[Callable[[Message], None]] = None,
    ) -> None:
        self._scheduler = scheduler
        self._trace = trace
        self._plan = plan
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._deliver = deliver
        # Counters, cheap enough to keep always-on.
        self.sent_total = 0
        self.sent_network = 0  # excludes self-sends
        self.delivered_total = 0
        self.dropped_total = 0
        self.sent_by_channel: Dict[Channel, int] = {}
        self._sent = self._metrics.bind("messages_sent_total", "channel")
        self._delivered = self._metrics.bind(
            "messages_delivered_total", "channel")

    def set_deliver(self, deliver: Callable[[Message], None]) -> None:
        """Install the delivery callback (``Process.deliver``, in effect)."""
        self._deliver = deliver

    def send(
        self,
        src: ProcessId,
        dst: ProcessId,
        channel: Channel,
        payload: Any,
        tag: Optional[str] = None,
        round: Optional[int] = None,
    ) -> Message:
        """Inject one message; returns its record (mostly useful to tests)."""
        return self.send_many(src, (dst,), channel, payload, tag, round)[0]

    def send_many(
        self,
        src: ProcessId,
        dsts: Sequence[ProcessId],
        channel: Channel,
        payload: Any,
        tag: Optional[str] = None,
        round: Optional[int] = None,
    ) -> List[Message]:
        """Send one payload to many destinations (see the module docstring
        for the order of effects); returns one record per destination."""
        now = self._scheduler.now
        trace_sends = self._trace.wants("send")
        family = channel_family(channel)
        msgs: List[Message] = []
        network: List[Message] = []
        for dst in dsts:
            msg = Message(src, dst, channel, payload, now, tag, round)
            msgs.append(msg)
            if trace_sends:
                self._trace.record(
                    now, "send", src, channel=channel, src=src, dst=dst,
                    tag=tag, round=round, loopback=src == dst,
                )
            if src == dst:
                self._scheduler.schedule(0.0, self._finish_delivery, msg)
            else:
                network.append(msg)
        if msgs:
            self.sent_total += len(msgs)
            self.sent_by_channel[family] = (
                self.sent_by_channel.get(family, 0) + len(msgs))
        if network:
            self.sent_network += len(network)
            key = (family,)
            self._sent[key] = self._sent.get(key, 0) + len(network)
        extra = _NO_EXTRA
        if network and self._plan.active:
            crossing, extra = [], []
            for msg in network:
                verdict = self._plan.plan(src, msg.dst)
                if verdict is None:
                    self._drop(msg, "fault")
                else:
                    crossing.append(msg)
                    extra.append(verdict)
            network = crossing
        if network:
            self._cross(network, extra)
        return msgs

    def _cross(self, msgs: List[Message], extra: Iterable[Time]) -> None:
        """Carry same-content network messages towards their destinations,
        each held back by its *extra* delay."""
        raise NotImplementedError

    def _drop(self, msg: Message, reason: str) -> None:
        """Count and record a message lost between send and deliver."""
        self.dropped_total += 1
        self._metrics.inc("messages_dropped_total", reason=reason)
        if self._trace.wants("drop"):
            self._trace.record(
                msg.send_time, "drop", msg.src, channel=msg.channel,
                src=msg.src, dst=msg.dst, reason=reason,
            )

    def _finish_delivery(self, msg: Message) -> None:
        self.delivered_total += 1
        key = (channel_family(msg.channel),)
        self._delivered[key] = self._delivered.get(key, 0) + 1
        if self._trace.wants("deliver"):
            self._trace.record(
                self._scheduler.now, "deliver", msg.dst,
                channel=msg.channel, src=msg.src, dst=msg.dst,
                tag=msg.tag, round=msg.round,
            )
        if self._deliver is None:  # pragma: no cover - defensive
            raise ConfigurationError("network has no delivery callback installed")
        self._deliver(msg)


class Network(_MessagePath):
    """The simulated fabric: one directed :class:`~repro.sim.links.Link` per
    ordered pair of processes (with a configurable default) decides, per
    message, between a ``drop`` and a delivery event on the scheduler."""

    def __init__(
        self,
        n: int,
        scheduler: SchedulerAPI,
        trace: TraceSink,
        rng: random.Random,
        plan: FaultPlan,
        default_link: Optional[Link] = None,
        deliver: Optional[Callable[[Message], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one process, got n={n}")
        super().__init__(scheduler, trace, plan, metrics, deliver)
        self.n = n
        self._rng = rng
        self._default_link = default_link if default_link is not None else ReliableLink()
        self._links: Dict[Tuple[ProcessId, ProcessId], Link] = {}

    # --------------------------------------------------------------- wiring
    def set_link(self, src: ProcessId, dst: ProcessId, link: Link) -> None:
        """Override the link used for the directed pair ``src -> dst``."""
        self._links[(src, dst)] = link

    def set_links_from(self, src: ProcessId, link_factory: Callable[[], Link]) -> None:
        """Set all output links of *src* from a factory (one fresh link each)."""
        for dst in range(self.n):
            if dst != src:
                self.set_link(src, dst, link_factory())

    def set_links_to(self, dst: ProcessId, link_factory: Callable[[], Link]) -> None:
        """Set all input links of *dst* from a factory (one fresh link each)."""
        for src in range(self.n):
            if src != dst:
                self.set_link(src, dst, link_factory())

    def link(self, src: ProcessId, dst: ProcessId) -> Link:
        """The link currently governing the directed pair ``src -> dst``."""
        return self._links.get((src, dst), self._default_link)

    # -------------------------------------------------------------- crossing
    def _cross(self, msgs: List[Message], extra: Iterable[Time]) -> None:
        now = self._scheduler.now
        for msg, held in zip(msgs, extra):
            delay = self.link(msg.src, msg.dst).plan(msg, now, self._rng)
            if delay is None:
                self._drop(msg, "link")
            else:
                self._scheduler.schedule(
                    delay + held, self._finish_delivery, msg
                )
