"""The live telemetry plane: streamed traces and online QoS.

Everything else in :mod:`repro.obs` is postmortem — nodes buffer JSONL,
the launcher collects files after shutdown, and ``repro trace qos``
replays them offline.  This module makes the same event stream visible
*while the run is still going*:

* :class:`StreamingSink` — a :class:`~repro.obs.sinks.TraceSink` that
  ships registry-validated events over TCP to a collector address with
  bounded buffering (full buffer ⇒ counted drop, never backpressure on
  the node), batch framing reusing :mod:`repro.net.frame`, and
  reconnect-with-backoff on torn streams.  Wire format: one hello frame
  (a JSON object carrying the node id and clock provenance, exactly the
  :class:`~repro.obs.sinks.JsonlSink` header with ``"trace":
  "repro.obs.live"``), then batch frames — each a JSON array of
  ``[time, kind, pid, data]`` rows with payload values passed through
  :func:`~repro.obs.encode.to_jsonable`.
* :class:`LiveCollector` — the receiving TCP server: accepts any number
  of node streams, rebases their clocks onto a common epoch (base = the
  first ``epoch_wall`` seen, mirroring :mod:`repro.obs.merge`), and
  feeds every event into an
  :class:`~repro.analysis.qos.IncrementalQoS` — the same state machine
  the offline ``repro trace qos`` folds a recorded trace through, so
  the live report *is* the postmortem one taken early.

``repro watch`` is the CLI front end (see :mod:`repro.cli`); ``docs/
live.md`` documents the wire format and the watch UI.
"""

from __future__ import annotations

import asyncio
import json
import time as _time
from collections import deque
from typing import (
    Any, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

from ..analysis.qos import IncrementalQoS
from ..errors import ConfigurationError
from ..types import ProcessId, Time
from .encode import EncodeError, from_jsonable, to_jsonable
from .events import TraceEvent
from .sinks import MemorySink, TraceSink

__all__ = [
    "LIVE_STREAM_MAGIC",
    "LIVE_STREAM_VERSION",
    "LiveCollector",
    "StreamingSink",
    "parse_ship_address",
]

#: ``trace`` field of the hello frame opening every shipped stream.
LIVE_STREAM_MAGIC = "repro.obs.live"
#: Wire-format version stamped into (and accepted from) hello frames.
LIVE_STREAM_VERSION = 1

#: Largest frame the collector will accept (a batch of 256 events with
#: metrics-snapshot payloads stays far below this).
MAX_FRAME = 1024 * 1024


def parse_ship_address(
    spec: Union[str, Tuple[str, int]],
) -> Tuple[str, int]:
    """Parse a ``--ship-to`` / ``--connect`` address into ``(host, port)``.

    Accepts ``HOST:PORT``, ``:PORT``, a bare port, or an already-split
    ``(host, port)`` tuple; the host defaults to ``127.0.0.1``.
    """
    if isinstance(spec, tuple):
        host, port = spec
        return (host or "127.0.0.1", int(port))
    text = str(spec).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or "127.0.0.1"
    else:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"bad collector address {spec!r} (want HOST:PORT)"
        ) from None
    return host, port


# ---------------------------------------------------------------------------
# Shipper
# ---------------------------------------------------------------------------

class StreamingSink(TraceSink):
    """Ship trace events to a :class:`LiveCollector` over TCP.

    A :class:`~repro.obs.sinks.TraceSink`, so it tees next to the node's
    JSONL/memory sinks through the existing wiring.  ``record`` is
    synchronous and never blocks: events are JSON-encoded immediately
    (snapshotting mutable payloads) into a bounded buffer; when the
    buffer is full the event is *dropped* and counted — telemetry must
    never backpressure the node it observes.  A background flusher task
    (started with :meth:`start`) drains the buffer in batches and
    reconnects with exponential backoff when the collector goes away;
    events batched at the instant a connection tears are dropped
    (at-most-once delivery) and counted too.

    Counters (sampled into the ``obs_stream_*`` gauges by live nodes):
    ``events_shipped``, ``events_dropped``, ``batches_shipped``,
    ``reconnects``, ``connect_failures``.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        node: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
        max_buffer: int = 4096,
        batch_max: int = 256,
        flush_interval: float = 0.05,
        backoff: float = 0.2,
        max_backoff: float = 2.0,
    ) -> None:
        self._host, self._port = parse_ship_address(address)
        self.node = node
        self._kinds: Optional[Set[str]] = set(kinds) if kinds is not None else None
        self.max_buffer = max_buffer
        self.batch_max = batch_max
        self.flush_interval = flush_interval
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.epoch_wall = _time.time()
        self.epoch_mono = _time.monotonic()
        self._buffer: Deque[Tuple[Time, str, Optional[ProcessId], Dict[str, Any]]] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._hello_sent = False
        self._closed = False
        self.events_shipped = 0
        self.events_dropped = 0
        self.batches_shipped = 0
        self.reconnects = 0
        self.connect_failures = 0

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> str:
        """The collector address this sink ships to, as ``HOST:PORT``."""
        return f"{self._host}:{self._port}"

    @property
    def buffered(self) -> int:
        """Events waiting in the bounded buffer."""
        return len(self._buffer)

    def rebase_epoch(self) -> None:
        """Re-stamp the provenance clocks to *now* (= trace time zero).

        Must happen before the hello frame goes out; afterwards the
        collector has already rebased this stream and the epoch is frozen
        (same contract as :meth:`repro.obs.sinks.JsonlSink.rebase_epoch`).
        """
        if self._hello_sent:
            raise ConfigurationError(
                "cannot rebase a live stream epoch after the hello frame"
            )
        self.epoch_wall = _time.time()
        self.epoch_mono = _time.monotonic()

    async def start(self) -> None:
        """Spawn the background flusher (idempotent; needs a running loop)."""
        if self._task is not None or self._closed:
            return
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        # Keep the reference: a bare create_task could be collected
        # mid-flight and its exception lost.
        self._task = asyncio.get_running_loop().create_task(self._run())

    # ------------------------------------------------------------ recording
    def record(
        self, time: Time, kind: str, pid: Optional[ProcessId], /, **data: Any
    ) -> None:
        if self._closed:
            return
        kinds = self._kinds
        if kinds is not None and kind not in kinds:
            return
        if len(self._buffer) >= self.max_buffer:
            self.events_dropped += 1
            return
        # Encode now: payloads may hold mutable views (suspect sets) that
        # the protocol mutates after recording; the JSONL sink snapshots
        # the same way by writing immediately.
        encoded = {key: to_jsonable(value) for key, value in data.items()}
        self._buffer.append((time, kind, pid, encoded))
        if self._wakeup is not None:
            self._wakeup.set()

    def wants(self, kind: str) -> bool:
        return not self._closed and (self._kinds is None or kind in self._kinds)

    # ------------------------------------------------------------- flusher
    async def _run(self) -> None:
        from ..net.frame import write_frame  # deferred: repro.net imports repro.obs

        backoff = self.backoff
        while not self._closed:
            try:
                _, writer = await asyncio.open_connection(self._host, self._port)
            except OSError:
                self.connect_failures += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, self.max_backoff)
                continue
            backoff = self.backoff
            self._writer = writer
            try:
                await self._pump(writer, write_frame)
            except (ConnectionError, OSError):
                self.reconnects += 1
            finally:
                self._writer = None
                writer.close()

    async def _pump(self, writer: asyncio.StreamWriter, write_frame) -> None:
        hello = {
            "trace": LIVE_STREAM_MAGIC,
            "version": LIVE_STREAM_VERSION,
            "node": self.node,
            "epoch_wall": self.epoch_wall,
            "epoch_mono": self.epoch_mono,
        }
        write_frame(writer, json.dumps(hello, separators=(",", ":")).encode())
        await writer.drain()
        self._hello_sent = True
        assert self._wakeup is not None
        while not self._closed:
            if not self._buffer:
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(
                        self._wakeup.wait(), self.flush_interval
                    )
                except asyncio.TimeoutError:
                    continue  # periodic poll; nothing arrived
                continue
            pending: List[Any] = []
            while self._buffer and len(pending) < self.batch_max:
                t, kind, pid, data = self._buffer.popleft()
                pending.append([t, kind, pid, data])
            body = json.dumps(pending, separators=(",", ":")).encode()
            try:
                write_frame(writer, body)
                await writer.drain()
            except (ConnectionError, OSError):
                # The batch was already taken off the buffer: at-most-once.
                self.events_dropped += len(pending)
                raise
            self.events_shipped += len(pending)
            self.batches_shipped += 1

    # ------------------------------------------------------------- teardown
    async def aclose(self, timeout: float = 1.0) -> None:
        """Drain (best-effort, up to *timeout*), then stop the flusher."""
        if self._task is not None and not self._closed:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + timeout
            while self._buffer and loop.time() < deadline:
                await asyncio.sleep(0.02)
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass  # the cancellation we just requested
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def close(self) -> None:
        """Synchronous close for the :class:`TraceSink` contract.

        Undelivered buffered events are dropped (and counted); prefer
        :meth:`aclose` from async teardown paths, which drains first.
        """
        if self._closed:
            return
        self._closed = True
        self.events_dropped += len(self._buffer)
        self._buffer.clear()
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None


# ---------------------------------------------------------------------------
# Collector
# ---------------------------------------------------------------------------

class LiveCollector:
    """TCP server ingesting :class:`StreamingSink` streams into an
    :class:`~repro.analysis.qos.IncrementalQoS`.

    Clock rebasing mirrors :mod:`repro.obs.merge`: the first hello's
    ``epoch_wall`` becomes the common base, and every stream's events are
    shifted by its own epoch's offset from that base, so multi-node
    streams land on one comparable time axis.

    ``trace`` records ``live.connect`` / ``live.disconnect`` lifecycle
    events (and, with ``retain=True``, every ingested event — tests use
    this to diff against the shipped originals).
    """

    def __init__(
        self,
        channel: str = "fd",
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME,
        retain: bool = False,
    ) -> None:
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._retain = retain
        self.qos = IncrementalQoS(channel=channel)
        self.trace = MemorySink(
            kinds=None if retain else {"live.connect", "live.disconnect"}
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._base_wall: Optional[float] = None
        self.events_ingested = 0
        self.streams_seen = 0
        self.open_streams = 0
        self.torn_streams = 0

    @property
    def address(self) -> str:
        """``HOST:PORT`` to point ``--ship-to`` at (after :meth:`bind`)."""
        return f"{self._host}:{self._port}"

    @property
    def port(self) -> int:
        return self._port

    def now(self) -> Time:
        """Current time on the collector's rebased axis."""
        if self._base_wall is None:
            return 0.0
        return _time.time() - self._base_wall

    async def bind(self) -> str:
        """Start listening; resolves an ephemeral port.  Returns address."""
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        from ..net.frame import FrameError, read_frame_bytes

        self.streams_seen += 1
        self.open_streams += 1
        node: Optional[int] = None
        offset = 0.0
        shipped = 0
        try:
            while True:
                try:
                    body = await read_frame_bytes(reader, self._max_frame)
                except FrameError:
                    self.torn_streams += 1  # truncated/oversized frame
                    break
                if body is None:
                    break  # clean EOF
                try:
                    frame = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self.torn_streams += 1  # garbage frame: abandon stream
                    break
                if isinstance(frame, dict):
                    node = frame.get("node")
                    epoch = frame.get("epoch_wall")
                    if isinstance(epoch, (int, float)):
                        if self._base_wall is None:
                            self._base_wall = float(epoch)
                        offset = float(epoch) - self._base_wall
                    self.trace.record(self.now(), "live.connect", None, node=node)
                    continue
                if not isinstance(frame, list):
                    self.torn_streams += 1
                    break
                try:
                    events = [
                        TraceEvent(
                            time=float(t) + offset, kind=kind, pid=pid,
                            data={
                                key: from_jsonable(value)
                                for key, value in data.items()
                            },
                        )
                        for t, kind, pid, data in frame
                    ]
                except (EncodeError, TypeError, ValueError, AttributeError):
                    self.torn_streams += 1  # malformed batch row
                    break
                for event in events:
                    self.qos.observe_event(event)
                    if self._retain:
                        self.trace.record_event(event)
                shipped += len(events)
                self.events_ingested += len(events)
        finally:
            self.open_streams -= 1
            self.trace.record(
                self.now(), "live.disconnect", None, node=node, events=shipped
            )
            writer.close()
