"""The live telemetry plane (:mod:`repro.obs.live`).

Three layers under test:

* :func:`parse_ship_address` — the ``--ship-to`` / ``--connect`` spellings.
* :class:`StreamingSink` — never blocks the node it observes: bounded
  buffer with counted drops, kind filtering, reconnect-with-backoff, and
  at-most-once accounting across torn connections.
* :class:`~repro.analysis.qos.IncrementalQoS` — the one QoS engine, as a
  collector drives it: literal (golden) report fields over the committed
  example traces, independence from cross-node arrival order, and
  synthetic streams that exercise the crash-truncation rules where live
  ingestion is hardest — the crash that reclassifies a suspicion can
  arrive later in the stream than the ``fd`` event that opened it.
  (``tests/analysis/test_qos.py`` holds the hand-computed behavioural
  spec, through the offline front end.)
* :class:`LiveCollector` — multi-stream ingestion: epoch rebasing onto
  the first stream's clock, payload round-tripping, and torn-stream
  accounting for garbage and truncated frames.
"""

import asyncio
from pathlib import Path

import pytest

from repro.analysis import qos_report
from repro.analysis.qos import Mistake
from repro.errors import ConfigurationError
from repro.net.frame import write_frame
from repro.obs import IncrementalQoS, merge_traces
from repro.obs.live import (
    LiveCollector,
    StreamingSink,
    parse_ship_address,
)

EXAMPLE_TRACES = sorted(
    (Path(__file__).parents[2] / "examples" / "traces").glob("node-*.jsonl")
)


# ------------------------------------------------------------ addresses

def test_parse_ship_address_accepts_the_usual_spellings():
    assert parse_ship_address("10.0.0.1:7000") == ("10.0.0.1", 7000)
    assert parse_ship_address(":7000") == ("127.0.0.1", 7000)
    assert parse_ship_address("7000") == ("127.0.0.1", 7000)
    assert parse_ship_address(("", 7000)) == ("127.0.0.1", 7000)
    assert parse_ship_address(("collector", 7000)) == ("collector", 7000)


def test_parse_ship_address_rejects_garbage():
    for bad in ("", "host:", "host:port", "1.2.3.4"):
        with pytest.raises(ConfigurationError):
            parse_ship_address(bad)


# ------------------------------------------------------------ the shipper

def _record_send(sink, t, pid=0):
    sink.record(t, "send", pid, channel="fd", src=pid, dst=1 - pid)


def test_full_buffer_drops_and_counts_instead_of_blocking():
    sink = StreamingSink("127.0.0.1:1", max_buffer=4)
    for i in range(6):
        _record_send(sink, float(i))
    assert sink.buffered == 4
    assert sink.events_dropped == 2


def test_sync_close_drops_the_backlog_and_counts_it():
    sink = StreamingSink("127.0.0.1:1", max_buffer=4)
    for i in range(6):
        _record_send(sink, float(i))
    sink.close()
    assert sink.buffered == 0
    assert sink.events_dropped == 6
    _record_send(sink, 9.0)  # closed sinks ignore further records
    assert sink.buffered == 0 and sink.events_dropped == 6


def test_kind_filter_applies_before_buffering():
    sink = StreamingSink("127.0.0.1:1", kinds=("fd",))
    assert sink.wants("fd") and not sink.wants("send")
    _record_send(sink, 0.0)
    sink.record(0.0, "fd", 0, channel="fd", suspected=(), trusted=0)
    assert sink.buffered == 1
    assert sink.events_dropped == 0  # filtered, not dropped


def test_shipper_reconnects_after_a_torn_stream():
    """Kill the first connection under the shipper mid-stream: it must
    reconnect, count the tear, and keep at-most-once accounting exact
    (every recorded event is shipped, dropped, or still buffered)."""

    async def scenario():
        connections = []

        async def handle(reader, writer):
            connections.append(writer)
            if len(connections) == 1:
                writer.close()  # slam the door on the first stream
                return
            while await reader.read(4096):
                pass  # second stream: consume until EOF

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        sink = StreamingSink(
            ("127.0.0.1", port), node=0,
            flush_interval=0.005, backoff=0.01, max_backoff=0.05,
        )
        await sink.start()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        recorded = 0
        while sink.reconnects == 0 and loop.time() < deadline:
            _record_send(sink, float(recorded))
            recorded += 1
            await asyncio.sleep(0.005)
        _record_send(sink, float(recorded))
        recorded += 1
        await sink.aclose()
        server.close()
        await server.wait_closed()
        return sink, len(connections), recorded

    sink, connections, recorded = asyncio.run(scenario())
    assert sink.reconnects >= 1
    assert connections >= 2
    assert sink.events_shipped > 0
    assert sink.events_shipped + sink.events_dropped + sink.buffered \
        == recorded


# ----------------------------------- the QoS engine on recorded streams

@pytest.fixture(scope="module")
def example_merge():
    return merge_traces(EXAMPLE_TRACES)


def test_example_traces_report_the_committed_numbers(example_merge):
    """Golden report over the committed multi-node example traces (n=3,
    p0 crashes at 2.2): literal values captured from the multi-pass
    offline analyzer this engine replaced."""
    online = IncrementalQoS()
    for event in example_merge.trace:
        online.observe_event(event)
    assert online.event_count == len(example_merge.trace.events) == 347

    report = online.report()
    assert report.n == 3 and report.correct == frozenset({1, 2})
    assert report.end_time == pytest.approx(80.55)
    assert report.crashes == {0: pytest.approx(2.2)}
    assert report.detection == {0: pytest.approx(13.8)}
    assert report.mistakes == [] and report.mistake_rate == 0.0
    assert report.mean_mistake_duration is None
    assert report.leader_stabilized_at == pytest.approx(15.55)
    assert report.stable_leader == 1
    assert report.period is None and report.cost_window is None
    assert report.message_cost == {} and report.bound_ok is None

    costed = online.report(period=5.0)
    # Window opens one period after the later of T_D (2.2 + 13.8) and
    # leader stabilization (15.55).
    assert costed.cost_window == (pytest.approx(21.0), pytest.approx(80.55))
    assert costed.message_cost == {
        "consensus.rb": pytest.approx(0.168, abs=5e-4),
        "fd.omega": pytest.approx(2.015, abs=5e-4),
        "fd.suspects": pytest.approx(4.030, abs=5e-4),
        "fdp": pytest.approx(3.023, abs=5e-4),
    }
    assert costed.bound_channel == "fdp" and costed.bound_value == 4.0
    assert costed.bound_ok is True

    fine = online.report(period=0.5)
    assert fine.cost_window == (pytest.approx(16.5), pytest.approx(80.55))
    assert fine.message_cost == {
        "consensus": pytest.approx(0.04684, abs=5e-6),
        "consensus.rb": pytest.approx(0.03123, abs=5e-6),
        "fd.omega": pytest.approx(0.20297, abs=5e-6),
        "fd.suspects": pytest.approx(0.39813, abs=5e-6),
        "fdp": pytest.approx(0.30445, abs=5e-6),
    }
    assert fine.bound_ok is True
    # The offline front end is a fold of the same engine.
    assert qos_report(example_merge.trace, period=0.5) == fine


@pytest.mark.parametrize("period", [None, 5.0, 0.5])
def test_report_is_independent_of_cross_node_interleaving(
    example_merge, period
):
    """What the streaming design promises a collector: only per-node
    order matters.  Feeding the events node by node, concatenated — the
    most reordered arrival that keeps each node's own order — yields a
    report equal to the time-merged one."""
    merged = list(example_merge.trace)
    # Node k's file holds exactly the pid-k events, so a stable sort by
    # pid *is* the three rebased files back to back.
    by_node = sorted(merged, key=lambda event: event.pid)
    assert [e.time for e in by_node] != [e.time for e in merged]
    assert qos_report(by_node, period=period) \
        == qos_report(merged, period=period)


def _report(rows, period=None):
    online = IncrementalQoS()
    for t, kind, pid, data in rows:
        online.observe(t, kind, pid, **data)
    return online.report(period=period)


_FD = "fd"


def _fd(t, observer, suspected, trusted):
    return (t, _FD, observer, {
        "channel": "fd",
        "suspected": frozenset(suspected),
        "trusted": trusted,
    })


def test_crash_arriving_later_in_the_stream_voids_the_mistake():
    # Observer 1 suspects 2 at t=2.0; the crash record (t=1.0, from
    # another stream) only arrives afterwards.  The suspicion was
    # correct all along: no mistake may survive report-time screening.
    report = _report([
        _fd(0.5, 1, (), 0),
        _fd(2.0, 1, (2,), 0),
        (1.0, "crash", 2, {}),
        _fd(6.0, 1, (2,), 0),
    ])
    assert report.mistakes == []
    assert report.crashes == {2: 1.0}


def test_crash_mid_mistake_truncates_it_at_the_crash():
    # Suspecting a live process is a mistake from t=1.0 — but once the
    # suspect dies at t=3.0 the suspicion becomes correct, so the
    # mistake ends there, not at the t=5.0 retraction.
    report = _report([
        _fd(0.0, 1, (), 0),
        _fd(1.0, 1, (2,), 0),
        (3.0, "crash", 2, {}),
        _fd(5.0, 1, (), 0),
        _fd(6.0, 1, (), 0),
    ])
    assert report.mistakes == [Mistake(1, 2, 1.0, 3.0)]


def test_never_retracted_mistake_closes_at_the_crash():
    report = _report([
        _fd(0.0, 1, (), 0),
        _fd(1.0, 1, (2,), 0),
        (3.0, "crash", 2, {}),
        _fd(6.0, 1, (2,), 0),
    ])
    assert report.mistakes == [Mistake(1, 2, 1.0, 3.0)]
    assert report.unresolved_mistakes == 0


def test_never_retracted_mistake_without_a_crash_stays_open():
    report = _report([
        _fd(0.0, 1, (), 0),
        _fd(1.0, 1, (2,), 0),
        _fd(6.0, 1, (2,), 0),
    ])
    assert report.mistakes == [Mistake(1, 2, 1.0, None)]
    assert report.unresolved_mistakes == 1


def test_message_cost_counts_match_with_interleaved_sends():
    rows = [_fd(0.0, 1, (), 0)]
    for i in range(40):
        t = 0.1 + i * 0.1
        rows.append((t, "send", i % 3, {
            "channel": "fdp", "src": i % 3, "dst": (i + 1) % 3,
        }))
    rows.append(_fd(4.2, 1, (), 0))
    report = _report(rows, period=0.5)
    assert report.message_cost["fdp"] is not None
    assert report.bound_ok is not None


def test_snapshot_tracks_the_running_state():
    online = IncrementalQoS()
    for t, kind, pid, data in [
        _fd(0.0, 1, (), 0),
        _fd(1.0, 1, (2,), 0),
        (2.0, "crash", 0, {}),
        (2.5, "send", 1, {"channel": "fdp", "src": 1, "dst": 2}),
        (3.0, "span.reply", 1, {"span": "c1.1", "status": "ok"}),
    ]:
        online.observe(t, kind, pid, **data)
    snap = online.snapshot()
    assert snap["n"] == 3
    assert snap["end_time"] == 3.0
    assert snap["events"] == 5
    assert snap["crashes"] == {0: 2.0}
    assert snap["suspected"] == {1: [2]}
    assert snap["open_mistakes"] == 1 and snap["closed_mistakes"] == 0
    assert snap["span_replies"] == 1
    assert snap["sends"] == {"fdp": 1}
    assert snap["kinds"]["fd"] == 2


# ------------------------------------------------------------ collector

def _wait_until(predicate, timeout=5.0):
    async def poll():
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not predicate() and loop.time() < deadline:
            await asyncio.sleep(0.01)
    return poll()


def test_ship_and_ingest_end_to_end():
    async def scenario():
        collector = LiveCollector(retain=True)
        address = await collector.bind()
        sink = StreamingSink(address, node=0, flush_interval=0.005)
        sink.rebase_epoch()
        await sink.start()
        sink.record(0.0, "fd", 1, channel="fd", suspected=(2,), trusted=0)
        sink.record(1.0, "crash", 2)
        sink.record(2.0, "send", 0, channel="fdp", src=0, dst=1)
        await _wait_until(lambda: collector.events_ingested >= 3)
        # The hello froze the epoch: rebasing now must be refused.
        with pytest.raises(ConfigurationError):
            sink.rebase_epoch()
        await sink.aclose()
        await _wait_until(lambda: collector.open_streams == 0)
        await collector.close()
        return collector, sink

    collector, sink = asyncio.run(scenario())
    assert sink.events_shipped == 3 and sink.events_dropped == 0
    assert collector.events_ingested == 3
    assert collector.streams_seen == 1 and collector.torn_streams == 0
    # Payloads round-trip through the wire encoding, tuples included.
    fd = next(e for e in collector.trace if e.kind == "fd")
    assert fd.get("suspected") == (2,) and fd.get("trusted") == 0
    # ... and the online QoS folded them in as they landed.
    assert collector.qos.event_count == 3
    assert collector.qos.snapshot()["crashes"] == {2: 1.0}
    # Lifecycle events bracket the retained stream.
    kinds = [e.kind for e in collector.trace]
    assert kinds[0] == "live.connect" and kinds[-1] == "live.disconnect"


def test_streams_are_rebased_onto_the_first_epoch():
    """A node whose epoch is 7.5s behind the first stream's lands 7.5s
    earlier on the collector's shared axis — same rule as the offline
    merger's header rebasing."""

    async def scenario():
        collector = LiveCollector(retain=True)
        address = await collector.bind()
        first = StreamingSink(address, node=0, flush_interval=0.005)
        second = StreamingSink(address, node=1, flush_interval=0.005)
        second.epoch_wall = first.epoch_wall + 7.5
        await first.start()
        first.record(1.0, "send", 0, channel="fd", src=0, dst=1)
        await _wait_until(lambda: collector.events_ingested >= 1)
        await second.start()  # strictly after: deterministic base stream
        second.record(1.0, "send", 1, channel="fd", src=1, dst=0)
        await _wait_until(lambda: collector.events_ingested >= 2)
        await first.aclose()
        await second.aclose()
        await collector.close()
        return collector

    collector = asyncio.run(scenario())
    times = {e.pid: e.time for e in collector.trace if e.kind == "send"}
    assert times[0] == 1.0
    assert times[1] == pytest.approx(8.5)


def test_collector_counts_garbage_frames_as_torn_streams():
    async def scenario():
        collector = LiveCollector()
        await collector.bind()
        _, writer = await asyncio.open_connection(
            "127.0.0.1", collector.port
        )
        write_frame(writer, b"this is not json")
        await writer.drain()
        await _wait_until(lambda: collector.torn_streams >= 1)
        writer.close()
        await collector.close()
        return collector

    collector = asyncio.run(scenario())
    assert collector.torn_streams == 1
    assert collector.streams_seen == 1
    assert collector.open_streams == 0
    assert collector.events_ingested == 0


def test_collector_survives_a_mid_frame_truncation():
    """A stream dying mid-frame (the live analog of a crash-truncated
    JSONL tail) is counted torn; events already landed stay counted."""

    async def scenario():
        collector = LiveCollector()
        await collector.bind()
        _, writer = await asyncio.open_connection(
            "127.0.0.1", collector.port
        )
        hello = (b'{"trace": "repro.obs.live", "version": 1, "node": 0,'
                 b' "epoch_wall": 100.0, "epoch_mono": 0.0}')
        write_frame(writer, hello)
        write_frame(
            writer,
            b'[[0.5, "send", 0, {"channel": "fd", "src": 0, "dst": 1}]]',
        )
        writer.write(b"\x00\x00\x10")  # length prefix promising a frame...
        await writer.drain()
        writer.close()  # ...that never comes
        await _wait_until(lambda: collector.open_streams == 0)
        await collector.close()
        return collector

    collector = asyncio.run(scenario())
    assert collector.events_ingested == 1
    assert collector.torn_streams == 1
