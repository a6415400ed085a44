"""JSONL read-back, tagged payload round-trips, and the offline merger."""

import json
from pathlib import Path

import pytest

from repro.consensus.ec_consensus import NULL
from repro.errors import ConfigurationError
from repro.obs import (
    JsonlSink,
    MemorySink,
    TeeSink,
    TraceEvent,
    as_trace,
    iter_trace_events,
    merge_traces,
    read_trace_file,
)


def write_trace(path, node, epoch_wall, events):
    """One per-node file: *events* are (time, kind, pid, data) tuples."""
    sink = JsonlSink(path, node=node, epoch_wall=epoch_wall, epoch_mono=0.0)
    for time, kind, pid, data in events:
        sink.record(time, kind, pid, **data)
    sink.close()
    return path


# ---------------------------------------------------------------------------
# Reader and payload round-trips
# ---------------------------------------------------------------------------

def test_tagged_payloads_round_trip_exactly(tmp_path):
    payload = {
        "suspected": frozenset({1, 2}),
        "knowledge": {0: (1, "a"), 1: (2, "b")},
        "estimate": NULL,
        "path": (0, 1, 2),
        "peers": {3, 4},
        "note": None,
    }
    path = write_trace(tmp_path / "t.jsonl", 0, 10.0,
                       [(1.0, "fd", 0, payload)])
    ev = read_trace_file(path).events[0]
    assert ev.get("suspected") == frozenset({1, 2})
    assert isinstance(ev.get("suspected"), frozenset)
    assert ev.get("knowledge") == {0: (1, "a"), 1: (2, "b")}
    assert isinstance(ev.get("knowledge")[0], tuple)
    assert ev.get("estimate") is NULL
    assert ev.get("path") == (0, 1, 2)
    assert ev.get("peers") == {3, 4} and isinstance(ev.get("peers"), set)
    assert ev.get("note") is None


def test_read_trace_file_carries_provenance(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", 7, 123.5, [(0.0, "crash", 7, {})])
    tf = read_trace_file(path)
    assert tf.node == 7 and tf.epoch_wall == 123.5 and tf.version == 1
    assert tf.path == path and len(tf) == 1
    assert [ev.kind for ev in tf] == ["crash"]


def test_iter_trace_events_streams_header_first(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", 0, 1.0,
                       [(1.0, "crash", 0, {}), (2.0, "heal", None, {})])
    stream = iter_trace_events(path)
    header = next(stream)
    assert header["trace"] == "repro.obs"
    assert [ev.kind for ev in stream] == ["crash", "heal"]


def test_reader_rejects_empty_and_foreign_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigurationError, match="empty"):
        read_trace_file(empty)
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"not": "a trace"}\n')
    with pytest.raises(ConfigurationError, match="not a repro.obs trace"):
        read_trace_file(foreign)


def test_reader_rejects_future_version_and_bad_events(tmp_path):
    versioned = tmp_path / "v99.jsonl"
    versioned.write_text('{"trace":"repro.obs","version":99,"node":0}\n')
    with pytest.raises(ConfigurationError, match="version"):
        read_trace_file(versioned)
    mangled = tmp_path / "bad.jsonl"
    mangled.write_text(
        '{"trace":"repro.obs","version":1,"node":0,'
        '"epoch_wall":0,"epoch_mono":0}\n'
        '{"k":"crash"}\n'
    )
    with pytest.raises(ConfigurationError, match="undecodable"):
        read_trace_file(mangled)


HEADER = (
    '{"trace":"repro.obs","version":1,"node":0,"epoch_wall":0,"epoch_mono":0}\n'
)


def test_reader_decodes_each_line_on_its_own(tmp_path):
    # No line is valid JSON, but joined with commas they are an array of
    # three events: a reader that parsed lines together would accept them.
    lines = [
        '{"t":0,"k":"a","p":0,"d":{},"z":"}',
        '{"}',
        '{"t":1,"k":"b","p":0,"d":{}},{"t":2,"k":"c","p":0,"d":{}}',
    ]
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    path = tmp_path / "joined.jsonl"
    path.write_text(HEADER + "\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"joined\.jsonl:2: "):
        read_trace_file(path)


@pytest.mark.parametrize("line", [
    "[1]",
    '{"t":0,"k":"a","p":0,"d":[1]}',
    '{"t":0,"k":"a","p":0,"d":{}} x',
    '{"t":0,"k":"a","p":0,"d":{}}\f',
])
def test_reader_names_the_line_of_any_bad_event(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(HEADER + '{"t":0,"k":"a","p":0,"d":{}}\n' + line + "\n")
    with pytest.raises(ConfigurationError, match=r"bad\.jsonl:3: undecodable"):
        read_trace_file(path)


def test_reader_accepts_what_json_accepts_around_a_line(tmp_path):
    path = tmp_path / "spaced.jsonl"
    path.write_text(
        HEADER + '  {"t":0,"k":"a","p":0,"d":{}}\t\r\n \n{"t":1,"k":"b","p":0}'
    )
    assert [(ev.time, ev.kind) for ev in read_trace_file(path)] == [
        (0.0, "a"), (1.0, "b")]


# ---------------------------------------------------------------------------
# as_trace coercion
# ---------------------------------------------------------------------------

def test_as_trace_passthrough_and_coercions(tmp_path):
    sink = MemorySink()
    sink.record(1.0, "crash", 0)
    assert as_trace(sink) is sink  # zero-cost on the live path
    path = write_trace(tmp_path / "t.jsonl", 0, 1.0, [(1.0, "crash", 0, {})])
    for source in (path, str(path), read_trace_file(path),
                   [TraceEvent(1.0, "crash", 0, {})]):
        coerced = as_trace(source)
        assert isinstance(coerced, MemorySink)
        assert coerced.count("crash") == 1


def test_as_trace_rejects_write_only_sinks(tmp_path):
    jsonl = JsonlSink(tmp_path / "t.jsonl", node=0)
    with pytest.raises(ConfigurationError, match="write-only"):
        as_trace(jsonl)
    with pytest.raises(ConfigurationError, match="write-only"):
        as_trace(TeeSink(MemorySink()))
    jsonl.close()
    with pytest.raises(ConfigurationError):
        as_trace(object())


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

def test_merge_rebases_three_skewed_node_clocks(tmp_path):
    # Three nodes whose wall clocks at trace time zero disagree: node 2's
    # epoch is earliest, so it anchors; 0 and 1 shift forward by their lead.
    write_trace(tmp_path / "node-0.jsonl", 0, 1000.0,
                [(0.0, "crash", 0, {})])
    write_trace(tmp_path / "node-1.jsonl", 1, 1000.5,
                [(0.0, "heal", None, {})])
    write_trace(tmp_path / "node-2.jsonl", 2, 999.7,
                [(0.0, "partition", None, {"groups": ((0,), (1, 2))})])
    report = merge_traces(sorted(tmp_path.glob("node-*.jsonl")))
    assert report.offsets == {"0": pytest.approx(0.3), "1": pytest.approx(0.8),
                              "2": 0.0}
    assert report.skew == {"0": 0.0, "1": 0.0, "2": 0.0}
    assert report.max_skew == 0.0
    # Same instant on every node → merged order follows the epoch offsets.
    assert [ev.kind for ev in report.trace] == ["partition", "crash", "heal"]
    assert [ev.time for ev in report.trace] == \
        [pytest.approx(0.0), pytest.approx(0.3), pytest.approx(0.8)]
    assert "merged 3 events from 3 file(s)" in report.summary()


def test_merge_estimates_hidden_skew_from_handshakes(tmp_path):
    # Headers claim the clocks agree, but node 1 logs the delivery of node
    # 0's message *before* the send — its clock runs 1.0s behind.  The
    # causality pass must shift node 1 forward by exactly that second.
    msg = {"channel": "fd", "src": 0, "dst": 1, "tag": "hb", "round": None}
    write_trace(tmp_path / "node-0.jsonl", 0, 500.0,
                [(5.0, "send", 0, dict(msg))])
    write_trace(tmp_path / "node-1.jsonl", 1, 500.0,
                [(4.0, "deliver", 1, dict(msg))])
    report = merge_traces(sorted(tmp_path.glob("node-*.jsonl")))
    assert report.skew["1"] == pytest.approx(1.0)
    assert report.skew["0"] == 0.0
    assert report.max_skew == pytest.approx(1.0)
    # After correction the deliver no longer precedes its send.
    kinds = [ev.kind for ev in report.trace]
    assert kinds == ["send", "deliver"]
    assert report.trace.events[1].time >= report.trace.events[0].time


def test_merge_loopback_sends_never_drive_skew(tmp_path):
    # A loopback send has no cross-node deliver; pairing it against another
    # node's deliver would invent skew.  The matcher must skip it.
    msg = {"channel": "c", "src": 0, "dst": 0, "tag": "t", "round": None}
    write_trace(tmp_path / "node-0.jsonl", 0, 100.0,
                [(9.0, "send", 0, dict(msg, loopback=True))])
    write_trace(tmp_path / "node-1.jsonl", 1, 100.0,
                [(1.0, "deliver", 0, dict(msg))])
    report = merge_traces(sorted(tmp_path.glob("node-*.jsonl")))
    assert report.max_skew == 0.0


def test_merge_without_rebase_keeps_native_time_bases(tmp_path):
    write_trace(tmp_path / "node-0.jsonl", 0, 1000.0, [(2.0, "crash", 0, {})])
    write_trace(tmp_path / "node-1.jsonl", 1, 2000.0, [(1.0, "heal", None, {})])
    report = merge_traces(sorted(tmp_path.glob("node-*.jsonl")), rebase=False)
    assert report.offsets == {"0": 0.0, "1": 0.0}
    assert [ev.time for ev in report.trace] == [1.0, 2.0]


def test_merge_is_stable_for_simultaneous_events(tmp_path):
    # Equal times and equal epochs: file order, then record order, decides.
    write_trace(tmp_path / "node-0.jsonl", 0, 0.0,
                [(1.0, "crash", 0, {}), (1.0, "heal", None, {})])
    write_trace(tmp_path / "node-1.jsonl", 1, 0.0, [(1.0, "crash", 1, {})])
    report = merge_traces(sorted(tmp_path.glob("node-*.jsonl")))
    assert [(ev.kind, ev.pid) for ev in report.trace] == \
        [("crash", 0), ("heal", None), ("crash", 1)]


def test_merge_accepts_trace_files_and_requires_input(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", None, 1.0, [(0.0, "crash", 0, {})])
    report = merge_traces([read_trace_file(path)])
    assert report.offsets == {"t.jsonl": 0.0}  # anonymous node → filename label
    with pytest.raises(ConfigurationError):
        merge_traces([])
