"""Sinks: MemorySink queries, JSONL writer mechanics, tee fan-out."""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro.consensus.ec_consensus import NULL
from repro.errors import ConfigurationError
from repro.obs import JsonlSink, MemorySink, TeeSink, TraceEvent, read_trace_file
from repro.obs.encode import to_jsonable


# ---------------------------------------------------------------------------
# MemorySink — the class the simulator calls Trace
# ---------------------------------------------------------------------------

def test_sim_package_exports_the_obs_classes_under_its_own_names():
    from repro.sim import Trace, TraceEvent as SimEvent

    assert Trace is MemorySink
    assert SimEvent is TraceEvent


def test_memory_sink_record_select_last_count():
    sink = MemorySink()
    sink.record(1.0, "send", 0, channel="fd", src=0, dst=1)
    sink.record(2.0, "deliver", 1, channel="fd", src=0, dst=1)
    sink.record(3.0, "send", 0, channel="fd", src=0, dst=2)
    assert len(sink) == 3
    assert sink.count("send") == 2
    assert [ev.kind for ev in sink.select(kind="send")] == ["send", "send"]
    assert sink.select(pid=1)[0].kind == "deliver"
    assert sink.select(after=2.5)[0].time == 3.0
    assert sink.last("send").get("dst") == 2
    assert sink.last("deliver", pid=0) is None
    assert sink.end_time == 3.0


def test_memory_sink_kind_filter_is_checked_before_counters():
    sink = MemorySink(kinds={"decide"})
    sink.record(1.0, "send", 0, channel="c", src=0, dst=1)
    sink.record(2.0, "decide", 0, algo="ec", value="v", round=1)
    assert len(sink) == 1
    assert sink.count("send") == 0  # filtered kinds never touch counters
    assert sink.wants("decide") and not sink.wants("send")


def test_memory_sink_disabled_records_nothing():
    sink = MemorySink(enabled=False)
    sink.record(1.0, "crash", 0)
    assert len(sink) == 0 and not sink.wants("crash")


def test_memory_sink_extend_applies_filters():
    sink = MemorySink(kinds={"crash"})
    sink.extend([
        TraceEvent(1.0, "crash", 0, {}),
        TraceEvent(2.0, "send", 0, {"channel": "c", "src": 0, "dst": 1}),
    ])
    assert [ev.kind for ev in sink] == ["crash"]


# ---------------------------------------------------------------------------
# JsonlSink
# ---------------------------------------------------------------------------

def test_jsonl_sink_writes_header_then_events(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, node=2, epoch_wall=100.0, epoch_mono=5.0)
    sink.record(1.5, "fd", 2, channel="fd", suspected=frozenset({0}), trusted=1)
    sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    header = json.loads(lines[0])
    assert header == {"trace": "repro.obs", "version": 1, "node": 2,
                      "epoch_wall": 100.0, "epoch_mono": 5.0}
    event = json.loads(lines[1])
    assert event["t"] == 1.5 and event["k"] == "fd" and event["p"] == 2
    assert event["d"]["suspected"] == {"!f": [0]}


def test_jsonl_sink_header_is_lazy_but_close_writes_it(tmp_path):
    path = tmp_path / "empty.jsonl"
    sink = JsonlSink(path, node=0, epoch_wall=1.0, epoch_mono=1.0)
    assert path.read_text() == ""  # nothing until first event or close
    sink.close()
    sink.close()  # idempotent
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["node"] == 0


def test_jsonl_sink_rebase_epoch_forbidden_after_first_event(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl", node=0)
    sink.rebase_epoch()  # fine before any event
    sink.record(0.0, "crash", 0)
    with pytest.raises(ConfigurationError):
        sink.rebase_epoch()
    sink.close()


def test_jsonl_sink_is_line_buffered_before_close(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, node=0, epoch_wall=0.0, epoch_mono=0.0)
    sink.record(1.0, "crash", 0)
    # Not closed — a kill -9 now must still leave the event on disk.
    assert len(path.read_text().splitlines()) == 2
    sink.close()


def test_jsonl_sink_kind_filter_and_counts(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, node=0, kinds={"decide"})
    assert sink.wants("decide") and not sink.wants("send")
    sink.record(1.0, "send", 0, channel="c", src=0, dst=1)
    sink.record(2.0, "decide", 0, algo="ec", value="v", round=1)
    sink.close()
    assert sink.events_written == 1
    assert not sink.wants("decide")  # closed sinks want nothing


def test_jsonl_sink_writes_on_after_an_unencodable_event():
    out = io.StringIO()
    sink = JsonlSink(out, node=0, epoch_wall=0.0, epoch_mono=0.0)
    with pytest.raises(TypeError):
        sink.record(object(), "crash", 0)
    sink.record(1.0, "crash", 0, by={"why": [1]})
    assert out.getvalue().splitlines()[1:] == [
        '{"t":1.0,"k":"crash","p":0,"d":{"by":{"!d":[["why",[1]]]}}}']


def test_jsonl_sink_record_after_close_is_dropped(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, node=0)
    sink.close()
    sink.record(1.0, "crash", 0)
    assert sink.events_written == 0
    assert len(path.read_text().splitlines()) == 1


def test_jsonl_sink_accepts_open_file_object(tmp_path):
    path = tmp_path / "t.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        sink = JsonlSink(fh, node=None, epoch_wall=0.0, epoch_mono=0.0)
        sink.record(1.0, "heal", None)
        sink.close()
        fh.write("")  # close() must not close a file it does not own
    assert json.loads(path.read_text().splitlines()[0])["node"] is None


# ---------------------------------------------------------------------------
# TeeSink
# ---------------------------------------------------------------------------

def test_tee_fans_out_and_children_keep_their_filters(tmp_path):
    memory = MemorySink()
    decides = MemorySink(kinds={"decide"})
    tee = TeeSink(memory, decides)
    tee.record(1.0, "send", 0, channel="c", src=0, dst=1)
    tee.record(2.0, "decide", 0, algo="ec", value="v", round=1)
    assert len(memory) == 2 and len(decides) == 1
    # wants() is the union, so caller guards stay correct for any mix.
    assert tee.wants("send") and tee.wants("decide")
    only = TeeSink(decides)
    assert not only.wants("send")


def test_tee_record_event_and_close_propagate(tmp_path):
    path = tmp_path / "t.jsonl"
    jsonl = JsonlSink(path, node=0, epoch_wall=0.0, epoch_mono=0.0)
    memory = MemorySink()
    tee = TeeSink(memory, jsonl)
    tee.record_event(TraceEvent(1.0, "crash", 0, {}))
    tee.close()
    assert len(memory) == 1
    assert len(path.read_text().splitlines()) == 2


def test_tee_needs_at_least_one_sink():
    with pytest.raises(ConfigurationError):
        TeeSink()


# ---------------------------------------------------------------------------
# JsonlSink bytes against the plain formula
# ---------------------------------------------------------------------------

LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text() | st.just(NULL)
)
HASHABLE = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
VALUES = st.recursive(
    HASHABLE,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=3)
    | st.sets(HASHABLE, max_size=3),
    max_leaves=10,
)
EVENTS = st.lists(
    st.tuples(
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.none() | st.integers(-1, 20),
        st.dictionaries(
            # record()'s own parameter names are ordinary payload keys.
            st.sampled_from(["self", "time", "kind", "pid"]) | st.text(max_size=6),
            VALUES, max_size=4,
        ),
    ),
    max_size=6,
)


def old_line(time, kind, pid, data):
    """What the writer put on a line before it reused one encoder."""
    return json.dumps(
        {"t": time, "k": kind, "p": pid,
         "d": {key: to_jsonable(value) for key, value in data.items()}},
        separators=(",", ":"),
    )


def test_compact_encoder_without_the_c_accelerator(monkeypatch):
    from repro.obs import sinks

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    line = {"t": 1.5, "k": "fd", "p": None, "d": {"s": ["\u00e9", 2.0]}}
    assert sinks._compact_encoder()(line) == json.dumps(
        line, separators=(",", ":"))


@given(EVENTS)
@example(events=[(0.0, "", None, {"self": []})])
@example(events=[(1.0, "fd", 2, {"time": 3.0, "kind": "x", "pid": None})])
def test_jsonl_lines_match_the_plain_formula_and_read_back(events):
    by_record, by_event = io.StringIO(), io.StringIO()
    plain = JsonlSink(by_record, node=3, epoch_wall=1.5, epoch_mono=2.5)
    packed = JsonlSink(by_event, node=3, epoch_wall=1.5, epoch_mono=2.5)
    for time, kind, pid, data in events:
        plain.record(time, kind, pid, **data)
        packed.record_event(TraceEvent(time, kind, pid, data))
    plain.close()
    packed.close()
    text = by_record.getvalue()
    assert by_event.getvalue() == text
    lines = text.splitlines()
    assert lines[1:] == [old_line(*event) for event in events]
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "t.jsonl"
        path.write_text(text, encoding="utf-8")
        read = read_trace_file(path).events
    assert read == [TraceEvent(float(t), k, p, d) for t, k, p, d in events]
