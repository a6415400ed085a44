"""The metrics subsystem: registry, rendering, reporter, trace aggregation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    METRIC_SCHEMAS,
    JsonlSink,
    MetricsRegistry,
    MetricsReporter,
    aggregate_trace_kinds,
    known_metrics,
    metric_schema_for,
    register_metric,
    render_prometheus,
)
from repro.sim import World


# ----------------------------------------------------------------- registry

def test_counter_inc_and_value():
    reg = MetricsRegistry()
    reg.inc("messages_sent_total", channel="fd")
    reg.inc("messages_sent_total", amount=2, channel="fd")
    reg.inc("messages_sent_total", channel="fdp")
    assert reg.value("messages_sent_total", channel="fd") == 3
    assert reg.value("messages_sent_total", channel="fdp") == 1
    assert reg.value("messages_sent_total", channel="consensus") == 0


def test_gauge_set_overwrites():
    reg = MetricsRegistry()
    reg.set("transport_frames_sent", 10)
    reg.set("transport_frames_sent", 7)
    assert reg.value("transport_frames_sent") == 7


def test_series_lists_every_label_combination():
    reg = MetricsRegistry()
    reg.inc("messages_sent_total", channel="fdp")
    reg.inc("messages_sent_total", channel="fd")
    series = reg.series("messages_sent_total")
    assert series == [({"channel": "fd"}, 1), ({"channel": "fdp"}, 1)]


def test_unknown_metric_name_raises():
    reg = MetricsRegistry()
    with pytest.raises(ConfigurationError, match="unregistered metric"):
        reg.inc("message_sent_total", channel="fd")  # typo


def test_wrong_label_set_raises():
    reg = MetricsRegistry()
    with pytest.raises(ConfigurationError, match="labels"):
        reg.inc("messages_sent_total")  # channel missing
    with pytest.raises(ConfigurationError, match="labels"):
        reg.inc("svc_redirects_total", channel="fd")  # none declared


def test_call_shapes_are_checked_once_and_failures_never_remembered():
    reg = MetricsRegistry()
    # A wrong label set raises on every call, not just the first.
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="labels"):
            reg.inc("messages_sent_total", chanel="fd")
        with pytest.raises(ConfigurationError, match="use inc/set"):
            reg.observe("messages_sent_total", 5, channel="fd")
    # ... and does not poison the valid shape of the same name.
    reg.inc("messages_sent_total", channel="fd")
    assert reg.value("messages_sent_total", channel="fd") == 1
    # A metric registered only after a failed inc then works.
    with pytest.raises(ConfigurationError, match="unregistered metric"):
        reg.inc("test_scratch_late_total", a=1, b=2)
    register_metric("test_scratch_late_total", labels=("a", "b"))
    reg.inc("test_scratch_late_total", a=1, b=2)
    # Keyword order is part of the remembered shape, not of the series.
    reg.inc("test_scratch_late_total", b=2, a=1)
    assert reg.series("test_scratch_late_total") == [({"a": 1, "b": 2}, 2)]
    assert reg.value("test_scratch_late_total", b=2, a=1) == 2
    # Only shapes that passed are remembered; the work is done once each.
    assert sorted(reg._checked) == [
        ("messages_sent_total", False, "channel"),
        ("test_scratch_late_total", False, "a", "b"),
        ("test_scratch_late_total", False, "b", "a"),
    ]


def test_scalar_and_histogram_methods_are_not_interchangeable():
    reg = MetricsRegistry()
    with pytest.raises(ConfigurationError, match="use observe"):
        register_metric("test_scratch_seconds", kind="histogram")
        reg.inc("test_scratch_seconds")
    with pytest.raises(ConfigurationError, match="use inc/set"):
        reg.observe("messages_sent_total", 5, channel="fd")


def test_register_metric_conflict_and_idempotence():
    register_metric("test_scratch_total", kind="counter", labels=("k",))
    # Identical re-registration is fine (module reloads do this).
    register_metric("test_scratch_total", kind="counter", labels=("k",))
    with pytest.raises(ConfigurationError, match="already registered"):
        register_metric("test_scratch_total", kind="gauge")
    assert "test_scratch_total" in known_metrics()
    assert metric_schema_for("test_scratch_total").labels == ("k",)


def test_histogram_tracks_count_sum_min_max():
    register_metric("test_scratch_seconds", kind="histogram")
    reg = MetricsRegistry()
    for v in (0.5, 1.5, 1.0):
        reg.observe("test_scratch_seconds", v)
    h = reg.histogram("test_scratch_seconds")
    assert h["count"] == 3
    assert h["sum"] == pytest.approx(3.0)
    assert (h["min"], h["max"]) == (0.5, 1.5)
    empty = MetricsRegistry().histogram("test_scratch_seconds")
    assert empty == {"count": 0, "sum": 0.0, "min": None, "max": None}


def test_snapshot_is_json_safe_and_sorted():
    reg = MetricsRegistry()
    reg.inc("messages_sent_total", channel="fdp")
    reg.inc("messages_sent_total", channel="fd")
    reg.set("transport_frames_sent", 3)
    snap = reg.snapshot()
    json.dumps(snap)  # must not raise
    assert [s["labels"]["channel"] for s in snap["messages_sent_total"]] == \
        ["fd", "fdp"]
    assert snap["transport_frames_sent"] == [{"labels": {}, "value": 3}]


def test_names_reports_only_touched_metrics_in_registration_order():
    reg = MetricsRegistry()
    assert reg.names() == []
    reg.inc("bytes_sent_total", amount=10, channel="fd")
    reg.inc("messages_sent_total", channel="fd")
    order = list(METRIC_SCHEMAS)
    assert reg.names() == sorted(
        ["messages_sent_total", "bytes_sent_total"], key=order.index)


# ---------------------------------------------------------------- rendering

def test_prometheus_rendering_shape():
    reg = MetricsRegistry()
    reg.inc("messages_sent_total", channel="fd")
    reg.set("fd_suspected_size", 2, channel="fd")
    text = render_prometheus(reg)
    assert "# HELP messages_sent_total" in text
    assert "# TYPE messages_sent_total counter" in text
    assert 'messages_sent_total{channel="fd"} 1' in text
    assert "# TYPE fd_suspected_size gauge" in text
    assert 'fd_suspected_size{channel="fd"} 2' in text


def test_prometheus_rendering_histograms_expand():
    register_metric("test_scratch_seconds", kind="histogram")
    reg = MetricsRegistry()
    reg.observe("test_scratch_seconds", 2.0)
    text = render_prometheus(reg)
    assert "# TYPE test_scratch_seconds summary" in text
    assert "test_scratch_seconds_count 1" in text
    assert "test_scratch_seconds_sum 2.0" in text


# ----------------------------------------------------------------- reporter

def test_reporter_requires_positive_interval():
    with pytest.raises(ConfigurationError):
        MetricsReporter(0.0)


def test_reporter_emits_schema_valid_snapshots_in_a_sim_world():
    world = World(n=2, seed=0)
    world.attach(0, MetricsReporter(10.0))
    world.run(until=35.0)
    snaps = [ev for ev in world.trace.events
             if ev.kind == "obs.metrics_snapshot"]
    assert len(snaps) == 3  # t=10, 20, 30
    for i, ev in enumerate(snaps):
        assert ev.data["seq"] == i
        json.dumps(ev.data["metrics"])  # JSON-safe payload
    # The reporter counts its own emissions through the shared registry.
    assert world.metrics.value("metrics_snapshots_total") == 3


def test_reporter_runs_registered_samplers_before_each_snapshot():
    world = World(n=1, seed=0)
    world.metrics_samplers.append(
        lambda reg: reg.set("transport_frames_sent", 42))
    world.attach(0, MetricsReporter(10.0))
    world.run(until=15.0)
    [snap] = [ev for ev in world.trace.events
              if ev.kind == "obs.metrics_snapshot"]
    assert snap.data["metrics"]["transport_frames_sent"] == \
        [{"labels": {}, "value": 42}]


# -------------------------------------------------------- trace aggregation

def test_aggregate_trace_kinds_counts_events_and_bytes(tmp_path):
    path = tmp_path / "node-0.jsonl"
    sink = JsonlSink(path, node=0, epoch_wall=1000.0, epoch_mono=0.0)
    sink.record(1.0, "send", 0, channel="fd", src=0, dst=1)
    sink.record(2.0, "send", 0, channel="fd", src=0, dst=1)
    sink.record(3.0, "crash", 0)
    sink.close()
    stats = aggregate_trace_kinds(path)
    assert stats.header["node"] == 0
    assert stats.total_events == 3
    assert (stats.first, stats.last) == (1.0, 3.0)
    kinds = {kind: (events, size) for kind, events, size in stats.kinds()}
    assert kinds["send"][0] == 2 and kinds["crash"][0] == 1
    # Byte sizes are the raw JSONL line lengths (newline included), so
    # they reconstruct the file size minus the header line.
    lines = path.read_text().splitlines(keepends=True)
    assert sum(size for _, size in kinds.values()) == \
        sum(len(line.encode("utf-8")) for line in lines[1:])
    # The same numbers flow through the shared registry aggregation.
    assert stats.registry.value("trace_events_total", kind="send") == 2
