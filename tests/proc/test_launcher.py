"""ProcessCluster units that never spawn a ``repro node``, plus the lenient
trace reader that survives ``kill -9``-torn files."""

import asyncio
import signal
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.obs.sinks import JsonlSink
from repro.proc import ProcessCluster, launcher
from repro.proc.launcher import _read_trace_lenient, pick_recorder


# ---------------------------------------------------------- lenient reading
def write_trace(path, events, torn_tail=None):
    sink = JsonlSink(path, node=0, epoch_wall=100.0, epoch_mono=50.0)
    for time, kind, pid in events:
        sink.record(time, kind, pid)
    sink.close()
    if torn_tail is not None:
        with open(path, "a", encoding="utf-8") as f:
            f.write(torn_tail)


def test_lenient_reader_on_an_intact_file(tmp_path):
    path = tmp_path / "node-0.jsonl"
    write_trace(path, [(0.1, "fd.suspect", 0), (0.2, "fd.restore", 0)])
    trace = _read_trace_lenient(path)
    assert [ev.kind for ev in trace.events] == ["fd.suspect", "fd.restore"]
    assert trace.node == 0
    assert trace.epoch_wall == 100.0


def test_lenient_reader_keeps_prefix_of_a_torn_file(tmp_path):
    path = tmp_path / "node-0.jsonl"
    # kill -9 landed mid-write: the final line is half a JSON object.
    write_trace(
        path,
        [(0.1, "fd.suspect", 0), (0.2, "fd.restore", 0)],
        torn_tail='{"t": 0.3, "k": "fd.sus',
    )
    trace = _read_trace_lenient(path)
    assert [ev.kind for ev in trace.events] == ["fd.suspect", "fd.restore"]


def test_lenient_reader_on_an_empty_victim(tmp_path):
    """A node killed before its first event ships a header-only file."""
    path = tmp_path / "node-0.jsonl"
    write_trace(path, [])
    assert _read_trace_lenient(path).events == []


# --------------------------------------------------- launcher without spawns
def test_ctor_validates_like_an_address_book(tmp_path):
    with pytest.raises(ConfigurationError, match="loopback"):
        ProcessCluster(2, transport="loopback", workdir=tmp_path)
    with pytest.raises(ConfigurationError):
        ProcessCluster(2, stack="star", workdir=tmp_path)
    with pytest.raises(ConfigurationError):
        ProcessCluster(0, workdir=tmp_path)


def test_prestart_state(tmp_path):
    cluster = ProcessCluster(3, workdir=tmp_path, duration=1.0)
    assert cluster.correct_pids == frozenset({0, 1, 2})
    assert cluster.elapsed == 0.0
    assert [p.name for p in cluster.trace_files] == [
        "node-0.jsonl", "node-1.jsonl", "node-2.jsonl"
    ]


def test_crash_validates_pid_and_queues_before_start(tmp_path):
    cluster = ProcessCluster(3, workdir=tmp_path)
    with pytest.raises(ConfigurationError, match="out of range"):
        cluster.crash(3)
    cluster.crash(0, at=2.5)  # queued: nothing to kill yet
    assert cluster.correct_pids == frozenset({0, 1, 2})
    assert cluster.poll() == {}


def test_prestart_crash_fires_after_start(tmp_path, monkeypatch):
    """The queued kill is armed by start() and lands as a real SIGKILL.
    Nodes are stand-in sleepers and the readiness ping is stubbed, so no
    interpreter boots a protocol stack."""
    spawn = subprocess.Popen
    monkeypatch.setattr(
        launcher.subprocess, "Popen",
        lambda argv, **kwargs: spawn(
            [sys.executable, "-c", "import time; time.sleep(60)"], **kwargs
        ),
    )

    async def no_ping(address, command, **kwargs):
        return None

    monkeypatch.setattr(launcher, "send_fault_command", no_ping)
    cluster = ProcessCluster(3, workdir=tmp_path)
    cluster.crash(0, at=0.05)

    async def drive():
        await cluster.start()
        try:
            assert cluster.correct_pids == frozenset({0, 1, 2})  # not yet
            await asyncio.sleep(0.3)
            return cluster.correct_pids
        finally:
            await cluster.stop()

    assert asyncio.run(drive()) == frozenset({1, 2})
    assert cluster.exit_statuses[0] == -signal.SIGKILL


# ------------------------------------------------- who narrates a broadcast
def test_recorder_is_the_first_awake_target():
    assert pick_recorder([0, 1, 2], frozenset()) == 0
    # pid 0 is SIGSTOPped: its copy would sit in the socket buffer and be
    # stamped at resume time (or never) — the next awake node narrates.
    assert pick_recorder([0, 1, 2], frozenset({0})) == 1
    assert pick_recorder([0, 1, 2], frozenset({0, 1})) == 2
    assert pick_recorder(range(3), frozenset({0})) == 1


def test_recorder_falls_back_to_a_stalled_target():
    # A degrade/skew aimed at a frozen node has no awake target: better a
    # late narration than none.
    assert pick_recorder([1], frozenset({1})) == 1
    assert pick_recorder([0, 1], frozenset({0, 1})) == 0
    assert pick_recorder([], frozenset({0})) is None


def test_wait_quiescent_requires_start(tmp_path):
    cluster = ProcessCluster(2, workdir=tmp_path)

    async def drive():
        with pytest.raises(ConfigurationError, match="not started"):
            await cluster.wait_quiescent(timeout=0.1)

    asyncio.run(drive())


def test_merged_stream_ends_when_the_first_finished_node_stopped(tmp_path):
    """Each node runs its duration from its own start, so the first to
    start stops first; the others timing it out after that is the end of
    the run, not a detector mistake, and is cut from the merged stream."""
    cluster = ProcessCluster(3, workdir=tmp_path)
    # (pid, wall start, event times on its own clock): p0 and p1 both ran
    # to t=1.0, p1 starting 0.3 s later; p2 was killed at its t=0.2.
    for pid, epoch, times in (
        (0, 100.0, (0.5, 1.0)), (1, 100.3, (0.5, 1.0)), (2, 100.1, (0.2,)),
    ):
        sink = JsonlSink(
            cluster.trace_files[pid], node=pid, epoch_wall=epoch,
            epoch_mono=epoch,
        )
        for time in times:
            sink.record(time, "round", pid, algo="ec", round=1)
        sink.close()
    cluster.exit_statuses.update({0: 0, 1: 0, 2: -signal.SIGKILL})
    merged = [(ev.pid, round(ev.time, 6)) for ev in cluster.traces().events]
    assert merged == [(2, 0.3), (0, 0.5), (1, 0.8), (0, 1.0)]


def test_merged_stream_is_whole_when_no_node_finished(tmp_path):
    cluster = ProcessCluster(2, workdir=tmp_path)
    for pid in cluster.pids:
        sink = JsonlSink(
            cluster.trace_files[pid], node=pid, epoch_wall=100.0 + pid,
            epoch_mono=0.0,
        )
        sink.record(0.5, "round", pid, algo="ec", round=1)
        sink.close()
    cluster.exit_statuses.update({0: -signal.SIGKILL, 1: -signal.SIGKILL})
    assert len(cluster.traces().events) == 2


def test_stop_before_start_is_a_safe_noop(tmp_path):
    cluster = ProcessCluster(2, workdir=tmp_path)
    asyncio.run(cluster.stop())
    asyncio.run(cluster.stop())  # idempotent
    assert cluster.exit_statuses == {}
