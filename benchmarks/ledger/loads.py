"""The five workloads.  Each takes a seed and a length, generates its own
inputs from the seed, drives the program through its public API only,
checks the outputs, and returns an :class:`Outcome`.

A workload's timed part is cut into *sub-windows* (one-second slices of
one long run, or short episodes each on a fresh instance); the end-to-end
numbers are medians over those, so one hiccup moves one sample.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    check_consensus, check_fd_class, detection_latency, extract_outcome,
    qos_report, rounds_after_system,
)
from repro.broadcast import ReliableBroadcast
from repro.cluster import (
    LocalCluster, attach_standard_stack, standard_verdicts, verdicts_ok,
)
from repro.consensus import ECConsensus, propose_all
from repro.fd import EVENTUALLY_CONSISTENT, EVENTUALLY_PERFECT, attach_ec_stack
from repro.net.codec import default_codec
from repro.obs import (
    IncrementalQoS, JsonlSink, analyze_spans, merge_traces, read_trace_file,
)
from repro.sim import FixedDelay, World
from repro.svc import KVClient, ServiceUnavailable, start_service
from repro.transform import CToPTransformation
from repro.workloads import partially_synchronous_link

from stats import (
    LEDGER_DIR, clock, longest_gap, median, percentile, reference_kernel,
)
from tracing import SpanLog, TimedCodec


class CheckFailed(Exception):
    """A workload's output was wrong; the run prints no metrics."""


def require(condition: Any, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Window:
    """One sub-window of a workload's timed part."""

    work: float   #: amount of work finished in it (commands, events)
    wall: float   #: its wall seconds
    stall: float  #: longest wall interval in it in which no unit finished
    unit_times: List[float]  #: wall seconds of each unit that finished in it
    #: Mean wall seconds of the reference kernel run just before and just
    #: after it (CPU-bound workloads only; 0 = times reported as measured).
    kernel: float = 0.0


@dataclass
class Outcome:
    unit: str                   #: what one unit of work is
    windows: List[Window]
    setups: List[float]         #: wall seconds per set-up repetition
    attempted: int
    failed: int
    #: Per-layer numbers this workload measured (missing = not exercised).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Counts fixed by the seed alone: equal in every same-seed run.
    exact: Dict[str, Any] = field(default_factory=dict)
    #: Which quantile of the sub-windows the two tail metrics report
    #: (0 = the best one; see ``run.across``).
    tail_q: float = 0.25


@dataclass
class Episode:
    """One sub-window run on a fresh instance, and what else it found."""

    window: Window
    setup_s: float
    #: Ran with the default all-kinds trace sink (traced runs alternate).
    full_sink: bool = False
    exact: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


def run_episodes(
    seconds: float, traced: bool, one: Callable[[int, bool], Episode]
) -> List[Episode]:
    """Episodes until *seconds* of timed work are in.  Traced runs alternate
    plain and full-sink episodes; the ratio of their throughputs is what
    the trace sink costs on that path (:func:`sink_tax`)."""
    episodes: List[Episode] = []
    while sum(e.window.wall for e in episodes) < seconds or (
        traced and len(episodes) < 2
    ):
        index = len(episodes)
        episodes.append(one(index, traced and index % 2 == 1))
    return episodes


def sink_tax(episodes: List[Episode]) -> float:
    def rate(full_sink: bool) -> float:
        return median([
            e.window.work / e.window.wall for e in episodes
            if e.full_sink == full_sink
        ])

    return rate(True) / rate(False)


def ms(seconds: float) -> float:
    return seconds * 1e3


def fresh_start() -> float:
    """Collect what the previous instance left behind, then start timing:
    an episode must not pay for its predecessor's garbage, and the
    collector then runs at the same points in every episode."""
    gc.collect()
    return clock()


# =========================================================================
# The replicated KV service over real sockets (kv_serial, kv_failover)
# =========================================================================

PERIOD = 0.05
SESSIONS = 2  # = nproc on the reference host: the load generator's own
#               CPU must not be what the benchmark measures.
SPAN_KINDS = (
    "svc.request", "span.queue", "span.propose", "span.decide",
    "span.apply", "span.reply",
)


@dataclass
class KV:
    cluster: LocalCluster
    stacks: Dict[str, List[Any]]
    fronts: List[Any]
    clients: List[KVClient]
    keys: List[str]
    setup_s: float
    start_s: float


async def kv_up(
    rng: random.Random,
    spans: SpanLog,
    trace_kinds: Optional[Sequence[str]],
    traced: bool,
    n: int = 3,
    request_timeout: float = 5.0,
) -> KV:
    """Cluster start, service bind, Ω settle, one acked put per session."""
    begin = fresh_start()
    with spans.span("cluster.setup"):
        codec = TimedCodec(default_codec(), spans) if traced else None
        cluster = LocalCluster(  # lint: ignore[ambient-state-reach]
            n=n, transport="tcp", seed=rng.getrandbits(31), codec=codec,
            trace_kinds=trace_kinds,
        )
        stacks = cluster.deploy_standard_stack(stack="rsm", period=PERIOD)
        started = clock()
        await cluster.start()
        start_s = clock() - started
        spans.add("cluster.start", started, started + start_s)
        fronts = await start_service(cluster, stacks, apply_timeout=30.0)
        addrs = [front.local_address for front in fronts]
        clients = [
            KVClient(
                addrs, f"s{i}", request_timeout=request_timeout,
                seed=rng.getrandbits(31),
            )
            for i in range(SESSIONS)
        ]
        keys = [f"key-{rng.getrandbits(32):08x}" for _ in clients]
        for client, key in zip(clients, keys):
            reply = await client.put(key, 0)
            require(reply.get("ok") is True, f"warm-up put failed: {reply}")
    return KV(cluster, stacks, fronts, clients, keys, clock() - begin, start_s)


async def kv_down(kv: KV, spans: SpanLog) -> float:
    for client in kv.clients:
        await client.close()
    for front in kv.fronts:
        await front.close()
    with spans.span("cluster.stop"):
        began = clock()
        await kv.cluster.stop()
        return clock() - began


def wire_counters(cluster: LocalCluster) -> Tuple[int, int, int]:
    """(frames, bytes, send errors) summed over every node's transport."""
    transports = [host.transport for host in cluster.hosts]
    return (
        sum(t.frames_sent for t in transports),
        sum(t.bytes_sent for t in transports),
        sum(t.send_errors for t in transports),
    )


def channel_sends(cluster: LocalCluster) -> Dict[str, float]:
    """Network messages sent per channel, from the nodes' own counters."""
    out: Dict[str, float] = {}
    for host in cluster.hosts:
        for labels, value in host.metrics.series("messages_sent_total"):
            channel = labels["channel"]
            out[channel] = out.get(channel, 0) + value
    return out


def sends_on(sends: Dict[str, float], match: Callable[[str], bool]) -> float:
    return sum(count for channel, count in sends.items() if match(channel))


async def kv_check(
    kv: KV, last_put: Dict[str, Any], traced_full: bool
) -> None:
    """No acked write lost, live replicas identical, logs prefix-consistent."""
    cluster, rsms = kv.cluster, kv.stacks["rsm"]
    live = [pid for pid in cluster.pids if not cluster.host(pid).crashed]
    settled = await cluster.run_until(
        lambda: len({len(rsms[pid].log) for pid in live}) == 1, timeout=5.0
    )
    require(settled, "live replicas never reached the same log length")
    dumps = [kv.fronts[pid].state.dump() for pid in live]
    require(all(d == dumps[0] for d in dumps), "live replicas' dumps differ")
    for key, value in last_put.items():
        require(
            dumps[0]["store"].get(key) == value,
            f"acked put lost: {key} should be {value}",
        )
    logs = sorted((rsm.log for rsm in rsms), key=len)
    for shorter, longer in zip(logs, logs[1:]):
        require(longer[: len(shorter)] == shorter, "logs are not prefixes")
    if traced_full:
        # The detector verdicts are *eventual* properties judged with a
        # quiet margin before the end of the run.  On a wall clock a host
        # hiccup longer than a detection timeout flips a suspicion, which
        # ◇C allows; if that lands in the margin the verdicts get time to
        # hold again rather than failing a run whose outputs are right.
        await cluster.run_until(
            lambda: verdicts_ok(cluster.verdicts()), timeout=5.0, poll=0.25)
        verdicts = cluster.verdicts()
        require(verdicts_ok(verdicts), f"verdicts failed: {verdicts}")


async def one_op(
    client: KVClient, key: str, rng: random.Random, last_put: Dict[str, Any]
) -> bool:
    """One generated command (80 % put / 20 % get); whether it succeeded."""
    try:
        if rng.random() < 0.8:
            value = rng.getrandbits(48)
            ok = (await client.put(key, value)).get("ok") is True
            if ok:
                last_put[key] = value
            return ok
        return (await client.get(key)).get("ok") is True
    except ServiceUnavailable:
        return False


@dataclass
class Segment:
    """What one closed-loop stretch of kv_serial measured."""

    seconds: float
    acks: List[float]
    latencies: List[float]
    attempted: int
    failed: int
    start: float
    layers: Dict[str, float]
    setup_s: float


async def serial_segment(
    rng: random.Random, seconds: float, spans: SpanLog,
    trace_kinds: Optional[Sequence[str]], traced: bool,
) -> Segment:
    # lint: ignore[ambient-state-reach]
    kv = await kv_up(rng, spans, trace_kinds, traced)
    cluster = kv.cluster
    leader_rsm = max(kv.stacks["rsm"], key=lambda rsm: len(rsm.log))
    slots0, cmds0 = leader_rsm.current_slot, len(leader_rsm.log)
    frames0, bytes0, _ = wire_counters(cluster)
    sends0 = channel_sends(cluster)
    acks: List[float] = []
    latencies: List[float] = []
    counts = [0, 0]  # attempted, failed
    last_put: Dict[str, Any] = {}
    with spans.span("load.window") as window:
        start = clock()
        end = start + seconds

        async def session(index: int) -> None:
            client, key = kv.clients[index], kv.keys[index]
            ops = random.Random(rng.getrandbits(64))
            while True:
                sent = clock()
                if sent >= end:
                    return
                ok = await one_op(client, key, ops, last_put)
                replied = clock()
                counts[0] += 1
                if ok:
                    acks.append(replied)
                    latencies.append(replied - sent)
                else:
                    counts[1] += 1
                if traced:
                    spans.add("load.op", sent, replied, parent=window)

        await asyncio.gather(*(session(i) for i in range(SESSIONS)))
        elapsed = clock() - start
    frames1, bytes1, send_errors = wire_counters(cluster)
    sends1 = channel_sends(cluster)
    await kv_check(kv, last_put, traced_full=traced and trace_kinds is None)
    cmds = len(leader_rsm.log) - cmds0
    slots = leader_rsm.current_slot - slots0
    periods = elapsed / PERIOD

    def per_period(match: Callable[[str], bool]) -> float:
        return (sends_on(sends1, match) - sends_on(sends0, match)) / periods

    layers = {
        "consensus.slots_per_s": slots / elapsed,
        "consensus.mean_batch": cmds / slots if slots else 0.0,
        "net.transport.frames_per_cmd": (frames1 - frames0) / max(cmds, 1),
        "net.transport.bytes_per_cmd": (bytes1 - bytes0) / max(cmds, 1),
        "net.transport.send_errors": float(send_errors),
        "fd.msgs_per_period": per_period(lambda ch: ch.startswith("fd.")),
        "transform.msgs_per_period": per_period(lambda ch: ch == "fdp"),
        "svc.latency_p99_ms": ms(percentile(latencies, 0.99)),
        "svc.latency_samples": float(len(latencies)),
        "cluster.start_s": kv.start_s,
    }
    if trace_kinds == SPAN_KINDS:
        report = analyze_spans(cluster.trace)
        require(report.complete > 0, "no complete span in the traced segment")
        require(
            report.attributed is not None
            and abs(report.attributed - 1.0) <= 0.01,
            f"span stages cover {report.attributed} of the server-side total",
        )
        stage = report.stage_durations
        layers.update({
            "svc.stage_queue_p50_ms": ms(percentile(stage["queue"], 0.5)),
            "svc.stage_reply_p50_ms": ms(percentile(stage["reply"], 0.5)),
            "svc.stage_reply_p95_ms": ms(percentile(stage["reply"], 0.95)),
            "consensus.stage_propose_p50_ms":
                ms(percentile(stage["propose"], 0.5)),
            "consensus.stage_decide_p50_ms":
                ms(percentile(stage["decide"], 0.5)),
            "consensus.stage_decide_p95_ms":
                ms(percentile(stage["decide"], 0.95)),
            "consensus.stage_apply_p50_ms":
                ms(percentile(stage["apply"], 0.5)),
            "load.client_overhead_p50_ms": ms(
                percentile(latencies, 0.5) - percentile(report.totals, 0.5)
            ),
        })
    layers["cluster.stop_s"] = await kv_down(kv, spans)
    return Segment(
        elapsed, acks, latencies, counts[0], counts[1], start, layers,
        kv.setup_s,
    )


#: kv_serial's sub-window: short, so that the better quartile can pick
#: out the stretches nothing disturbed (≈ 32 commands each).
SLICE_S = 0.25


def slices(segment: Segment) -> List[Window]:
    """Cut one closed-loop stretch into SLICE_S-long sub-windows."""
    count = max(4, round(segment.seconds / SLICE_S))
    width = segment.seconds / count
    windows = []
    for index in range(count):
        lo = segment.start + index * width
        inside = [
            (at, took) for at, took in zip(segment.acks, segment.latencies)
            if lo <= at < lo + width
        ]
        times = sorted(at for at, _ in inside)
        if len(times) < 2:
            continue  # a slice this disturbed has no rate to speak of
        # Rate between the slice's first and last reply: counting replies
        # per slice would quantise it to 1/SLICE_S.
        windows.append(Window(
            len(times) - 1, times[-1] - times[0],
            longest_gap(times, lo, lo + width),
            [took for _, took in inside],
        ))
    require(windows, "no slice of the run held two replies")
    return windows


def codec_layers(spans: SpanLog, cmds: float, wall: float) -> Dict[str, float]:
    encode = spans.total("net.codec.encode")
    decode = spans.total("net.codec.decode")
    return {
        "net.codec.encode_us_per_cmd": encode * 1e6 / max(cmds, 1),
        "net.codec.decode_us_per_cmd": decode * 1e6 / max(cmds, 1),
        "net.codec.busy_share": (encode + decode) / wall if wall else 0.0,
    }


#: Set-up runs this many times per process; ``setup_s`` is their median.
SETUP_REPS = 3


async def kv_serial(
    seed: int, seconds: float, traced: bool, spans: SpanLog
) -> Outcome:
    rng = random.Random(seed)
    setups = []
    for _ in range(SETUP_REPS - 1):
        # lint: ignore[ambient-state-reach]
        kv = await kv_up(rng, spans, (), False)
        setups.append(kv.setup_s)
        await kv_down(kv, spans)
    # Traced: same wire, same TimedCodec, three trace settings — sink off,
    # span kinds, all kinds; the ratios of their throughputs are what
    # tracing itself costs.
    settings = ((), SPAN_KINDS, None) if traced else ((),)
    segments = [
        await serial_segment(  # lint: ignore[ambient-state-reach]
            rng, seconds / len(settings), spans, kinds, traced)
        for kinds in settings
    ]
    base = segments[0]
    layers: Dict[str, float] = {}
    if traced:
        rate = [len(s.acks) / s.seconds for s in segments]
        for segment in reversed(segments):
            layers.update(segment.layers)
        layers["obs.tax_spans_ratio"] = rate[1] / rate[0]
        layers["obs.tax_full_ratio"] = rate[2] / rate[0]
        layers.update(codec_layers(
            spans, sum(len(s.acks) for s in segments),
            sum(s.seconds for s in segments),
        ))
    return Outcome(
        unit="client command (send to reply)",
        windows=slices(base),
        setups=setups + [s.setup_s for s in segments],
        attempted=sum(s.attempted for s in segments),
        failed=sum(s.failed for s in segments),
        layers=layers,
    )


# ------------------------------------------------------------- kv_failover
RATE = 40.0          # open-loop commands per second
CRASH_AFTER = 0.75   # seconds of steady service before the leader dies...
CRASH_PHASE = 0.25   # ...plus a seeded offset below this
AFTER_CRASH = 1.25   # > request_timeout + backoff: a stuck request returns
LATENCY_LIMIT = 0.1  # a request slower than this from its due time is late


async def failover_episode(
    rng: random.Random, spans: SpanLog, traced: bool
) -> Episode:
    kv = await kv_up(  # lint: ignore[ambient-state-reach]
        rng, spans, None if traced else (), traced, request_timeout=1.0
    )
    cluster, detectors = kv.cluster, kv.stacks["fd"]
    agreed = await cluster.run_until(
        lambda: len({d.trusted() for d in detectors}) == 1, timeout=5.0
    )
    require(agreed, "the detectors never agreed on a leader")
    leader = detectors[0].trusted()
    survivors = [d for d in detectors if d.pid != leader]
    crash_after = CRASH_AFTER + rng.random() * CRASH_PHASE
    length = crash_after + AFTER_CRASH
    acks: List[float] = []
    latencies: List[float] = []
    late: List[float] = []
    counts = [0, 0]
    last_put: Dict[str, Any] = {}
    with spans.span("load.window") as window:
        start = clock()
        due = [start + k / RATE for k in range(int(length * RATE))]
        cursor = [0]

        # The ledger's own open loop: a schedule of due times drained by
        # the sessions, each command timed from when it was *due*, so the
        # wait a leaderless cluster imposes on later commands is counted.
        async def session(index: int) -> None:
            client, key = kv.clients[index], kv.keys[index]
            ops = random.Random(rng.getrandbits(64))
            while cursor[0] < len(due):
                at = due[cursor[0]]
                cursor[0] += 1
                wait = at - clock()
                if wait > 0:
                    await asyncio.sleep(wait)
                sent = clock()
                late.append(sent - at)
                ok = await one_op(client, key, ops, last_put)
                replied = clock()
                counts[0] += 1
                if ok:
                    acks.append(replied)
                    latencies.append(replied - at)
                else:
                    counts[1] += 1
                if traced:
                    spans.add("load.op", at, replied, parent=window)

        async def crash() -> Tuple[float, float]:
            await asyncio.sleep(start + crash_after - clock())
            crashed = clock()
            cluster.crash(leader)
            if not traced:
                return crashed, 0.0
            # fd layer, measured directly: until every survivor's Ω output
            # moved off the dead leader and they agree again.
            while clock() - crashed < AFTER_CRASH:
                trusted = {d.trusted() for d in survivors}
                if len(trusted) == 1 and leader not in trusted:
                    return crashed, clock() - crashed
                await asyncio.sleep(0.001)
            raise CheckFailed("the survivors never agreed on a new leader")

        (crashed, leader_change), *_ = await asyncio.gather(
            crash(), *(session(i) for i in range(SESSIONS))
        )
        end = clock()
    # Time without service: the longest interval without a reply that
    # spans the crash (replies already on the wire when the leader died
    # may still land, so "spans" allows the gap to open just after it).
    edges = [start, *sorted(acks)]
    spanning = [
        b - a for a, b in zip(edges, edges[1:])
        if a <= crashed + LATENCY_LIMIT and b >= crashed
    ]
    require(spanning, "no reply after the crash: service never resumed")
    gap = max(spanning)
    _, _, send_errors = wire_counters(cluster)
    await kv_check(kv, last_put, traced_full=traced)
    stop_s = await kv_down(kv, spans)
    return Episode(
        Window(len(acks), end - start, gap, latencies), kv.setup_s,
        extra={
            "late": late, "attempted": counts[0], "failed": counts[1],
            "leader_change": leader_change,
            "redirects": sum(c.redirects for c in kv.clients),
            "retries": sum(c.retries for c in kv.clients),
            "send_errors": send_errors,
            "start_s": kv.start_s, "stop_s": stop_s,
        },
    )


async def kv_failover(
    seed: int, seconds: float, traced: bool, spans: SpanLog
) -> Outcome:
    rng = random.Random(seed)
    episode_s = CRASH_AFTER + CRASH_PHASE / 2 + AFTER_CRASH
    episodes = [
        # lint: ignore[ambient-state-reach]
        await failover_episode(rng, spans, traced)
        for _ in range(max(1, round(seconds / episode_s)))
    ]
    latencies = [x for e in episodes for x in e.window.unit_times]

    def mid(key: str) -> float:
        return median([e.extra[key] for e in episodes])

    def total(key: str) -> int:
        return sum(e.extra[key] for e in episodes)

    layers = {
        "load.late_p95_ms": ms(percentile(
            [x for e in episodes for x in e.extra["late"]], 0.95)),
        "svc.redirects_per_episode": mid("redirects"),
        "svc.retries_per_episode": mid("retries"),
        "svc.stuck_request_max_s": max(latencies),
        "svc.over_limit_ratio":
            sum(x > LATENCY_LIMIT for x in latencies) / len(latencies),
        "svc.latency_p99_ms": ms(percentile(latencies, 0.99)),
        "svc.latency_samples": float(len(latencies)),
        "fd.leader_change_s_p50": mid("leader_change"),
        "net.transport.send_errors": float(total("send_errors")),
        "cluster.start_s": mid("start_s"),
        "cluster.stop_s": mid("stop_s"),
    }
    if traced:
        layers.update(codec_layers(
            spans, len(latencies), sum(e.window.wall for e in episodes)))
    return Outcome(
        unit="client command (due time to reply)",
        windows=[e.window for e in episodes],
        setups=[e.setup_s for e in episodes],
        attempted=total("attempted"),
        failed=total("failed"),
        layers=layers,
        # Episodes come in two modes a 25 ms client redirect poll apart,
        # about half in each, by where the crash falls in the heartbeat
        # period.  The second best of five is in the slow mode one run in
        # five (p95 spread 10-16 % over ten runs); the best is not (3 %).
        tail_q=0.0,
    )


# =========================================================================
# rsm_burst: the command path on the virtual clock, no sockets, no service
# =========================================================================

BURST = 256
BURSTS = 4
BURST_EVERY = 0.02  # virtual seconds
SETTLE_VT = 1.0     # Ω has settled by then at this period


def burst_episode(
    rng: random.Random, spans: SpanLog, traced: bool, full_sink: bool
) -> Episode:
    begin = fresh_start()
    with spans.span("cluster.setup"):
        codec = TimedCodec(default_codec(), spans) if traced else None
        cluster = LocalCluster(  # lint: ignore[ambient-state-reach]
            n=3, transport="loopback", clock="virtual",
            seed=rng.getrandbits(31), codec=codec,
            trace_kinds=None if full_sink else (),
        )
        stacks = cluster.deploy_standard_stack(stack="rsm", period=PERIOD)
        cluster.start_virtual()
        cluster.run_virtual(until=SETTLE_VT)
    setup_s = clock() - begin
    rsms = stacks["rsm"]
    leader = stacks["fd"][0].trusted()
    require(
        all(d.trusted() == leader for d in stacks["fd"]),
        "Ω had not settled when the bursts began",
    )
    commands = [
        {"client": "burst", "seq": seq, "op": "put",
         "key": f"k{rng.randrange(64)}", "value": rng.getrandbits(48)}
        for seq in range(BURST * BURSTS)
    ]
    applied = [0] * cluster.n
    submitted: Dict[int, Tuple[float, float]] = {}
    apply_wall: List[float] = []
    unit_times: List[float] = []
    vt_latency: List[float] = []

    def count(pid: int) -> Callable[[int, Any], None]:
        def on_apply(slot: int, command: Any) -> None:
            applied[pid] += 1
            if pid == leader:
                now = clock()
                wall, vt = submitted[command["seq"]]
                apply_wall.append(now)
                unit_times.append(now - wall)
                vt_latency.append(cluster.now - vt)
        return on_apply

    for pid, rsm in enumerate(rsms):
        rsm.on_apply(count(pid))
    scheduler = cluster.clock
    slot0, events0 = rsms[leader].current_slot, scheduler.events_fired
    frames0, bytes0, _ = wire_counters(cluster)
    sends0 = channel_sends(cluster)
    kernel = reference_kernel()
    with spans.span("consensus.burst"):
        start = clock()
        vt = cluster.now
        for index in range(BURSTS):
            for command in commands[index * BURST:(index + 1) * BURST]:
                submitted[command["seq"]] = (clock(), vt)
                rsms[leader].submit(command)
            vt += BURST_EVERY
            cluster.run_virtual(until=vt)
        while min(applied) < len(commands):
            require(vt < SETTLE_VT + 60.0, "the bursts never drained")
            vt += BURST_EVERY
            cluster.run_virtual(until=vt)
        end = clock()
    for rsm in rsms:
        require(rsm.log == commands, "a replica's log is not the input")
    frames1, bytes1, send_errors = wire_counters(cluster)
    sends1 = channel_sends(cluster)
    slots = rsms[leader].current_slot - slot0

    def is_rb(channel: str) -> bool:
        return channel.endswith(".rb")

    return Episode(
        Window(
            len(commands), end - start, longest_gap(apply_wall, start, end),
            unit_times, (kernel + reference_kernel()) / 2,
        ),
        setup_s, full_sink,
        exact={
            "commands": len(commands),
            "slots": slots,
            "frames": frames1 - frames0,
            "bytes": bytes1 - bytes0,
            "scheduler_events": scheduler.events_fired - events0,
            "rb_messages": sends_on(sends1, is_rb) - sends_on(sends0, is_rb),
            "submit_to_apply_vt_p50_ms": ms(percentile(vt_latency, 0.5)),
            "submit_to_apply_vt_p95_ms": ms(percentile(vt_latency, 0.95)),
            "drained_at_vt": round(vt, 6),
        },
        extra={"send_errors": send_errors},
    )


async def rsm_burst(
    seed: int, seconds: float, traced: bool, spans: SpanLog
) -> Outcome:
    rng = random.Random(seed)
    episodes = run_episodes(
        seconds, traced,
        # lint: ignore[ambient-state-reach]
        lambda _, full_sink: burst_episode(rng, spans, traced, full_sink),
    )
    plain = [e for e in episodes if not e.full_sink]
    exact = episodes[0].exact
    cmds, wall = exact["commands"], median([e.window.wall for e in plain])
    layers = {
        "consensus.slots": float(exact["slots"]),
        "consensus.slots_per_s": exact["slots"] / wall,
        "consensus.mean_batch": cmds / exact["slots"],
        "consensus.submit_to_apply_vt_p50_ms":
            exact["submit_to_apply_vt_p50_ms"],
        "consensus.submit_to_apply_vt_p95_ms":
            exact["submit_to_apply_vt_p95_ms"],
        "broadcast.rb_frames_per_slot": exact["rb_messages"] / exact["slots"],
        "net.transport.frames_per_cmd": exact["frames"] / cmds,
        "net.transport.bytes_per_cmd": exact["bytes"] / cmds,
        "net.transport.send_errors":
            float(sum(e.extra["send_errors"] for e in episodes)),
        "sim.scheduler.events_per_cmd": exact["scheduler_events"] / cmds,
    }
    if traced:
        layers["obs.tax_full_ratio"] = sink_tax(episodes)
        layers.update(codec_layers(
            spans, cmds * len(episodes),
            sum(e.window.wall for e in episodes),
        ))
    return Outcome(
        unit="command (submit to applied at the leader)",
        windows=[e.window for e in plain],
        setups=[e.setup_s for e in episodes],
        attempted=cmds * len(episodes),
        failed=0,
        layers=layers,
        exact=exact,
    )


# =========================================================================
# paper_sim: the paper's own stack on the pure simulator
# =========================================================================

SIM_N = 16
SIM_PERIOD = 5.0
SIM_GST = 50.0
SIM_CRASH_AT = 25.0  # pid 0, the first leader, before GST
#: A second, non-leader crash once the new leader has settled.  Fig. 2's
#: leader publishes its own output only when its local list changes, and a
#: process that led for a while before GST can take over with pid 0 already
#: in that list; its own ◇P output then stays at the last list it adopted
#: (1 sim seed in ~300 with the first crash alone).  This crash makes every
#: settled leader's list change once more, so all seeds pass.
SIM_CRASH_2 = (SIM_N // 2, 150.0)
SIM_STABLE = 300.0   # Ω and the suspect lists are stable well before this
SIM_HORIZON = 600.0
#: What the property checkers read; everything else is per-message bulk.
VERDICT_KINDS = ("fd", "crash", "propose", "decide", "round", "phase")


def sim_episode(seed: int, spans: SpanLog, full_sink: bool) -> Episode:
    n, crashed = SIM_N, 2
    begin = fresh_start()
    with spans.span("sim.setup"):
        world = World(
            n=n, seed=seed,
            default_link=partially_synchronous_link(gst=SIM_GST, pre_max=30.0),
            trace_kinds=None if full_sink else VERDICT_KINDS,
        )
        detectors = attach_ec_stack(
            world, suspects="ring", period=SIM_PERIOD, initial_timeout=12.0
        )
        protocols = []
        for pid in world.pids:
            world.attach(pid, CToPTransformation(
                detectors[pid], send_period=SIM_PERIOD,
                alive_period=SIM_PERIOD, initial_timeout=12.0, channel="fdp",
            ))
            rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
            protocols.append(
                world.attach(pid, ECConsensus(detectors[pid], rb))
            )
        world.start()
        world.schedule_crash(0, SIM_CRASH_AT)
        world.schedule_crash(*SIM_CRASH_2)
    setup_s = clock() - begin

    def sent(channel: str) -> float:
        return world.metrics.value("messages_sent_total", channel=channel)

    chunks: List[float] = []
    stable: Dict[str, float] = {}
    kernel = reference_kernel()
    with spans.span("sim.run"):
        start = clock()
        until = 0.0
        while until < SIM_HORIZON:
            if until == SIM_STABLE:
                stable = {
                    ch: sent(ch) for ch in ("fd.omega", "fd.suspects", "fdp")
                }
                propose_all([p for p in protocols if not p.crashed])
            began = clock()
            until += SIM_PERIOD
            world.run(until=until)
            chunks.append(clock() - began)
        wall = clock() - start
    kernel = (kernel + reference_kernel()) / 2
    events = world.scheduler.events_fired
    periods = (SIM_HORIZON - SIM_STABLE) / SIM_PERIOD
    per_period = {ch: (sent(ch) - stable[ch]) / periods for ch in stable}
    trace, correct = world.trace, world.correct_pids
    checks = {
        **check_consensus(extract_outcome(trace, "ec"), correct),
        **{f"ec.{k}": bool(v) for k, v in check_fd_class(
            trace, EVENTUALLY_CONSISTENT, correct, channel="fd",
            end_time=world.now).items()},
        **{f"ep.{k}": bool(v) for k, v in check_fd_class(
            trace, EVENTUALLY_PERFECT, correct, channel="fdp",
            end_time=world.now).items()},
    }
    require(all(checks.values()), f"paper_sim properties failed: {checks}")
    rounds = rounds_after_system(trace, SIM_STABLE, "ec")
    round_msgs = sent("consensus")
    # The paper's costs with f processes crashed: the leader still writes
    # to all n-1 others, the f dead ones no longer answer.
    require(
        per_period["fdp"] == 2 * (n - 1) - crashed,
        f"transformation cost {per_period['fdp']} is not 2(n-1)-f",
    )
    require(
        round_msgs == 4 * (n - 1) - 2 * crashed,
        f"consensus sent {round_msgs} messages, not 4(n-1)-2f",
    )
    require(rounds == 1, f"decided {rounds} rounds after stabilization")
    report = qos_report(trace, correct, period=SIM_PERIOD)
    return Episode(
        Window(events, wall, max(chunks), chunks, kernel), setup_s, full_sink,
        exact={
            "scheduler_events": events,
            "network_msgs": world.network.sent_network,
            "trace_events": len(trace),
            "transform_msgs_per_period": per_period["fdp"],
            "fd_msgs_per_period":
                per_period["fd.omega"] + per_period["fd.suspects"],
            "consensus_msgs_per_round": round_msgs,
            "rounds_after_stable": rounds,
            "detect_vt": detection_latency(
                trace, 0, SIM_CRASH_AT, correct, channel="fd"),
            "wrong_suspicions": len(report.mistakes),
        },
    )


async def paper_sim(
    seed: int, seconds: float, traced: bool, spans: SpanLog
) -> Outcome:
    episodes = run_episodes(
        seconds, traced,
        lambda index, full_sink: sim_episode(
            seed * 1000 + index, spans, full_sink),
    )
    exact = episodes[0].exact
    layers = {
        "consensus.rounds_after_stable": float(exact["rounds_after_stable"]),
        "consensus.msgs_per_round": float(exact["consensus_msgs_per_round"]),
        "fd.msgs_per_period": exact["fd_msgs_per_period"],
        "fd.detect_vt": exact["detect_vt"],
        "fd.wrong_suspicions": float(exact["wrong_suspicions"]),
        "transform.msgs_per_period": exact["transform_msgs_per_period"],
        "sim.network.msgs_sent": float(exact["network_msgs"]),
        "sim.trace_events": float(exact["trace_events"]),
    }
    if traced:
        layers["obs.tax_full_ratio"] = sink_tax(episodes)
    return Outcome(
        unit="one simulated period of 16 processes",
        windows=[e.window for e in episodes if not e.full_sink],
        setups=[e.setup_s for e in episodes],
        attempted=len(episodes),
        failed=0,
        layers=layers,
        exact=exact,
    )


# =========================================================================
# trace_pipeline: obs written and read back, then analysis; no protocol
# =========================================================================

PIPE_N = 5
PIPE_HORIZON = 400.0


def make_trace(seed: int, spans: SpanLog) -> Tuple[List[Any], float]:
    """Set-up: a virtual ring-stack run with a mid-run crash, in memory."""
    begin = fresh_start()
    with spans.span("obs.make_trace"):
        cluster = LocalCluster(  # lint: ignore[ambient-state-reach]
            n=PIPE_N, transport="loopback", clock="virtual", seed=seed
        )
        cluster.plan.storm(0.0, delay=FixedDelay(1.0))
        stacks = attach_standard_stack(
            cluster, period=SIM_PERIOD, initial_timeout=12.0,
            timeout_increment=5.0,
        )
        cluster.start_virtual()
        for protocol in stacks["consensus"]:
            protocol.propose(f"v{protocol.pid}")
        cluster.schedule_kill(seed % PIPE_N, PIPE_HORIZON / 3)
        cluster.run_virtual(until=PIPE_HORIZON)
    return cluster.trace.events, clock() - begin


def pipeline_pass(
    events: List[Any], workdir: str, spans: SpanLog
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """events → per-node JSONL → read → merge → QoS twice → verdicts"""
    stages: Dict[str, float] = {}
    paths = [f"{workdir}/node-{pid}.jsonl" for pid in range(PIPE_N)]

    def stage(name: str, call: Callable[[], Any]) -> Any:
        with spans.span(name):
            began = clock()
            result = call()
            stages[name] = clock() - began
        return result

    def write() -> None:  # lint: ignore[ambient-state-reach]
        sinks = [
            # lint: ignore[ambient-state-reach]
            JsonlSink(path, node=pid, epoch_wall=0.0, epoch_mono=0.0)
            for pid, path in enumerate(paths)
        ]
        for event in events:
            sinks[event.pid or 0].record_event(event)
        for sink in sinks:
            sink.close()

    def fold(merged: Any) -> Any:
        online = IncrementalQoS()
        for event in merged.events:
            online.observe_event(event)
        return online.report(period=SIM_PERIOD)

    stage("obs.jsonl_write", write)  # lint: ignore[ambient-state-reach]
    files = stage("obs.read", lambda: [read_trace_file(p) for p in paths])
    merged = stage("obs.merge", lambda: merge_traces(files)).trace
    offline = stage(
        "analysis.qos_report", lambda: qos_report(merged, period=SIM_PERIOD))
    online = stage("analysis.incremental_qos", lambda: fold(merged))
    verdicts = stage("analysis.verdicts", lambda: standard_verdicts(
        merged, offline.correct, end_time=offline.end_time))
    require(len(merged) == len(events), "the merge lost or invented events")
    require(
        len(merged) == sum(len(f) for f in files), "merged count != Σ inputs")
    require(online == offline, "IncrementalQoS and qos_report disagree")
    require(offline.bound_ok is True, "the 2(n-1) QoS bound does not hold")
    require(verdicts_ok(verdicts), f"verdicts failed: {verdicts}")
    size = sum(os.path.getsize(path) for path in paths)
    return stages, {"events": len(merged), "jsonl_bytes": size}


PIPE_GROUP = 4  # passes per sub-window


async def trace_pipeline(
    seed: int, seconds: float, traced: bool, spans: SpanLog
) -> Outcome:
    setups = []
    for _ in range(SETUP_REPS):
        # lint: ignore[ambient-state-reach]
        events, took = make_trace(seed, spans)
        setups.append(took)
    workdir = tempfile.mkdtemp(prefix="pipeline-", dir=LEDGER_DIR / "results")
    passes: List[Dict[str, float]] = []
    kernels = [reference_kernel()]
    try:
        while (
            sum(sum(p.values()) for p in passes) < seconds
            or len(passes) % PIPE_GROUP
        ):
            # lint: ignore[ambient-state-reach]
            stages, exact = pipeline_pass(events, workdir, spans)
            passes.append(stages)
            if len(passes) % PIPE_GROUP == 0:
                kernels.append(reference_kernel())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    count = exact["events"]
    windows = []
    for index in range(0, len(passes), PIPE_GROUP):
        group = passes[index:index + PIPE_GROUP]
        took = [sum(p.values()) for p in group]
        windows.append(Window(
            count * len(group), sum(took),
            max(max(p.values()) for p in group), took,
            (kernels[len(windows)] + kernels[len(windows) + 1]) / 2,
        ))

    def per_s(name: str) -> float:
        return count / median([p[name] for p in passes])

    return Outcome(
        unit="one pass of the whole pipeline (stall: its longest stage)",
        windows=windows,
        setups=setups,
        attempted=len(passes),
        failed=0,
        layers={
            "obs.jsonl_write_events_per_s": per_s("obs.jsonl_write"),
            "obs.read_events_per_s": per_s("obs.read"),
            "obs.merge_events_per_s": per_s("obs.merge"),
            "obs.jsonl_bytes_per_event": exact["jsonl_bytes"] / count,
            "analysis.qos_report_events_per_s": per_s("analysis.qos_report"),
            "analysis.incremental_qos_events_per_s":
                per_s("analysis.incremental_qos"),
            "analysis.verdicts_s":
                median([p["analysis.verdicts"] for p in passes]),
        },
        exact=exact,
    )


WORKLOADS = {
    "kv_serial": kv_serial,
    "rsm_burst": rsm_burst,
    "kv_failover": kv_failover,
    "paper_sim": paper_sim,
    "trace_pipeline": trace_pipeline,
}
