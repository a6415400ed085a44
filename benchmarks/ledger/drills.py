"""Drills: short loops that call one layer's public functions directly.

A drill's number says what the layer costs in isolation, so a change to
that layer can be seen before (and checked against) the end-to-end move it
predicts.  Drills run in traced runs only, each for *budget* seconds.
"""

from __future__ import annotations

import asyncio
import inspect
import random
from typing import Any, Callable, Dict, List

from repro.consensus.multi import BATCH
from repro.net.clock import AsyncioClock
from repro.net.codec import JsonCodec, MsgpackCodec
from repro.net.frame import encode_frame, read_frame_bytes
from repro.net.tcp import TCPTransport
from repro.net.transport import LoopbackHub, LoopbackTransport
from repro.net.udp import UDPTransport
from repro.obs import MemorySink, MetricsRegistry
from repro.sim import Scheduler
from repro.sim.message import Message
from repro.svc import KVStateMachine

from loads import kv_down, kv_up
from stats import clock, median, percentile
from tracing import SpanLog

REPS = 50


def per_call_us(call: Callable[[], Any], budget: float) -> float:
    """Median over batches of the mean microseconds one *call* takes."""
    batches: List[float] = []
    deadline = clock() + budget
    while not batches or clock() < deadline:
        began = clock()
        for _ in range(REPS):
            call()
        batches.append((clock() - began) / REPS)
    return median(batches) * 1e6


def command(seq: int) -> Dict[str, Any]:
    return {"client": "drill", "seq": seq, "op": "put",
            "key": f"k{seq % 64}", "value": seq * 7919, "expect": None}


def codec_drills(budget: float) -> Dict[str, float]:
    """Encode/decode of the two payload shapes the command path carries:
    one estimate holding one command, and one holding a 64-command batch."""
    shapes = {
        "est": ("EST", 3, (0, 17, command(17)), 2),
        "batch64": ("EST", 3, (BATCH, tuple(
            (0, seq, command(seq)) for seq in range(64))), 2),
    }
    out: Dict[str, float] = {}
    mpack = MsgpackCodec()
    out["net.codec.mpack_ext"] = float(mpack.impl == "ext")
    for label, codec in (("json", JsonCodec()), ("mpack", mpack)):
        for shape, payload in shapes.items():
            msg = Message(src=0, dst=1, channel="rsm.c9", payload=payload,
                          send_time=1.25, tag="est", round=3)
            frame = codec.encode_message(msg)
            out[f"net.codec.{label}_encode_us.{shape}"] = per_call_us(
                lambda: codec.encode_message(msg), budget)
            out[f"net.codec.{label}_decode_us.{shape}"] = per_call_us(
                lambda: codec.decode_message(frame), budget)
    codec = JsonCodec()
    fanout = [
        Message(src=0, dst=dst, channel="rsm.c9", payload=shapes["batch64"],
                send_time=1.25, tag="prop", round=3)
        for dst in range(1, 5)
    ]
    looped = per_call_us(
        lambda: [codec.encode_message(m) for m in fanout], budget)
    batched = per_call_us(lambda: codec.encode_message_batch(fanout), budget)
    out["net.codec.batch_fanout_speedup"] = looped / batched
    return out


async def frame_drill(budget: float) -> Dict[str, float]:
    body = bytes(1024)
    reader = asyncio.StreamReader()
    batches: List[float] = []
    deadline = clock() + budget
    while not batches or clock() < deadline:
        began = clock()
        for _ in range(REPS):
            reader.feed_data(encode_frame(body))
            await read_frame_bytes(reader, 1 << 20)
        batches.append((clock() - began) / REPS)
    return {"net.frame.roundtrip_us_1k": median(batches) * 1e6}


async def transport_drill(kind: str, budget: float) -> Dict[str, float]:
    """p50 of a 64-byte ping-pong between two transports of *kind*."""
    hub = LoopbackHub(AsyncioClock())
    make = {
        "loopback": lambda pid: LoopbackTransport(pid, hub),
        "udp": UDPTransport,
        "tcp": TCPTransport,
    }[kind]
    ends = [make(pid) for pid in (0, 1)]
    for end in ends:
        bound = end.bind()
        if inspect.isawaitable(bound):
            await bound
    addresses = {end.pid: end.local_address for end in ends}
    for end in ends:
        end.set_peers(addresses)
    near, far = ends
    payload = bytes(64)
    rtts: List[float] = []
    done = asyncio.Event()
    sent = [0.0]
    deadline = clock() + budget

    def ping() -> None:
        sent[0] = clock()
        near.send(1, payload)

    def on_pong(data: bytes) -> None:
        now = clock()
        rtts.append(now - sent[0])
        if now < deadline:
            ping()
        else:
            done.set()

    far.set_receiver(lambda data: far.send(0, data))
    near.set_receiver(on_pong)
    ping()
    try:
        await asyncio.wait_for(done.wait(), timeout=budget + 5.0)
    finally:
        for end in ends:
            closed = end.close()
            if inspect.isawaitable(closed):
                await closed
    return {f"net.transport.{kind}_rtt_us": percentile(rtts, 0.5) * 1e6}


def scheduler_drill(budget: float) -> Dict[str, float]:
    """Events per second through the bare scheduler: 64 timers that
    re-arm themselves, the shape periodic protocol tasks give it."""
    scheduler = Scheduler()

    def tick(delay: float) -> None:
        scheduler.schedule(delay, tick, delay)

    for index in range(64):
        scheduler.schedule(0.0, tick, 1.0 + index / 64)
    began = clock()
    deadline = began + budget
    while clock() < deadline:
        scheduler.run(max_events=2000)
    return {
        "sim.scheduler.drill_events_per_s":
            scheduler.events_fired / (clock() - began),
    }


def obs_drills(budget: float) -> Dict[str, float]:
    kept, filtered = MemorySink(), MemorySink(kinds={"decide"})
    registry = MetricsRegistry()

    def record(sink: MemorySink) -> Callable[[], None]:
        return lambda: sink.record(
            1.0, "send", 0, channel="fd", src=0, dst=1, tag=None,
            round=None, loopback=False)

    return {
        "obs.sinks.record_kept_us": per_call_us(record(kept), budget),
        "obs.sinks.record_filtered_us": per_call_us(record(filtered), budget),
        "obs.metrics.observe_us": per_call_us(
            lambda: registry.observe("rsm_batch_size", 17), budget),
    }


def state_drill(budget: float) -> Dict[str, float]:
    """KVStateMachine.apply over a fixed put/get/cas mix."""
    machine = KVStateMachine()
    seq = [0]

    def apply() -> None:
        seq[0] += 1
        op = ("put", "get", "cas", "put")[seq[0] % 4]
        machine.apply({
            "client": "drill", "seq": seq[0], "op": op,
            "key": f"k{seq[0] % 16}", "value": seq[0], "expect": None,
        })

    return {"svc.state_apply_us": per_call_us(apply, budget)}


async def single_node_drill(budget: float, spans: SpanLog) -> Dict[str, float]:
    """The single-node baseline: the same service path at n=1, where
    agreement costs no network hop, is the floor of ``latency_p50_ms``."""
    # lint: ignore[ambient-state-reach]
    kv = await kv_up(random.Random(1), spans, (), False, n=1)
    latencies: List[float] = []
    deadline = clock() + 4 * budget
    while not latencies or clock() < deadline:
        began = clock()
        await kv.clients[0].put(kv.keys[0], len(latencies))
        latencies.append(clock() - began)
    await kv_down(kv, spans)
    return {"svc.n1_latency_p50_ms": percentile(latencies, 0.5) * 1e3}


async def run_drills(spans: SpanLog, budget: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    with spans.span("net.codec.drill"):
        out.update(codec_drills(budget))
    with spans.span("net.frame.drill"):
        out.update(await frame_drill(budget))
    for kind in ("loopback", "udp", "tcp"):
        with spans.span(f"net.transport.{kind}.drill"):
            out.update(await transport_drill(kind, budget))
    with spans.span("sim.scheduler.drill"):
        out.update(scheduler_drill(budget))
    with spans.span("obs.drill"):
        out.update(obs_drills(budget))
    with spans.span("svc.state.drill"):
        out.update(state_drill(budget))
    with spans.span("svc.n1.drill"):
        # lint: ignore[ambient-state-reach]
        out.update(await single_node_drill(budget, spans))
    return out
