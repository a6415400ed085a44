"""E3 — Section 4 cost analysis: periodic messages of ◇P constructions.

Sweeps n and measures steady-state messages per period for:

* Chandra–Toueg all-to-all heartbeat ◇P — paper: n(n−1) ("n²");
* the ring ◇P of [15] — paper: 2n;
* the Fig. 2 ◇C → ◇P transformation — paper: 2(n−1);
* Fig. 2 stacked on the leader-based Ω of [16] — paper: 2(n−1) *total*
  (n−1 for the detector + n−1 for the transformation, after the text's
  observation that leader heartbeats and suspect lists can share a period).
"""

import pytest

from repro.analysis import channel_message_count
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    HeartbeatEventuallyPerfect,
    LeaderBasedOmega,
    OracleConfig,
    OracleFailureDetector,
    RingDetector,
)
from repro.sim import FixedDelay, ReliableLink, World
from repro.transform import CToPTransformation, OmegaToC

from _harness import publish_table

PERIOD = 5.0
WINDOW = (300.0, 800.0)
NS = (4, 8, 16, 32)


def steady_cost(world, channels):
    world.run(until=WINDOW[1])
    total = sum(
        channel_message_count(world.trace, ch, after=WINDOW[0])
        for ch in channels
    )
    return total / ((WINDOW[1] - WINDOW[0]) / PERIOD)


def heartbeat_world(n):
    w = World(n=n, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    w.attach_all(lambda pid: HeartbeatEventuallyPerfect(period=PERIOD))
    return w, ("fd",)


def ring_world(n):
    w = World(n=n, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    w.attach_all(lambda pid: RingDetector(period=PERIOD))
    return w, ("fd",)


def fig2_oracle_world(n):
    w = World(n=n, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    for pid in w.pids:
        src = w.attach(pid, OracleFailureDetector(
            EVENTUALLY_CONSISTENT, OracleConfig(pre_behavior="ideal"),
            channel="fd.c"))
        w.attach(pid, CToPTransformation(
            src, send_period=PERIOD, alive_period=PERIOD, channel="fdp"))
    return w, ("fdp",)


def fig2_full_stack_world(n):
    """The complete message-passing pipeline: Ω [16] → ◇C → ◇P (Fig. 2)."""
    w = World(n=n, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    for pid in w.pids:
        omega = w.attach(pid, LeaderBasedOmega(period=PERIOD,
                                               channel="fd.omega"))
        c_det = w.attach(pid, OmegaToC(omega, channel="fd.c"))
        w.attach(pid, CToPTransformation(
            c_det, send_period=PERIOD, alive_period=PERIOD, channel="fdp"))
    return w, ("fd.omega", "fdp")


def test_e3_fd_message_cost(benchmark):
    rows = []
    measured = {}
    for n in NS:
        hb = steady_cost(*heartbeat_world(n))
        ring = steady_cost(*ring_world(n))
        fig2 = steady_cost(*fig2_oracle_world(n))
        stack = steady_cost(*fig2_full_stack_world(n))
        measured[n] = (hb, ring, fig2, stack)
        rows.append((
            n,
            f"{hb:.1f} ({n*(n-1)})",
            f"{ring:.1f} ({2*n})",
            f"{fig2:.1f} ({2*(n-1)})",
            f"{stack:.1f} ({3*(n-1)})",
        ))
    publish_table(
        "e3_fd_message_cost",
        "E3 — periodic message cost of <>P constructions "
        "(measured msgs/period, paper formula in parens)",
        ["n", "all-to-all [6]", "ring [15]", "Fig.2 (oracle <>C)",
         "Omega[16]+Fig.2 stack"],
        rows,
        note="Paper (Sec. 4): Fig. 2 costs 2(n-1) — below the ring's 2n and "
        "far below n² all-to-all; the full Omega-based stack adds the "
        "leader's n-1 heartbeats.  (The paper's headline 2(n-1) total "
        "assumes piggybacking the suspect list on those heartbeats.)",
    )
    for n, (hb, ring, fig2, stack) in measured.items():
        assert hb == pytest.approx(n * (n - 1), rel=0.05)
        assert ring == pytest.approx(2 * n, rel=0.1)
        assert fig2 == pytest.approx(2 * (n - 1), rel=0.05)
        assert fig2 < ring < hb

    benchmark.pedantic(
        lambda: steady_cost(*fig2_oracle_world(8)), rounds=3, iterations=1
    )


def test_e3_trace_record_rate(benchmark):
    """Tracing overhead: the kind-filter fast path must actually be fast.

    Every message a detector sends is also a ``trace.record`` call, so at
    n=32 the all-to-all construction records ~1k events per period and the
    sink is on the hot path.  Rates are wall-clock (machine-dependent —
    the drift checker skips them); the regression being pinned is relative:
    discarding a filtered-out kind must beat keeping the event, and a
    ``wants()`` guard must beat even building the call's payload.
    """
    import time

    from repro.obs import MemorySink

    N = 200_000

    def timed(fn):
        # A record-rate benchmark measures this host on purpose.
        t0 = time.perf_counter()  # lint: ignore[wall-clock]
        fn()
        return N / (time.perf_counter() - t0)  # lint: ignore[wall-clock]

    def record_into(sink):
        for i in range(N):
            sink.record(float(i), "send", 0, channel="fd", src=0, dst=i)

    def guarded_record_into(sink):
        for i in range(N):
            if sink.wants("send"):
                sink.record(float(i), "send", 0, channel="fd", src=0, dst=i)

    kept = timed(lambda: record_into(MemorySink()))
    filtered = timed(lambda: record_into(MemorySink(kinds={"decide"})))
    guarded = timed(lambda: guarded_record_into(MemorySink(kinds={"decide"})))

    rows = [
        ("record, kept", f"{kept:,.0f}", "1.0x"),
        ("record, kind filtered out", f"{filtered:,.0f}",
         f"{filtered / kept:.1f}x"),
        ("wants() guard, filtered out", f"{guarded:,.0f}",
         f"{guarded / kept:.1f}x"),
    ]
    publish_table(
        "e3_trace_record_rate",
        "E3b — trace sink record rate (200k events, MemorySink)",
        ["mode", "events/s (wall)", "vs kept (wall)"],
        rows,
        note="Filtered kinds are rejected by the first check in record(), "
        "before any allocation; callers with expensive payloads guard with "
        "wants() and skip even the call.",
    )
    assert filtered > kept
    benchmark.pedantic(
        lambda: record_into(MemorySink(kinds={"decide"})),
        rounds=3, iterations=1,
    )
