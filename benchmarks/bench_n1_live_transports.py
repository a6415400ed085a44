"""N1 — the live runtime across transports (repro.net, not the simulator).

Runs the full ◇C + ◇C→◇P + consensus stack on real asyncio event loops for
each in-process transport (loopback, UDP, TCP on localhost), sweeping the
system size: elect a leader, kill it, and measure wall-clock time to a
surviving decision plus the wire traffic it took.  There is no paper row to match here — the
benchmark exists to show the *same unchanged components* meeting the
paper's guarantees outside virtual time, and to catch runtime-layer
regressions (codec bloat, transport stalls).
"""

import asyncio

from _harness import publish_table

from repro.analysis import check_consensus, extract_outcome
from repro.net import LocalCluster, attach_standard_stack

NS = (5, 7, 9)
PERIOD = 0.05


async def _run(transport: str, n: int, seed: int = 7):
    cluster = LocalCluster(n=n, transport=transport, seed=seed)
    stacks = attach_standard_stack(cluster, period=PERIOD)
    await cluster.start()
    await cluster.run(8 * PERIOD)  # leader elected and announced
    kill_time = cluster.now
    cluster.kill(0)
    for p in stacks["consensus"]:
        if not p.crashed:
            p.propose(f"v{p.pid}")
    decided = await cluster.run_until(
        lambda: all(p.decided for p in stacks["consensus"] if not p.crashed),
        timeout=30.0,
    )
    decide_latency = cluster.now - kill_time
    await cluster.stop()
    outcome = extract_outcome(cluster.trace, "ec")
    ok = decided and all(
        check_consensus(outcome, cluster.correct_pids).values())
    frames = sum(h.transport.frames_sent for h in cluster.hosts)
    payload = sum(h.transport.bytes_sent for h in cluster.hosts)
    return ok, decide_latency, frames, payload


def measure(transport: str, n: int = NS[0]):
    return asyncio.run(_run(transport, n))


def test_n1_live_transports(benchmark):
    rows = []
    for transport in ("loopback", "udp", "tcp"):
        for n in NS:
            ok, latency, frames, payload = measure(transport, n)
            rows.append((
                f"{transport}/n{n}", n, "yes" if ok else "NO",
                f"{latency:.3f}", frames, payload,
            ))
            assert ok, (transport, n)
    publish_table(
        "n1_live_transports",
        f"N1 — live asyncio runtime, kill-the-leader scenario "
        f"(n in {NS}, period={PERIOD}s wall)",
        ["transport/n", "n", "decided+props", "s to decide after kill",
         "frames", "bytes"],
        rows,
        note="Same unchanged Component stacks as the simulator, hosted by "
        "repro.net over real event loops and (for udp/tcp) real localhost "
        "sockets; decisions survive a killed leader on every transport.",
    )

    benchmark.pedantic(lambda: measure("loopback"), rounds=3, iterations=1)
