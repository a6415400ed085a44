"""KVClient units against a scriptable fake frontend.

The fake speaks the real wire protocol over real loopback sockets but
answers from a handler function, so redirect/retry/stale-reply behaviour
is tested without booting a cluster.
"""

import asyncio
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.codec import default_codec
from repro.svc.client import KVClient, ServiceUnavailable
from repro.svc.protocol import Reply, Request, encode_frame, read_frame

CODEC = default_codec()


class FakeFrontend:
    """One scripted server: ``handler(request)`` returns a Reply, a list
    of Replies (all written back), or None (swallow — simulate a hang)."""

    def __init__(self, handler):
        self.handler = handler
        self.requests = []
        self.payloads = []
        self.server = None
        self.addr = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._accept, host="127.0.0.1", port=0)
        self.addr = self.server.sockets[0].getsockname()[:2]
        return self

    async def _accept(self, reader, writer):
        while True:
            payload = await read_frame(reader, CODEC)
            if payload is None:
                break
            self.payloads.append(payload)
            request = Request.from_payload(payload)
            self.requests.append(request)
            replies = self.handler(request)
            if replies is None:
                continue
            if isinstance(replies, Reply):
                replies = [replies]
            for reply in replies:
                writer.write(encode_frame(CODEC, reply.to_payload()))
            await writer.drain()
        writer.close()

    async def close(self):
        self.server.close()
        await self.server.wait_closed()


def ok(request, **result):
    return Reply(rid=request.rid, status="ok",
                 result={"ok": True, **result})


def make_client(addrs, **kwargs):
    kwargs.setdefault("request_timeout", 0.5)
    kwargs.setdefault("backoff_initial", 0.01)
    kwargs.setdefault("seed", 0)
    return KVClient(addrs, client_id="t", **kwargs)


def first_target(n, seed=0):
    """Which of *n* addresses a seed-0 client dials first (same draw)."""
    return random.Random(seed).randrange(n)


# ------------------------------------------------------------------ redirects
def test_client_follows_redirect_to_the_leader():
    async def run():
        leader = await FakeFrontend(lambda r: ok(r, value=42)).start()
        follower = await FakeFrontend(
            lambda r: Reply(rid=r.rid, status="redirect", leader=0,
                            addr=leader.addr)
        ).start()
        client = make_client([follower.addr])
        result = await client.get("k")
        await client.close()
        await leader.close()
        await follower.close()
        return result, client, follower.requests, leader.requests

    result, client, follower_saw, leader_saw = asyncio.run(run())
    assert result == {"ok": True, "value": 42}
    assert client.redirects == 1
    # The redirected resend carries the same session sequence number.
    assert [r.seq for r in follower_saw] == [r.seq for r in leader_saw]


def test_leaderless_redirect_rotates_to_the_next_address():
    async def run():
        lost = await FakeFrontend(
            lambda r: Reply(rid=r.rid, status="redirect", leader=None)
        ).start()
        settled = await FakeFrontend(lambda r: ok(r, value="v")).start()
        # Order the address list so the client's first draw hits `lost`.
        addrs = [None, None]
        start = first_target(2)
        addrs[start] = lost.addr
        addrs[1 - start] = settled.addr
        client = make_client(addrs)
        result = await client.put("k", "v")
        await client.close()
        await lost.close()
        await settled.close()
        return result, client

    result, client = asyncio.run(run())
    assert result == {"ok": True, "value": "v"}
    assert client.redirects == 1


def test_leaderless_redirects_poll_fixed_without_burning_attempts():
    # Pre-election convergence answers `redirect` with no leader for a
    # while.  The client must poll on the fixed redirect_poll cadence —
    # not the exponential failure backoff (the udp/n3 p95 anomaly was
    # elections inheriting 0.05→0.1→0.2→0.4→0.8 s of backoff) — and the
    # polls must not consume the retry attempt budget.
    leaderless = 8  # > max_attempts below

    def handler(request, state={"calls": 0}):
        state["calls"] += 1
        if state["calls"] <= leaderless:
            return Reply(rid=request.rid, status="redirect", leader=None)
        return ok(request, value="v")

    async def run():
        server = await FakeFrontend(handler).start()
        client = make_client(
            [server.addr], max_attempts=3, redirect_poll=0.01,
            request_timeout=5.0,
        )
        import time
        started = time.monotonic()
        result = await client.put("k", "v")
        elapsed = time.monotonic() - started
        await client.close()
        await server.close()
        return result, client, elapsed

    result, client, elapsed = asyncio.run(run())
    assert result == {"ok": True, "value": "v"}
    assert client.redirects == leaderless
    # 8 polls at 10 ms each; the old shared backoff would have slept
    # 0.01+0.02+0.04+... plus burned max_attempts=3 long before success.
    assert elapsed < 1.0


def test_leaderless_polling_is_bounded_by_request_timeout():
    async def run():
        server = await FakeFrontend(
            lambda r: Reply(rid=r.rid, status="redirect", leader=None)
        ).start()
        client = make_client(
            [server.addr], request_timeout=0.15, redirect_poll=0.01,
        )
        with pytest.raises(ServiceUnavailable):
            await client.put("k", 1)
        await client.close()
        await server.close()

    asyncio.run(run())


# -------------------------------------------------------------------- retries
def test_timeout_retries_under_the_same_seq():
    def handler(request, state={"calls": 0}):
        state["calls"] += 1
        if state["calls"] == 1:
            return None  # swallow the first attempt: client must time out
        return ok(request)

    async def run():
        server = await FakeFrontend(handler).start()
        client = make_client([server.addr], request_timeout=0.2)
        result = await client.put("k", 1)
        await client.close()
        await server.close()
        return result, client, server.requests

    result, client, saw = asyncio.run(run())
    assert result["ok"]
    assert client.retries == 1
    assert len(saw) == 2
    # Exactly-once: fresh rid per attempt, one seq for the whole command.
    assert saw[0].rid != saw[1].rid
    assert saw[0].seq == saw[1].seq


def test_apply_timeout_reply_is_retried_same_seq():
    def handler(request, state={"calls": 0}):
        state["calls"] += 1
        if state["calls"] == 1:
            return Reply(rid=request.rid, status="error",
                         error="apply-timeout")
        return ok(request)

    async def run():
        server = await FakeFrontend(handler).start()
        client = make_client([server.addr])
        result = await client.put("k", 1)
        await client.close()
        await server.close()
        return result, server.requests

    result, saw = asyncio.run(run())
    assert result["ok"]
    assert [r.seq for r in saw] == [saw[0].seq, saw[0].seq]


def test_stale_replies_are_discarded_by_rid():
    def handler(request):
        stale = Reply(rid=request.rid - 1, status="ok",
                      result={"ok": True, "value": "stale"})
        return [stale, ok(request, value="fresh")]

    async def run():
        server = await FakeFrontend(handler).start()
        client = make_client([server.addr])
        result = await client.get("k")
        await client.close()
        await server.close()
        return result

    assert asyncio.run(run()) == {"ok": True, "value": "fresh"}


# ------------------------------------------------------------ wire format
def test_no_codec_offer_when_default_is_already_preferred():
    # JSON is the one wire format, so the default is always the preferred
    # one: no request ever offers a codec, first on a connection or later.
    async def run():
        server = await FakeFrontend(lambda r: ok(r)).start()
        client = make_client([server.addr])
        await client.get("k")
        await client.put("k", 1)
        await client.close()
        await server.close()
        return server.payloads

    payloads = asyncio.run(run())
    assert len(payloads) == 2
    assert all("codecs" not in payload for payload in payloads)


# ----------------------------------------------------------- replica order
def test_unseeded_replica_order_does_not_follow_the_hash_seed():
    # Without a seed the first replica a client dials is drawn from its id;
    # that draw must be the same in every interpreter, whatever
    # PYTHONHASHSEED says, or a run's client traffic is not reproducible.
    script = (
        "from repro.svc.client import KVClient\n"
        "addrs = [('127.0.0.1', 9000 + i) for i in range(5)]\n"
        "print([KVClient(addrs, client_id=f'c{i}')._target"
        " for i in range(10)])\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"

    def first_targets(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout

    assert first_targets("1") == first_targets("2")


# --------------------------------------------------------------------- errors
def test_definitive_errors_are_not_retried():
    async def run():
        server = await FakeFrontend(
            lambda r: Reply(rid=r.rid, status="error", error="missing-seq")
        ).start()
        client = make_client([server.addr])
        result = await client.get("k")
        await client.close()
        await server.close()
        return result, server.requests

    result, saw = asyncio.run(run())
    assert result == {"ok": False, "error": "missing-seq"}
    assert len(saw) == 1


def test_exhausted_attempts_raise_service_unavailable():
    async def run():
        server = await FakeFrontend(lambda r: None).start()
        client = make_client([server.addr], request_timeout=0.1,
                             max_attempts=2)
        with pytest.raises(ServiceUnavailable):
            await client.put("k", 1)
        await client.close()
        await server.close()
        return server.requests

    saw = asyncio.run(run())
    assert len(saw) == 2
    assert saw[0].seq == saw[1].seq


def test_client_needs_at_least_one_address():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        KVClient([], client_id="t")
