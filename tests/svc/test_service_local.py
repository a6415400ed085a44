"""Fast in-process service tests: a real loopback rsm cluster with real
TCP frontends, exercising end-to-end ops, both dedup layers, and
redirects on the wire."""

import asyncio

import pytest

from repro.cluster import LocalCluster, verdicts_ok
from repro.errors import ConfigurationError
from repro.svc import KVClient, start_service
from repro.svc.protocol import Reply, Request, encode_frame, read_frame
from tests.net.test_codec import MALFORMED_TAG_BODIES

PERIOD = 0.03


def service_test(body, n=3):
    """Boot an rsm LocalCluster with frontends, run *body*, tear down."""

    async def run():
        cluster = LocalCluster(n, transport="loopback")
        stacks = cluster.deploy_standard_stack(stack="rsm", period=PERIOD)
        await cluster.start()
        fronts = await start_service(cluster, stacks)
        try:
            return await body(cluster, stacks, fronts)
        finally:
            for front in fronts:
                await front.close()
            await cluster.stop()

    return asyncio.run(run())


async def wait_for_leader(cluster, stacks, timeout=5.0):
    """One stable leader every detector agrees on; returns its pid."""
    fds = stacks["fd"]

    def settled():
        views = {fd.trusted() for fd in fds}
        return len(views) == 1 and None not in views

    assert await cluster.run_until(settled, timeout=timeout)
    return fds[0].trusted()


# ------------------------------------------------------------------ end to end
def test_client_ops_end_to_end_and_replicas_converge():
    async def body(cluster, stacks, fronts):
        addrs = [front.local_address for front in fronts]
        async with KVClient(addrs, client_id="t", request_timeout=5.0) as c:
            assert (await c.put("k", 1)) == {"ok": True, "value": 1}
            assert (await c.get("k"))["value"] == 1
            assert (await c.cas("k", expect=1, value=2))["ok"]
            assert (await c.acquire("L"))["ok"]
            held = await c.request("acquire", key="L")  # same session: ok
            assert held["ok"]

        def converged():
            stores = [front.state.store for front in fronts]
            locks = [front.state.locks for front in fronts]
            return (
                all(s == {"k": 2} for s in stores)
                and all(l == {"L": "t"} for l in locks)
            )

        assert await cluster.run_until(converged, timeout=5.0)
        verdicts = cluster.verdicts()
        assert verdicts_ok(verdicts), verdicts

    service_test(body)


# ---------------------------------------------------------------- exactly-once
def test_same_command_through_two_replicas_applies_once():
    # A client retrying at a new leader resubmits the same (client, seq)
    # command under a fresh RSM cid: both copies reach the log, exactly
    # one executes.
    command = {"op": "put", "client": "retry", "seq": 0, "key": "k",
               "value": 1}

    async def body(cluster, stacks, fronts):
        stacks["rsm"][0].submit(dict(command))
        stacks["rsm"][1].submit(dict(command))

        def both_copies_applied():
            return all(len(rsm.log) >= 2 for rsm in stacks["rsm"])

        assert await cluster.run_until(both_copies_applied, timeout=5.0)
        for front in fronts:
            assert front.state.applied == 1
            assert front.state.store == {"k": 1}
        # Each replica saw the second copy as a duplicate apply.
        for pid in cluster.pids:
            metrics = cluster.host(pid).metrics
            assert metrics.value("svc_duplicates_total") == 1

    service_test(body)


def test_wire_level_retry_is_answered_from_the_session_cache():
    async def body(cluster, stacks, fronts):
        leader = await wait_for_leader(cluster, stacks)
        codec = fronts[leader].codec
        reader, writer = await asyncio.open_connection(
            *fronts[leader].local_address
        )

        async def roundtrip(rid):
            request = Request(rid=rid, client="w", op="put", seq=0,
                              key="k", value="v")
            writer.write(encode_frame(codec, request.to_payload()))
            await writer.drain()
            return Reply.from_payload(await read_frame(reader, codec))

        first = await roundtrip(rid=1)
        assert first.status == "ok" and first.result == {
            "ok": True, "value": "v"}
        # The retry (fresh rid, same client+seq) must not touch the log:
        # the leader answers from the replicated session table.
        slots_before = len(stacks["rsm"][leader].log)
        again = await roundtrip(rid=2)
        assert again.result == first.result
        assert len(stacks["rsm"][leader].log) == slots_before
        assert cluster.host(leader).metrics.value(
            "svc_duplicates_total") == 1
        writer.close()

    service_test(body)


def test_malformed_tag_bodies_drop_that_connection_only():
    # Well-formed JSON whose tagged body the transform cannot read:
    # each must take the ProtocolError drop-connection path, not escape the
    # connection task as a bare ValueError/TypeError.
    async def body(cluster, stacks, fronts):
        leader = await wait_for_leader(cluster, stacks)
        front = fronts[leader]
        escaped = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: escaped.append(context)
        )
        good = KVClient([front.local_address], client_id="good")
        assert (await good.put("k", 0))["ok"]
        for index, wire in enumerate(MALFORMED_TAG_BODIES, start=1):
            reader, writer = await asyncio.open_connection(*front.local_address)
            raw = front.codec._dumps(wire)
            writer.write(len(raw).to_bytes(4, "big") + raw)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            assert (await good.put("k", index))["value"] == index
        await good.close()
        assert await cluster.run_until(
            lambda: front.connections == 0, timeout=5.0
        )
        assert escaped == []

    service_test(body)


# ------------------------------------------------------------------- redirects
def test_follower_redirects_to_the_leader_address():
    async def body(cluster, stacks, fronts):
        leader = await wait_for_leader(cluster, stacks)
        follower = next(pid for pid in cluster.pids if pid != leader)
        codec = fronts[follower].codec
        reader, writer = await asyncio.open_connection(
            *fronts[follower].local_address
        )
        request = Request(rid=1, client="r", op="put", seq=0, key="k",
                          value=1)
        writer.write(encode_frame(codec, request.to_payload()))
        await writer.drain()
        reply = Reply.from_payload(await read_frame(reader, codec))
        writer.close()
        assert reply.status == "redirect"
        assert reply.leader == leader
        assert tuple(reply.addr) == fronts[leader].local_address
        assert cluster.host(follower).metrics.value(
            "svc_redirects_total") == 1

    service_test(body)


# ----------------------------------------------------------------- guard rails
def test_start_service_requires_the_rsm_stack():
    async def run():
        cluster = LocalCluster(3, transport="loopback")
        stacks = cluster.deploy_standard_stack(stack="ring", period=PERIOD)
        await cluster.start()
        try:
            with pytest.raises(ConfigurationError):
                await start_service(cluster, stacks)
        finally:
            await cluster.stop()

    asyncio.run(run())
