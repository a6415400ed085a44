#!/usr/bin/env python3
"""The replicated KV service, live: real TCP clients, a killed leader.

The simulator twin of this example (``replicated_kv_store.py``) drives a
replicated log inside virtual time.  This one runs the whole service
path for real: three replicas on asyncio event loops, a TCP frontend on
each, and ordinary :class:`repro.svc.KVClient` sessions doing
exactly-once writes over the wire — then the elected leader is killed
mid-session and the client's next command lands on its successor via a
redirect, without the client doing anything special.

Run:  python examples/kv_service.py
"""

import asyncio

from repro.cluster import LocalCluster, verdicts_ok
from repro.svc import KVClient, start_service

N = 3
PERIOD = 0.05


async def main() -> None:
    cluster = LocalCluster(N, transport="loopback")
    stacks = cluster.deploy_standard_stack(stack="rsm", period=PERIOD)
    await cluster.start()
    frontends = await start_service(cluster, stacks)
    addrs = [front.local_address for front in frontends]
    print(f"serving on {addrs}")

    async with KVClient(addrs, client_id="alice") as alice:
        print("alice:", await alice.put("lang", "python"))
        print("alice:", await alice.acquire("release-lock"))

        # Kill whichever node leads right now; ◇C re-elects a survivor
        # and the very same client session keeps going.
        leader = stacks["fd"][0].trusted()
        cluster.kill(leader)
        print(f"killed the leader p{leader}")
        print("alice:", await alice.put("paper", "JPDC-65"))
        print("alice:", await alice.cas("lang", expect="python", value="ml"))
        print(f"alice followed {alice.redirects} redirect(s), "
              f"retried {alice.retries} time(s)")

    # Every surviving replica applied the same log: identical stores,
    # identical lock tables, identical session (dedup) tables.
    survivors = [frontends[pid] for pid in cluster.correct_pids]
    ok = await cluster.run_until(
        lambda: len({str(front.state.dump()) for front in survivors}) == 1,
        timeout=10.0,
    )
    assert ok, "survivors never converged"
    store = survivors[0].state.store
    print(f"converged store: {store}")
    assert store == {"lang": "ml", "paper": "JPDC-65"}
    assert survivors[0].state.locks == {"release-lock": "alice"}

    # The detector verdicts are eventual: the run can finish before every
    # survivor has timed out on the dead leader, so give them time to hold.
    await cluster.run_until(lambda: verdicts_ok(cluster.verdicts()), timeout=5.0)
    verdicts = cluster.verdicts()
    for front in frontends:
        await front.close()
    await cluster.stop()
    assert verdicts_ok(verdicts), verdicts
    print("agreement, prefix, and progress verdicts all hold ✔")


if __name__ == "__main__":
    asyncio.run(main())
