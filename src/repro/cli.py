"""Command-line interface: ``python -m repro <command>``.

Commands:

``consensus``
    Run one consensus algorithm under configurable adversity and print the
    outcome, properties, and round timeline.
``cluster``
    The live-runtime demo: host the unchanged ◇C + ◇C→◇P + consensus stack
    on real asyncio transports (loopback/UDP/TCP on localhost), kill the
    elected leader mid-run, reach a decision anyway, and print the same
    trace-derived timelines, property checks, and QoS tables a simulator
    run yields.  With ``--duration``, ``--crash PID:TIME`` or
    ``--scenario FILE`` it runs a fully scripted scenario instead.
``node``
    Run exactly ONE node of a multi-process cluster in this process,
    configured from a static JSON address book (:mod:`repro.proc`).  This
    is the entrypoint :class:`~repro.proc.ProcessCluster` spawns per pid;
    for multi-machine runs, start it once per box by hand.
``proc``
    Manage multi-process clusters.  ``proc run`` spawns one ``repro node``
    subprocess per pid, delivers scheduled ``kill -9`` crashes, waits for
    quiescence, merges the shipped JSONL traces, and prints the property
    verdicts — the paper's crash-stop model enforced by the OS.
``kv``
    The replicated KV service (:mod:`repro.svc`): ``serve`` boots an
    in-process rsm cluster behind TCP frontends; ``get`` / ``put`` /
    ``bench-client`` are clients of a running one.
``load``
    Open/closed-loop load (:mod:`repro.load`) at a running service
    (``--connect``) or at a self-hosted ``--proc N`` cluster that plays a
    fault schedule while it is loaded.
``scenario``
    Declarative fault schedules (:mod:`repro.scenario`): ``gen`` compiles
    a seeded randomized nemesis schedule to canonical JSON (same seed ⇒
    byte-identical document), ``run`` plays one against a deterministic
    virtual-clock cluster, a wall-clock in-process cluster, or a real
    multi-process cluster — same events, same ``ClusterAPI`` verbs — and
    judges the run (verdicts + QoS).  ``cluster``, ``proc run``, and
    ``load`` accept ``--scenario FILE`` to arm the same schedules.
``watch``
    Live telemetry (:mod:`repro.obs.live`): bind a trace collector,
    ingest the streams nodes ship with ``--ship-to``, refresh an online
    QoS status table (leader, suspicions, message cost vs the 2(n-1)
    bound), and exit non-zero if the final QoS report violates the
    bound.  ``--proc N`` self-hosts a process cluster to watch.
``trace``
    Operate on shipped JSONL trace files (:mod:`repro.obs`): merge
    per-node files onto one time base, print stats, validate events
    against the schema registry, print the schema table — and analyze
    per-command causal spans (``repro trace spans``).
``lint``
    The static analyzer (:mod:`repro.lint`): determinism rules for the
    simulator-path packages, asyncio-hazard rules for the live runtime,
    and payload-encodability checks against the wire codec.

Every command that runs a cluster from a script (``cluster``, ``proc
run``, ``scenario run``, ``load --proc``, ``watch --proc``) is an adapter
over :mod:`repro.scenario`: it resolves one ``Scenario`` (explicit flag >
document > rule), and ``cluster_for`` / ``run_scenario`` / ``render_run``
build, drive, judge and print it — see ``docs/scenarios.md``, "How a run
is sized and judged".

The paper's experiments are not CLI commands: ``benchmarks/`` regenerates
each table (index in DESIGN.md §3) and ``examples/`` narrates the runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .analysis import check_consensus, extract_outcome, round_timeline
from .cluster.config import add_config_flags, config_from_args
from .consensus import ALGORITHMS
from .sim import crash_at
from .workloads import consensus_run, wan_link

__all__ = ["main"]


def _cmd_consensus(args: argparse.Namespace) -> int:
    run = consensus_run(
        args.algo,
        n=args.n,
        seed=args.seed,
        stabilize_time=args.stabilize,
        pre_behavior="erratic" if args.stabilize else "ideal",
        crashes=crash_at(*_parse_crash_specs(args.crash)),
        link=wan_link() if args.wan else None,
    ).run(until=args.until)
    print(round_timeline(run.world.trace, args.algo, width=64))
    print()
    outcome = extract_outcome(run.world.trace, args.algo)
    for pid in sorted(outcome.decisions):
        print(f"  p{pid}: decided {outcome.decisions[pid]!r} in round "
              f"{outcome.decision_rounds[pid]} "
              f"at t={outcome.decision_times[pid]:.1f}")
    results = check_consensus(outcome, run.world.correct_pids)
    print("properties:", results)
    return 0 if all(results.values()) and run.decided else 1


def _parse_crash_specs(specs) -> list:
    """Parse repeated ``--crash PID:TIME`` flags into (pid, time) pairs."""
    from .errors import ConfigurationError

    crashes = []
    for spec in specs:
        try:
            pid_text, time_text = spec.split(":", 1)
            crashes.append((int(pid_text), float(time_text)))
        except ValueError:
            raise ConfigurationError(
                f"bad --crash spec {spec!r}; expected PID:TIME, e.g. 0:2.5"
            )
    return crashes


def _parse_degrade_specs(specs) -> list:
    """Parse repeated ``--degrade SRC:DST:LOSS[:DELAY]`` flags into
    ``(src, dst, loss, delay)`` tuples (``delay`` may be ``None``)."""
    from .errors import ConfigurationError
    from .sim.faults import check_fault

    links = []
    for spec in specs:
        parts = spec.split(":")
        try:
            if len(parts) not in (3, 4):
                raise ValueError(f"{len(parts)} fields")
            src, dst = int(parts[0]), int(parts[1])
            loss = float(parts[2])
            delay = float(parts[3]) if len(parts) == 4 else None
            check_fault(
                "degrade",
                {"src": src, "dst": dst, "loss": loss, "delay": delay},
            )
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"bad --degrade spec {spec!r} ({exc}); expected "
                "SRC:DST:LOSS[:DELAY], e.g. 0:1:0.3 or 0:1:0.3:0.02"
            ) from None
        links.append((src, dst, loss, delay))
    return links


def _scripted_scenario(args, name: str, **explicit):
    """The resolved scenario a cluster-running command line asks for:
    the ``--scenario FILE`` document (an empty one called *name* without
    the flag) with every ``--crash PID:TIME`` merged in as a ``crash``
    event, resolved with the command's *explicit* flags on top (see
    :meth:`repro.scenario.Scenario.resolved` for the precedence)."""
    from .scenario import Scenario, ScenarioEvent

    path = getattr(args, "scenario", None)
    document = Scenario.load(path) if path is not None else Scenario(name=name)
    crashes = [
        ScenarioEvent(at, "crash", {"pid": pid})
        for pid, at in _parse_crash_specs(getattr(args, "crash", []))
    ]
    return dataclasses.replace(
        document, events=document.events + crashes
    ).resolved(**explicit)


def _cluster_from_args(args, scenario, runtime, serve=False, **fixed):
    """The cluster *scenario* asks for on *runtime*, running the node
    settings of the command line (*fixed* overrides what the command
    decides itself, e.g. ``stack="rsm"``), with the two start-time verb
    calls made: ``--loss`` is a storm from time zero, each ``--degrade``
    an asymmetric link override."""
    from .scenario import cluster_for

    config = config_from_args(args, period=scenario.period, **fixed)
    cluster = cluster_for(
        scenario, runtime, transport=args.transport,
        trace_out=args.trace_out, serve=serve, **config.to_dict(),
    )
    if getattr(args, "loss", 0.0):
        cluster.storm(args.loss)
    for src, dst, loss, delay in _parse_degrade_specs(
            getattr(args, "degrade", [])):
        cluster.degrade(src, dst, loss=loss, delay=delay)
    return cluster


def _run_scripted(args, scenario, runtime, during=None, **build):
    """Play *scenario* on *runtime* end to end; returns the finished
    cluster and :func:`repro.scenario.run_scenario`'s result."""
    import asyncio

    from .scenario import run_scenario

    cluster = _cluster_from_args(args, scenario, runtime, **build)
    return cluster, asyncio.run(run_scenario(cluster, scenario, during=during))


def _report(result, notes=()) -> int:
    """Print the one report of a run (*notes* are the command's own lines
    under the header) and turn its verdict into the exit code."""
    from .scenario import render_run

    result["notes"] = list(notes)
    print(render_run(result))
    return 0 if result["ok"] else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .scenario import Scenario

    if args.virtual:
        if args.scenario is not None:
            print("error: --scenario with --virtual is spelled "
                  "`repro scenario run --runtime virtual` (the scenario "
                  "document carries the run parameters)", file=sys.stderr)
            return 2
        # The deterministic variant is a literal scenario at sim-scale
        # times (leaders start at p0, so p0 is who gets killed).
        scenario = Scenario(
            name="cluster --virtual", period=5.0, propose_after=61.0,
            duration=4000.0, events=[{"t": 60.0, "op": "crash", "pid": 0}],
        ).resolved(n=args.nodes, default_n=5)
        runtime = "virtual"
    elif args.scenario is not None or args.duration is not None or args.crash:
        scenario = _scripted_scenario(
            args, "cluster", n=args.nodes, period=args.period,
            duration=args.duration, default_n=5,
        )
        runtime = "local"
    elif args.stack == "rsm":
        print("error: --stack rsm needs a scripted run (--duration and/or "
              "--crash) or --virtual; the adaptive kill-the-leader flow "
              "drives one-shot consensus", file=sys.stderr)
        return 2
    else:
        return _cluster_adaptive(args)
    _, result = _run_scripted(args, scenario, runtime)
    return _report(result, _trace_note(args))


def _trace_note(args) -> list:
    """The report line naming where ``--trace-out`` shipped the trace."""
    return [f"trace shipped to {args.trace_out}"] if args.trace_out else []


def _cluster_adaptive(args: argparse.Namespace) -> int:
    """Bare ``repro cluster``: wait for the detectors to elect a leader,
    kill *that* node, have the survivors propose.  It reacts to who was
    elected, which no schedule can name, so it keeps its own loop — and
    reports the schedule it ended up playing like every other run."""
    import asyncio

    from .cluster import verdicts_ok
    from .scenario import Scenario, ScenarioEvent, judge_run

    base = Scenario(name="kill-the-leader").resolved(
        n=args.nodes, period=args.period, default_n=5)
    period = base.period
    # The loop below proposes by hand; the cluster's own scheduled round
    # sits at the far end of the whole wall budget (converge, settle,
    # decide, flush), where a healthy run never gets.
    budget = 2 * args.timeout + 8 * period
    cluster = _cluster_from_args(
        args, base.resolved(propose_after=budget, duration=budget), "local")
    detectors = cluster.stacks["fd"]
    protocols = cluster.stacks["consensus"]

    def agreed_leader():
        alive = [d for d in detectors if not d.crashed]
        trusted = {d.trusted() for d in alive}
        if len(trusted) != 1:
            return None
        leader = next(iter(trusted))
        if leader is None or cluster.hosts[leader].crashed:
            return None
        return leader

    async def drive():
        await cluster.start()
        try:
            if not await cluster.run_until(
                    lambda: agreed_leader() is not None,
                    timeout=args.timeout):
                return None
            await cluster.run(4 * period)  # let announcements settle
            leader = agreed_leader()
            if leader is None:  # rare: flapped while settling; take any
                leader = next(d.trusted() for d in detectors if not d.crashed)
            crash_time = cluster.now
            cluster.crash(leader)
            for p in protocols:
                if not p.crashed:
                    p.propose(f"value-from-p{p.pid}")
            await cluster.run_until(
                lambda: all(p.decided for p in protocols if not p.crashed),
                timeout=args.timeout,
            )
            # The detector verdicts are eventual: survivors may decide
            # before every one of them has timed out on the dead leader.
            await cluster.run_until(
                lambda: verdicts_ok(cluster.verdicts()), timeout=args.timeout)
            await cluster.run(2 * period)  # flush trailing frames
            return leader, round(crash_time, 3), round(cluster.now, 3)
        finally:
            await cluster.stop()

    outcome = asyncio.run(drive())
    if outcome is None:
        print("error: detectors never converged on a live leader",
              file=sys.stderr)
        return 1
    leader, crash_time, end = outcome
    played = dataclasses.replace(
        base, events=[ScenarioEvent(crash_time, "crash", {"pid": leader})],
    ).resolved(propose_after=crash_time, duration=end)
    return _report(judge_run(cluster, played), _trace_note(args))


def _cmd_node(args: argparse.Namespace) -> int:
    import asyncio

    from .proc import AddressBook, run_node

    book = AddressBook.load(args.book)
    counters = asyncio.run(
        run_node(
            book, args.pid,
            trace_out=args.trace_out, duration=args.duration,
            stats_addr=args.stats_addr, serve_addr=args.serve_addr,
            ship_to=args.ship_to,
        )
    )
    print(f"node {args.pid}: " +
          " ".join(f"{key}={value}" for key, value in counters.items()))
    return 0


def _cmd_proc_run(args: argparse.Namespace) -> int:
    scenario = _scripted_scenario(
        args, "proc run", n=args.nodes, period=args.period,
        duration=args.duration, propose_after=args.propose_after,
    )
    cluster, result = _run_scripted(args, scenario, "proc")
    notes = [
        f"  node {pid}: exit {status}"
        + ("" if pid in cluster.correct_pids else " (killed)")
        for pid, status in sorted(cluster.exit_statuses.items())
    ]
    notes.append(cluster.merge_report().summary())
    return _report(result, notes + _merge_note(args, cluster))


def _merge_note(args, cluster) -> list:
    """Write ``--merge-out`` when asked; the report line saying so."""
    if not args.merge_out:
        return []
    saved = cluster.save_merged(args.merge_out)
    return [f"merged trace (synthetic crash events included) written to "
            f"{saved}"]


def _scenario_from_args(args: argparse.Namespace):
    """The scenario a ``repro scenario`` subcommand names: ``--file``
    when given, else the seeded generator over the gen flags."""
    from .scenario import Scenario, generate_scenario

    if getattr(args, "file", None) is not None:
        return Scenario.load(args.file)
    return generate_scenario(
        args.nodes, args.seed, period=args.period, duration=args.duration,
        partitions=args.partitions, stalls=args.stalls, storms=args.storms,
        degrades=args.degrades, skews=args.skews, crashes=args.crashes,
        name=args.name,
    )


def _cmd_scenario_gen(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    text = scenario.to_json()
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {scenario.name!r}, {len(scenario)} events, "
              f"n={scenario.n} duration={scenario.duration}")
    else:
        print(text, end="")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """Play one scenario end-to-end and judge the run.

    The scenario document is the run spec: cluster size, heartbeat
    period, duration, and proposal time all come from it (resolved by the
    one rule when a hand-written document omits them).  ``--runtime``
    picks the substrate; the events go through the identical ClusterAPI
    verb calls either way.
    """
    scenario = _scenario_from_args(args).resolved(default_n=args.nodes)
    _, result = _run_scripted(
        args, scenario, args.runtime, seed=args.cluster_seed)
    return _report(result)


def _parse_connect(spec: str) -> list:
    """Parse ``HOST:PORT[,HOST:PORT...]`` into ``(host, port)`` pairs."""
    from .errors import ConfigurationError

    addrs = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            host, port_text = part.rsplit(":", 1)
            addrs.append((host or "127.0.0.1", int(port_text)))
        except ValueError:
            raise ConfigurationError(
                f"bad address {part!r}; expected HOST:PORT"
            )
    if not addrs:
        raise ConfigurationError(
            f"no addresses in --connect spec {spec!r}"
        )
    return addrs


def _parse_kv_value(text: str):
    """CLI values arrive as text; decode JSON when it parses, else keep
    the raw string (so ``repro kv put k 7`` stores the int 7 and
    ``repro kv put k hello`` stores the string)."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_kv_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .net import LocalCluster
    from .svc import start_service

    config = config_from_args(args, stack="rsm")

    async def serve() -> None:
        cluster = LocalCluster(
            n=args.nodes, transport=args.transport, trace_out=args.trace_out,
            seed=config.seed, ship_to=config.ship_to,
        )
        cluster.deploy_standard_stack(**config.to_dict())
        await cluster.start()
        frontends = await start_service(
            cluster, cluster.stacks, listen_host=args.serve_host,
        )
        connect = ",".join(
            f"{f.listen_host}:{f.port}" for f in frontends
        )
        print(f"replicated KV service up: n={cluster.n} "
              f"transport={cluster.transport_kind} period={args.period}")
        for frontend in frontends:
            print(f"  node {frontend.host.pid}: "
                  f"{frontend.listen_host}:{frontend.port}")
        print(f"connect with: repro kv get KEY --connect {connect}")
        try:
            await cluster.run(args.duration)
        finally:
            for frontend in frontends:
                await frontend.close()
            await cluster.stop()

    asyncio.run(serve())
    return 0


def _kv_session_id(args: argparse.Namespace) -> str:
    """The session name for one CLI invocation.

    Must be fresh per invocation by default: every invocation restarts
    its sequence numbers at 0, so a reused name would make the
    replicated session table dedup this run's first command as a retry
    of the previous run's.  ``--client-id`` pins a name deliberately
    (e.g. to demonstrate exactly that dedup).
    """
    import uuid

    if args.client_id is not None:
        return args.client_id
    return f"cli-{uuid.uuid4().hex[:8]}"


def _cmd_kv_op(args: argparse.Namespace) -> int:
    """One-shot ``kv get`` / ``kv put`` against a running service."""
    import asyncio

    from .svc import KVClient, ServiceUnavailable

    addrs = _parse_connect(args.connect)

    async def one() -> dict:
        async with KVClient(
            addrs, client_id=_kv_session_id(args),
            request_timeout=args.timeout,
        ) as client:
            if args.kv_command == "get":
                return await client.get(args.key)
            return await client.put(args.key, _parse_kv_value(args.value))

    try:
        result = asyncio.run(one())
    except (ServiceUnavailable, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result)
    return 0 if result.get("ok") else 1


def _cmd_kv_bench_client(args: argparse.Namespace) -> int:
    """Single-session latency microbench: sequential ops, percentiles."""
    import asyncio
    import time

    from .errors import ConfigurationError
    from .load import percentile
    from .svc import KVClient, ServiceUnavailable

    if args.ops < 1:
        raise ConfigurationError(f"--ops must be >= 1, got {args.ops}")
    addrs = _parse_connect(args.connect)

    async def bench() -> list:
        latencies = []
        async with KVClient(
            addrs, client_id=_kv_session_id(args),
            request_timeout=args.timeout,
        ) as client:
            for i in range(args.ops):
                started = time.monotonic()
                if i % 2:
                    await client.get("bench")
                else:
                    await client.put("bench", i)
                latencies.append(time.monotonic() - started)
        return latencies

    try:
        latencies = asyncio.run(bench())
    except (ServiceUnavailable, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    total = sum(latencies)
    print(f"bench-client: {args.ops} sequential ops in {total:.3f}s "
          f"({args.ops / total:.1f} op/s)")
    for q in (0.5, 0.95, 0.99):
        value = percentile(latencies, q)
        print(f"  p{int(q * 100):<3d} {value * 1e3:9.2f} ms")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from .load import LoadGenerator

    def make_generator(addrs) -> LoadGenerator:
        return LoadGenerator(
            addrs,
            clients=args.clients,
            mode=args.mode,
            duration=args.duration,
            rate=args.rate,
            think=args.think,
            write_fraction=args.write_fraction,
            request_timeout=args.timeout,
            seed=args.seed,
        )

    if args.connect is not None:
        for flag in ("scenario", "crash", "merge_out"):
            if getattr(args, flag):
                print(f"error: --{flag.replace('_', '-')} needs a --proc "
                      "cluster (an already-running service is not ours to "
                      "break or merge)", file=sys.stderr)
                return 2
        report = asyncio.run(make_generator(_parse_connect(args.connect)).run())
        print(report.render())
        return 0 if report.acked > 0 else 1

    # --proc N: self-hosted run — an rsm process cluster with serve ports
    # plays the schedule while the load is offered, judged like `proc run`.
    scenario = _scripted_scenario(
        args, "load", n=args.proc, period=args.period)
    # Nodes must outlive warmup + offered load + the slowest straggler
    # command (bounded by the client request timeout).
    floor = args.warmup + args.duration + args.timeout + 2.0
    if scenario.duration < floor:
        scenario = scenario.resolved(duration=floor)

    async def offer(cluster):
        await asyncio.sleep(args.warmup)
        return await make_generator(
            list(cluster.serve_addresses.values())
        ).run()

    cluster, result = _run_scripted(
        args, scenario, "proc", during=offer, serve=True, stack="rsm")
    report = result["during"]
    result["ok"] = result["ok"] and report.acked > 0
    return _report(result, [report.render()] + _merge_note(args, cluster))


def _render_live_status(collector, period: Optional[float]) -> str:
    """One refresh of the ``repro watch`` status table."""
    snap = collector.qos.snapshot()
    n = snap["n"]
    crashes = snap["crashes"]
    lines = [
        f"t={snap['end_time']:8.2f}s  events={snap['events']:<7d} "
        f"streams={collector.open_streams} open "
        f"/ {collector.streams_seen} seen "
        f"/ {collector.torn_streams} torn   "
        f"mistakes={snap['open_mistakes']} open "
        f"/ {snap['closed_mistakes']} closed   "
        f"span-replies={snap['span_replies']}",
    ]
    if n:
        lines.append(f"  {'pid':4s} {'state':>10s} {'trusts':>7s}  suspects")
        for pid in range(n):
            state = f"crash@{crashes[pid]:.1f}" if pid in crashes else "up"
            trusted = snap["trusted"].get(pid)
            trusts = "-" if trusted is None else f"p{trusted}"
            suspects = ",".join(
                f"p{q}" for q in snap["suspected"].get(pid, ())
            ) or "-"
            lines.append(f"  p{pid:<3d} {state:>10s} {trusts:>7s}  {suspects}")
    sends = snap["sends"]
    if sends:
        lines.append(
            "  sends: " + "  ".join(f"{ch}={c}" for ch, c in sends.items())
        )
        # Whole-run msgs/period ticker vs the paper's 2(n-1) bound; the
        # shutdown report recomputes this properly (post-settlement window).
        fdp = sends.get("fdp")
        if fdp and period and n > 1 and snap["end_time"] > period:
            rate = fdp / (snap["end_time"] / period)
            lines.append(
                f"  fdp msgs/period (whole run): {rate:.1f}  "
                f"bound 2(n-1) = {2 * (n - 1)}"
            )
    return "\n".join(lines)


def _cmd_watch(args: argparse.Namespace) -> int:
    """Live collector + refreshing status table; QoS verdict at shutdown."""
    import asyncio

    from .obs.live import LiveCollector, parse_ship_address
    from .scenario import Scenario, run_scenario

    if args.connect is not None:
        host, port = parse_ship_address(args.connect)
        collector = LiveCollector(host=host, port=port)
    else:
        collector = LiveCollector()
    duration = args.duration
    if duration is None and args.proc is not None:
        duration = 10.0

    async def refresh_loop(cluster=None) -> None:
        clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
        loop = asyncio.get_running_loop()
        deadline = None if duration is None else loop.time() + duration
        while deadline is None or loop.time() < deadline:
            await asyncio.sleep(args.interval)
            print(f"{clear}{_render_live_status(collector, args.period)}",
                  flush=True)

    async def drive() -> None:
        await collector.bind()
        print(f"collector listening on {collector.address} "
              f"(point --ship-to here)")
        try:
            if args.proc is None:
                await refresh_loop()
                return
            scenario = Scenario(name="watch").resolved(
                n=args.proc, period=args.period, duration=duration)
            cluster = _cluster_from_args(
                args, scenario, "proc", ship_to=collector.address)
            await run_scenario(cluster, scenario, during=refresh_loop)
        finally:
            await collector.close()

    try:
        asyncio.run(drive())
    except KeyboardInterrupt:
        print()  # ^C ends the watch, not the verdict
    report = collector.qos.report(period=args.period)
    print()
    print(report.format())
    print(f"\nstreams: {collector.streams_seen} seen, "
          f"{collector.torn_streams} torn, "
          f"{collector.events_ingested} events ingested")
    if report.bound_ok is False:
        print("result: FAILED (message cost exceeds the 2(n-1) bound)",
              file=sys.stderr)
        return 1
    return 0


def _shared_cluster_options() -> argparse.ArgumentParser:
    """Parent parser for the options every cluster-running subcommand
    shares.

    ``repro cluster`` (in-process) and ``repro proc run`` (one OS process
    per node) must accept identical spellings for the same concepts —
    a CLI test asserts help-text parity, so divergence is a test failure,
    not a review nit.
    """
    shared = argparse.ArgumentParser(add_help=False)
    group = shared.add_argument_group("shared cluster options")
    group.add_argument(
        "--transport", choices=["loopback", "udp", "tcp"], default="udp",
        help="wire transport (process clusters need udp or tcp; loopback "
             "cannot cross process boundaries)")
    add_config_flags(group, "stack")
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="ship traces as they happen: a directory writes one "
             "node-<pid>.jsonl per node (for `repro cluster` a single "
             "*.jsonl path writes one combined file instead)")
    group.add_argument(
        "--duration", type=float, metavar="SECONDS", default=None,
        help="run length in cluster seconds (default: the --scenario "
             "document's, else 40 periods after the proposal round, "
             "which is 4 periods after the last scheduled fault; `repro "
             "cluster` with none of --duration/--crash/--scenario runs "
             "its adaptive kill-the-leader flow)")
    group.add_argument(
        "--crash", action="append", default=[], metavar="PID:TIME",
        help="schedule a crash-stop kill of PID at cluster time TIME; "
             "repeatable (a real kill -9 for process clusters)")
    group.add_argument(
        "--loss", type=float, default=0.0, metavar="PROB",
        help="uniform message-loss probability on every link for the "
             "whole run (a storm from time zero, via the cluster's "
             "fault surface)")
    group.add_argument(
        "--degrade", action="append", default=[],
        metavar="SRC:DST:LOSS[:DELAY]",
        help="make the directed link SRC->DST lossy (probability LOSS) "
             "and/or slow (DELAY seconds each way); repeatable, "
             "asymmetric — the reverse link is untouched")
    group.add_argument(
        "--scenario", metavar="FILE.json", default=None,
        help="arm a declarative fault schedule (see `repro scenario "
             "gen`); its n/period/duration/propose_after become the "
             "run's defaults")
    add_config_flags(
        group, "metrics_interval", "ship_to", "max_batch", "pipeline_depth",
        "seed", "period",
    )
    # No --period default: an explicit flag must be told apart from the
    # --scenario document's period (see Scenario.resolved).
    shared.set_defaults(seed=7, period=None)
    return shared


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from .proc.book import PROC_TRANSPORTS
    from .scenario import RUNTIMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Eventually consistent failure detectors — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cons = sub.add_parser("consensus", help="run one consensus algorithm")
    cons.add_argument("algo", choices=sorted(ALGORITHMS))
    cons.add_argument("-n", type=int, default=5)
    cons.add_argument("--seed", type=int, default=0)
    cons.add_argument("--stabilize", type=float, default=0.0,
                      help="detector stabilization time (0 = ideal)")
    cons.add_argument("--crash", action="append", default=[],
                      metavar="PID:TIME", help="schedule a crash")
    cons.add_argument("--wan", action="store_true", help="WAN delays")
    cons.add_argument("--until", type=float, default=4000.0)
    cons.set_defaults(func=_cmd_consensus)

    shared = _shared_cluster_options()

    clu = sub.add_parser(
        "cluster",
        parents=[shared],
        help="live asyncio runtime: the same stack over real transports",
    )
    clu.add_argument("--nodes", "-n", type=int, default=None,
                     help="cluster size (default 5, or the --scenario "
                          "document's n)")
    clu.add_argument("--timeout", type=float, default=30.0,
                     help="wall-clock budget for convergence and decision")
    clu.add_argument("--virtual", action="store_true",
                     help="deterministic virtual-clock run (loopback only)")
    clu.set_defaults(func=_cmd_cluster)

    node = sub.add_parser(
        "node",
        help="run ONE node of a multi-process cluster from an address book",
    )
    node.add_argument("--book", required=True, metavar="BOOK.json",
                      help="static address book (see docs/runtime.md)")
    node.add_argument("--pid", type=int, required=True,
                      help="which pid of the book this process is")
    node.add_argument("--trace-out", metavar="PATH", default=None,
                      help="this node's JSONL trace file "
                           "(e.g. node-<pid>.jsonl)")
    node.add_argument("--duration", type=float, metavar="SECONDS",
                      default=None,
                      help="override the book's run duration")
    node.add_argument("--stats-addr", metavar="HOST:PORT", default=None,
                      help="serve this node's metrics registry over UDP in "
                           "Prometheus text format (HOST:PORT, :PORT or "
                           "PORT; poke it with any datagram)")
    node.add_argument("--serve-addr", metavar="HOST:PORT", default=None,
                      help="bind the KV service frontend for real clients "
                           "at this TCP address (requires the book's stack "
                           "to be 'rsm'; overrides the book's serve_port)")
    add_config_flags(node, "ship_to")  # overrides the book's ship_to
    node.set_defaults(func=_cmd_node)

    proc = sub.add_parser(
        "proc",
        help="multi-process clusters: spawn nodes, kill -9, judge postmortem",
    )
    proc_sub = proc.add_subparsers(dest="proc_command", required=True)
    prun = proc_sub.add_parser(
        "run",
        parents=[shared],
        help="spawn a cluster of repro-node subprocesses, crash on "
             "schedule, merge traces, check properties",
    )
    prun.add_argument("--nodes", "-n", type=int, default=None,
                      help="cluster size (default 3, or the --scenario "
                           "document's n)")
    prun.add_argument("--propose-after", type=float, metavar="SECONDS",
                      default=None,
                      help="cluster time at which every surviving node "
                           "proposes its value (default: the --scenario "
                           "document's, else 4 periods after the last "
                           "scheduled fault, --crash included)")
    prun.add_argument("--merge-out", metavar="OUT.jsonl", default=None,
                      help="also write the merged stream (synthetic crash "
                           "events included) as one combined JSONL file — "
                           "the input `repro trace qos` wants")
    prun.set_defaults(func=_cmd_proc_run)

    kv = sub.add_parser(
        "kv",
        help="replicated KV service: serve a cluster, run client ops",
    )
    kv_sub = kv.add_subparsers(dest="kv_command", required=True)
    kserve = kv_sub.add_parser(
        "serve",
        help="boot an in-process rsm cluster and serve real TCP clients",
    )
    kserve.add_argument("--nodes", "-n", type=int, default=3)
    kserve.add_argument("--transport", choices=["loopback", "udp", "tcp"],
                        default="loopback",
                        help="node-to-node transport (clients always "
                             "connect over TCP)")
    kserve.add_argument("--serve-host", default="127.0.0.1",
                        help="interface the client-facing frontends bind")
    kserve.add_argument("--duration", type=float, metavar="SECONDS",
                        default=60.0, help="how long to serve")
    kserve.add_argument("--trace-out", metavar="PATH", default=None,
                        help="ship the cluster trace (JSONL file or "
                             "directory)")
    add_config_flags(
        kserve, "period", "seed", "ship_to", "max_batch",
        "pipeline_depth",
    )
    kserve.set_defaults(func=_cmd_kv_serve, seed=7)

    def _kv_client_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--connect", required=True,
                       metavar="HOST:PORT[,HOST:PORT...]",
                       help="serve addresses of any subset of replicas")
        p.add_argument("--client-id", default=None,
                       help="pin the session name (the dedup table key); "
                            "default is a fresh name per invocation — a "
                            "reused name with restarting sequence numbers "
                            "would be deduplicated as a retry")
        p.add_argument("--timeout", type=float, default=5.0,
                       help="per-attempt request timeout in seconds")

    kget = kv_sub.add_parser("get", help="read one key (through the log)")
    kget.add_argument("key")
    _kv_client_options(kget)
    kget.set_defaults(func=_cmd_kv_op)

    kput = kv_sub.add_parser("put", help="write one key (exactly-once)")
    kput.add_argument("key")
    kput.add_argument("value",
                      help="JSON when it parses, raw string otherwise")
    _kv_client_options(kput)
    kput.set_defaults(func=_cmd_kv_op)

    kbench = kv_sub.add_parser(
        "bench-client",
        help="single-session sequential latency microbench",
    )
    _kv_client_options(kbench)
    kbench.add_argument("--ops", type=int, default=100,
                        help="how many sequential commands to run")
    kbench.set_defaults(func=_cmd_kv_bench_client)

    load = sub.add_parser(
        "load",
        help="drive open/closed-loop load at a replicated KV service",
    )
    load_target = load.add_mutually_exclusive_group(required=True)
    load_target.add_argument(
        "--connect", metavar="HOST:PORT[,HOST:PORT...]", default=None,
        help="serve addresses of an already-running service")
    load_target.add_argument(
        "--proc", type=int, metavar="N", default=None,
        help="self-hosted: spawn an N-node rsm process cluster with serve "
             "ports, load it, judge the merged trace")
    load.add_argument("--mode", choices=["closed", "open"], default="closed")
    load.add_argument("--clients", type=int, default=10,
                      help="concurrent client sessions (closed) or pool "
                           "size (open)")
    load.add_argument("--rate", type=float, default=None,
                      help="open-loop target command rate per second")
    load.add_argument("--duration", type=float, default=5.0,
                      help="how long to offer load, in wall seconds")
    load.add_argument("--think", type=float, default=0.0,
                      help="closed-loop think time between commands")
    load.add_argument("--write-fraction", type=float, default=0.8,
                      help="fraction of commands that are puts")
    load.add_argument("--timeout", type=float, default=10.0,
                      help="per-attempt client request timeout in seconds")
    load.add_argument("--transport", choices=PROC_TRANSPORTS, default="udp",
                      help="node-to-node transport for --proc clusters")
    load.add_argument("--warmup", type=float, default=1.0,
                      help="seconds to let --proc detectors converge "
                           "before offering load")
    load.add_argument("--crash", action="append", default=[],
                      metavar="PID:TIME",
                      help="schedule a kill -9 in a --proc cluster; "
                           "repeatable")
    load.add_argument("--scenario", metavar="FILE.json", default=None,
                      help="arm a declarative fault schedule on a --proc "
                           "cluster (times are offsets from cluster "
                           "start, so faults overlap the load window)")
    load.add_argument("--trace-out", metavar="DIR", default=None,
                      help="workdir for --proc traces and logs")
    load.add_argument("--merge-out", metavar="OUT.jsonl", default=None,
                      help="write the --proc merged trace as one combined "
                           "JSONL file")
    # --seed drives the load generator and the --proc cluster alike.
    add_config_flags(load, "seed", "period", "max_batch", "pipeline_depth")
    load.set_defaults(func=_cmd_load)

    watch = sub.add_parser(
        "watch",
        help="live telemetry: collect streamed traces, refresh a status "
             "table, judge QoS at shutdown",
    )
    watch_target = watch.add_mutually_exclusive_group(required=True)
    watch_target.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="bind the collector at this address and watch whatever "
             "nodes ship to it (start them with --ship-to HOST:PORT)")
    watch_target.add_argument(
        "--proc", type=int, metavar="N", default=None,
        help="self-hosted: spawn an N-node process cluster shipping to "
             "an in-process collector, watch it end to end")
    watch.add_argument("--duration", type=float, metavar="SECONDS",
                       default=None,
                       help="stop watching after this long (default: "
                            "--proc runs 10s, --connect watches until "
                            "Ctrl-C)")
    watch.add_argument("--interval", type=float, metavar="SECONDS",
                       default=1.0,
                       help="status-table refresh interval")
    watch.add_argument("--transport", choices=PROC_TRANSPORTS, default="udp",
                       help="node-to-node transport for --proc clusters")
    # --period also scales the QoS message-cost window of the report.
    add_config_flags(watch, "period", "stack", "seed")
    watch.add_argument("--trace-out", metavar="DIR", default=None,
                       help="workdir for --proc traces and logs")
    watch.set_defaults(func=_cmd_watch, seed=7)

    gen_opts = argparse.ArgumentParser(add_help=False)
    gen_group = gen_opts.add_argument_group(
        "generator options (ignored when --file names a document)")
    gen_group.add_argument("--nodes", "-n", type=int, default=3,
                           help="cluster size the schedule targets")
    gen_group.add_argument("--seed", type=int, default=7,
                           help="generator seed: same seed, same counts "
                                "=> byte-identical schedule")
    gen_group.add_argument("--period", type=float, default=0.05,
                           help="heartbeat period the fault windows are "
                                "scaled by, in cluster seconds")
    gen_group.add_argument("--duration", type=float, metavar="SECONDS",
                           default=None,
                           help="override the generated run length "
                                "(must not cut the schedule short)")
    gen_group.add_argument("--partitions", type=int, default=2,
                           help="partition-then-heal windows")
    gen_group.add_argument("--stalls", type=int, default=1,
                           help="stall-then-resume windows (SIGSTOP on "
                                "process clusters)")
    gen_group.add_argument("--storms", type=int, default=1,
                           help="loss-storm-then-calm windows")
    gen_group.add_argument("--degrades", type=int, default=1,
                           help="asymmetric flaky-link windows")
    gen_group.add_argument("--skews", type=int, default=0,
                           help="one-shot clock-skew steps")
    gen_group.add_argument("--crashes", type=int, default=0,
                           help="kill -9 victims (scheduled last; at "
                                "most a minority)")
    gen_group.add_argument("--name", default=None,
                           help="scenario name (default "
                                "nemesis-n<N>-seed<SEED>)")

    scen = sub.add_parser(
        "scenario",
        help="declarative fault schedules: generate one, run one, judge it",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    sgen = scen_sub.add_parser(
        "gen",
        parents=[gen_opts],
        help="compile a seeded randomized nemesis schedule to canonical "
             "JSON (stdout, or --out FILE)",
    )
    sgen.add_argument("--out", metavar="FILE.json", default=None,
                      help="write the document here instead of stdout")
    sgen.set_defaults(func=_cmd_scenario_gen, file=None)
    srun = scen_sub.add_parser(
        "run",
        parents=[gen_opts],
        help="play a scenario on a cluster and judge the run "
             "(verdicts + QoS)",
    )
    srun.add_argument("--file", metavar="FILE.json", default=None,
                      help="run this scenario document instead of "
                           "generating one")
    srun.add_argument("--runtime", choices=RUNTIMES,
                      default="virtual",
                      help="substrate: deterministic virtual clock "
                           "in-process, wall clock in-process, or one OS "
                           "process per node — identical ClusterAPI "
                           "verbs either way")
    srun.add_argument("--transport", choices=["loopback", "udp", "tcp"],
                      default=None,
                      help="wire transport (default: loopback in-process, "
                           "udp for --runtime proc)")
    srun.add_argument("--cluster-seed", type=int, default=7,
                      help="the cluster's own rng seed (fault-plan loss "
                           "streams); the scenario seed only shapes the "
                           "schedule")
    srun.add_argument("--trace-out", metavar="PATH", default=None,
                      help="ship traces (JSONL file or directory; the "
                           "workdir for --runtime proc)")
    add_config_flags(srun, "stack", "ship_to")
    srun.set_defaults(func=_cmd_scenario_run)

    trc = sub.add_parser(
        "trace",
        help="merge / inspect / validate shipped JSONL trace files",
    )
    from .obs import cli as trace_cli

    trace_cli.add_trace_arguments(trc)
    trc.set_defaults(func=trace_cli.run_from_args)

    lint = sub.add_parser(
        "lint",
        help="AST determinism & protocol-safety analyzer (repro.lint)",
    )
    from .lint import cli as lint_cli

    lint_cli.add_lint_arguments(lint)
    lint.set_defaults(func=lint_cli.run_from_args)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
