""":class:`ProcessCluster` — one OS process per node, ``kill -9`` crashes.

The launcher is the multi-process implementation of the unified
:class:`~repro.cluster.api.ClusterAPI`:

1. **spawn** — :meth:`start` allocates an address book with free ports,
   writes it to the working directory, and spawns one ``python -m repro
   node`` subprocess per pid, each shipping its trace to
   ``node-<pid>.jsonl`` and logging to ``node-<pid>.log``;
2. **crash** — ``crash`` delivers ``SIGKILL`` at the scheduled wall
   offset.  Nothing cooperative happens on the victim: no signal handler,
   no flush, no goodbye message — the OS enforces the paper's crash-stop
   model and the launcher remembers the wall time of the kill.  Every
   fault rides the one ``fault(op, args, at=None)`` queue of
   :class:`~repro.cluster.api.FaultVerbs`: ``stall``/``resume`` deliver
   real ``SIGSTOP``/``SIGCONT`` (equally uncooperative), while the network
   faults become ``{"op": ..., **args}`` JSON commands sent to each
   concerned node's :class:`~repro.net.control.FaultControlEndpoint`;
3. **postmortem** — after :meth:`wait_quiescent` and :meth:`stop`,
   :meth:`traces` reads the shipped JSONL files (tolerating a torn final
   line on killed nodes), merges them on a common time base via
   :func:`repro.obs.merge.merge_traces`, and injects a synthetic
   ``crash`` event per kill — victims cannot record their own death, but
   the property checkers need the failure pattern — and ends the stream
   where the first node to finish its run stopped, so
   :meth:`verdicts` judges the run with exactly the code that judges
   in-process clusters.

Restarts are deliberately unsupported: a killed pid stays killed
(crash-stop, not crash-recovery).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..cluster.api import FaultVerbs, stack_verdicts
from ..net.control import send_fault_command
from ..obs.events import TraceEvent
from ..obs.merge import MergeReport, merge_traces
from ..obs.reader import TraceFile, iter_trace_events
from ..obs.sinks import MemorySink
from ..types import ProcessId, Time
from .book import AddressBook

__all__ = ["ProcessCluster"]

#: The faults that are OS signals — the victim is never asked to cooperate.
_SIGNALS = {
    "crash": signal.SIGKILL, "stall": signal.SIGSTOP, "resume": signal.SIGCONT,
}


def pick_recorder(
    targets: Sequence[ProcessId], stalled: frozenset
) -> Optional[ProcessId]:
    """The one target of a broadcast that narrates its ``scenario.*`` event.

    The first awake one: a ``SIGSTOP``ped node would only stamp the event
    when (if ever) it resumes.  A stalled target is the fallback when no
    target is awake; ``None`` when there is no target at all.
    """
    awake = [pid for pid in targets if pid not in stalled]
    return next(iter(awake or targets), None)


def _read_trace_lenient(path: Path) -> TraceFile:
    """Read one shipped trace, keeping the intact prefix of a torn file.

    A ``kill -9`` can land mid-write; the sink is line-buffered so at most
    the final line is garbage.  Everything before the first undecodable
    line is kept — for a crash-stop victim that *is* its trace.
    """
    stream = iter_trace_events(path)
    header = next(stream)
    events: List[TraceEvent] = []
    try:
        for event in stream:
            events.append(event)  # type: ignore[arg-type]
    except ConfigurationError:
        pass  # torn trailing line
    return TraceFile(
        events=events,
        node=header.get("node"),
        epoch_wall=float(header.get("epoch_wall", 0.0)),
        epoch_mono=float(header.get("epoch_mono", 0.0)),
        path=path,
        header=header,
    )


class ProcessCluster(FaultVerbs):
    """*n* ``repro node`` subprocesses under the unified cluster API.

    Parameters mirror :class:`~repro.cluster.local.LocalCluster` where
    they overlap; the rest configure the spawned processes:

    Parameters:
        n / transport: the cluster's membership (UDP or TCP only —
            loopback cannot cross process boundaries).
        duration: how long each node runs before exiting 0.  The whole
            scenario is scripted up front; there is no live orchestration
            channel into a foreign process.
        propose_after: when set, every (surviving) node proposes
            ``value-from-p<pid>`` at that cluster time.
        serve: allocate a client-facing TCP port per node and run the KV
            service frontend there (``stack="rsm"`` only); addresses are
            in :attr:`serve_addresses` after :meth:`start`.
        workdir: where the book, traces, and logs land; a temporary
            directory by default (kept for debugging, path in
            :attr:`workdir`).
        host: listening interface for every node.
        python: interpreter for the subprocesses (default:
            ``sys.executable``).
        settings: what every node runs — the
            :class:`~repro.cluster.config.NodeConfig` fields (``stack``,
            ``period``, ``seed``, ``ship_to``, ...), validated
            here, exposed as :attr:`config`, and forwarded into the
            address book every node reads.
    """

    def __init__(
        self,
        n: int,
        transport: str = "udp",
        duration: Time = 6.0,
        propose_after: Optional[Time] = None,
        workdir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        python: Optional[str] = None,
        serve: bool = False,
        **settings: Any,
    ) -> None:
        # Validate everything now by building a node-less book; ports are
        # allocated at start().
        self.config = AddressBook(n=n, transport=transport, **settings).config
        if serve and self.config.stack != "rsm":
            raise ConfigurationError(
                "serve=True needs stack='rsm' (the KV frontend submits "
                "into the replicated log)"
            )
        super().__init__()  # the pre-start fault queue (ClusterAPI.fault)
        self.serve = serve
        self.n = n
        self.transport = transport
        self.duration = duration
        self.propose_after = propose_after
        self.host = host
        self.python = python if python is not None else sys.executable
        self.workdir = Path(
            workdir if workdir is not None
            else tempfile.mkdtemp(prefix="repro-proc-")
        )
        self.book: Optional[AddressBook] = None
        self.procs: Dict[ProcessId, subprocess.Popen] = {}
        self.exit_statuses: Dict[ProcessId, Optional[int]] = {}
        self._logs: Dict[ProcessId, Any] = {}
        self._killed: set = set()
        self._kill_walls: Dict[ProcessId, float] = {}
        # Loop timers of faults armed for a later wall offset.
        self._fault_timers: List[asyncio.TimerHandle] = []
        # In-flight control-command broadcasts (referenced so the tasks
        # survive GC; reaped in stop()) and their terminal failures.
        self._control_tasks: set = set()
        #: Failures delivering fault commands ("node down" timeouts on
        #: killed/frozen targets are expected and land here too).
        self.control_errors: List[str] = []
        self._stalled: set = set()
        # (pid, verb, wall-time) per delivered SIGSTOP/SIGCONT: a frozen
        # process cannot trace its own freeze, so traces() injects these
        # synthetically, like the crash events.
        self._signal_walls: List[Tuple[ProcessId, str, float]] = []
        self._scenario_meta: Optional[Tuple[str, int, Optional[int]]] = None
        self._stopped = False
        self._t0: Optional[float] = None
        self._postmortem: Optional[MergeReport] = None
        self._trace_cache: Optional[MemorySink] = None

    # ---------------------------------------------------------------- basics
    @property
    def pids(self) -> range:
        return range(self.n)

    @property
    def correct_pids(self) -> frozenset:
        """Pids never killed (crash-stop: killed means gone for good)."""
        return frozenset(pid for pid in self.pids if pid not in self._killed)

    @property
    def trace_files(self) -> List[Path]:
        return [self.workdir / f"node-{pid}.jsonl" for pid in self.pids]

    def log_file(self, pid: ProcessId) -> Path:
        return self.workdir / f"node-{pid}.log"

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Write the book, spawn every node, arm the fault schedule."""
        self._mark_started()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.book = AddressBook.allocate(
            self.n,
            host=self.host,
            serve=self.serve,
            control=True,
            transport=self.transport,
            duration=self.duration,
            propose_after=self.propose_after,
            **self.config.to_dict(),
        )
        book_path = self.book.save(self.workdir / "book.json")
        env = dict(os.environ)
        # The children must import the same repro tree as the launcher,
        # installed or not.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        for pid in self.pids:
            log = open(self.log_file(pid), "w", encoding="utf-8")
            self._logs[pid] = log
            self.procs[pid] = subprocess.Popen(
                [
                    self.python, "-m", "repro", "node",
                    "--book", str(book_path),
                    "--pid", str(pid),
                    "--trace-out", str(self.workdir / f"node-{pid}.jsonl"),
                ],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        await self._wait_control_ready()
        self._t0 = time.monotonic()
        self._arm_pending_faults()

    async def _wait_control_ready(
        self, budget: float = 10.0, poll: float = 0.05
    ) -> None:
        """Block until every node's fault-control endpoint answers a ping
        (or *budget* seconds pass for a node that never will).

        The fault clock must not start while the nodes are still
        interpreters mid-import: a scenario's first window would fire
        into unbound sockets and vanish.  Pinging every endpoint before
        zeroing :attr:`elapsed` pins "cluster time 0" to the moment the
        whole cluster is actually listening — which is also (to within a
        ping) when the node-local trace clocks were zeroed, so scheduled
        faults land at the node-local times the scenario names.  "To
        within a ping" is *poll* seconds: the cluster clock lags the
        node-local ones by up to one retry interval, and nodes propose on
        their own clock, so a lag longer than the 4-period gap between the
        last fault and the proposal round would put the proposal *inside*
        the fault.  A node that dies during boot just eats its budget; the
        failure is recorded in :attr:`control_errors`, never raised.
        """
        assert self.book is not None

        async def ready(pid: ProcessId) -> None:
            address = self.book.control_address(pid)
            if address is None:
                return
            try:
                await send_fault_command(
                    address, {"op": "ping"},
                    timeout=poll, attempts=max(1, int(budget / poll)),
                )
            except (ConfigurationError, OSError,
                    asyncio.TimeoutError) as exc:
                self.control_errors.append(
                    f"ping -> node {pid}: {exc!r}"
                )

        await asyncio.gather(*(ready(pid) for pid in self.pids))

    @property
    def serve_addresses(self) -> Dict[ProcessId, tuple]:
        """Client-facing service addresses (empty unless ``serve=True``)."""
        if self.book is None:
            return {}
        return self.book.serve_addresses()

    @property
    def elapsed(self) -> float:
        """Wall seconds since the nodes were spawned (0 before start)."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    # ---------------------------------------------------------------- faults
    # The verbs themselves (crash ... skew, and fault(op, args, at=None)
    # under them) are FaultVerbs'; this is the substrate half.  `at` is a
    # wall offset from cluster start.

    def _call_at(
        self, at: Time, callback: Callable[..., None], *args: Any
    ) -> None:
        delay = at - self.elapsed
        if delay <= 0.0:
            callback(*args)
        else:
            self._fault_timers.append(
                asyncio.get_running_loop().call_later(delay, callback, *args)
            )

    def _deliver(self, op: str, args: Dict[str, Any]) -> None:
        """Make one fault happen now: an OS signal for the process faults,
        a fault-control broadcast for everything else."""
        if op in _SIGNALS:
            self._signal(op, args["pid"])
        else:
            task = asyncio.ensure_future(self._broadcast_control(op, args))
            self._control_tasks.add(task)
            task.add_done_callback(self._control_tasks.discard)

    def _signal(self, op: str, pid: ProcessId) -> None:
        """The actual ``kill -9`` / ``SIGSTOP`` / ``SIGCONT`` on a
        still-living node: no warning, no cleanup on the victim, and a
        killed node never restarts.  The wall time is remembered because a
        dead or frozen process cannot trace its own fate — :meth:`traces`
        injects those events."""
        proc = self.procs.get(pid)
        if proc is None or proc.poll() is not None or pid in self._killed:
            return
        os.kill(proc.pid, _SIGNALS[op])
        if op == "crash":
            self._killed.add(pid)
            self._kill_walls[pid] = time.time()
            return
        if op == "stall":
            self._stalled.add(pid)
        else:
            self._stalled.discard(pid)
        self._signal_walls.append((pid, op, time.time()))

    async def _broadcast_control(self, op: str, args: Dict[str, Any]) -> None:
        """Send one network fault to the control endpoint of every node it
        concerns.  Each node's plan governs only its own sends, so a
        directed link is its sender's business, a clock its owner's, and
        everything else is installed everywhere (both sides of a partition
        must cut)."""
        assert self.book is not None
        if "src" in args:
            targets: Sequence[ProcessId] = [args["src"]]
        elif op == "skew":
            targets = [args["pid"]]
        else:
            targets = self.pids
        live = []
        for pid in targets:
            if pid in self._killed:
                continue
            if self.book.control_address(pid) is None:
                self.control_errors.append(
                    f"{op}: node {pid} has no control port "
                    "(book written without control=True?)"
                )
                continue
            live.append(pid)
        # Exactly one copy is flagged to narrate the scenario.* trace
        # event — one logical fault, one event in the merged trace.
        recorder = pick_recorder(live, self.stalled_pids)
        results = await asyncio.gather(
            *(
                send_fault_command(
                    self.book.control_address(pid),
                    {"op": op, **args, "record": pid == recorder},
                )
                for pid in live
            ),
            return_exceptions=True,
        )
        for pid, result in zip(live, results):
            if isinstance(result, BaseException):
                # A dead or frozen target cannot ack — expected under
                # overlapping faults; recorded, not raised.
                self.control_errors.append(f"{op} -> node {pid}: {result!r}")

    def note_scenario(
        self, name: str, events: int, seed: Optional[int] = None
    ) -> None:
        """Record that a scenario schedule was armed (``scenario.run``)."""
        self._scenario_meta = (name, events, seed)

    @property
    def stalled_pids(self) -> frozenset:
        """Pids currently frozen by :meth:`stall`."""
        return frozenset(self._stalled)

    def poll(self) -> Dict[ProcessId, Optional[int]]:
        """Liveness snapshot: pid -> exit status (``None`` = still running)."""
        return {pid: proc.poll() for pid, proc in self.procs.items()}

    async def wait_quiescent(self, timeout: Optional[Time] = None) -> bool:
        """Wait until every node process has exited (died or finished).

        Default *timeout* is the scenario duration plus a grace period.
        Returns whether full quiescence was reached in time.
        """
        if not self._started:
            raise ConfigurationError("cluster not started")
        if timeout is None:
            timeout = self.duration + 10.0
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            statuses = self.poll()
            if all(status is not None for status in statuses.values()):
                return True
            await asyncio.sleep(0.05)
        return all(status is not None for status in self.poll().values())

    async def stop(self) -> None:
        """Reap everything: kill stragglers, collect exit statuses, close
        logs.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        for timer in self._fault_timers:
            timer.cancel()
        self._fault_timers.clear()
        if self._control_tasks:
            await asyncio.gather(
                *tuple(self._control_tasks), return_exceptions=True
            )
            self._control_tasks.clear()
        # Unfreeze never-resumed stalls before reaping (SIGKILL does land
        # on a stopped process, but un-stopping first keeps the shutdown
        # path uniform and the process table free of T-state strays).
        for pid in tuple(self._stalled):
            proc = self.procs.get(pid)
            if proc is not None and proc.poll() is None:
                os.kill(proc.pid, signal.SIGCONT)
            self._stalled.discard(pid)
        for pid, proc in self.procs.items():
            if proc.poll() is None:
                proc.kill()  # launcher cleanup, not part of the crash model
            proc.wait()
            self.exit_statuses[pid] = proc.returncode
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    # ------------------------------------------------------------ postmortem
    def merge_report(self) -> MergeReport:
        """Merge the shipped traces (cached); see :mod:`repro.obs.merge`."""
        if self._postmortem is None:
            files = [
                _read_trace_lenient(path)
                for path in self.trace_files
                if path.exists()
            ]
            if not files:
                raise ConfigurationError(
                    f"no trace files under {self.workdir} — did the nodes "
                    "start? check the node-*.log files"
                )
            self._postmortem = merge_traces(files)
        return self._postmortem

    def traces(self) -> MemorySink:
        """The merged postmortem stream, with synthetic ``crash`` events.

        A ``kill -9`` victim cannot record its own death, so the launcher
        injects one ``crash`` event per kill at the kill's wall time
        rebased onto the merged time base — the property checkers then
        see the same failure-pattern shape an in-process run records.  The
        stream ends where the first node to finish its run stopped
        (:meth:`_common_horizon`).
        """
        if self._trace_cache is not None:
            return self._trace_cache
        report = self.merge_report()
        horizon = self._common_horizon(report)
        events = [ev for ev in report.trace if ev.time <= horizon]
        base = min(f.epoch_wall for f in report.files)
        for pid, wall in self._kill_walls.items():
            events.append(
                TraceEvent(
                    time=max(0.0, wall - base), kind="crash", pid=pid,
                    data={"signal": "SIGKILL"},
                )
            )
        # Signal faults are as invisible to their victim as kills (the
        # process is frozen the instant SIGSTOP lands), so they are
        # injected synthetically too.
        for pid, verb, wall in self._signal_walls:
            events.append(
                TraceEvent(
                    time=max(0.0, wall - base), kind=f"scenario.{verb}",
                    pid=pid,
                    data={
                        "target": pid,
                        "signal": (
                            "SIGSTOP" if verb == "stall" else "SIGCONT"
                        ),
                    },
                )
            )
        if self._scenario_meta is not None:
            name, count, seed = self._scenario_meta
            data: Dict[str, Any] = {"name": name, "events": count}
            if seed is not None:
                data["seed"] = seed
            events.append(
                TraceEvent(time=0.0, kind="scenario.run", pid=None, data=data)
            )
        events.sort(key=lambda event: event.time)
        merged = MemorySink()
        merged.extend(events)
        self._trace_cache = merged
        return merged

    def _common_horizon(self, report: MergeReport) -> float:
        """When the first node that ran to the end of its duration stopped.

        Every node runs ``duration`` from its *own* start, and the nodes
        start as far apart as their interpreters take to import — often
        more than a timeout.  A node that has finished falls silent like a
        crashed one, so the nodes still running rightly begin to suspect
        it; those suspicions say when the run ended, not how the detector
        behaved.  The merged stream is therefore cut at the last event of
        the first node to exit 0 (``inf`` before :meth:`stop`, or when no
        node exited cleanly).
        """
        finished = {
            pid for pid, status in self.exit_statuses.items() if status == 0
        }
        ends = [
            trace_file.events[-1].time + report.offsets[str(trace_file.node)]
            for trace_file in report.files
            if trace_file.node in finished and trace_file.events
        ]
        return min(ends, default=float("inf"))

    def save_merged(self, path: Union[str, Path]) -> Path:
        """Write the merged stream (synthetic ``crash`` events included)
        to one combined ``.jsonl`` file.

        The per-node files under :attr:`workdir` are the raw shipped
        streams — a kill victim's file necessarily ends mid-run with no
        ``crash`` marker.  This file is the analysis-ready form:
        ``repro trace qos`` / ``repro trace check`` see the same
        failure-pattern shape the in-process checkers do.
        """
        from ..obs.sinks import JsonlSink

        report = self.merge_report()
        path = Path(path)
        out = JsonlSink(
            path, node=None,
            epoch_wall=min(f.epoch_wall for f in report.files),
            epoch_mono=min(f.epoch_mono for f in report.files),
        )
        for event in self.traces().events:
            out.record_event(event)
        out.close()
        return path

    def verdicts(self, channel: str = "fd", algo: str = "ec") -> Dict[str, Any]:
        """Machine-checked FD + consensus properties of the merged run
        (:func:`~repro.cluster.api.stack_verdicts`)."""
        return stack_verdicts(
            self.config.stack, self.traces(), self.correct_pids,
            channel=channel, algo=algo,
        )

    def __repr__(self) -> str:
        state = (
            "stopped" if self._stopped
            else "running" if self._started else "new"
        )
        return (
            f"<ProcessCluster n={self.n} transport={self.transport} "
            f"stack={self.config.stack} {state} workdir={self.workdir}>"
        )
