"""The service frontend: real clients on one side, the replica on the other.

One :class:`ServiceFrontend` rides each :class:`~repro.net.host.NodeHost`
that carries the ``rsm`` stack.  It accepts asyncio TCP client
connections on a *separate* listen address (client traffic never shares
the node-to-node transport), and for each request:

* **redirects** when this node is not the leader — the Ω output of the
  node's own ◇C detector (``detector.trusted()``) names the pid, and the
  peer serve-address map turns it into a dialable address.  Writes must
  funnel through the leader because only its queue head is proposed
  promptly; a follower accepting writes would ack nothing until the
  cluster happened to decide its commands.
* **deduplicates** retries whose ``(client, seq)`` already executed,
  answering from the session table without touching the log;
* **submits** fresh commands into the local
  :class:`~repro.consensus.multi.ReplicatedStateMachine` replica and
  parks the connection on a future;
* **replies on local apply** — every replica applies every decided
  command to its own :class:`~repro.svc.state.KVStateMachine`; the one
  holding the client's parked future completes it with the result.

The ``dump`` op is the single deliberately non-replicated read: it
snapshots *this replica's* state without touching the log, which is what
convergence checks and debugging want (every other op, including
``get``, goes through the log for linearizability).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..net.host import NodeHost
from ..types import ProcessId
from .protocol import ProtocolError, Reply, Request, read_frame, write_frame
from .state import KVStateMachine

__all__ = ["ServiceFrontend", "start_service"]

Address = Tuple[str, int]

#: One (client, seq) command in flight.
Cid = Tuple[str, int]


class ServiceFrontend:
    """Client-facing TCP acceptor bound to one RSM replica (module doc)."""

    def __init__(
        self,
        host: NodeHost,
        rsm: Any,
        detector: Any,
        listen_host: str = "127.0.0.1",
        port: int = 0,
        apply_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.rsm = rsm
        self.detector = detector
        self.listen_host = listen_host
        self.port = port
        self.codec = host.codec
        self.apply_timeout = apply_timeout
        self.state = KVStateMachine()
        self._server: Optional[asyncio.AbstractServer] = None
        self._peers: Dict[ProcessId, Address] = {}
        self._conn_tasks: Set[asyncio.Task] = set()
        self._waiters: Dict[Cid, List[asyncio.Future]] = {}
        #: Commands this frontend already pushed into its replica: a retry
        #: arriving before the original decides must not resubmit (the
        #: state machine would dedup it anyway, but every resubmission is
        #: one more slot burned on a duplicate).
        self._submitted: Set[Cid] = set()
        self.connections = 0
        rsm.on_apply(self._on_apply)

    # -------------------------------------------------------- host shortcuts
    @property
    def metrics(self):
        return self.host.metrics

    def trace(self, kind: str, /, **data: Any) -> None:
        sink = self.host.trace
        if sink.wants(kind):
            sink.record(self.host.clock.now, kind, self.host.pid, **data)

    # -------------------------------------------------------------- lifecycle
    async def bind(self) -> None:
        """Start accepting clients; resolves the kernel-chosen port."""
        self._server = await asyncio.start_server(
            self._on_accept, host=self.listen_host, port=self.port
        )
        addr = self._server.sockets[0].getsockname()[:2]
        self.listen_host, self.port = addr[0], addr[1]
        self._peers[self.host.pid] = (self.listen_host, self.port)

    @property
    def local_address(self) -> Address:
        if self._server is None:
            raise ConfigurationError("frontend is not bound yet")
        return (self.listen_host, self.port)

    def set_peers(self, peers: Dict[ProcessId, Address]) -> None:
        """Install the pid -> serve-address map redirects dial from."""
        self._peers.update(
            {pid: (addr[0], addr[1]) for pid, addr in peers.items()}
        )

    async def close(self) -> None:
        """Stop accepting, drop every client connection, fail waiters."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        for futures in self._waiters.values():
            for future in futures:
                if not future.done():
                    future.cancel()
        self._waiters.clear()

    # ------------------------------------------------------------ connections
    async def _on_accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.connections += 1
        self.metrics.set("svc_connections", self.connections)
        try:
            while True:
                try:
                    payload = await read_frame(reader, self.codec)
                except ProtocolError:
                    break  # stream out of sync; drop the connection
                if payload is None:
                    break  # clean EOF
                try:
                    request = Request.from_payload(payload)
                except ProtocolError as exc:
                    rid = payload.get("rid", -1) if isinstance(payload, dict) else -1
                    reply = Reply(rid=rid, status="error", error=str(exc))
                else:
                    reply = await self._handle(request)
                write_frame(writer, self.codec, reply.to_payload())
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        except (ConnectionError, OSError):
            pass  # peer went away mid-frame; nothing to clean beyond finally
        except asyncio.CancelledError:
            # close() cancelling this connection task is the normal
            # shutdown path; this is the task's outermost frame, so eating
            # the cancellation only keeps asyncio's stream wrapper from
            # logging it as a crash.
            pass
        finally:
            self.connections -= 1
            self.metrics.set("svc_connections", self.connections)
            writer.close()

    # --------------------------------------------------------------- requests
    async def _handle(self, request: Request) -> Reply:
        self.metrics.inc("svc_requests_total", op=request.op)
        self.trace(
            "svc.request", op=request.op, client=request.client,
            seq=request.seq, rid=request.rid, key=request.key,
            span=request.span,
        )
        if request.op == "dump":
            return Reply(rid=request.rid, status="ok", result=self.state.dump())
        if self.host.crashed:
            return Reply(rid=request.rid, status="error", error="node-down")
        leader = self.detector.trusted()
        if leader != self.host.pid:
            self.metrics.inc("svc_redirects_total")
            self.trace(
                "svc.redirect", leader=leader, client=request.client,
                op=request.op,
            )
            return Reply(
                rid=request.rid, status="redirect", leader=leader,
                addr=self._peers.get(leader) if leader is not None else None,
            )
        if not isinstance(request.seq, int):
            return Reply(
                rid=request.rid, status="error", error="missing-seq",
            )
        cached = self.state.cached(request.client, request.seq)
        if cached is not None:
            self.metrics.inc("svc_duplicates_total")
            if request.span is not None:
                self.trace("span.reply", span=request.span, status="cached")
            return Reply(rid=request.rid, status="ok", result=cached)
        cid: Cid = (request.client, request.seq)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(cid, []).append(future)
        if cid not in self._submitted:
            self._submitted.add(cid)
            if request.span is not None:
                self.trace("span.queue", span=request.span, op=request.op)
            self.rsm.submit(request.command())
            depth = getattr(self.rsm, "pending_count", None)
            if depth is not None:
                self.metrics.set("svc_submit_queue_depth", depth)
        try:
            result = await asyncio.wait_for(future, timeout=self.apply_timeout)
        except asyncio.TimeoutError:
            return Reply(
                rid=request.rid, status="error", error="apply-timeout",
            )
        except asyncio.CancelledError:
            raise
        finally:
            waiters = self._waiters.get(cid)
            if waiters is not None:
                if future in waiters:
                    waiters.remove(future)
                if not waiters:
                    self._waiters.pop(cid, None)
        if request.span is not None:
            self.trace("span.reply", span=request.span, status="ok")
        return Reply(rid=request.rid, status="ok", result=result)

    # ------------------------------------------------------------------ apply
    def _on_apply(self, slot: int, command: Any) -> None:
        """Apply one decided command to this replica's state machine.

        Runs on *every* replica for every decided command — the store,
        locks, and session table stay identical everywhere; only the
        replica holding the client's parked future also answers it.
        """
        if not isinstance(command, dict):
            return  # non-service traffic sharing the log (proposal rounds)
        result, duplicate = self.state.apply(command)
        op = str(command.get("op"))
        self.metrics.inc("svc_applies_total", op=op)
        if duplicate:
            self.metrics.inc("svc_duplicates_total")
        self.metrics.set("svc_sessions", len(self.state.sessions))
        self.trace(
            "svc.apply", slot=slot, op=op, duplicate=duplicate,
            client=command.get("client"), seq=command.get("seq"),
            ok=result.get("ok"),
        )
        client, seq = command.get("client"), command.get("seq")
        if isinstance(client, str) and isinstance(seq, int):
            self._submitted.discard((client, seq))
            for future in self._waiters.pop((client, seq), []):
                if not future.done():
                    future.set_result(result)


async def start_service(
    cluster: Any,
    stacks: Dict[str, List[Any]],
    listen_host: str = "127.0.0.1",
    apply_timeout: float = 30.0,
) -> List[ServiceFrontend]:
    """Attach and bind one frontend per node of an ``rsm``-stack
    :class:`~repro.cluster.local.LocalCluster`; returns them pid-ordered.

    Call after ``cluster.start()`` (the frontends need a running event
    loop); the serve-address map is shared among them automatically.
    """
    if "rsm" not in stacks:
        raise ConfigurationError(
            "start_service needs an 'rsm' stack; deploy with stack='rsm'"
        )
    frontends = [
        ServiceFrontend(
            cluster.host(pid), rsm=stacks["rsm"][pid],
            detector=stacks["fd"][pid], listen_host=listen_host,
            apply_timeout=apply_timeout,
        )
        for pid in cluster.pids
    ]
    for frontend in frontends:
        await frontend.bind()
    peers = {f.host.pid: f.local_address for f in frontends}
    for frontend in frontends:
        frontend.set_peers(peers)
    return frontends
