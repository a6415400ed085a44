"""The per-node fault-control endpoint behind a process cluster's verbs.

A :class:`LocalCluster` mutates its shared :class:`~repro.sim.faults.FaultPlan`
directly, but a :class:`~repro.proc.ProcessCluster` owns no objects inside
its nodes — network faults must travel over the wire.  Each ``repro node``
binds a :class:`FaultControlEndpoint`: a tiny UDP request/reply service
(modeled on :class:`~repro.net.stats.StatsEndpoint`) that applies one JSON
fault command per datagram to the node's own fault plan and clock, records
the matching ``scenario.*`` trace event, and acks.

A command is one fault of the shared vocabulary
(:data:`~repro.sim.faults.FAULT_OPS`) spelled as a JSON object — ``op``
plus that op's args, exactly the shape of a scenario-document event:

.. code-block:: json

    {"op": "partition", "groups": [[0], [1, 2]]}
    {"op": "degrade", "src": 0, "dst": 1, "loss": 0.3, "delay": 0.02}
    {"op": "skew", "pid": 2, "offset": 0.5}

The launcher broadcasts each network command to *every* node (each node's
plan only governs its own sends, so a partition must be installed on both
sides), while ``degrade``/``restore`` target the sending side and ``skew``
the one node whose clock steps.  ``crash``/``stall``/``resume`` never
touch this channel on a process cluster — they are OS signals, delivered
by the launcher, precisely so a frozen or dead node cannot be asked to
cooperate in its own failure.

One logical fault should appear once in the merged trace, so a command
carries an optional ``"record": true`` flag and only the flagged copy's
receiver records the ``scenario.*`` event — the launcher flags exactly one
node per broadcast.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.faults import check_fault

__all__ = ["FaultControlEndpoint", "send_fault_command"]


class FaultControlEndpoint:
    """Applies JSON fault commands to one node's plan and clock over UDP.

    Parameters:
        host: the node's :class:`~repro.net.host.NodeHost` (for its fault
            plan, the clock, the trace sink, and the pid).
        listen_host / port: bind address; port 0 = ephemeral (the bound
            port is returned by :meth:`bind` and kept in :attr:`address`).
    """

    def __init__(
        self,
        host: Any,
        listen_host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.host = host
        self.listen_host = listen_host
        self.port = port
        self.commands_applied = 0
        self.address: Optional[Tuple[str, int]] = None
        self._transport: Optional[asyncio.DatagramTransport] = None

    # --------------------------------------------------------------- dispatch
    def apply(self, command: Dict[str, Any]) -> None:
        """Apply one decoded fault command to this node.

        Raises :class:`ConfigurationError` on a malformed command; the
        datagram handler turns that into an error reply.
        """
        op = command.get("op")
        if op == "ping":  # readiness probe: no plan mutation, no event
            return
        args = {
            name: value for name, value in command.items()
            if name not in ("op", "record")
        }
        check_fault(op, args, self.host.plan.n)
        kind, pid, data = self.host.plan.apply(op, args)
        self.commands_applied += 1
        # One logical fault, one trace event: only the copy the launcher
        # flagged with "record" narrates (broadcasts reach every node).
        if command.get("record"):
            self.host.trace.record(self.host.clock.now, kind, pid, **data)

    # -------------------------------------------------------------- lifecycle
    async def bind(self) -> Tuple[str, int]:
        """Bind the UDP socket; returns (and remembers) the bound address."""
        if self._transport is not None:
            raise ConfigurationError("fault-control endpoint already bound")
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _ControlProtocol(self),
            local_addr=(self.listen_host, self.port),
        )
        sock = self._transport.get_extra_info("sockname")
        self.address = (sock[0], sock[1])
        return self.address

    def close(self) -> None:
        """Stop serving.  Idempotent."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class _ControlProtocol(asyncio.DatagramProtocol):
    def __init__(self, endpoint: FaultControlEndpoint) -> None:
        self._endpoint = endpoint
        self._transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if self._transport is None:
            return
        try:
            command = json.loads(data.decode("utf-8"))
            if not isinstance(command, dict):
                raise ConfigurationError("fault command must be an object")
            self._endpoint.apply(command)
        except (ConfigurationError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._transport.sendto(f"error: {exc}".encode("utf-8"), addr)
            return
        self._transport.sendto(b"ok", addr)


async def send_fault_command(
    address: Tuple[str, int],
    command: Dict[str, Any],
    timeout: float = 0.5,
    attempts: int = 6,
) -> None:
    """Deliver one fault command to a node's control endpoint, reliably-ish.

    UDP on loopback essentially never loses datagrams, but a node may not
    have bound its endpoint yet when a scenario's first fault fires — so
    the client retries (the verbs are all idempotent, so a duplicated
    apply is harmless).  Raises :class:`ConfigurationError` when the node
    rejects the command, :class:`asyncio.TimeoutError` when it never
    answers — which callers treat as "node down", the same contract as
    :func:`~repro.net.stats.fetch_stats`.
    """
    payload = json.dumps(command).encode("utf-8")
    loop = asyncio.get_running_loop()
    last_exc: Optional[BaseException] = None
    for attempt in range(attempts):
        started = loop.time()
        reply: asyncio.Future = loop.create_future()

        class _Client(asyncio.DatagramProtocol):
            def connection_made(self, transport) -> None:
                transport.sendto(payload)

            def datagram_received(self, data: bytes, addr) -> None:
                if not reply.done():
                    reply.set_result(data)

            def error_received(self, exc) -> None:
                if not reply.done():
                    reply.set_exception(exc)

        transport, _ = await loop.create_datagram_endpoint(
            _Client, remote_addr=address
        )
        try:
            answer = await asyncio.wait_for(reply, timeout)
        except (asyncio.TimeoutError, ConnectionRefusedError, OSError) as exc:
            last_exc = exc
            # Pace the retries: an ICMP-refused send fails in microseconds,
            # and burning every attempt before the target finishes booting
            # would defeat the budget — each attempt costs >= `timeout`.
            if attempt + 1 < attempts:
                await asyncio.sleep(
                    max(0.0, timeout - (loop.time() - started))
                )
            continue
        finally:
            transport.close()
        if answer != b"ok":
            raise ConfigurationError(
                f"fault command {command!r} rejected by {address}: "
                f"{answer.decode('utf-8', 'replace')}"
            )
        return
    assert last_exc is not None
    raise last_exc
