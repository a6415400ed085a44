"""The address book: one JSON document describing a process cluster.

A multi-process run has no shared Python objects, so everything every
node must agree on travels in one static JSON file — the classic static
membership assumption of the paper (all *n* identities known up front;
only crashes change the picture):

.. code-block:: json

    {
      "n": 3,
      "transport": "udp",
      "stack": "ring",
      "period": 0.05,
      "initial_timeout": 0.12,
      "timeout_increment": 0.05,
      "seed": 0,
      "duration": 6.0,
      "propose_after": 1.0,
      "nodes": [
        {"pid": 0, "host": "127.0.0.1", "port": 42001},
        {"pid": 1, "host": "127.0.0.1", "port": 42002},
        {"pid": 2, "host": "127.0.0.1", "port": 42003}
      ]
    }

``repro node --book cluster.json --pid 2`` reads this, binds pid 2's
socket, and runs that one node; the :class:`~repro.proc.ProcessCluster`
launcher writes the file before spawning anything.  For a multi-machine
deployment you write the book by hand (real hosts instead of loopback)
and start one ``repro node`` per box.

:meth:`AddressBook.allocate` builds a loopback book with genuinely free
ports by binding each one to port 0 and reading back the kernel's choice
— the ports are released again before the nodes start, which is racy in
principle but reliable for single-machine test runs.
"""

from __future__ import annotations

import json
import socket
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.config import CONFIG_FIELDS, NodeConfig
from ..errors import ConfigurationError
from ..types import ProcessId, Time

__all__ = ["NodeAddress", "AddressBook", "PROC_TRANSPORTS"]

#: Transports that cross process boundaries (no loopback hub here).
PROC_TRANSPORTS = ("udp", "tcp")

# book.json key order.  It predates NodeConfig and must not move by a
# byte: the run shape (duration, propose_after) sits in the middle of the
# node settings, before the first setting added after it.
_SPLIT = CONFIG_FIELDS.index("metrics_interval")
_KEYS = (
    "n", "transport", *CONFIG_FIELDS[:_SPLIT],
    "duration", "propose_after", *CONFIG_FIELDS[_SPLIT:], "nodes",
)


@dataclass
class NodeAddress:
    """Where one node listens.

    ``serve_port`` is the optional client-facing TCP port of the node's
    KV service frontend (``--stack rsm`` only); ``control_port`` the
    optional UDP port of its fault-control endpoint (see
    :mod:`repro.net.control` — the launcher's network fault verbs need
    it); ``port`` stays the node-to-node transport address.
    """

    pid: ProcessId
    host: str
    port: int
    serve_port: Optional[int] = None
    control_port: Optional[int] = None


@dataclass(init=False)
class AddressBook:
    """Everything a node needs to join a process cluster (see module doc).

    Membership (``n``, ``transport``, ``nodes``) and run shape
    (``duration``, ``propose_after``) are the book's own; what each node
    runs is one :class:`~repro.cluster.config.NodeConfig` — given as flat
    keywords, stored flat in ``book.json``, readable flat (``book.period``)
    and whole (``book.config``).  Keys a hand-written or older book omits
    load with the defaults.
    """

    n: int
    transport: str
    duration: Time
    propose_after: Optional[Time]
    nodes: List[NodeAddress]
    config: NodeConfig

    def __init__(
        self,
        n: int,
        transport: str = "udp",
        duration: Time = 6.0,
        propose_after: Optional[Time] = None,
        nodes: Sequence[Union[NodeAddress, Dict[str, Any]]] = (),
        **settings: Any,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if transport not in PROC_TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r} for a process "
                f"cluster; pick one of {PROC_TRANSPORTS} (loopback cannot "
                "cross process boundaries)"
            )
        self.n = n
        self.transport = transport
        self.duration = duration
        self.propose_after = propose_after
        self.config = NodeConfig.from_dict(settings)
        self.nodes = [
            NodeAddress(**entry) if isinstance(entry, dict) else entry
            for entry in nodes
        ]
        if self.nodes:
            pids = sorted(entry.pid for entry in self.nodes)
            if pids != list(range(self.n)):
                raise ConfigurationError(
                    f"address book must cover pids 0..{self.n - 1} exactly, "
                    f"got {pids}"
                )
        if self.config.stack != "rsm" and any(
            entry.serve_port is not None for entry in self.nodes
        ):
            raise ConfigurationError(
                "serve ports only make sense with the 'rsm' stack (the KV "
                "service frontend rides the replicated state machine)"
            )

    def __getattr__(self, name: str) -> Any:
        # Reached only for names the instance lacks: the node settings,
        # read flat off the book (``book.period``, ``book.ship_to``, ...).
        if name in CONFIG_FIELDS:
            return getattr(self.config, name)
        raise AttributeError(name)

    # ----------------------------------------------------------------- access
    def address(self, pid: ProcessId) -> Tuple[str, int]:
        """The ``(host, port)`` pair node *pid* listens on."""
        for entry in self.nodes:
            if entry.pid == pid:
                return (entry.host, entry.port)
        raise ConfigurationError(f"pid {pid} not in the address book")

    def addresses(self) -> Dict[ProcessId, Tuple[str, int]]:
        """The full peer map, the shape ``Transport.set_peers`` takes."""
        return {entry.pid: (entry.host, entry.port) for entry in self.nodes}

    def serve_address(self, pid: ProcessId) -> Optional[Tuple[str, int]]:
        """Node *pid*'s client-facing service address, if it has one."""
        for entry in self.nodes:
            if entry.pid == pid:
                if entry.serve_port is None:
                    return None
                return (entry.host, entry.serve_port)
        raise ConfigurationError(f"pid {pid} not in the address book")

    def serve_addresses(self) -> Dict[ProcessId, Tuple[str, int]]:
        """All client-facing service addresses (pids without one omitted)."""
        return {
            entry.pid: (entry.host, entry.serve_port)
            for entry in self.nodes
            if entry.serve_port is not None
        }

    def control_address(self, pid: ProcessId) -> Optional[Tuple[str, int]]:
        """Node *pid*'s fault-control endpoint address, if it has one."""
        for entry in self.nodes:
            if entry.pid == pid:
                if entry.control_port is None:
                    return None
                return (entry.host, entry.control_port)
        raise ConfigurationError(f"pid {pid} not in the address book")

    def control_addresses(self) -> Dict[ProcessId, Tuple[str, int]]:
        """All fault-control addresses (pids without one omitted)."""
        return {
            entry.pid: (entry.host, entry.control_port)
            for entry in self.nodes
            if entry.control_port is not None
        }

    # -------------------------------------------------------------- (de)serde
    def to_dict(self) -> Dict[str, Any]:
        data = {key: getattr(self, key) for key in _KEYS}
        data["nodes"] = [asdict(entry) for entry in self.nodes]
        # Keep the on-disk document minimal and byte-compatible with books
        # written before serve/control ports existed: absent means "no
        # frontend" / "no fault-control endpoint" / "no live shipping".
        if data["ship_to"] is None:
            del data["ship_to"]
        for entry in data["nodes"]:
            for key in ("serve_port", "control_port"):
                if entry[key] is None:
                    del entry[key]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AddressBook":
        unknown = set(data) - set(_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown address-book keys: {sorted(unknown)}"
            )
        return cls(**data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AddressBook":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read address book {path}: {exc}")
        return cls.from_dict(data)

    # ------------------------------------------------------------- allocation
    @classmethod
    def allocate(
        cls, n: int, host: str = "127.0.0.1", transport: str = "udp",
        serve: bool = False, control: bool = False, **settings: Any,
    ) -> "AddressBook":
        """Build a single-machine book with *n* kernel-chosen free ports.

        With ``serve=True`` every node also gets a client-facing TCP
        ``serve_port`` for its KV service frontend (requires
        ``stack="rsm"``); with ``control=True`` a UDP ``control_port``
        for its fault-control endpoint (the launcher's network fault
        verbs are delivered there).
        """
        kind = (
            socket.SOCK_DGRAM if transport == "udp" else socket.SOCK_STREAM
        )
        nodes: List[NodeAddress] = []
        probes: List[socket.socket] = []
        try:
            # Hold all probes open until every port is chosen so the kernel
            # cannot hand the same port out twice.
            for pid in range(n):
                probe = socket.socket(socket.AF_INET, kind)
                probe.bind((host, 0))
                probes.append(probe)
                serve_port: Optional[int] = None
                if serve:
                    # Client connections are always TCP streams, whatever
                    # the node-to-node transport is.
                    extra = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    extra.bind((host, 0))
                    probes.append(extra)
                    serve_port = extra.getsockname()[1]
                control_port: Optional[int] = None
                if control:
                    # Fault commands are always UDP datagrams, whatever
                    # the node-to-node transport is.
                    ctrl = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    ctrl.bind((host, 0))
                    probes.append(ctrl)
                    control_port = ctrl.getsockname()[1]
                nodes.append(
                    NodeAddress(
                        pid=pid, host=host,
                        port=probe.getsockname()[1], serve_port=serve_port,
                        control_port=control_port,
                    )
                )
        finally:
            for probe in probes:
                probe.close()
        return cls(n=n, transport=transport, nodes=nodes, **settings)
