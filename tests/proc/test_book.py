"""AddressBook: validation, (de)serialization, and port allocation."""

import json
import socket
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import NodeConfig
from repro.errors import ConfigurationError
from repro.proc import PROC_TRANSPORTS, AddressBook, NodeAddress


def make_book(n=3, **overrides):
    settings = dict(
        n=n,
        nodes=[
            NodeAddress(pid=pid, host="127.0.0.1", port=42001 + pid)
            for pid in range(n)
        ],
    )
    settings.update(overrides)
    return AddressBook(**settings)


# -------------------------------------------------------------- validation
def test_defaults_follow_the_paper_scaling():
    book = make_book(period=0.1)
    assert book.initial_timeout == pytest.approx(0.24)
    assert book.timeout_increment == pytest.approx(0.1)


def test_loopback_cannot_cross_process_boundaries():
    with pytest.raises(ConfigurationError, match="loopback"):
        make_book(transport="loopback")
    assert "loopback" not in PROC_TRANSPORTS


@pytest.mark.parametrize(
    "bad",
    [dict(n=0), dict(stack="star"), dict(codec="pickle")],
    ids=["n", "stack", "codec"],
)
def test_rejects_bad_settings(bad):
    with pytest.raises(ConfigurationError):
        make_book(**bad)


def test_nodes_must_cover_pids_exactly():
    nodes = [
        NodeAddress(pid=0, host="127.0.0.1", port=42001),
        NodeAddress(pid=2, host="127.0.0.1", port=42002),
    ]
    with pytest.raises(ConfigurationError, match="cover pids"):
        AddressBook(n=2, nodes=nodes)


def test_address_lookup():
    book = make_book()
    assert book.address(1) == ("127.0.0.1", 42002)
    assert book.addresses() == {
        0: ("127.0.0.1", 42001),
        1: ("127.0.0.1", 42002),
        2: ("127.0.0.1", 42003),
    }
    with pytest.raises(ConfigurationError):
        book.address(7)


# ---------------------------------------------------------------- (de)serde
def test_json_roundtrip(tmp_path):
    book = make_book(transport="tcp", stack="heartbeat", seed=9, duration=2.0)
    path = book.save(tmp_path / "book.json")
    loaded = AddressBook.load(path)
    assert loaded == book
    # The on-disk shape is the documented plain-JSON document.
    data = json.loads(path.read_text())
    assert data["nodes"][0] == {"pid": 0, "host": "127.0.0.1", "port": 42001}


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown address-book keys"):
        AddressBook.from_dict({"n": 1, "nodes": [], "color": "blue"})


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "book.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        AddressBook.load(path)


# --------------------------------------------------------------- allocation
def test_allocate_control_ports_for_the_fault_endpoints(tmp_path):
    book = AddressBook.allocate(3, control=True)
    ports = [entry.control_port for entry in book.nodes]
    assert all(port is not None for port in ports)
    assert len(set(ports)) == 3
    assert book.control_address(1) == ("127.0.0.1", ports[1])
    assert book.control_addresses() == {
        pid: ("127.0.0.1", ports[pid]) for pid in range(3)
    }
    # The ports survive the JSON trip to the child processes.
    loaded = AddressBook.load(book.save(tmp_path / "book.json"))
    assert loaded == book


def test_control_address_is_none_without_allocation():
    book = make_book()
    assert book.control_address(0) is None
    assert book.control_addresses() == {}


@pytest.mark.parametrize("transport", PROC_TRANSPORTS)
def test_allocate_hands_out_distinct_bindable_ports(transport):
    book = AddressBook.allocate(3, transport=transport, seed=5)
    assert book.seed == 5
    ports = [entry.port for entry in book.nodes]
    assert len(set(ports)) == 3
    kind = socket.SOCK_DGRAM if transport == "udp" else socket.SOCK_STREAM
    for host, port in book.addresses().values():
        probe = socket.socket(socket.AF_INET, kind)
        try:
            probe.bind((host, port))  # released by allocate, still free
        finally:
            probe.close()


# ------------------------------------------------- on-disk compatibility
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", ["book-default.json", "book-full.json"])
def test_books_written_before_node_config_reserialise_byte_identically(
    name, tmp_path
):
    """The fixtures were written by the commit before NodeConfig existed
    (a default book, and one with every key set incl. ``ship_to`` and
    serve/control ports), less the ``codec`` key books no longer carry:
    the on-disk format must not move by a byte."""
    original = FIXTURES / name
    book = AddressBook.load(original)
    assert book.save(tmp_path / name).read_bytes() == original.read_bytes()


def test_a_book_that_still_names_a_codec_is_rejected(tmp_path, capsys):
    # JSON is the one wire format, so ``codec`` is no longer a setting: an
    # old book naming it is an unknown key, not a silently ignored one.
    data = json.loads((FIXTURES / "book-default.json").read_text())
    data["codec"] = "auto"
    with pytest.raises(ConfigurationError, match="unknown address-book keys"):
        AddressBook.from_dict(data)
    path = tmp_path / "book.json"
    path.write_text(json.dumps(data))
    assert main(["node", "--book", str(path), "--pid", "0"]) == 2
    assert "codec" in capsys.readouterr().err


def test_minimal_handwritten_book_loads_with_the_defaults():
    book = AddressBook.from_dict({
        "n": 2, "transport": "tcp",
        "nodes": [{"pid": 0, "host": "10.0.0.1", "port": 4000},
                  {"pid": 1, "host": "10.0.0.2", "port": 4000}],
    })
    assert book.config == NodeConfig()
    assert (book.duration, book.propose_after) == (6.0, None)
    assert book.address(1) == ("10.0.0.2", 4000)

