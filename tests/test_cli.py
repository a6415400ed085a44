"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import (
    _parse_crash_specs,
    _parse_degrade_specs,
    build_parser,
    main,
)
from repro.errors import ConfigurationError

#: The flags factored into the shared parent parser — `repro cluster` and
#: `repro proc run` must agree on them exactly.
SHARED_DESTS = (
    "transport", "stack", "trace_out", "duration", "crash",
    "loss", "degrade", "scenario", "ship_to",
)


def _subcommands(parser):
    return next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_consensus_args(self):
        args = build_parser().parse_args(
            ["consensus", "ec", "-n", "7", "--crash", "0:50",
             "--stabilize", "80", "--wan"]
        )
        assert args.algo == "ec"
        assert args.n == 7
        assert args.crash == ["0:50"]
        assert args.wan

    def test_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["consensus", "raft"])

    def test_node_args(self):
        args = build_parser().parse_args(
            ["node", "--book", "cluster.json", "--pid", "2",
             "--trace-out", "node-2.jsonl"]
        )
        assert args.book == "cluster.json"
        assert args.pid == 2
        assert args.trace_out == "node-2.jsonl"

    def test_node_requires_book_and_pid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "--pid", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "--book", "cluster.json"])

    def test_proc_run_args(self):
        args = build_parser().parse_args(
            ["proc", "run", "-n", "5", "--transport", "tcp",
             "--duration", "2", "--crash", "0:1.5", "--crash", "3:1.8"]
        )
        assert args.nodes == 5
        assert args.transport == "tcp"
        assert args.duration == 2.0
        assert args.crash == ["0:1.5", "3:1.8"]

    def test_parse_crash_specs(self):
        assert _parse_crash_specs(["0:1.5", "2:3"]) == [(0, 1.5), (2, 3.0)]
        assert _parse_crash_specs([]) == []
        for bad in ("1.5", "x:2", "0:y", "0:"):
            with pytest.raises(ConfigurationError):
                _parse_crash_specs([bad])

    def test_parse_degrade_specs(self):
        assert _parse_degrade_specs(["0:1:0.5"]) == [(0, 1, 0.5, None)]
        assert _parse_degrade_specs(["2:0:0.3:0.02"]) == [(2, 0, 0.3, 0.02)]
        assert _parse_degrade_specs([]) == []
        for bad in ("0:1", "x:1:0.5", "0:1:2.0", "0:1:0.5:-1"):
            with pytest.raises(ConfigurationError):
                _parse_degrade_specs([bad])

    def test_scenario_args(self):
        args = build_parser().parse_args(
            ["scenario", "gen", "--nodes", "4", "--seed", "9",
             "--crashes", "1"]
        )
        assert args.nodes == 4 and args.seed == 9 and args.crashes == 1
        args = build_parser().parse_args(
            ["scenario", "run", "--file", "nem.json", "--runtime", "proc"]
        )
        assert args.file == "nem.json" and args.runtime == "proc"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "--runtime", "sim"])

    def test_node_serve_addr(self):
        args = build_parser().parse_args(
            ["node", "--book", "b.json", "--pid", "0",
             "--serve-addr", "127.0.0.1:9000"]
        )
        assert args.serve_addr == "127.0.0.1:9000"

    def test_kv_verbs(self):
        args = build_parser().parse_args(
            ["kv", "put", "k", "42", "--connect", "127.0.0.1:9000"]
        )
        assert args.kv_command == "put"
        assert args.key == "k" and args.value == "42"
        args = build_parser().parse_args(
            ["kv", "serve", "-n", "5", "--duration", "3"]
        )
        assert args.kv_command == "serve" and args.nodes == 5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kv", "get", "k"])  # needs --connect

    def test_load_args(self):
        args = build_parser().parse_args(
            ["load", "--proc", "3", "--mode", "open", "--rate", "50",
             "--clients", "100", "--crash", "0:2"]
        )
        assert args.proc == 3 and args.rate == 50.0 and args.clients == 100
        with pytest.raises(SystemExit):  # --connect and --proc are exclusive
            build_parser().parse_args(
                ["load", "--connect", "h:1", "--proc", "3"]
            )

    def test_watch_args(self):
        args = build_parser().parse_args(
            ["watch", "--proc", "3", "--duration", "5", "--interval", "0.5"]
        )
        assert args.proc == 3 and args.duration == 5.0
        assert args.interval == 0.5
        args = build_parser().parse_args(["watch", "--connect", "127.0.0.1:7"])
        assert args.connect == "127.0.0.1:7" and args.duration is None
        with pytest.raises(SystemExit):  # one of --connect/--proc required
            build_parser().parse_args(["watch"])
        with pytest.raises(SystemExit):  # ... and they are exclusive
            build_parser().parse_args(
                ["watch", "--connect", "h:1", "--proc", "3"]
            )

    def test_trace_spans_args(self):
        args = build_parser().parse_args(["trace", "spans", "a.jsonl", "b.jsonl"])
        assert args.trace_command == "spans"
        assert args.files == ["a.jsonl", "b.jsonl"]

    def test_ship_to_reaches_node_and_scenario_run(self):
        args = build_parser().parse_args(
            ["node", "--book", "b.json", "--pid", "0",
             "--ship-to", "127.0.0.1:7000"]
        )
        assert args.ship_to == "127.0.0.1:7000"
        args = build_parser().parse_args(
            ["scenario", "run", "--nodes", "3", "--ship-to", "127.0.0.1:7000"]
        )
        assert args.ship_to == "127.0.0.1:7000"


class TestSharedClusterOptions:
    """`repro cluster` and `repro proc run` share one options surface
    (the parent-parser satellite): same flags, same help, same defaults."""

    def _parsers(self):
        top = _subcommands(build_parser())
        return top["cluster"], _subcommands(top["proc"])["run"]

    def _action(self, parser, dest):
        matches = [a for a in parser._actions if a.dest == dest]
        assert len(matches) == 1, f"{dest!r} defined {len(matches)} times"
        return matches[0]

    @pytest.mark.parametrize("dest", SHARED_DESTS)
    def test_flag_parity(self, dest):
        cluster, proc_run = self._parsers()
        ours, theirs = self._action(cluster, dest), self._action(proc_run, dest)
        assert ours.option_strings == theirs.option_strings
        assert ours.help == theirs.help
        assert ours.choices == theirs.choices
        assert ours.default == theirs.default

    def test_help_text_parity(self):
        """The rendered --help blocks for the shared group are identical."""

        def shared_block(parser):
            groups = [
                g for g in parser._action_groups
                if g.title == "shared cluster options"
            ]
            assert len(groups) == 1
            fmt = parser._get_formatter()
            fmt.start_section(groups[0].title)
            fmt.add_arguments(groups[0]._group_actions)
            fmt.end_section()
            return fmt.format_help()

        cluster, proc_run = self._parsers()
        assert shared_block(cluster) == shared_block(proc_run)


def _flag_surface(parser, prefix="", out=None):
    """``{subcommand: {option string: [default, choices]}}`` of *parser*
    (one entry per leaf subcommand)."""
    out = {} if out is None else out
    subparsers = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    for action in subparsers:
        for name, child in action.choices.items():
            _flag_surface(child, f"{prefix} {name}".strip(), out)
    if not subparsers:
        out[prefix] = flags = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            choices = None if action.choices is None else list(action.choices)
            for key in action.option_strings or [action.dest]:
                flags[key] = [action.default, choices]
    return out


def test_flag_surface_matches_the_committed_snapshot():
    """tests/cli_flags_snapshot.json was taken at the commit before the
    node-setting flags were generated from ``NodeConfig``'s field table:
    every subcommand keeps every option string, default and choice list.
    The one intended difference: `load --transport` no longer offers a
    ``loopback`` it used to rewrite to ``udp``."""
    snapshot = json.loads(
        (Path(__file__).parent / "cli_flags_snapshot.json").read_text())
    assert snapshot["load"]["--transport"] == ["udp", ["loopback", "udp", "tcp"]]
    snapshot["load"]["--transport"] = ["udp", ["udp", "tcp"]]
    # Through JSON, so tuples/lists and other non-JSON types compare equal.
    assert json.loads(json.dumps(_flag_surface(build_parser()))) == snapshot


class TestCommands:
    @pytest.mark.parametrize("argv", [
        ["cluster", "--transport", "loopback", "--duration", "1"],
        ["proc", "run", "--duration", "1"],
        ["kv", "serve", "--duration", "1"],
        ["load", "--proc", "3"],
        ["watch", "--proc", "3"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_bad_period_exits_2_before_anything_runs(self, argv, capsys,
                                                     monkeypatch):
        import subprocess

        def no_spawn(*args, **kwargs):
            raise AssertionError("spawned a process for an invalid config")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        assert main(argv + ["--period", "0"]) == 2
        assert "period must be > 0" in capsys.readouterr().err

    def test_load_no_longer_offers_a_loopback_it_rewrote_to_udp(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["load", "--proc", "3", "--transport", "loopback"])

    def test_cluster_rsm_rejects_the_adaptive_path(self, capsys):
        # The adaptive (run-until-stable) flow has no proposal script; an
        # rsm deployment without --duration/--crash/--virtual is an error.
        assert main(["cluster", "--stack", "rsm"]) == 2
        assert "scripted" in capsys.readouterr().err

    def test_consensus_success_exit_code(self, capsys):
        assert main(["consensus", "ec", "-n", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "decided" in out

    def test_consensus_with_crash_and_stabilization(self, capsys):
        code = main([
            "consensus", "ct", "-n", "5", "--seed", "2",
            "--crash", "0:30", "--stabilize", "60",
        ])
        assert code == 0

    @pytest.mark.parametrize("spec", ["1.5", "x:2"])
    def test_consensus_bad_crash_spec_exits_2(self, spec, capsys):
        assert main(["consensus", "ec", "--crash", spec]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --crash spec {spec!r}; expected PID:TIME, "
            "e.g. 0:2.5\n")

    def test_kv_bench_client_rejects_zero_ops_before_connecting(
            self, capsys, monkeypatch):
        import repro.svc

        def no_client(*args, **kwargs):
            raise AssertionError("connected for an invalid --ops")

        monkeypatch.setattr(repro.svc, "KVClient", no_client)
        assert main(["kv", "bench-client", "--connect", "127.0.0.1:9",
                     "--ops", "0"]) == 2
        assert capsys.readouterr().err == "error: --ops must be >= 1, got 0\n"

    @pytest.mark.parametrize("flag", [
        ["--scenario", "nem.json"],
        ["--crash", "0:1"],
        ["--merge-out", "out.jsonl"],
    ], ids=lambda flag: flag[0])
    def test_load_connect_rejects_proc_only_flags(self, flag, capsys,
                                                  monkeypatch):
        import repro.load

        def no_load(*args, **kwargs):
            raise AssertionError("offered load with a --proc-only flag")

        monkeypatch.setattr(repro.load, "LoadGenerator", no_load)
        assert main(["load", "--connect", "127.0.0.1:9"] + flag) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {flag[0]} needs a --proc cluster")

    def test_scenario_gen_is_deterministic(self, capsys):
        argv = ["scenario", "gen", "--nodes", "3", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # byte-identical schedule
        assert main(["scenario", "gen", "--nodes", "3", "--seed", "8"]) == 0
        assert capsys.readouterr().out != first

    def test_scenario_gen_writes_the_canonical_file(self, tmp_path, capsys):
        out = tmp_path / "nem.json"
        assert main(
            ["scenario", "gen", "--seed", "7", "--out", str(out)]
        ) == 0
        capsys.readouterr()  # drop the "wrote ..." confirmation line
        assert main(["scenario", "gen", "--seed", "7"]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_scenario_run_on_the_virtual_runtime(self, capsys):
        assert main(
            ["scenario", "run", "--nodes", "3", "--seed", "7",
             "--partitions", "1", "--stalls", "0", "--storms", "0",
             "--degrades", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict" in out.lower()
        assert "VIOLATED" not in out
