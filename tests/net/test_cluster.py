"""LocalCluster lifecycle, the standard stack, and the cluster CLI."""

import asyncio

import pytest

from repro.analysis import check_consensus, extract_outcome
from repro.cli import main
from repro.errors import ConfigurationError
from repro.net import LocalCluster, attach_standard_stack

SIM_SCALE = dict(period=5.0, initial_timeout=12.0, timeout_increment=5.0)


# ------------------------------------------------------------- construction
def test_cluster_validates_configuration():
    with pytest.raises(ConfigurationError):
        LocalCluster(n=0)
    with pytest.raises(ConfigurationError):
        LocalCluster(n=3, transport="carrier-pigeon")
    with pytest.raises(ConfigurationError):
        LocalCluster(n=3, clock="sundial")
    with pytest.raises(ConfigurationError):
        LocalCluster(n=3, transport="udp", clock="virtual")


def test_cluster_refuses_double_start():
    cluster = LocalCluster(n=2, clock="virtual")
    cluster.start_virtual()
    with pytest.raises(ConfigurationError):
        cluster.start_virtual()


def test_virtual_helpers_refuse_wall_clusters():
    cluster = LocalCluster(n=2)
    with pytest.raises(ConfigurationError):
        cluster.start_virtual()
    with pytest.raises(ConfigurationError):
        cluster.run_virtual(until=1.0)


def test_attach_standard_stack_shapes():
    cluster = LocalCluster(n=3, clock="virtual")
    stacks = attach_standard_stack(cluster, **SIM_SCALE)
    assert sorted(stacks) == [
        "consensus", "fd", "fdp", "omega", "rb", "suspects"]
    assert all(len(components) == 3 for components in stacks.values())
    with pytest.raises(ConfigurationError):
        attach_standard_stack(
            LocalCluster(n=3, clock="virtual"), suspects="psychic")


# ------------------------------------------------------- virtual full stack
def test_virtual_cluster_survives_killed_leader():
    cluster = LocalCluster(n=5, clock="virtual", seed=3)
    stacks = attach_standard_stack(cluster, **SIM_SCALE)
    cluster.start_virtual()
    for p in stacks["consensus"]:
        p.propose(f"v{p.pid}")
    cluster.schedule_kill(0, 30.0)
    cluster.run_virtual(until=2000.0)
    assert cluster.correct_pids == frozenset({1, 2, 3, 4})
    outcome = extract_outcome(cluster.trace, "ec")
    assert set(outcome.decisions) >= cluster.correct_pids
    assert all(check_consensus(outcome, cluster.correct_pids).values())
    for detector in stacks["fd"][1:]:
        assert detector.trusted() == 1
        assert 0 in detector.suspected()


def test_transformation_tracks_the_kill():
    cluster = LocalCluster(n=3, clock="virtual")
    stacks = attach_standard_stack(cluster, with_consensus=False, **SIM_SCALE)
    cluster.start_virtual()
    cluster.schedule_kill(2, 40.0)
    cluster.run_virtual(until=1500.0)
    # The Fig. 2 output must show the kill with strong completeness.
    for fdp in stacks["fdp"][:2]:
        assert 2 in fdp.suspected()


# ------------------------------------------------------------ wall loopback
def test_wall_clock_loopback_cluster_decides():
    async def scenario():
        cluster = LocalCluster(n=3, transport="loopback", seed=1)
        stacks = attach_standard_stack(
            cluster, period=0.02, initial_timeout=0.06,
            timeout_increment=0.02)
        await cluster.start()
        await cluster.run(0.15)
        for p in stacks["consensus"]:
            p.propose(f"v{p.pid}")
        decided = await cluster.run_until(
            lambda: all(p.decided for p in stacks["consensus"]), timeout=10.0)
        await cluster.stop()
        assert decided
        outcome = extract_outcome(cluster.trace, "ec")
        assert all(check_consensus(outcome, cluster.correct_pids).values())

    asyncio.run(scenario())


def test_udp_cluster_survives_killed_leader_end_to_end():
    async def scenario():
        cluster = LocalCluster(n=5, transport="udp", seed=7)
        stacks = attach_standard_stack(
            cluster, period=0.05, initial_timeout=0.12,
            timeout_increment=0.05)
        await cluster.start()
        await cluster.run(0.4)  # let the leader announce itself
        cluster.kill(0)
        for p in stacks["consensus"]:
            if not p.crashed:
                p.propose(f"v{p.pid}")
        decided = await cluster.run_until(
            lambda: all(p.decided for p in stacks["consensus"]
                        if not p.crashed),
            timeout=20.0)
        await cluster.stop()
        assert decided
        outcome = extract_outcome(cluster.trace, "ec")
        assert set(outcome.decisions) == {1, 2, 3, 4}
        assert all(check_consensus(outcome, cluster.correct_pids).values())
        assert sum(h.transport.frames_sent for h in cluster.hosts) > 0

    asyncio.run(scenario())


# ----------------------------------------------------------------- the CLI
def test_cli_cluster_virtual_loopback(capsys):
    code = main(["cluster", "--nodes", "3", "--transport", "loopback",
                 "--virtual"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crash pid=0" in out
    assert "result: OK" in out
    assert "consensus.termination            ok" in out
    assert "detection time T_D   : p0: 10.000" in out


def test_cli_cluster_virtual_requires_loopback(capsys):
    code = main(["cluster", "--nodes", "3", "--transport", "udp",
                 "--virtual"])
    assert code == 2
    assert "loopback" in capsys.readouterr().err
