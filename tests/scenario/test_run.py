"""One run: the one lifecycle never leaks a cluster, ``result: OK`` means
one thing, the same document is judged the same on every runtime — and
the bytes a deterministic run produces did not move."""

import asyncio
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.qos import qos_report
from repro.cli import main
from repro.obs.sinks import MemorySink
from repro.scenario import (
    Scenario,
    cluster_for,
    render_run,
    run_ok,
    run_scenario,
)

ROOT = Path(__file__).resolve().parents[2]
SMOKE = ROOT / "examples" / "scenarios" / "smoke.json"
PARENT = json.loads(
    (Path(__file__).parent / "fixtures" / "parent_sha256.json").read_text())


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------- never leak a cluster
class StubCluster:
    """The slice of ClusterAPI ``run_scenario`` drives, counting calls."""

    n = 3

    def __init__(self, fail_in=None):
        self.fail_in = fail_in
        self.calls = []

    def fault(self, op, args, at=None):
        self.calls.append("fault")

    async def start(self):
        self.calls.append("start")

    async def wait_quiescent(self, timeout=None):
        self.calls.append("wait_quiescent")
        if self.fail_in == "wait_quiescent":
            raise RuntimeError("boom in wait_quiescent")
        return True

    async def stop(self):
        self.calls.append("stop")

    def traces(self):
        return MemorySink()

    def verdicts(self):
        return {}


@pytest.mark.parametrize("fail_in", ["wait_quiescent", "during"])
def test_stop_is_awaited_exactly_once_when_the_run_raises(fail_in):
    cluster = StubCluster(fail_in)

    async def during(_cluster):
        if fail_in == "during":
            raise RuntimeError("boom in during")

    with pytest.raises(RuntimeError, match=f"boom in {fail_in}"):
        asyncio.run(run_scenario(cluster, Scenario(n=3), during=during))
    assert cluster.calls.count("stop") == 1
    assert cluster.calls[-1] == "stop"


def test_the_lifecycle_order_and_what_during_returns():
    cluster = StubCluster()
    scenario = Scenario(n=3, events=[{"t": 0.1, "op": "heal"}])

    async def during(running):
        assert running is cluster and cluster.calls[-1] == "start"
        return "offered"

    result = asyncio.run(run_scenario(cluster, scenario, during=during))
    assert cluster.calls == ["fault", "start", "wait_quiescent", "stop"]
    assert result["during"] == "offered"
    assert result["scenario"] == scenario.resolved()
    assert result["quiescent"] and result["ok"]


# ------------------------------------------------- one meaning of "result: OK"
def test_each_conjunct_flips_ok_alone():
    qos = qos_report(MemorySink())
    verdicts = {"fd.omega": True, "consensus.termination": True}
    assert qos.bound_ok is None  # no period: unmeasurable is not violated
    assert run_ok(True, verdicts, qos)
    assert run_ok(True, verdicts, replace(qos, bound_ok=True))
    assert not run_ok(False, verdicts, qos)
    assert not run_ok(True, verdicts, replace(qos, bound_ok=False))
    for name in verdicts:
        assert not run_ok(True, {**verdicts, name: False}, qos)


def run_smoke(runtime, **where):
    scenario = Scenario.load(SMOKE)
    cluster = cluster_for(scenario, runtime, seed=7, **where)
    return asyncio.run(run_scenario(cluster, scenario))


@pytest.mark.parametrize("runtime", [
    "virtual", "local", pytest.param("proc", marks=pytest.mark.slow),
])
def test_the_smoke_document_is_judged_the_same_on_every_runtime(
        runtime, tmp_path):
    where = {"trace_out": tmp_path} if runtime == "proc" else {}
    result = run_smoke(runtime, **where)
    assert list(result["verdicts"]) == [
        "fd.completeness", "fd.accuracy", "fd.omega",
        "fd.trusted-not-suspected", "consensus.termination",
        "consensus.uniform-agreement", "consensus.validity",
        "consensus.uniform-integrity",
    ]
    assert result["ok"] and result["quiescent"], render_run(result)
    assert result["qos"].bound_ok is True
    assert result["scenario"] == Scenario.load(SMOKE).resolved()
    assert render_run(result).endswith("result: OK")


def test_the_omega_verdict_and_the_qos_report_share_one_leader_stabilization():
    result = run_smoke("virtual")
    omega, qos = result["verdicts"]["fd.omega"], result["qos"]
    assert omega.stabilized_at is not None
    assert omega.stabilized_at == qos.leader_stabilized_at
    assert omega.witness == qos.stable_leader


def test_a_violated_verdict_renders_as_a_failed_run():
    result = run_smoke("virtual")
    result["verdicts"]["consensus.validity"] = False
    result["ok"] = run_ok(
        result["quiescent"], result["verdicts"], result["qos"])
    report = render_run(result)
    assert "consensus.validity               VIOLATED" in report
    assert report.endswith("result: FAILED")


def test_scripted_cluster_computes_the_fd_verdicts_and_the_bound(capsys):
    # `repro cluster --duration` used to judge consensus only: no fd.*
    # verdict and no 2(n-1) line were ever computed for it.  (What they
    # say is a wall-clock matter — a stalled test host may earn a
    # wrongful suspicion — so only the exit code's consistency is pinned.)
    code = main(["cluster", "--transport", "loopback", "--duration", "2",
                 "--crash", "0:0.8"])
    out = capsys.readouterr().out
    assert "n=5 period=0.05 propose_after=1.0 duration=2.0" in out
    table = out[out.index("verdicts:"):out.index("QoS report")]
    for name in ("fd.completeness", "fd.accuracy", "fd.omega",
                 "fd.trusted-not-suspected", "consensus.termination",
                 "consensus.uniform-agreement"):
        assert f"  {name:32s} " in table
    assert "detection time T_D   : p0:" in out
    assert "[2(n-1) bound = 8: " in out
    assert code == (0 if out.rstrip().endswith("result: OK") else 1)


# --------------------------------------------------- bytes that must not move
def test_virtual_smoke_trace_and_verdict_block_match_the_parent(
        tmp_path, capsys):
    trace = tmp_path / "smoke.jsonl"
    assert main(["scenario", "run", "--file", str(SMOKE),
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    key = "scenario run --file examples/scenarios/smoke.json (virtual): "
    # A fault-plan loss is a recorded `drop` now; nothing else may move.
    lines = trace.read_bytes().splitlines(keepends=True)
    drops = [line for line in lines if b'"k":"drop"' in line]
    assert drops and all(b'"reason":"fault"' in line for line in drops)
    rest = b"".join(line for line in lines if b'"k":"drop"' not in line)
    assert sha256(rest) == PARENT[key + "--trace-out file"]
    # Only the header above `verdicts:` may change (it gained
    # propose_after= and the armed faults).
    block = out[out.index("verdicts:"):]
    assert block.endswith("result: OK\n")
    assert sha256(block) == PARENT[
        key + "stdout from 'verdicts:' through 'result:'"]
    assert "n=3 period=0.05 propose_after=4.0 duration=6.0" in out


def test_cluster_virtual_trace_matches_the_parent_modulo_provenance(
        tmp_path, capsys):
    traces = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main(["cluster", "--transport", "loopback", "--virtual",
                     "--nodes", "3", "--trace-out", str(path)]) == 0
        traces.append(path.read_bytes())
    capsys.readouterr()
    assert traces[0] == traces[1]
    lines = traces[0].splitlines(keepends=True)
    provenance = [line for line in lines if b'"k":"scenario.run"' in line]
    assert len(provenance) == 1  # the run is a scenario now: one new line
    rest = b"".join(line for line in lines if line not in provenance)
    assert sha256(rest) == PARENT[
        "cluster --transport loopback --virtual --nodes 3: --trace-out file"]
