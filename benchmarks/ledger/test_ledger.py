"""Tests of the ledger itself: ``python -m pytest benchmarks/ledger -q``.

Not part of tier-1 (``testpaths`` is ``tests``); these spawn the runner
the way the driver does and take about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
from stats import LEDGER_DIR, REPO_ROOT, load_contract  # noqa: E402

RUN = str(LEDGER_DIR / "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args):
    done = subprocess.run(  # lint: ignore[proc-isolation]
        [sys.executable, RUN, *map(str, args)],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_contract_shape():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_quick_ledger_has_every_metric_of_every_workload(tmp_path):
    contract = load_contract()
    out = tmp_path / "ledger.json"
    run("--quick", "--out", out)
    ledger = json.loads(out.read_text())
    assert out.with_suffix(".txt").read_text().startswith("performance ledger")
    assert ledger["host"]["nproc"] and ledger["host"]["python"]
    wanted = {
        0: [m["name"] for m in contract["end_to_end"]],
        1: [m["name"] for m in contract["per_layer"]],
    }
    seen = set()
    for record in ledger["runs"]:
        seen.add((record["workload"], record["trace"]))
        assert record["correct"] is True and record["failed"] == 0
        assert list(record["metrics"]) == wanted[record["trace"]]
        for name, metric in record["metrics"].items():
            assert isinstance(metric["value"], float), name
            if record["trace"] == 0:
                assert metric["value"] > 0, (record["workload"], name)
    assert seen == {
        (w["name"], trace) for w in contract["workloads"] for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", ["rsm_burst", "paper_sim"])
def test_exact_counts_follow_the_seed_and_nothing_else(workload):
    def exact(seed):
        done = run("--workload", workload, "--seed", seed, "--quick",
                   "--trace", 0, "--record")
        return json.loads(done.stdout.splitlines()[-1])["exact"]

    first, again, other = exact(3), exact(3), exact(4)
    assert first and first == again
    assert first != other


def test_result_line_is_the_drivers_four_keys():
    done = run("--workload", "paper_sim", "--seed", 1, "--seconds", 1,
               "--trace", 0)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1


def test_a_failed_check_exits_non_zero_and_prints_no_result():
    broken = (
        "import sys; sys.argv = ['run.py']; "
        f"sys.path[:0] = [{str(LEDGER_DIR)!r}, {str(REPO_ROOT / 'src')!r}]; "
        "import loads, run; run.IMPORT_REPS = 1; "  # keep the patched module
        "loads.verdicts_ok = lambda verdicts: False; "
        "sys.exit(run.main(['--workload', 'trace_pipeline', '--quick', "
        "'--trace', '0']))"
    )
    done = subprocess.run(  # lint: ignore[proc-isolation]
        [sys.executable, "-c", broken], capture_output=True, text=True,
        timeout=120, cwd=REPO_ROOT,
    )
    assert done.returncode != 0
    assert "CheckFailed" in done.stderr
    assert '"metrics"' not in done.stdout


def ledger_of(values):
    return {"runs": [
        {"workload": "kv_serial", "trace": 0, "attempted": 100, "failed": 0,
         "metrics": {"throughput_per_s": {"value": v, "unit": "1/s"}}}
        for v in values
    ]}


def test_compare_verdicts(capsys):
    steady = ledger_of([100, 101, 99, 100, 100])
    assert compare.compare(steady, ledger_of([99, 100, 101, 100, 100])) == 0
    assert "within bound" in capsys.readouterr().out
    assert compare.compare(steady, ledger_of([60, 61, 59, 60, 60])) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert compare.compare(steady, ledger_of([150, 151, 149, 150, 150])) == 0
    assert "improved" in capsys.readouterr().out
    noisy = ledger_of([60, 100, 140, 80, 120])
    assert compare.compare(noisy, ledger_of([60, 61, 59, 60, 60])) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = ledger_of([100, 100, 100])
    failing["runs"][0]["failed"] = 1
    assert compare.compare(steady, failing) == 1
    assert "ROSE" in capsys.readouterr().out
