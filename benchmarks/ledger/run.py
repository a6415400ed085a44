"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process, checks its outputs, prints every metric
by name with its unit and sample count, and ends with one JSON line:
``--trace 0`` gives the end-to-end metrics (measured with tracing off),
``--trace 1`` the per-layer metrics (spans recorded around calls into each
layer, the program's own counters and ``span.*`` events, and the drills).

Without ``--workload`` it runs all five, each pass in a fresh child
process, ``--repeat K`` times, and prints the ledger (``--out FILE`` also
saves it as JSON plus ``.txt``); ``--calibrate`` then checks every bound
against the spread just observed and writes the table into the README.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stats import (  # noqa: E402
    K_REF, LEDGER_DIR, REPO_ROOT, clock, load_contract, median, percentile,
    reference_kernel, spread,
)

RESULTS = LEDGER_DIR / "results"
README = LEDGER_DIR / "README.md"
QUICK_SECONDS = 1.0
IMPORT_REPS = 3
FORGET = ("repro", "drills", "loads", "tracing")


def measure(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Run one workload here and reduce it to the contract's metrics."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    # Imports are most of set-up, and set-up is reported as a median: load
    # the program IMPORT_REPS times, forgetting it in between (only the
    # first round pays for the standard library, and the median drops it).
    import_rounds = []
    for round_ in range(IMPORT_REPS):
        began = clock()
        import drills
        import loads
        from tracing import SpanLog
        import_rounds.append(clock() - began)
        if round_ < IMPORT_REPS - 1:
            for module in [m for m in sys.modules if m.split(".")[0] in FORGET]:
                del sys.modules[module]
    import_s = median(import_rounds)
    speed = K_REF / median([reference_kernel() for _ in range(3)])
    contract = load_contract()
    spans = SpanLog(name)
    budget = 0.15 if seconds > 2 * QUICK_SECONDS else 0.02

    async def run() -> Any:  # lint: ignore[ambient-state-reach]
        outcome = await loads.WORKLOADS[name](seed, seconds, traced, spans)
        # lint: ignore[ambient-state-reach]
        found = await drills.run_drills(spans, budget) if traced else {}
        return outcome, found

    outcome, drilled = asyncio.run(run())  # lint: ignore[ambient-state-reach]
    windows = outcome.windows
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "correct": True, "unit": outcome.unit,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "exact": outcome.exact,
        "samples": {
            "sub_windows": len(windows),
            "units": sum(len(w.unit_times) for w in windows),
            "setups": len(outcome.setups),
        },
    }
    if not traced:
        # Kept so that another estimator can be tried on old results.
        record["windows"] = [
            [w.work, w.wall, w.stall, percentile(w.unit_times, 0.5),
             percentile(w.unit_times, 0.95), w.kernel]
            for w in windows
        ]
        values = {
            "setup_s": (import_s + median(outcome.setups)) * speed,
            "throughput_per_s": across(
                windows, lambda w, scale: w.work / (w.wall * scale), "higher"),
            "latency_p50_ms": across(
                windows,
                lambda w, scale: percentile(w.unit_times, 0.5) * scale * 1e3),
            "latency_p95_ms": across(
                windows,
                lambda w, scale: percentile(w.unit_times, 0.95) * scale * 1e3,
                tail_q=outcome.tail_q),
            "stall_s": across(
                windows, lambda w, scale: w.stall * scale,
                tail_q=outcome.tail_q),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = contract["end_to_end"]
    else:
        values = {**drilled, **outcome.layers}
        listed = contract["per_layer"]
        unknown = set(values) - {m["name"] for m in listed}
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        spans.dump(RESULTS / f"trace-{name}.json")
        record["self_time_s"] = {
            layer: round(took, 6)
            for layer, took in sorted(spans.self_times().items())
        }
    # A layer the workload does not exercise reports 0: nothing measured.
    record["metrics"] = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    return record


def across(
    windows: List[Any], stat: Any, better: str = "lower",
    tail_q: Optional[float] = None,
) -> float:
    """One end-to-end number from *stat* of every sub-window.

    CPU-bound workloads bracket each sub-window with the reference kernel
    and their times are scaled to the reference speed; that leaves
    two-sided error, so their central numbers take the median.  Everything
    reported as measured takes the better quartile, and a tail number the
    workload's *tail_q* (the better quartile too, or the best sub-window):
    interference (and, in a failover episode, both sessions having had a
    request in flight at the dead leader) only ever makes those worse.
    """
    scaled = bool(windows[0].kernel)
    values = [stat(w, K_REF / w.kernel if scaled else 1.0) for w in windows]
    if scaled and tail_q is None:
        return median(values)
    q = 0.25 if tail_q is None else tail_q
    return percentile(values, 1 - q if better == "higher" else q)


def show(record: Dict[str, Any]) -> str:
    samples = record["samples"]
    lines = [
        f"# {record['workload']}  seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}  "
        f"unit of work: {record['unit']}",
        f"#   samples: {samples['sub_windows']} sub-windows, "
        f"{samples['units']} units, {samples['setups']} set-ups;  "
        f"ops_attempted={record['attempted']} ops_failed={record['failed']} "
        f"error_ratio={record['failed'] / max(record['attempted'], 1):.6f}",
    ]
    for key, value in record["exact"].items():
        lines.append(f"#   exact {key} = {value}")
    for name, metric in record["metrics"].items():
        lines.append(f"{name:<44s} {metric['value']:>16.6f} {metric['unit']}")
    return "\n".join(lines)


def result_line(record: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    })


# ------------------------------------------------------------- all workloads
def run_child(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One pass of one workload in a fresh interpreter; its full record."""
    done = subprocess.run(  # lint: ignore[proc-isolation]
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--record"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(
            f"{name} (seed {seed}, trace {trace}) failed: "
            f"exit {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_stamp() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
    }


def ledger_text(ledger: Dict[str, Any]) -> str:
    """Every (metric, workload) pair: median over the repeats, its spread."""
    host = ledger["host"]
    lines = [
        f"performance ledger — seed {ledger['seed']}, "
        f"{ledger['seconds']} s windows, {ledger['repeat']} repeat(s); "
        f"host: {host['nproc']} cores, Python {host['python']}, "
        f"{host['platform']}",
    ]
    for trace, title in ((0, "end to end (tracing off)"), (1, "per layer")):
        runs = [r for r in ledger["runs"] if r["trace"] == trace]
        if not runs:
            continue
        workloads = list(dict.fromkeys(r["workload"] for r in runs))
        lines += ["", f"== {title} ==",
                  f"{'metric':<44s}" + "".join(f"{w:>16s}" for w in workloads)]
        for name, metric in runs[0]["metrics"].items():
            cells = []
            for workload in workloads:
                values = [r["metrics"][name]["value"] for r in runs
                          if r["workload"] == workload]
                cells.append(f"{median(values):>16.4f}")
            lines.append(f"{name + ' [' + metric['unit'] + ']':<44s}"
                         + "".join(cells))
        for workload in workloads:
            mine = [r for r in runs if r["workload"] == workload]
            lines.append(
                f"-- {workload}: unit of work = {mine[0]['unit']}; "
                f"ops_attempted={sum(r['attempted'] for r in mine)} "
                f"ops_failed={sum(r['failed'] for r in mine)}; "
                f"samples/run={mine[0]['samples']}; exact={mine[0]['exact']}"
            )
    return "\n".join(lines)


def calibrate(ledger: Dict[str, Any]) -> bool:
    """Bound ≥ 2 × observed spread and spread ≤ 10 %, for every pair;
    the table goes into the README between the calibration markers."""
    contract = load_contract()
    runs = [r for r in ledger["runs"] if r["trace"] == 0]
    rows = ["| metric | workload | median | spread (IQR/median) | bound | ok |",
            "|---|---|---|---|---|---|"]
    fine = True
    for metric in contract["end_to_end"]:
        for workload in dict.fromkeys(r["workload"] for r in runs):
            values = [r["metrics"][metric["name"]]["value"] for r in runs
                      if r["workload"] == workload]
            wide = spread(values)
            # setup_s is judged on its median only (a few hundredths of a
            # second of imports): the contract exempts its spread.
            ok = metric["name"] == "setup_s" or (
                metric["bound"] >= 2 * wide and wide <= 0.10)
            fine &= ok
            rows.append(
                f"| `{metric['name']}` | `{workload}` | {median(values):.4g} "
                f"{metric['unit']} | {wide:.2%} | {metric['bound']:.0%} | "
                f"{'yes' if ok else 'NO'} |")
    host = ledger["host"]
    table = "\n".join([
        f"{len(runs) // max(len(contract['workloads']), 1)} runs per workload,"
        f" seeds {ledger['seed']}.., {ledger['seconds']} s windows, "
        f"{host['nproc']} cores, Python {host['python']}.", "", *rows])
    text = README.read_text()
    marked = re.compile(
        r"(<!-- calibration:begin -->\n).*?(<!-- calibration:end -->)", re.S)
    README.write_text(marked.sub(lambda m: m[1] + table + "\n" + m[2], text))
    print(table)
    return fine


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows, short drills; "
                        "every check still on, bounds not applied")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record", action="store_true",
                        help="end with the full record (what --out keeps) "
                        "instead of the driver's four-key result line")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else args.seconds

    if args.workload:
        # lint: ignore[ambient-state-reach]
        record = measure(args.workload, args.seed, seconds, bool(args.trace))
        print(show(record))
        print(json.dumps(record) if args.record else result_line(record))
        return 0

    ledger: Dict[str, Any] = {
        "host": host_stamp(), "seed": args.seed, "seconds": seconds,
        "repeat": args.repeat, "runs": [],
    }
    passes = (0, 1) if args.trace is None else (args.trace,)
    for repeat in range(args.repeat):
        # Rotate the order so no workload always runs on a warm or a
        # cold machine.
        order = names[repeat % len(names):] + names[:repeat % len(names)]
        for name in order:
            for trace in passes:
                record = run_child(name, args.seed + repeat, seconds, trace)
                record["repeat"] = repeat
                ledger["runs"].append(record)
    text = ledger_text(ledger)
    print(text)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(ledger, indent=1) + "\n")
        args.out.with_suffix(".txt").write_text(text + "\n")
    if args.calibrate and not calibrate(ledger):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
