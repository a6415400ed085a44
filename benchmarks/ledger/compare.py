"""Compare two ledgers: ``python3 benchmarks/ledger/compare.py A.json B.json``.

A and B are files written by ``run.py --repeat K --out``; A is the base
(the parent commit), B the change.  One row per (metric, workload):

* **regressed** — B's median is worse than A's by more than the bound;
* **improved** — B's median is better than A's by more than the spread
  between A's own runs (inter-quartile distance over median);
* **within bound** — neither;
* **unresolved** — A's own spread exceeds the bound, so this pair cannot
  tell a regression from noise: not the same as unchanged.

Every ratio is printed with its base.  Per-layer rows carry no bound and
no verdict; they show where a change landed.  Exit 1 on any regression or
any rise in a workload's error ratio (failed ÷ attempted operations).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from stats import load_contract, median, spread


def values_of(
    ledger: Dict[str, Any], trace: int, workload: str, metric: str
) -> List[float]:
    return [
        run["metrics"][metric]["value"] for run in ledger["runs"]
        if run["trace"] == trace and run["workload"] == workload
        and metric in run["metrics"]
    ]


def error_ratio(ledger: Dict[str, Any], workload: str) -> float:
    runs = [r for r in ledger["runs"] if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(base: Dict[str, Any], change: Dict[str, Any]) -> int:
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    failures = 0
    print(f"{'metric':<42s} {'workload':<15s} {'B / A':>28s} {'ratio':>7s} "
          f"{'A spread':>9s} {'bound':>6s}  verdict")
    for trace, metrics in ((0, contract["end_to_end"]),
                           (1, contract["per_layer"])):
        for metric in metrics:
            for workload in workloads:
                a = values_of(base, trace, workload, metric["name"])
                b = values_of(change, trace, workload, metric["name"])
                if not a or not b or not median(a):
                    continue  # not run, or a layer this workload skips
                mid_a, mid_b, wide = median(a), median(b), spread(a)
                ratio = mid_b / mid_a
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                bound = metric.get("bound")
                if bound is None:
                    verdict = "-"
                elif wide > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSED"
                    failures += 1
                elif worse < -wide:
                    verdict = "improved"
                else:
                    verdict = "within bound"
                shown = "" if bound is None else f"{bound:.0%}"
                pair = f"{mid_b:.5g} / {mid_a:.5g} {metric['unit']}"
                print(
                    f"{metric['name']:<42s} {workload:<15s} {pair:>28s} "
                    f"{ratio:>7.3f} {wide:>9.2%} {shown:>6s}  {verdict}"
                )
    for workload in workloads:
        before = error_ratio(base, workload)
        after = error_ratio(change, workload)
        failures += after > before
        pair = f"{after:.6f} / {before:.6f}"
        print(f"{'error_ratio':<42s} {workload:<15s} {pair:>28s}  "
              f"{'ROSE' if after > before else 'no rise'}")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = (json.load(open(path)) for path in argv)
    return compare(base, change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
