#!/usr/bin/env python3
"""Compare two sets of benchmark results against ``BENCHMARK.json``'s bounds.

    python3 benchmarks/e2e/compare.py BASE... --new NEW...      # base vs change
    python3 benchmarks/e2e/compare.py --aa SET_A... --new SET_B...

Each argument is a result file written by ``run.py --out`` (a JSON list of
per-workload results); several files form a *set* of repeated runs.  One
row is printed per workload × end-to-end metric: both medians, their
ratio (new ÷ base), each side's spread (interquartile range ÷ median, when
a side has at least four runs) and a verdict:

    better      new is better than base by more than the bound
    within      new is within the bound of base
    worse       new is worse than base by more than the bound
    unresolved  a side's spread exceeds the bound, so "within" cannot be
                told from noise — unless every new run beats every base
                run (or loses to it), which decides it anyway

Exit status is 1 if any row is ``worse`` — and, with ``--aa`` (two sets of
runs of the *same* code, which must agree), also if any row is not
``within`` or if a count that should repeat exactly does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Results grouped by workload, over every file of a set."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for result in json.loads(Path(path).read_text()):
            runs.setdefault(result["workload"], []).append(result)
    return runs


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def exact(runs: list[dict]) -> set:
    """What must repeat exactly when the same code runs the same seeds."""
    return {
        (r["seed"], r["digest"], json.dumps(r["counts"], sort_keys=True), r["failed"])
        for r in runs
    }


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (statistics.median(new) / statistics.median(base) - 1.0)
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if spreads and max(spreads) > bound:
        if all(sign * n > sign * b for n in new for b in base):
            return "better"
        if all(sign * n < sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    return "worse" if gain < -bound else "within"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base", nargs="+", help="result file(s) of the base side")
    ap.add_argument("--new", nargs="+", required=True, help="result file(s) of the new side")
    ap.add_argument("--aa", action="store_true", help="both sides are the same code")
    args = ap.parse_args()
    spec = json.loads(SPEC_PATH.read_text())
    base, new = load(args.base), load(args.new)

    bad = 0
    fmt = "{:<13} {:<15} {:>12} {:>12} {:>7} {:>7} {:>7}  {}"
    print(fmt.format("workload", "metric", "base", "new", "new/base", "sprd_b", "sprd_n", "verdict"))
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            v = verdict(b, n, metric["better"], metric["bound"])
            bad += v == "worse" or (args.aa and v != "within")
            sb, sn = spread(b), spread(n)
            print(
                fmt.format(
                    workload,
                    name,
                    f"{statistics.median(b):.4g}",
                    f"{statistics.median(n):.4g}",
                    f"{statistics.median(n) / statistics.median(b):.3f}",
                    "-" if sb is None else f"{sb:.3f}",
                    "-" if sn is None else f"{sn:.3f}",
                    v,
                )
            )
        if args.aa and exact(base[workload]) != exact(new[workload]):
            print(f"{workload}: counts or digests differ between the two sets")
            bad += 1
    print("FAIL" if bad else "OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
