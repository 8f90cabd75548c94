#!/usr/bin/env python3
"""Compare two sets of benchmark results, such as a parent and a change.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``perfbench/run.py --out``.  Only
untraced runs are compared.  For every workload and end-to-end metric in
``BENCHMARK.json`` one row is printed: each side's median and quartiles,
the change's median as a ratio of the parent's (with the parent median as
its base), the share of runs paired by seed that the change won (ties
count for neither side), and a verdict:

* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every change run beat every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better``: the change won at least 90% of the pairs and the medians
  differ by more than the parent's own quartile distance;
* ``same``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics of the last untraced run with that seed."""
    runs: dict[str, dict[int, dict]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("traced"):
            continue
        values = {name: m["value"] for name, m in record["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = summary(parent)
    c1, cm, c3 = summary(change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    dominates = (
        min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    )
    if spread > bound and not dominates:
        return "unresolved", share
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", share
    if share >= 0.9 and abs(cm - pm) > p3 - p1:
        return "better", share
    return "same", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    header = (
        f"{'workload':8s} {'metric':13s} {'parent median [q1, q3]':30s} "
        f"{'change median [q1, q3]':30s} {'change/parent (base)':26s} {'won':>5s}  verdict"
    )
    print(header)
    worse = False
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = parent.get(name, {}), change.get(name, {})
        if not a or not b:
            print(f"{name:8s} (no runs on {'parent' if not a else 'change'} side)")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            pv = [run[key] for run in a.values()]
            cv = [run[key] for run in b.values()]
            pairs = [(a[s][key], b[s][key]) for s in sorted(set(a) & set(b))]
            result, share = verdict(pv, cv, pairs, metric["better"], metric["bound"])
            worse |= result == "worse"
            p1, pm, p3 = summary(pv)
            c1, cm, c3 = summary(cv)
            unit = metric["unit"]
            print(
                f"{name:8s} {key:13s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}] {unit}':30s} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}] {unit}':30s} "
                f"{f'{cm / pm:.3f} (base {pm:.4g} {unit})':26s} "
                f"{share:5.0%}  {result} (n={len(pv)}/{len(cv)}, pairs={len(pairs)})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
