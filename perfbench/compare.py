"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

The files are JSON lines as written by collect.py.  For every workload and
end-to-end metric one row gives each side's median and quartiles, the
share of seed-paired runs the change wins (ties count for neither) and a
verdict:

- gain: the change wins at least nine tenths of the pairs and the medians
  differ, in the better direction, by more than the parent's quartile
  distance;
- unresolved: either side's quartile distance, as a share of its median,
  is wider than the metric's bound, and not every change run beats every
  parent run;
- REGRESSION: the change's median is worse than the parent's by more than
  the bound;
- same: none of the above.

A gain does not count when the change fails more operations than the
parent.  Traced runs, when present, add one row per per-layer metric with
the two medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from collect import SPEC, spread


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records, workload, trace, name) -> dict[int, float]:
    return {
        r["seed"]: r["result"]["metrics"][name]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and name in r["result"]["metrics"]
    }


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0 is an improvement
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    pm, p1, p3, p_spread = spread(list(parent.values()))
    cm, c1, c3, c_spread = spread(list(change.values()))
    wide = max(p_spread, c_spread) > bound
    every = all(sign * (c - p) > 0 for c in change.values() for p in parent.values())
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - pm) > p3 - p1:
        result = "gain"
    elif wide and not every:
        result = "unresolved"
    elif -sign * (cm - pm) > bound * abs(pm):
        result = "REGRESSION"
    else:
        result = "same"
    return result, f"{wins}/{len(seeds)}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    workloads = [w["name"] for w in SPEC["workloads"]]
    failed = {}
    for side, records in (("parent", parent), ("change", change)):
        for w in workloads:
            rows = [r for r in records if r["workload"] == w and r["trace"] == 0]
            failed[side, w] = sum(r["result"]["failed"] for r in rows)
    header = f"{'workload':10s} {'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  wins   verdict"
    print(header)
    for w in workloads:
        for m in SPEC["end_to_end"]:
            pv, cv = values(parent, w, 0, m["name"]), values(change, w, 0, m["name"])
            if not pv or not cv:
                continue
            result, wins = verdict(pv, cv, m["better"], m["bound"])
            if result == "gain" and failed["change", w] > failed["parent", w]:
                result = "gain void: more failed ops"
            pm, p1, p3, _ = spread(list(pv.values()))
            cm, c1, c3, _ = spread(list(cv.values()))
            print(f"{w:10s} {m['name']:14s} {pm:12.6g} [{p1:.6g}, {p3:.6g}]".ljust(60)
                  + f" {cm:12.6g} [{c1:.6g}, {c3:.6g}]".ljust(35) + f" {wins:>5s}  {result} ({m['unit']})")
        print(f"{w:10s} failed ops: parent {failed['parent', w]}, change {failed['change', w]}")
    for w in workloads:
        for m in SPEC["per_layer"]:
            pv, cv = values(parent, w, 1, m["name"]), values(change, w, 1, m["name"])
            if pv and cv:
                pm, cm = statistics.median(pv.values()), statistics.median(cv.values())
                print(f"{w:10s} {m['name']:40s} parent {pm:.6g}  change {cm:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
