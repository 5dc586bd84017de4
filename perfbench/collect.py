"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --workload sweep-cli --trace 1
    python3 perfbench/collect.py --report perfbench/baseline/seed-commit.jsonl
    python3 perfbench/collect.py --seeds 1-10 \\
        --side ../parent=.perfbench-work/results/parent.jsonl \\
        --side .=.perfbench-work/results/change.jsonl

Each ``--side ROOT=FILE`` names a checkout and the JSON-lines file its
results are appended to.  With two sides, the side that runs first
alternates from seed to seed.  The spread of a metric is the distance
between the first and third quartile of its values (Python's
``statistics.quantiles(values, n=4)``) as a share of their median; a
metric is steady when its spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed, "result": result}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median); one value has spread 0."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def report(records: list[dict], title: str):
    print(f"== {title}")
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        rows = [r for r in records if r["workload"] == workload]
        failed = sum(r["result"]["failed"] for r in rows)
        attempted = sum(r["result"]["attempted"] for r in rows)
        print(f"{workload}: {len(rows)} runs, {failed} of {attempted} ops failed, "
              f"{sum(r['elapsed_s'] for r in rows):.0f} s elapsed")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            unit = rows[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name)
            if len(values) < 2:
                print(f"  {name:40s} {values[0]:.6g} {unit}")
                continue
            med, q1, q3, s = spread(values)
            verdict = ""
            if bound is not None:
                verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
                verdict = f"bound {bound:g}: {verdict}"
            print(f"  {name:40s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {s:.4f}  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    p.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--side", action="append", metavar="ROOT=FILE",
                   help="checkout and result file (default: .=.perfbench-work/results/current.jsonl)")
    p.add_argument("--report", nargs="+", metavar="FILE", help="only report the spreads in these result files")
    args = p.parse_args(argv)
    if args.report:
        for path in args.report:
            with open(path) as fh:
                records = [json.loads(line) for line in fh]
            for trace in (0, 1):
                if any(r["trace"] == trace for r in records):
                    report([r for r in records if r["trace"] == trace], f"{path} trace {trace}")
        return 0
    sides = []
    for text in args.side or [f".={ROOT / '.perfbench-work' / 'results' / 'current.jsonl'}"]:
        root, _, out = text.partition("=")
        sides.append((Path(root).resolve(), Path(out)))
    for _, out in sides:
        out.parent.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    collected = {out: [] for _, out in sides}
    for workload in workloads:
        for k, seed in enumerate(seed_list(args.seeds)):
            order = sides if k % 2 == 0 else sides[::-1]
            for root, out in order:
                record = run_once(root, workload, seed, args.trace)
                with open(out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                collected[out].append(record)
                r = record["result"]
                print(f"{workload} seed {seed} {root.name or root}: correct {r['correct']} "
                      f"{r['failed']}/{r['attempted']} failed, {record['elapsed_s']:.1f} s", flush=True)
    for _, out in sides:
        report(collected[out], str(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
