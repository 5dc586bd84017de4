"""pklink benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload long-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (``import pklink.cli`` plus writing the seeded inputs) is timed in
this process and in fresh processes spread over the measuring time.  Then
the workload's operation list runs in whole rounds, closed loop, one
caller, in process, until ``--seconds`` have passed (at least two rounds,
so every output is repeated).  Outputs are checked after each round,
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics from the traced
ones, plus the tracing overhead.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measuring time (s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit (used internally)")
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """Import the CLI and write the seeded inputs; returns (seconds, ops)."""
    t0 = time.perf_counter()
    import pklink.cli  # noqa: F401  (the import users pay on every call)
    import workloads

    ops = workloads.build(workload, seed, str(workdir))
    return time.perf_counter() - t0, ops


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def execute(op, tracer, index):
    """Run one operation; returns (latency, exit code or None, stdout, error)."""
    import pklink.cli as cli

    stdout, stderr = io.StringIO(), io.StringIO()
    code, error, text = None, None, None
    t0 = time.perf_counter()
    try:
        with tracer.root(index) if tracer is not None else nullcontext():
            if op.call is not None:
                text = op.call()
            else:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main(op.argv)
    except Exception:  # one operation's crash is a failed op, not the end of the run
        error = traceback.format_exc()
    latency = time.perf_counter() - t0
    if op.call is not None and error is None:
        code = 0
    return latency, code, text if text is not None else stdout.getvalue(), error or stderr.getvalue()


def digest(stdout: str, path: str | None) -> tuple[str, int]:
    """sha256 and size of an operation's output (file, then standard output)."""
    h = hashlib.sha256()
    size = 0
    if path is not None:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
    data = stdout.encode()
    h.update(data)
    return h.hexdigest(), size + len(data)


class Run:
    def __init__(self, ops, tracer):
        self.ops = ops
        self.tracer = tracer
        self.rounds = []  # dicts: wall, latency per op, traced; traced rounds add layers, coverage
        self.first = {}  # op index -> digest of its first output
        self.failures = []  # (round, op index, reason)
        self.out_bytes = 0

    def round(self, traced: bool):
        tracer = self.tracer if traced else None
        start = len(self.tracer.spans) if traced else 0
        outputs = []
        # Every round starts from the same collector state, so the cyclic
        # garbage collector runs at the same points in each round.
        gc.collect()
        with tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter()
            for i, op in enumerate(self.ops):
                outputs.append(execute(op, tracer, i))
            wall = time.perf_counter() - t0
        r = len(self.rounds)
        out_bytes = 0
        for i, (op, (latency, code, stdout, error)) in enumerate(zip(self.ops, outputs)):
            if code != op.expect:
                self.failures.append((r, i, f"exit {code}, expected {op.expect}: {error.strip()[-300:]}"))
                continue
            d, size = digest(stdout, op.out)
            if op.argv is not None:
                out_bytes += size
            if i not in self.first:
                self.first[i] = d
                try:
                    problem = op.check(stdout, op.out) if op.check else None
                except Exception as exc:  # unparsable output fails the op
                    problem = f"check raised {exc!r}"
                if problem:
                    self.failures.append((r, i, problem))
            elif self.first[i] != d:
                self.failures.append((r, i, "output differs from its first run"))
        self.out_bytes = out_bytes
        info = {"wall": wall, "latency": [o[0] for o in outputs], "traced": traced}
        if traced:
            round_spans = self.tracer.spans[start:]
            info["layers"] = spans.layer_totals(round_spans)
            info["coverage"] = sum(s[spans.END] - s[spans.START] for s in round_spans if s[spans.NAME] == "op") / wall
        self.rounds.append(info)


def op_minima(rounds) -> list[float]:
    """Each call's minimum latency over the given rounds."""
    return [min(lats) for lats in zip(*(r["latency"] for r in rounds))]


def end_to_end(run: Run, setups: list[float], peak_kb: int) -> dict[str, float]:
    # Every timing is built from each call's minimum latency over the
    # untraced rounds.  The machine's other tenants only ever add time, in
    # bursts that cover a different share of each run; a call's
    # least-disturbed reading repeats from run to run.  The latency
    # quantiles are taken across the calls of a round.
    latencies = op_minima([r for r in run.rounds if not r["traced"]])

    def total(selected):
        return sum(lat for op, lat in zip(run.ops, latencies) if selected(op))

    frames = sum(op.frames for op in run.ops)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies),
        "simulate_s": total(lambda op: op.kind == "simulate"),
        "fit_s": total(lambda op: op.kind == "fit"),
        "frames_per_s": frames / total(lambda op: op.frames > 0),
        "op_p50_ms": 1e3 * deciles[4],
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(run: Run) -> dict[str, float]:
    traced = [r for r in run.rounds if r["traced"]]
    plain = [r for r in run.rounds[1:] if not r["traced"]]
    names = [n for n in PER_LAYER if not n.startswith(("trace.", "cli.out_bytes"))]
    values = spans.median_totals([r["layers"] for r in traced], names)
    values["cli.out_bytes"] = run.out_bytes
    values["trace.overhead_s"] = sum(op_minima(traced)) - sum(op_minima(plain))
    values["trace.root_coverage"] = statistics.median(r["coverage"] for r in traced)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pklink" / "__init__.py").is_file():
        print(f"error: no pklink sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_s, ops = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, setup_s: float) -> int:
    import workloads

    setups = [setup_s]
    probes = 0 if args.trace else SETUP_PROBES
    run = Run(ops, spans.Tracer())
    # A traced run starts with an untraced warm-up round, left out of the
    # overhead, then alternates traced and untraced rounds.
    min_rounds = 5 if args.trace else 2
    # The set-up probes are spread over the measuring time, so that a slow
    # phase of the machine covers only some of them; the time they take is
    # not part of the measuring time.
    paused = 0.0
    t_start = time.perf_counter()

    def measured() -> float:
        return time.perf_counter() - t_start - paused

    while len(run.rounds) < min_rounds or measured() < args.seconds:
        run.round(traced=bool(args.trace) and len(run.rounds) % 2 == 1)
        if len(setups) <= probes and measured() >= (len(setups) - 1) * args.seconds / probes:
            t0 = time.perf_counter()
            setups.append(setup_probe(args.workload, args.seed))
            paused += time.perf_counter() - t0
    while len(setups) <= probes:
        setups.append(setup_probe(args.workload, args.seed))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for name, residual in workloads.audit_failures(ops).items():
        for r in range(len(run.rounds)):
            for i, op in enumerate(ops):
                if op.audit == name:
                    run.failures.append((r, i, f"mass audit {residual:.3e} on {name}"))

    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        metrics, units = end_to_end(run, setups, peak), END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    attempted = len(ops) * len(run.rounds)
    failed_ops = {(r, i) for r, i, _ in run.failures}

    runs_dir = WORK / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(runs_dir / f"{stem}-digests.json", "w") as fh:
        json.dump([{"op": i, "label": ops[i].label, "sha256": d} for i, d in sorted(run.first.items())], fh, indent=1)
    if args.trace:
        run.tracer.write(runs_dir / f"{stem}-spans.jsonl", t_start)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(run.rounds)} rounds x {len(ops)} ops, closed loop, one caller, in process")
    for r, i, reason in run.failures[:20]:
        print(f"FAILED round {r} op {i} ({ops[i].label}): {reason}")
    print(f"  failed_frac {len(failed_ops) / attempted:.6g} ratio ({len(failed_ops)} of {attempted} ops)")
    if not args.trace:
        n = len(ops)
        print(f"  setup samples {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups))
        print(f"  op latency quantiles across {n} calls per round ({n - int(0.9 * n)} beyond p90), "
              f"each call's latency the minimum of {len(run.rounds)} rounds")
    else:
        print("  single thread, no queues: no layer waits, so no wait time is reported")
        print(f"  tracing overhead (traced minus untraced wall_s): {metrics['trace.overhead_s']:.6f} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    combined = hashlib.sha256("".join(d for _, d in sorted(run.first.items())).encode()).hexdigest()
    print(f"  outputs sha256 {combined}  (per op: {runs_dir / (stem + '-digests.json')})")
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
