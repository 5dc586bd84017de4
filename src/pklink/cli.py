"""Command-line interface.

Subcommands: impulse (sampled impulse responses), simulate (analytic, ODE,
and platform engines side by side), link (modulate, transmit, detect),
fit (parameter estimation from a CSV), plan (hardware planning), and
scenarios (list built-ins).  All numeric output is written as CSV with
full-precision decimal floats and LF line endings, so identical inputs
produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error,
5 synchronization/detection error, 141 stdout's reader closed the pipe.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys

import numpy as np
import orjson

from .channel import Route, Normalization, impulse_response, peak_time, superpose
from .errors import (
    EXIT_BROKEN_PIPE,
    ConfigurationError,
    DomainError,
    PkLinkError,
    TruncationError,
    UsageError,
    exit_code_for,
    shown_path,
)
from .fitting import ConcentrationSeries, fit_least_squares, fit_residuals
from .modem import DetectionReport, Receiver, add_noise, detect
from .scenarios import Scenario, builtin_scenarios, resolve_scenario
from .signals import SampledSignal, SignalRole, dose_rate_signal, dose_steps, integrate_ode, sample, split_doses
from .testbed import PlatformConfig, _require_positive, plan_flows, plan_volumes, simulate_platform

ENGINES = ("analytic", "ode", "platform")

# Planned-versus-nominal disagreement (relative) above which plan reports
# the hardware sheet as inconsistent.
PLAN_WARN_RTOL = 0.01

# Values written per block by _write_rows, which takes as many rows as hold
# this many values.  A block costs one orjson call and a few dozen numpy
# calls, and its arrays grow with its values: on rat-oral's simulate
# columns (72 001 rows of 4), 1024, 2048, 3072, 4096 and 6144-value blocks
# wrote in 35.0, 31.6, 30.5, 30.0 and 29.2 ms (median of 25 interleaved
# runs on a shared 2-vCPU Xeon) at traced peaks of 0.10, 0.21, 0.31, 0.41
# and 0.61 MB.  A 3072-value block whose every field is rewritten peaks at
# 0.37 MB.
CSV_BLOCK_VALUES = 3072

# orjson writes the shortest digits that read back to each double, the
# digits repr writes, but lays four forms out otherwise: 1e16 and 1e-7 for
# repr's 1e+16 and 1e-07, 0.000015 for 1.5e-05 (1e-5 <= |v| < 1e-4), and
# null for nan and the infinities.  _rows_text marks what it rewrites with
# bytes that orjson never writes: it deletes _DROP and expands each of
# _GROW into its text.
_COMMA, _DOT, _MINUS, _ZERO, _NINE, _EXP, _NEWLINE = b",.-09e\n"
_DROP = b"\x01"
_GROW = {b"\x02": b"e-05,", b"\x03": b"e-05\n", b"\x04": b"e+", b"\x05": b"-0"}
_E05, _E05_ROW_END, _PLUS, _PAD = b"\x02\x03\x04\x05"
_SMALL = int.from_bytes(b"0.0000", "little")
_NULL = int.from_bytes(b"null", "little")
# "null" rewritten as nan, inf and -inf
_NON_FINITE = np.frombuffer(b"nan" + _DROP + b"inf" + _DROP + b"-inf", np.uint8).reshape(3, 4)


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Row i is a[i : i + width], a view of the 1-D byte array a."""
    return np.lib.stride_tricks.as_strided(a, (a.size - width + 1, width), (1, 1))


def _rows_text(block: np.ndarray) -> str:
    """The CSV rows of a C-contiguous float64 block, each value as repr(float(v)).

    orjson writes the values, flattened, as "[v,v,...,v]"; one scan of
    those bytes finds the field ends and puts the last one of each row to
    a newline.  A field whose layout differs from repr's is rewritten only
    where its text shows that form, so text that already reads as repr
    passes through: "e" before a digit gains a "+", a one-digit "e-d"
    becomes "e-0d", "0.0000d..." becomes "d...e-05" (with a "." after d
    if more digits follow), and "null" becomes nan, inf or -inf by the
    value.
    """
    width = block.shape[1]
    values = block.reshape(-1)
    buf = bytearray(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY))
    size = len(buf)
    buf += bytes(8)  # so that an 8-byte read from any field's start stays inside
    body = np.frombuffer(buf, np.uint8)
    ends = np.append(np.flatnonzero(body == _COMMA), size - 1)  # each field's ',' or the closing ']'
    body[ends[width - 1 :: width]] = _NEWLINE
    if b"null" in buf or b"0.0000" in buf:
        starts = np.append(1, ends[:-1] + 1)
        head = _windows(body, 8)[starts].view("<u8")[:, 0]  # each field's first 8 bytes
        null = np.flatnonzero((head & 0xFFFFFFFF) == _NULL)
        if null.size:
            v = values[null]
            _windows(body, 4)[starts[null]] = _NON_FINITE[np.where(np.isnan(v), 0, np.where(v > 0, 1, 2))]
        sign = (head & 0xFF) == _MINUS
        head >>= sign.astype(np.uint64) << np.uint64(3)  # past a '-'
        first = (head >> np.uint64(48)).astype(np.uint8)
        small = np.flatnonzero((head & 0xFFFFFFFFFFFF) == _SMALL)
        if small.size:
            at, end = starts[small] + sign[small], ends[small]
            # "0.0000d" as five dropped bytes, d, and a '.' that only more digits keep
            layout = np.full((small.size, 7), _DROP[0], np.uint8)
            layout[:, 5] = first[small]
            layout[:, 6] = np.where(end > at + 7, _DOT, _DROP[0])
            _windows(body, 7)[at] = layout
            body[end] = np.where(body[end] == _NEWLINE, _E05_ROW_END, _E05)
    if b"e" in buf:
        exp = np.flatnonzero(body == _EXP)
        after = body[exp + 1]
        body[exp[(after >= _ZERO) & (after <= _NINE)]] = _PLUS
        minus = exp[after == _MINUS] + 1
        past = body[minus + 2]  # not a digit after a one-digit exponent
        body[minus[(past < _ZERO) | (past > _NINE)]] = _PAD
    del body  # a bytearray that numpy shares cannot shrink
    del buf[size:], buf[0]  # the padding and the opening '['
    if _DROP in buf:
        buf = buf.translate(None, _DROP)
    for mark, grown in _GROW.items():
        if mark in buf:
            buf = buf.replace(mark, grown)
    return buf.decode()


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(fh, header, columns) -> None:
    """Write a CSV header and the columns side by side, one row per sample.

    Every value is written as repr(float(v)), the shortest decimal that
    reads back to the same double.  The rows are written
    CSV_BLOCK_VALUES // len(columns) at a time, so memory grows neither
    with the grid nor with the columns.
    """
    fh.write(",".join(header) + "\n")
    rows = CSV_BLOCK_VALUES // len(columns)
    for start in range(0, len(columns[0]), rows):
        fh.write(_rows_text(np.stack([values[start : start + rows] for values in columns], axis=1, dtype=np.float64)))


@contextlib.contextmanager
def _output(path):
    """A text handle on stdout (path None or "-") or on the file at path.

    The file is opened as open(path, "w") opens it (symlinks followed, a
    new file created with mode 0o666 & ~umask, the same encoding), but not
    truncated: the text is written over the old bytes, and a regular file
    is then cut to what was written, also when a write fails.  Truncating
    at open cost five times the whole in-place write on an ext4 volume
    mounted with discard.  Devices and FIFOs, which cannot be cut, are
    written as they are.  The file keeps its inode, so hard links, its mode
    and its owner stay.  An OSError raises UsageError: "cannot open output
    file" from the open (also for the ValueError of a path with a NUL
    byte), "cannot write output file" from a write, flush, cut or close;
    either shows a path that is not printable through repr.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot open output file {shown_path(path)}: {exc}") from exc
    try:
        with open(fd, "w", newline="") as fh:
            try:
                yield fh
                fh.flush()
            finally:
                # after an error, what fh still buffers is written past the cut on close
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise UsageError(f"cannot write output file {shown_path(path)}: {exc}") from exc


def scenario_platform(scenario: Scenario) -> PlatformConfig:
    """The scenario's hardware twin, or one derived from its parameters.

    A derived twin gives both vessels the distribution volume and plans
    the pumps from the rate constants, so it realizes the rates exactly.
    """
    if scenario.platform is not None:
        return scenario.platform
    pk = scenario.pk
    k_a = pk.k_a if pk.k_a is not None else pk.k_e
    q_a, q_e = plan_flows(k_a, pk.k_e, pk.V, pk.V)
    return PlatformConfig(Q_a=q_a, Q_e=q_e, V_a=pk.V, V_b=pk.V, route=scenario.route)


def run_engine(scenario: Scenario, engine: str) -> SampledSignal:
    """Central-compartment concentration on the scenario grid, one engine."""
    schedule = scenario.schedule()
    dt = scenario.dt
    n = scenario.grid_size()
    if engine == "analytic":
        return sample(
            lambda t: superpose(scenario.pk, scenario.route, schedule, t),
            0.0,
            dt,
            n,
            SignalRole.CONCENTRATION,
        )
    if engine == "ode":
        infusions, jumps = split_doses(schedule, dt, n - 1)
        # the infusions on the n - 1 steps, as the twin lays them, so both refuse one past the grid
        rates = dose_rate_signal(infusions, dt, n - 1)
        return integrate_ode(scenario.pk, scenario.route, rates, (n - 1) * dt, jumps)
    if engine == "platform":
        trace = simulate_platform(scenario_platform(scenario), schedule, dt, (n - 1) * dt)
        return SampledSignal(t0=0.0, dt=dt, samples=trace.c_b, role=SignalRole.CONCENTRATION)
    raise UsageError(f"unknown engine {engine!r}; choose from {ENGINES}")


def max_relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm of the difference, relative to the larger signal sup-norm."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b))) / scale


def run_simulate(scenario: Scenario) -> tuple[dict[str, SampledSignal], dict[str, float]]:
    """All three engines plus their pairwise worst relative deviations."""
    signals = {engine: run_engine(scenario, engine) for engine in ENGINES}
    deviations = {}
    for i, first in enumerate(ENGINES):
        for second in ENGINES[i + 1 :]:
            deviations[f"{first}_{second}"] = max_relative_deviation(
                signals[first].samples, signals[second].samples
            )
    return signals, deviations


def run_link(scenario: Scenario, engine: str = "analytic", lam: float | None = None) -> DetectionReport:
    """Transmit the scenario frame and demodulate the received signal.

    Before any engine runs, a record with fewer windows than the preamble,
    or one that ends before a dose of the frame does, is a detection error."""
    if scenario.modulation is None or scenario.payload is None:
        raise UsageError(f"scenario {scenario.name!r} has no modulation/payload section")
    n_steps = scenario.grid_size() - 1
    try:
        Receiver(scenario.pk, scenario.modulation, scenario.dt, n_steps + 1)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from None
    schedule = scenario.schedule()
    if any(e.mass > 0.0 and dose_steps(e, scenario.dt, n_steps) is None for e in schedule):
        raise TruncationError(
            f"the frame's last dose ends at {schedule.end_time} s, after the record ends at {n_steps * scenario.dt} s"
        )
    received = run_engine(scenario, engine)
    if not scenario.noise.silent:
        received = add_noise(
            received,
            scenario.noise.sigma,
            scenario.noise.spike_prob,
            scenario.noise.spike_scale,
            seed=scenario.seed,
        )
    return detect(
        received,
        scenario.pk,
        scenario.modulation,
        payload_length=len(scenario.payload),
        lam=lam,
        reference=scenario.payload,
    )


def _rel_dev(values, nominal) -> float:
    """Largest relative deviation of values from nominal, element by element."""
    return max(abs(v - n) / n for v, n in zip(values, nominal))


def plan_report(
    k_a: float,
    k_e: float,
    mode: str,
    volumes: tuple[float, float] | None = None,
    flow: float | None = None,
    nominal_volumes: tuple[float, float] | None = None,
) -> list[str]:
    """Render hardware planning results, flagging inconsistent nominal data.

    mode "flows" plans pump settings for fixed vessels; mode "volumes"
    plans vessel sizes for one shared pump flow.  Nominal volumes, when
    supplied, must be positive and finite; when they disagree with the
    planned ones by more than 1%, a warning line documents that the
    nominal pair violates Q = k*V, and says the pair looks swapped when
    the swapped pair agrees within PLAN_WARN_RTOL.
    """
    _require_positive(("V_a", "V_b"), nominal_volumes or (), "nominal ")
    lines = [f"mode: {mode}", f"k_a: {_fmt(k_a)}", f"k_e: {_fmt(k_e)}"]
    if mode == "flows":
        if volumes is None:
            raise UsageError("mode flows needs vessel volumes (--v-a and --v-b)")
        q_a, q_e = plan_flows(k_a, k_e, volumes[0], volumes[1])
        lines += [
            f"V_a: {_fmt(volumes[0])}",
            f"V_b: {_fmt(volumes[1])}",
            f"Q_a: {_fmt(q_a)}",
            f"Q_e: {_fmt(q_e)}",
        ]
        return lines
    if mode == "volumes":
        if flow is None:
            raise UsageError("mode volumes needs a pump flow (--flow)")
        v_a, v_b = plan_volumes(k_a, k_e, flow)
        lines += [
            f"flow: {_fmt(flow)}",
            f"V_a: {_fmt(v_a)}",
            f"V_b: {_fmt(v_b)}",
        ]
        if nominal_volumes is not None:
            nom_a, nom_b = nominal_volumes
            if _rel_dev((v_a, v_b), (nom_a, nom_b)) > PLAN_WARN_RTOL:
                swapped = _rel_dev((v_a, v_b), (nom_b, nom_a)) <= PLAN_WARN_RTOL
                lines.append(
                    f"WARNING: planned volumes (V_a={_fmt(v_a)}, V_b={_fmt(v_b)}) disagree with "
                    f"the nominal volumes (V_a={_fmt(nom_a)}, V_b={_fmt(nom_b)}) "
                    f"by more than 1%; the nominal pair is inconsistent with Q = k*V"
                    + (" and looks swapped." if swapped else ".")
                )
        return lines
    raise UsageError(f"unknown plan mode {mode!r}; choose flows or volumes")


# ---- subcommand implementations ----


def _load_scenario(args) -> Scenario:
    if not getattr(args, "scenario", None):
        raise UsageError("this command needs --scenario <name|path>")
    scenario = resolve_scenario(args.scenario)
    return scenario.with_overrides(dt=args.dt, horizon=args.horizon, seed=args.seed)


def _cmd_scenarios(args) -> int:
    with _output(args.out) as fh:
        for name, scenario in sorted(builtin_scenarios().items()):
            fh.write(f"{name}: {scenario.description}\n")
    return 0


def _cmd_impulse(args) -> int:
    scenario = _load_scenario(args)
    pk = scenario.pk
    t = np.arange(scenario.grid_size()) * scenario.dt
    columns: list[tuple[str, np.ndarray]] = []
    routes = [Route.INTRAVENOUS] + ([Route.EXTRAVASCULAR] if pk.k_a is not None else [])
    # rates that overflow on the grid are refused below, not warned about
    with np.errstate(all="ignore"):
        for route in routes:
            tag = "iv" if route is Route.INTRAVENOUS else "ev"
            amount = impulse_response(pk, route, t, Normalization.AMOUNT)
            conc = amount / pk.V  # impulse_response's CONCENTRATION, without a second curve
            peak = impulse_response(pk, route, peak_time(pk, route), Normalization.CONCENTRATION)
            columns.append((f"{tag}_amount", amount))
            columns.append((f"{tag}_conc", conc))
            columns.append((f"{tag}_norm", conc / peak))
    for name, values in columns:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError(f"impulse column {name} is not finite at t={_fmt(t[bad[0]])}")
    with _output(args.out) as fh:
        _write_rows(fh, ["t"] + [name for name, _ in columns], [t] + [values for _, values in columns])
    return 0


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    signals, deviations = run_simulate(scenario)
    times = signals["analytic"].times
    with _output(args.out) as fh:
        _write_rows(fh, ("t",) + ENGINES, [times] + [signals[e].samples for e in ENGINES])
        summary = " ".join(f"{key}={_fmt(value)}" for key, value in deviations.items())
        fh.write(f"# max_rel_dev {summary}\n")
    return 0


def _cmd_link(args) -> int:
    if args.lam is not None and not (math.isfinite(args.lam) and args.lam >= 0):
        raise UsageError(f"--lam must be a finite number >= 0, got {args.lam}")
    scenario = _load_scenario(args)
    report = run_link(scenario, engine=args.engine, lam=args.lam)
    with _output(args.out) as fh:
        report.to_csv(fh)
    if args.out not in (None, "-"):
        bits = "".join(str(b) for b in report.payload_bits)
        print(f"frame start: {_fmt(report.frame_start)} s")
        print(f"recovered payload: {bits}")
        if report.errors is not None:
            print(f"bit errors: {report.errors} of {len(report.payload_bits)} (ber {_fmt(report.ber)})")
    return 0


def _cmd_fit(args) -> int:
    route = Route(args.route)
    column = args.column
    if column is not None and column.isdecimal():
        column = int(column)
    data = ConcentrationSeries.from_csv(args.csv, route, args.dose, column if column is not None else 1)
    if args.method == "residuals":
        result = fit_residuals(data, volume=args.volume)
    else:
        init = fit_residuals(data, volume=args.volume).params
        result = fit_least_squares(data, init, volume=args.volume)
    with _output(args.out) as fh:
        fh.write(f"method: {result.method}\n")
        if result.params.k_a is not None:
            fh.write(f"k_a: {_fmt(result.params.k_a)}\n")
        fh.write(f"k_e: {_fmt(result.params.k_e)}\n")
        fh.write(f"lumped_amplitude: {_fmt(result.lumped_amplitude)}\n")
        fh.write(f"V: {_fmt(result.params.V)}\n")
        fh.write(f"F: {_fmt(result.params.F)}\n")
        fh.write(f"rss: {_fmt(result.rss)}\n")
        fh.write(f"iterations: {result.iterations}\n")
        fh.write(f"flip_flop_ambiguous: {str(result.alternate is not None).lower()}\n")
        if result.alternate is not None:
            # the primary reading takes the faster rate as k_a
            fh.write(f"k_fast: {_fmt(result.params.k_a)}\n")
            fh.write(f"k_slow: {_fmt(result.params.k_e)}\n")
            fh.write(f"alternate_k_a: {_fmt(result.alternate.k_a)}\n")
            fh.write(f"alternate_k_e: {_fmt(result.alternate.k_e)}\n")
    return 0


def _cmd_plan(args) -> int:
    unread = ("flow", "check_v_a", "check_v_b") if args.mode == "flows" else ("v_a", "v_b")
    for dest in unread:
        if getattr(args, dest) is not None:
            raise UsageError(f"--{dest.replace('_', '-')} is not read by plan --mode {args.mode}")
    k_a, k_e, flow = args.k_a, args.k_e, args.flow
    volumes = None
    if args.v_a is not None and args.v_b is not None:
        volumes = (args.v_a, args.v_b)
    nominal = None
    if (args.check_v_a is None) != (args.check_v_b is None):
        raise UsageError("--check-v-a and --check-v-b must be given together")
    if args.check_v_a is not None:
        nominal = (args.check_v_a, args.check_v_b)
    if args.scenario:
        scenario = resolve_scenario(args.scenario)
        if k_a is None:
            k_a = scenario.pk.k_a
        if k_e is None:
            k_e = scenario.pk.k_e
        if flow is None and scenario.platform is not None:
            flow = scenario.platform.Q_e
        if volumes is None and scenario.platform is not None:
            volumes = (scenario.platform.V_a, scenario.platform.V_b)
        if nominal is None:
            nominal = scenario.nominal_volumes
    if k_a is None or k_e is None:
        raise UsageError("plan needs rate constants (--k-a and --k-e, or --scenario)")
    lines = plan_report(k_a, k_e, args.mode, volumes=volumes, flow=flow, nominal_volumes=nominal)
    with _output(args.out) as fh:
        for line in lines:
            fh.write(line + "\n")
    return 0


# Every flag of every command, with its argparse settings.
_FLAGS = {
    "--scenario": {"help": "built-in scenario name or scenario file path"},
    "--dt": {"type": float, "help": "override the scenario sample step (s)"},
    "--horizon": {"type": float, "help": "override the scenario horizon (s)"},
    "--seed": {"type": int, "help": "override the scenario random seed"},
    "--out": {"help": "output file path (default: stdout)"},
    "--engine": {"choices": ENGINES, "default": "analytic", "help": "simulation engine"},
    "--lam": {"type": float, "help": "deconvolution regularization weight (default: auto)"},
    "--csv": {"required": True, "help": "input CSV with a t column"},
    "--route": {"choices": [r.value for r in Route], "required": True},
    "--dose": {"type": float, "required": True, "help": "administered dose (mg)"},
    "--method": {"choices": ["residuals", "least-squares"], "default": "least-squares"},
    "--column": {"help": "concentration column name or index (default: 1)"},
    "--volume": {"type": float, "help": "known distribution volume (mL)"},
    "--k-a": {"type": float, "help": "absorption rate constant (1/s)"},
    "--k-e": {"type": float, "help": "elimination rate constant (1/s)"},
    "--mode": {"choices": ["flows", "volumes"], "required": True},
    "--v-a": {"type": float, "help": "administration vessel volume (mL)"},
    "--v-b": {"type": float, "help": "central vessel volume (mL)"},
    "--flow": {"type": float, "help": "shared pump flow (mL/s)"},
    "--check-v-a": {"type": float, "help": "nominal V_a to check"},
    "--check-v-b": {"type": float, "help": "nominal V_b to check"},
}

_SCENARIO_FLAGS = ("--scenario", "--dt", "--horizon", "--seed", "--out")

# Each command's help text, handler, and the flags the handler reads (and
# no others), in the order --help lists them.
COMMANDS = {
    "scenarios": ("list built-in scenarios", _cmd_scenarios, ("--out",)),
    "impulse": ("sampled impulse responses for a scenario", _cmd_impulse, _SCENARIO_FLAGS),
    "simulate": ("run all engines on a scenario", _cmd_simulate, _SCENARIO_FLAGS),
    "link": ("transmit and detect a bit frame", _cmd_link, _SCENARIO_FLAGS + ("--engine", "--lam")),
    "fit": (
        "estimate parameters from a concentration CSV",
        _cmd_fit,
        ("--out", "--csv", "--route", "--dose", "--method", "--column", "--volume"),
    ),
    "plan": (
        "plan pump flows or vessel volumes",
        _cmd_plan,
        ("--scenario", "--out", "--k-a", "--k-e", "--mode", "--v-a", "--v-b", "--flow", "--check-v-a",
         "--check-v-b"),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    The first call builds the whole tree, every command's flags included,
    and later calls return it, so callers must not change it: a parse
    leaves no state in it, and its help headings are in the language set
    when it was built.
    """
    parser = argparse.ArgumentParser(
        prog="pklink",
        description="Simulate and decode drug-concentration signalling through a one-compartment channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except PkLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except BrokenPipeError:
        # the reader of stdout has gone (pklink ... | head); point stdout at
        # devnull, so that Python's flush at exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
