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

from .channel import PkParams, Route, Normalization, impulse_response, peak_time, superpose
from .errors import EXIT_BROKEN_PIPE, ConfigurationError, DomainError, PkLinkError, UsageError, exit_code_for
from .fitting import ConcentrationSeries, fit_least_squares, fit_residuals
from .floattext import rows_text
from .modem import DetectionReport, add_noise, detect, symbol_samples
from .scenarios import Scenario, builtin_scenarios, resolve_scenario
from .signals import SampledSignal, SignalRole, dose_rate_signal, integrate_ode, sample, split_doses
from .testbed import PlatformConfig, plan_flows, plan_volumes, simulate_platform

ENGINES = ("analytic", "ode", "platform")

# Planned-versus-nominal disagreement (relative) above which plan reports
# the hardware sheet as inconsistent.
PLAN_WARN_RTOL = 0.01

# Rows formatted per block by _write_rows.  A block costs a few hundred
# numpy calls, and its arrays grow with it: on rat-oral's simulate columns
# (72 001 rows, 3 distinct columns of 4), 256, 512, 1024, 2048 and 4096-row
# blocks formatted in 142, 97, 78, 70 and 66 ms (median of three best-of-6
# runs on a shared 2-vCPU Xeon) at traced peaks of 0.14, 0.27, 0.54, 1.07
# and 2.10 MB; the peak grows with the distinct columns too (1.26 MB for
# impulse's 7 at 1024 rows).
CSV_BLOCK_ROWS = 1024


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(fh, header, columns) -> None:
    """Write a CSV header and the columns side by side, one row per sample.

    Every value is written as repr(float(v)), the shortest decimal that
    reads back to the same double, by floattext.rows_text.  The rows are
    converted CSV_BLOCK_ROWS at a time, so memory does not grow with the
    grid.  A column whose doubles equal an earlier column's bit for bit (as
    the ode and platform columns of simulate do) has its digits found once
    and laid out in each of its fields; columns equal only in value, such
    as 0.0 and -0.0, are formatted apart.
    """
    fh.write(",".join(header) + "\n")
    # distinct columns as raw bits, and for each column the index of its bits
    distinct: list[np.ndarray] = []
    source: list[int] = []
    for values in columns:
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
        match = next((k for k, seen in enumerate(distinct) if np.array_equal(bits, seen)), None)
        if match is None:
            match = len(distinct)
            distinct.append(bits)
        source.append(match)
    for start in range(0, len(distinct[0]), CSV_BLOCK_ROWS):
        block = [bits[start : start + CSV_BLOCK_ROWS].view(np.float64) for bits in distinct]
        fh.write(rows_text(block, source))


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
    file" from the open, "cannot write output file" from a write, flush,
    cut or close.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise UsageError(f"cannot open output file {path}: {exc}") from exc
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
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def derive_platform(pk: PkParams, route: Route) -> PlatformConfig:
    """Hardware twin for a parameter set when a scenario supplies none.

    Both vessels take the distribution volume and the pumps are planned
    from the rate constants, so the twin realizes the rates exactly.
    """
    k_a = pk.k_a if pk.k_a is not None else pk.k_e
    q_a, q_e = plan_flows(k_a, pk.k_e, pk.V, pk.V)
    return PlatformConfig(Q_a=q_a, Q_e=q_e, V_a=pk.V, V_b=pk.V, route=route)


def scenario_platform(scenario: Scenario) -> PlatformConfig:
    if scenario.platform is not None:
        return scenario.platform
    return derive_platform(scenario.pk, scenario.route)


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
    """Transmit the scenario frame and demodulate the received signal."""
    if scenario.modulation is None or scenario.payload is None:
        raise UsageError(f"scenario {scenario.name!r} has no modulation/payload section")
    try:
        symbol_samples(scenario.modulation, scenario.dt)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from None
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
    for name, value in zip(("V_a", "V_b"), nominal_volumes or ()):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"nominal {name} must be positive and finite, got {value}")
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
            conc = impulse_response(pk, route, t, Normalization.CONCENTRATION)
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
        fh.write(f"flip_flop_ambiguous: {str(result.flip_flop_ambiguous).lower()}\n")
        if result.k_fast is not None:
            fh.write(f"k_fast: {_fmt(result.k_fast)}\n")
            fh.write(f"k_slow: {_fmt(result.k_slow)}\n")
        if result.alternate is not None:
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
