"""Command-line interface.

Subcommands: impulse (sampled impulse responses), simulate (analytic, ODE,
and platform engines side by side), link (modulate, transmit, detect),
fit (parameter estimation from a CSV), plan (hardware planning), and
scenarios (list built-ins).  All numeric output is written as CSV with
full-precision decimal floats and LF line endings, so identical inputs
produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error,
5 synchronization/detection error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .channel import PkParams, Route, Normalization, impulse_response, peak_time, superpose
from .errors import ConfigurationError, DomainError, PkLinkError, UsageError, exit_code_for
from .fitting import ConcentrationSeries, fit_least_squares, fit_residuals
from .modem import DetectionReport, add_noise, detect, symbol_samples
from .scenarios import Scenario, builtin_scenarios, resolve_scenario
from .signals import SampledSignal, SignalRole, dose_rate_signal, integrate_ode, sample
from .testbed import PlatformConfig, plan_flows, plan_volumes, simulate_platform

ENGINES = ("analytic", "ode", "platform")

# Planned-versus-nominal disagreement (relative) above which plan reports
# the hardware sheet as inconsistent.
PLAN_WARN_RTOL = 0.01

# Rows formatted per block by _write_rows: large enough that the per-block
# cost vanishes, small enough that the Python floats and text of one block
# stay a few hundred kilobytes whatever the grid length (with 4096-row
# blocks, the sweep-cli benchmark's peak RSS rose by about 2 MB).
CSV_BLOCK_ROWS = 1024


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(fh, header, columns) -> None:
    """Write a CSV header and the columns side by side, one row per sample.

    Every value is written as repr(float(v)), the shortest decimal that
    reads back to the same double.  The rows are converted one block at a
    time, so memory does not grow with the grid.
    """
    fh.write(",".join(header) + "\n")
    # %r of a Python float is its repr: one format operation per block
    row_fmt = ",".join(["%r"] * len(columns)) + "\n"
    block_fmt = row_fmt * CSV_BLOCK_ROWS
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([values[start : start + CSV_BLOCK_ROWS] for values in columns])
        fmt = block_fmt if len(block) == CSV_BLOCK_ROWS else row_fmt * len(block)
        fh.write(fmt % tuple(block.ravel().tolist()))


@contextlib.contextmanager
def _output(path):
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot open output file {path}: {exc}") from exc
    with fh:
        yield fh


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
        rate = dose_rate_signal(schedule, dt, n)
        return integrate_ode(scenario.pk, scenario.route, rate, (n - 1) * dt)
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
    if column is not None and column.isdigit():
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


# Flags that several commands take, in the order --help lists them.
_COMMON_FLAGS = {
    "--scenario": {"help": "built-in scenario name or scenario file path"},
    "--dt": {"type": float, "help": "override the scenario sample step (s)"},
    "--horizon": {"type": float, "help": "override the scenario horizon (s)"},
    "--seed": {"type": int, "help": "override the scenario random seed"},
    "--out": {"help": "output file path (default: stdout)"},
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_COMMON_FLAGS[name])


def _out_flag(p: argparse.ArgumentParser) -> None:
    _add_common(p, "--out")


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, *_COMMON_FLAGS)


def _link_flags(p: argparse.ArgumentParser) -> None:
    _scenario_flags(p)
    p.add_argument("--engine", choices=ENGINES, default="analytic", help="simulation engine")
    p.add_argument(
        "--lam", type=float, default=None, help="deconvolution regularization weight (default: auto)"
    )


def _fit_flags(p: argparse.ArgumentParser) -> None:
    _out_flag(p)
    p.add_argument("--csv", required=True, help="input CSV with a t column")
    p.add_argument("--route", choices=[r.value for r in Route], required=True)
    p.add_argument("--dose", type=float, required=True, help="administered dose (mg)")
    p.add_argument("--method", choices=["residuals", "least-squares"], default="least-squares")
    p.add_argument("--column", default=None, help="concentration column name or index (default: 1)")
    p.add_argument("--volume", type=float, default=None, help="known distribution volume (mL)")


def _plan_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, "--scenario", "--out")
    p.add_argument("--k-a", type=float, dest="k_a", help="absorption rate constant (1/s)")
    p.add_argument("--k-e", type=float, dest="k_e", help="elimination rate constant (1/s)")
    p.add_argument("--mode", choices=["flows", "volumes"], required=True)
    p.add_argument("--v-a", type=float, dest="v_a", help="administration vessel volume (mL)")
    p.add_argument("--v-b", type=float, dest="v_b", help="central vessel volume (mL)")
    p.add_argument("--flow", type=float, help="shared pump flow (mL/s)")
    p.add_argument("--check-v-a", type=float, dest="check_v_a", help="nominal V_a to check")
    p.add_argument("--check-v-b", type=float, dest="check_v_b", help="nominal V_b to check")


# Each command's help text, handler, and a function that adds the flags
# the handler reads (and no others).
COMMANDS = {
    "scenarios": ("list built-in scenarios", _cmd_scenarios, _out_flag),
    "impulse": ("sampled impulse responses for a scenario", _cmd_impulse, _scenario_flags),
    "simulate": ("run all engines on a scenario", _cmd_simulate, _scenario_flags),
    "link": ("transmit and detect a bit frame", _cmd_link, _link_flags),
    "fit": ("estimate parameters from a concentration CSV", _cmd_fit, _fit_flags),
    "plan": ("plan pump flows or vessel volumes", _cmd_plan, _plan_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one named.

    A parser built for one command parses that command's command lines as
    the whole tree does, with the same usage lines, and refuses the other
    commands as invalid choices.
    """
    parser = argparse.ArgumentParser(
        prog="pklink",
        description="Simulate and decode drug-concentration signalling through a one-compartment channel.",
    )
    if command is None:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        names = [command]
        # name every command in usage lines, as the whole tree does
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    for name in names:
        help_text, run, add_flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a run pays for the parser of its own command only; anything else
    # (no arguments, --help, an unknown word) gets the whole tree's messages
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PkLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
