"""Workload inputs, operation lists and output checks.

Every input is made from the workload seed during set-up and written
under the run's work directory; the program sees only those files and
the command-line arguments built here.  Tolerances are the acceptance
gate's (tests/test_acceptance.py).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pklink import cli, modem
from pklink.channel import PkParams, Route, ev_concentration
from pklink.modem import ModulationConfig
from pklink.scenarios import NoiseConfig, Scenario, builtin_scenarios, resolve_scenario
from pklink.testbed import mass_audit, simulate_platform

# Bench constants of the acceptance gate.
BENCH_PK = PkParams(k_e=1.51e-3, V=0.98 / 1.51e-3, k_a=3.27e-3)
BENCH_DOSE = 130.0
SYMBOL_PERIOD = 600.0
PUMP_RATE = 1.3
SIGMAS = (0.0, 0.05, 0.15, 0.5, 1.5)
SWEEP_FRAMES = 200
LINK_DTS = (5.0, 10.0, 12.0, 15.0, 20.0, 30.0)
LINK_HORIZON = 15000.0
LINK_SIGMA = 0.01  # noisy links: bit errors are results, but sync must hold
SPARSE_TIMES = np.linspace(60.0, 4800.0, 28)

ENGINE_DEV_TOL = 1e-3
MASS_AUDIT_TOL = 1e-9
STRIP_TOL = 1e-2
LS_TOL = 1e-4
NOISY_LS_TOL = 5e-2
# A BER estimate may read lower at the next noise level by chance once the
# curve saturates near 0.5; a dip counts as a failure only beyond this many
# binomial standard errors of the two estimates.
BER_DIP_SE = 3.0


@dataclass
class Op:
    """One timed operation: a cli.main call or a library call."""

    kind: str  # simulate, fit, link, sweep, impulse, plan, scenarios or error
    argv: list[str] | None = None
    call: Callable[[], str] | None = None  # returns the output text
    out: str | None = None  # file the operation writes
    expect: int = 0  # expected exit code
    frames: int = 0  # frame detections performed
    check: Callable[[str, str | None], str | None] | None = None  # (stdout, out) -> problem
    audit: str | None = None  # built-in whose platform trace must conserve mass

    @property
    def label(self) -> str:
        return " ".join(self.argv[:3]) if self.argv else self.kind


# ---- output checks: each returns a problem description or None ----


def _read(stdout: str, path: str | None) -> str:
    if path is None:
        return stdout
    with open(path) as fh:
        return fh.read()


def _tail(path: str, size: int = 4096) -> str:
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - size))
        return fh.read().decode()


def _fields(text: str) -> dict[str, str]:
    pairs = (line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return {key: value for key, value in pairs}


def check_simulate(stdout, path):
    last = _tail(path).splitlines()[-1]
    if not last.startswith("# max_rel_dev "):
        return f"no max_rel_dev line, last line {last!r}"
    devs = dict(item.split("=") for item in last.split()[2:])
    worst = max(float(v) for v in devs.values())
    if not worst <= ENGINE_DEV_TOL:
        return f"engine deviation {worst:.3e} above {ENGINE_DEV_TOL}"
    return None


def check_fit(truth: PkParams, tol: float):
    def check(stdout, path):
        f = _fields(_read(stdout, path))
        readings = [(float(f["k_a"]), float(f["k_e"]))]
        if f.get("flip_flop_ambiguous") == "true":
            readings.append((float(f["alternate_k_a"]), float(f["alternate_k_e"])))
        devs = [max(abs(ka - truth.k_a) / truth.k_a, abs(ke - truth.k_e) / truth.k_e) for ka, ke in readings]
        if not min(devs) <= tol:
            return f"fit deviation {min(devs):.3e} above {tol}"
        return None

    return check


def check_link(silent: bool, n_bits: int):
    def check(stdout, path):
        lines = _read(stdout, path).splitlines()
        if "frame_start,threshold,errors,ber" not in lines:
            return "no summary section"
        at = lines.index("frame_start,threshold,errors,ber")
        n_symbols = len(modem.PREAMBLE) + n_bits
        if at != n_symbols + 1:
            return f"{at - 1} symbol rows, expected {n_symbols}"
        errors = int(lines[at + 1].split(",")[2])
        if silent and errors != 0:
            return f"{errors} bit errors on a silent link"
        return None

    return check


def check_sweep(stdout, path):
    rates = [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]
    if len(rates) != len(SIGMAS):
        return f"{len(rates)} BER values for {len(SIGMAS)} noise levels"
    if rates[0] != 0.0:
        return f"BER {rates[0]} at sigma 0"
    n_bits = SWEEP_FRAMES * 8
    for a, b in zip(rates, rates[1:]):
        se = math.sqrt((a * (1 - a) + b * (1 - b)) / n_bits)
        if b < a - BER_DIP_SE * se - 1e-12:
            return f"BER falls from {a} to {b} with more noise ({BER_DIP_SE} standard errors {BER_DIP_SE * se:.4f})"
    return None


def check_rows(expected: int):
    def check(stdout, path):
        with open(path) as fh:
            rows = sum(1 for _ in fh) - 1
        return None if rows == expected else f"{rows} rows, expected {expected}"

    return check


def check_flows(k_a, k_e, v_a, v_b):
    def check(stdout, path):
        f = _fields(stdout)
        dev = max(abs(float(f["Q_a"]) - k_a * v_a) / (k_a * v_a), abs(float(f["Q_e"]) - k_e * v_b) / (k_e * v_b))
        return None if dev <= 1e-12 else f"planned flows off by {dev:.3e}"

    return check


def check_volumes(k_a, k_e, flow):
    def check(stdout, path):
        f = _fields(stdout)
        dev = max(abs(float(f["V_a"]) - flow / k_a) / (flow / k_a), abs(float(f["V_b"]) - flow / k_e) / (flow / k_e))
        return None if dev <= 1e-12 else f"planned volumes off by {dev:.3e}"

    return check


def check_warns(stdout, path):
    return None if "WARNING: planned volumes" in stdout else "no nominal-volume warning"


def check_listing(stdout, path):
    missing = [name for name in builtin_scenarios() if f"{name}: " not in _read(stdout, path)]
    return f"missing {missing}" if missing else None


def audit_failures(ops: list[Op]) -> dict[str, float]:
    """Mass-audit residual of each audited built-in's platform trace above tolerance."""
    bad = {}
    for name in sorted({op.audit for op in ops if op.audit}):
        sc = resolve_scenario(name)
        trace = simulate_platform(cli.scenario_platform(sc), sc.schedule(), sc.dt, (sc.grid_size() - 1) * sc.dt)
        residual = mass_audit(trace)
        if not residual < MASS_AUDIT_TOL:
            bad[name] = residual
    return bad


# ---- input generation ----


class _Inputs:
    def __init__(self, seed: int, workdir: str, tag: int):
        self.rng = np.random.default_rng([seed, tag])
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def link_pk(self) -> PkParams:
        """Rates drawn around the bench constants, so few detection kernels
        repeat; k_a stays below the RK4 bound dt * k <= 0.1 at dt = 30 s."""
        k_e = 1.51e-3 * float(self.rng.uniform(0.85, 1.15))
        return PkParams(k_e=k_e, V=0.98 / k_e, k_a=3.27e-3 * float(self.rng.uniform(0.85, 1.0)))

    def link_scenario(self, name, route, pk, dt, sigma) -> str:
        payload = tuple(int(b) for b in self.rng.integers(0, 2, 8))
        scenario = Scenario(
            name=name,
            description=f"generated {route.value} frame, dt {dt:g} s",
            route=route,
            pk=pk,
            dt=dt,
            horizon=LINK_HORIZON,
            modulation=ModulationConfig(SYMBOL_PERIOD, BENCH_DOSE, route, PUMP_RATE),
            payload=payload,
            noise=NoiseConfig(sigma=sigma),
            seed=int(self.rng.integers(1 << 31)),
        )
        path = self.path(f"{name}.yaml")
        scenario.save(path)
        return path

    def curve(self, name, pk, dose, t, noise=0.0) -> str:
        c = ev_concentration(pk, dose, t)
        if noise:
            c = c * (1.0 + noise * self.rng.standard_normal(t.size))
        path = self.path(f"{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write("t,c\n")
            fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, c))
        return path

    def sparse_fit(self, name, method, volume) -> Op:
        """Fit on the gate's 28-point bench curve with a seeded dose."""
        dose = BENCH_DOSE * float(self.rng.uniform(0.5, 1.5))
        argv = ["fit", "--csv", self.curve(name, BENCH_PK, dose, SPARSE_TIMES), "--route", "extravascular",
                "--dose", repr(dose), "--method", method]
        if volume:
            argv += ["--volume", repr(BENCH_PK.V)]
        tol = LS_TOL if method == "least-squares" else STRIP_TOL
        return Op("fit", argv, check=check_fit(BENCH_PK, tol))

    def simulate(self, name) -> Op:
        out = self.path(f"sim-{name}.csv")
        return Op("simulate", ["simulate", "--scenario", name, "--out", out], out=out,
                  check=check_simulate, audit=name)


def _long_grid(inputs: _Inputs) -> list[Op]:
    rat = resolve_scenario("rat-oral")
    # The 72 001-sample rat-oral grid, not the 270 001-sample human-oral one:
    # a round then takes about a second, so each call's minimum is taken
    # over some forty rounds spread over the run (see README.md).  Three
    # noise realizations of the dense curve and 26 frames give the small
    # calls enough samples per round, and put the latency quantiles
    # mid-class: p50 on a link, p90 on a fit.
    ops = [inputs.simulate("rat-oral")]
    for j in range(3):
        dense = inputs.curve(f"rat-dense-{j}", rat.pk, 522.0, np.arange(72001, dtype=float), noise=0.01)
        ops.append(Op("fit", ["fit", "--csv", dense, "--route", "extravascular", "--dose", "522",
                              "--method", "least-squares"], check=check_fit(rat.pk, NOISY_LS_TOL)))
    for j in range(26):
        route = Route.INTRAVENOUS if j % 2 == 0 else Route.EXTRAVASCULAR
        silent = j % 4 < 2
        path = inputs.link_scenario(f"long-{j}", route, inputs.link_pk(), 1.0, 0.0 if silent else LINK_SIGMA)
        out = inputs.path(f"long-{j}.csv") if silent else None
        ops.append(Op("link", ["link", "--scenario", path] + (["--out", out] if out else []), out=out,
                      frames=1, check=check_link(silent, 8)))
    return ops


def _sweep(route: Route, seed: int) -> Op:
    config = ModulationConfig(SYMBOL_PERIOD, BENCH_DOSE, route, PUMP_RATE)

    def call() -> str:
        rates = modem.ber_sweep(BENCH_PK, config, SIGMAS, SWEEP_FRAMES, seed=seed)
        return "sigma,ber\n" + "".join(f"{s!r},{r!r}\n" for s, r in zip(SIGMAS, rates))

    return Op("sweep", call=call, frames=SWEEP_FRAMES * len(SIGMAS), check=check_sweep)


def _short_cli(inputs: _Inputs) -> list[Op]:
    rng = inputs.rng
    ops = []
    i = 0
    for route in (Route.INTRAVENOUS, Route.EXTRAVASCULAR):
        for dt in LINK_DTS:
            for engine in cli.ENGINES:
                for lam in ("auto", "0"):
                    pk = inputs.link_pk()
                    silent = lam == "0"  # exact inversion is only run on clean records
                    path = inputs.link_scenario(f"link-{i}", route, pk, dt, 0.0 if silent else LINK_SIGMA)
                    argv = ["link", "--scenario", path, "--engine", engine] + (["--lam", "0"] if silent else [])
                    out = inputs.path(f"link-{i}.csv") if i % 2 == 0 else None
                    if out:
                        argv += ["--out", out]
                    ops.append(Op("link", argv, out=out, frames=1, check=check_link(silent, 8)))
                    i += 1
    for name in ("bench-iv", "bench-ev", "link-iv", "link-ev"):
        ops.append(inputs.simulate(name))
        out = inputs.path(f"impulse-{name}.csv")
        ops.append(Op("impulse", ["impulse", "--scenario", name, "--out", out], out=out,
                      check=check_rows(resolve_scenario(name).grid_size())))
    for j in range(12):
        method = "least-squares" if j % 2 == 0 else "residuals"
        ops.append(inputs.sparse_fit(f"fit-{j}", method, volume=j % 4 < 2))
    k_a, k_e = 3.27e-3 * float(rng.uniform(0.5, 2.0)), 1.51e-3 * float(rng.uniform(0.5, 2.0))
    v_a, v_b, flow = float(rng.uniform(200, 800)), float(rng.uniform(200, 800)), float(rng.uniform(0.5, 2.0))
    ops += [
        Op("plan", ["plan", "--mode", "flows", "--k-a", repr(k_a), "--k-e", repr(k_e), "--v-a", repr(v_a),
                    "--v-b", repr(v_b)], check=check_flows(k_a, k_e, v_a, v_b)),
        Op("plan", ["plan", "--mode", "volumes", "--k-a", repr(k_a), "--k-e", repr(k_e), "--flow", repr(flow)],
           check=check_volumes(k_a, k_e, flow)),
        Op("plan", ["plan", "--mode", "volumes", "--scenario", "bench-iv"], check=check_warns),
        Op("scenarios", ["scenarios"], check=check_listing),
    ]
    out = inputs.path("scenarios.txt")
    ops.append(Op("scenarios", ["scenarios", "--out", out], out=out, check=check_listing))
    bad_csv = inputs.path("malformed.csv")
    with open(bad_csv, "w") as fh:
        fh.write("t,c\n0.0,0.0\n60.0,oops\n")
    ops += [
        Op("error", ["link", "--scenario", inputs.path("no-such-scenario")], expect=2),
        Op("error", ["fit", "--csv", bad_csv, "--route", "extravascular", "--dose", "130"], expect=3),
        Op("error", ["link", "--scenario", "link-ev", "--horizon", "4000"], expect=5),
    ]
    return ops


def _sweep_cli(inputs: _Inputs) -> list[Op]:
    # The two BER sweeps, whose 2000 detections share one kernel, run
    # among the 100 short calls, whose kernels do not repeat: frames_per_s
    # is set by the sweeps, the latency quantiles by the short calls.
    seeds = inputs.rng.integers(1 << 20, size=2)
    ops = [_sweep(Route.INTRAVENOUS, int(seeds[0])), _sweep(Route.EXTRAVASCULAR, int(seeds[1]))]
    ops += _short_cli(inputs)
    return [ops[k] for k in inputs.rng.permutation(len(ops))]


_BUILDERS = {"long-grid": (_long_grid, 1), "sweep-cli": (_sweep_cli, 2)}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's inputs for this seed and return its operations."""
    builder, tag = _BUILDERS[workload]
    os.makedirs(workdir, exist_ok=True)
    return builder(_Inputs(seed, workdir, tag))
