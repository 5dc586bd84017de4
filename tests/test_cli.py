"""Command-line interface: subcommands, file output, exit codes."""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pklink
from pklink import cli, fitting
from pklink.channel import (
    Normalization,
    PkParams,
    Route,
    ev_concentration,
    impulse_response,
    iv_concentration,
    peak_time,
)
from pklink.cli import COMMANDS, CSV_BLOCK_ROWS, build_parser, main, run_simulate
from pklink.scenarios import resolve_scenario

from conftest import BENCH_DOSE, BENCH_K_A, BENCH_K_E, BENCH_V

GOLDEN_PLAN_WARNING = (
    "WARNING: planned volumes (V_a=299.6941896024465, V_b=649.0066225165563) disagree with "
    "the nominal volumes (V_a=650.0, V_b=300.0) by more than 1%; the nominal pair is "
    "inconsistent with Q = k*V and looks swapped."
)


def test_cli_import_loads_no_scipy():
    # the test process has scipy loaded already, so look from a fresh one
    package_root = str(Path(pklink.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, pklink.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("human-oral", "rat-oral", "bench-iv", "bench-ev", "link-iv", "link-ev"):
        assert name in out


def test_impulse_writes_normalized_columns(tmp_path):
    out = tmp_path / "impulse.csv"
    assert main(["impulse", "--scenario", "bench-ev", "--horizon", "2000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,iv_amount,iv_conc,iv_norm,ev_amount,ev_conc,ev_norm"
    assert len(lines) == 2002
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[3] == 1.0  # the direct-route response peaks at the dose time
    ev_norm = np.array([float(line.split(",")[6]) for line in lines[1:]])
    assert ev_norm.max() == pytest.approx(1.0, abs=1e-5)
    assert ev_norm[0] == 0.0
    # the grid is checked once both overrides apply: dt 9000 alone would
    # exceed the scenario's 8000 s horizon
    assert main(["impulse", "--scenario", "bench-iv", "--dt", "9000", "--horizon", "90000", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 11


def test_simulate_reports_engine_agreement(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "bench-iv", "--horizon", "4000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,analytic,ode,platform"
    assert len(lines) == 4003
    footer = lines[-1]
    assert footer.startswith("# max_rel_dev ")
    pairs = dict(item.split("=") for item in footer.split()[2:])
    assert set(pairs) == {"analytic_ode", "analytic_platform", "ode_platform"}
    assert all(float(v) < 1e-9 for v in pairs.values())


def test_link_stdout_report(capsys):
    assert main(["link", "--scenario", "link-iv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "symbol,statistic,decision"
    decisions = [line.split(",")[2] for line in lines[1:12]]
    assert decisions == ["1", "1", "1", "0", "1", "0", "1", "0", "0", "1", "1"]
    assert lines[12] == "frame_start,threshold,errors,ber"
    frame_start, threshold, errors, ber_txt = lines[13].split(",")
    assert float(frame_start) == 0.0
    assert float(threshold) == 65.0
    assert errors == "0"
    assert float(ber_txt) == 0.0


def test_link_file_output_with_summary(tmp_path, capsys):
    out = tmp_path / "link.csv"
    assert main(["link", "--scenario", "link-ev", "--out", str(out)]) == 0
    console = capsys.readouterr().out
    assert "recovered payload: 01010011" in console
    assert "bit errors: 0 of 8" in console
    lines = out.read_text().splitlines()
    assert lines[0] == "symbol,statistic,decision"
    assert len(lines) == 14


def test_link_runs_on_every_engine(tmp_path):
    for engine in ("analytic", "ode", "platform"):
        out = tmp_path / f"{engine}.csv"
        code = main(["link", "--scenario", "link-ev", "--engine", engine, "--out", str(out)])
        assert code == 0
        summary = out.read_text().splitlines()[13]
        assert summary.split(",")[2] == "0"


def _bench_ev_curve_csv() -> str:
    """28 noiseless samples of the bench extravascular curve, as a fit CSV."""
    pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    t = np.linspace(60.0, 4800.0, 28)
    c = ev_concentration(pk, BENCH_DOSE, t)
    return "t,conc\n" + "".join(f"{float(ti)!r},{float(ci)!r}\n" for ti, ci in zip(t, c))


def test_fit_recovers_parameters_from_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text(_bench_ev_curve_csv())
    code = main([
        "fit", "--csv", str(path), "--route", "extravascular", "--dose", str(BENCH_DOSE),
        "--method", "least-squares", "--volume", str(BENCH_V),
    ])
    assert code == 0
    report = dict(
        line.split(": ") for line in capsys.readouterr().out.splitlines() if ": " in line
    )
    assert report["method"] == "least_squares"
    assert float(report["k_a"]) == pytest.approx(BENCH_K_A, rel=1e-8)
    assert float(report["k_e"]) == pytest.approx(BENCH_K_E, rel=1e-8)
    assert float(report["V"]) == BENCH_V
    assert report["flip_flop_ambiguous"] == "true"
    assert float(report["alternate_k_a"]) == pytest.approx(BENCH_K_E, rel=1e-8)


def test_fit_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(_bench_ev_curve_csv(), encoding="utf-8")
    marked.write_text(_bench_ev_curve_csv(), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbft,conc\n")
    reports = []
    for path in (plain, marked):
        assert main(["fit", "--csv", str(path), "--route", "extravascular", "--dose", str(BENCH_DOSE)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0]


def test_plan_flows_from_flags(capsys):
    code = main([
        "plan", "--mode", "flows", "--k-a", "2.89e-4", "--k-e", "4.47e-5",
        "--v-a", "355", "--v-b", "2292",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Q_a: 0.10259499999999999" in out
    assert "Q_e: 0.1024524" in out


def test_plan_flags_nominal_volume_inconsistency(capsys):
    code = main(["plan", "--mode", "volumes", "--scenario", "bench-iv"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert "flow: 0.98" in out
    assert "V_a: 299.6941896024465" in out
    assert "V_b: 649.0066225165563" in out
    assert GOLDEN_PLAN_WARNING in out


def test_plan_warning_says_swapped_only_for_a_swapped_pair(capsys):
    argv = ["plan", "--mode", "volumes", "--k-a", str(BENCH_K_A), "--k-e", str(BENCH_K_E), "--flow", "0.98"]
    assert main(argv + ["--check-v-a", "1", "--check-v-b", "1"]) == 0
    warning = capsys.readouterr().out.splitlines()[-1]
    assert warning == (
        "WARNING: planned volumes (V_a=299.6941896024465, V_b=649.0066225165563) disagree with "
        "the nominal volumes (V_a=1.0, V_b=1.0) by more than 1%; the nominal pair is "
        "inconsistent with Q = k*V."
    )
    # the bench pair swapped back agrees within 1%, so it reads as a swap
    assert main(argv + ["--check-v-a", "650", "--check-v-b", "300"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == GOLDEN_PLAN_WARNING


def test_plan_stays_quiet_when_nominals_agree(capsys):
    code = main([
        "plan", "--mode", "volumes", "--k-a", str(BENCH_K_A), "--k-e", str(BENCH_K_E),
        "--flow", "0.98", "--check-v-a", "299.7", "--check-v-b", "649.0",
    ])
    assert code == 0
    assert "WARNING" not in capsys.readouterr().out


def test_usage_errors_exit_with_2(tmp_path, capsys):
    assert main(["simulate", "--scenario", "no-such"]) == 2
    assert main(["plan", "--mode", "volumes"]) == 2  # no rates given
    assert main(["plan", "--mode", "orbit"]) == 2  # rejected by the parser
    assert main(["link", "--scenario", "bench-iv"]) == 2  # no modulation section
    assert main(["impulse", "--scenario", "bench-iv", "--engine", "ode"]) == 2  # link-only flag
    assert main(["scenarios", "--list"]) == 2  # listing takes no flag
    capsys.readouterr()
    curve = tmp_path / "curve.csv"
    curve.write_text(_bench_ev_curve_csv())
    for argv in (  # flags the command never reads
        ["scenarios", "--scenario", "nope", "--dt", "-1"],
        ["plan", "--mode", "flows", "--k-a", "2.89e-4", "--k-e", "4.47e-5", "--v-a", "355", "--v-b", "2292",
         "--horizon", "nan"],
        ["fit", "--csv", str(curve), "--route", "extravascular", "--dose", str(BENCH_DOSE), "--dt", "5"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: " in err
        assert "Traceback" not in err
    for flags in (["--lam", "-1"], ["--lam", "nan"], ["--dt", "7"]):  # 7 s does not divide 600 s
        assert main(["link", "--scenario", "link-ev"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
    # grids past MAX_GRID_SAMPLES are refused before anything is allocated
    fine_grid = tmp_path / "fine-grid.yaml"
    fine_grid.write_text(resolve_scenario("bench-iv").to_text().replace("dt: 1.0\n", "dt: 1.0e-9\n"))
    noisy = tmp_path / "noisy.yaml"
    noisy.write_text(resolve_scenario("link-ev").to_text().replace("sigma: 0.0\n", "sigma: 0.01\n"))
    negative_seed = tmp_path / "negative-seed.yaml"
    negative_seed.write_text(noisy.read_text().replace("seed: 6\n", "seed: -3\n"))
    empty_payload = tmp_path / "empty-payload.yaml"
    empty_payload.write_text(resolve_scenario("link-ev").to_text().replace("payload: '01010011'", "payload: []"))
    misspelt = tmp_path / "misspelt.yaml"
    misspelt.write_text(resolve_scenario("link-ev").to_text().replace("k_a:", "ka:"))
    for argv, field in (
        (["simulate", "--scenario", "bench-iv", "--horizon", "1e308"], "grid"),
        (["link", "--scenario", "link-ev", "--dt", "1e-300"], "grid"),
        (["simulate", "--scenario", str(fine_grid), "--horizon", "8000"], "grid"),
        (["link", "--scenario", str(noisy), "--seed", "-2"], "seed"),
        (["link", "--scenario", str(negative_seed)], "seed"),
        (["link", "--scenario", str(empty_payload)], "payload: "),
        (["link", "--scenario", str(misspelt)], "pk.ka: unknown"),
    ) + tuple(
        (["plan", "--mode", "volumes", "--scenario", str(_nominal_file(tmp_path, value))], "nominal_volumes")
        for value in ("0", "-1", ".nan")
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario field {field}")
        assert "Traceback" not in err
    out = tmp_path / "missing-dir" / "x.csv"  # an output path that cannot be opened
    for argv in (["simulate", "--scenario", "bench-iv"], ["link", "--scenario", "link-iv"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open output file")
        assert "Traceback" not in err
    for check in (["--check-v-a", "300"], ["--check-v-b", "300"]):  # half a pair
        assert main(["plan", "--mode", "volumes", "--k-a", "1e-3", "--k-e", "1e-3", "--flow", "1"] + check) == 2
        err = capsys.readouterr().err
        assert err == "error: --check-v-a and --check-v-b must be given together\n"
    undecodable = tmp_path / "latin1.yaml"
    undecodable.write_bytes(resolve_scenario("bench-iv").to_text().replace("bench", "b\xe9nch").encode("latin-1"))
    assert main(["simulate", "--scenario", str(undecodable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode scenario file {undecodable}")
    assert "Traceback" not in err


def _nominal_file(tmp_path, v_a: str):
    """bench-iv with the nominal V_a replaced by the YAML scalar v_a."""
    text = resolve_scenario("bench-iv").to_text()
    assert "- 650.0\n" in text
    path = tmp_path / f"nominal-{v_a}.yaml"
    path.write_text(text.replace("- 650.0\n", f"- {v_a}\n"))
    return path


def test_scenario_numbers_must_be_finite(tmp_path, capsys):
    cases = (
        ("link-ev", "  sigma: 0.0\n", "  sigma: .nan\n", ["link"], "noise.sigma"),
        ("link-ev", "  sigma: 0.0\n", "  sigma: 1" + "0" * 400 + "\n", ["link"], "noise.sigma"),
        ("bench-iv", "- 650.0\n- 300.0\n", "- a\n- b\n", ["plan", "--mode", "volumes"], "nominal_volumes.V_a"),
    )
    for name, old, new, command, field in cases:
        text = resolve_scenario(name).to_text()
        assert old in text
        path = tmp_path / f"{name}.yaml"
        path.write_text(text.replace(old, new))
        assert main(command + ["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"scenario field {field}" in err
        assert "Traceback" not in err


def test_data_errors_exit_with_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,conc\n0.0,1.0\n10.0,oops\n")
    code = main(["fit", "--csv", str(bad), "--route", "intravenous", "--dose", "10"])
    assert code == 3
    assert "line 3" in capsys.readouterr().err
    missing = tmp_path / "missing.csv"
    code = main(["fit", "--csv", str(missing), "--route", "intravenous", "--dose", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")
    assert "Traceback" not in err
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"t,conc\n0.0,1.0\n10.0,0.5\n# \xb5g/mL\n20.0,0.25\n")
    code = main(["fit", "--csv", str(undecodable), "--route", "intravenous", "--dose", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode {undecodable}")
    assert "Traceback" not in err


def test_numeric_errors_exit_with_4(tmp_path, capsys):
    # a step too coarse for the rates fails the integrator stability guard
    assert main(["simulate", "--scenario", "bench-iv", "--dt", "200"]) == 4
    capsys.readouterr()
    # one huge last value turns the log-linear elimination slope upward;
    # the error reports the estimated rate itself, which is negative
    t = np.linspace(60.0, 4800.0, 28)
    c = iv_concentration(PkParams(k_e=BENCH_K_E, V=BENCH_V), BENCH_DOSE, t)
    c[-1] = 1e200
    path = tmp_path / "rising.csv"
    path.write_text("t,conc\n" + "".join(f"{float(ti)!r},{float(ci)!r}\n" for ti, ci in zip(t, c)))
    assert main(["fit", "--csv", str(path), "--route", "intravenous", "--dose", str(BENCH_DOSE)]) == 4
    err = capsys.readouterr().err
    prefix = "error: estimated elimination rate is not positive: "
    assert err.startswith(prefix)
    assert float(err[len(prefix):]) < 0
    # nominal volumes from flags are checked before any division by them
    for value in ("0", "-1", "nan"):
        argv = ["plan", "--mode", "volumes", "--k-a", "1e-3", "--k-e", "1e-3", "--flow", "1"]
        assert main(argv + ["--check-v-a", value, "--check-v-b", "1"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: nominal V_a must be positive and finite")
        assert "Traceback" not in err
    # planned volumes and flows that overflow are refused, not printed
    for argv, name in (
        (["--mode", "volumes", "--k-a", "1e-300", "--k-e", "1", "--flow", "1e308"], "V_a"),
        (["--mode", "flows", "--k-a", "1e300", "--k-e", "1", "--v-a", "1e10", "--v-b", "1"], "Q_a"),
    ):
        assert main(["plan"] + argv) == 4
        assert capsys.readouterr().err == f"error: planned {name} must be positive and finite, got inf\n"
    # a fit whose Gauss-Newton iterate leaves no formable Jacobian
    path = tmp_path / "lost-point.csv"
    path.write_text(FIT_CSV_LOST_POINT)
    argv = ["fit", "--csv", str(path), "--route", "extravascular", "--dose", str(BENCH_DOSE),
            "--method", "least-squares"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: Jacobian cannot be formed at k_a=")
    assert "Traceback" not in err
    # an elimination rate that overflows on the grid leaves a non-finite
    # column, refused before the output file is opened
    scenario = tmp_path / "overflow.yaml"
    scenario.write_text(resolve_scenario("bench-ev").to_text().replace("k_e: 0.00151", "k_e: 1.0e+308"))
    out = tmp_path / "impulse.csv"
    assert main(["impulse", "--scenario", str(scenario), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: impulse column ev_norm is not finite at t=0.0\n"
    assert not out.exists()


def test_detection_errors_exit_with_5(capsys):
    # cutting the horizon mid-frame leaves too few symbol windows
    assert main(["link", "--scenario", "link-iv", "--horizon", "3000"]) == 5
    capsys.readouterr()


def test_output_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["impulse", "--scenario", "rat-oral", "--horizon", "3000",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _reference_csv(header, columns) -> str:
    """The CSV the writer must produce: each value as repr(float(v))."""
    rows = zip(*columns)
    return ",".join(header) + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("dt, horizon", [(None, None), (0.5, None), (None, 8191.0)])
def test_csv_writer_formats_every_value_as_its_repr(tmp_path, dt, horizon):
    # bench-ev has 8001 rows; dt 0.5 gives 16001 (not a multiple of the
    # block) and horizon 8191 gives 8192, a whole number of blocks.
    scenario = resolve_scenario("bench-ev").with_overrides(dt=dt, horizon=horizon)
    overrides = (["--dt", repr(dt)] if dt else []) + (["--horizon", repr(horizon)] if horizon else [])
    n = scenario.grid_size()
    assert n > CSV_BLOCK_ROWS
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "bench-ev", "--out", str(sim)] + overrides) == 0
    signals, deviations = run_simulate(scenario)
    engines = ("analytic", "ode", "platform")
    summary = " ".join(f"{key}={float(value)!r}" for key, value in deviations.items())
    expected = _reference_csv(("t",) + engines, [signals["analytic"].times] + [signals[e].samples for e in engines])
    assert sim.read_bytes() == (expected + f"# max_rel_dev {summary}\n").encode()

    imp = tmp_path / "impulse.csv"
    assert main(["impulse", "--scenario", "bench-ev", "--out", str(imp)] + overrides) == 0
    t = np.arange(n) * scenario.dt
    header, columns = ["t"], [t]
    for route, tag in ((Route.INTRAVENOUS, "iv"), (Route.EXTRAVASCULAR, "ev")):
        conc = impulse_response(scenario.pk, route, t, Normalization.CONCENTRATION)
        peak = impulse_response(scenario.pk, route, peak_time(scenario.pk, route), Normalization.CONCENTRATION)
        header += [f"{tag}_amount", f"{tag}_conc", f"{tag}_norm"]
        columns += [impulse_response(scenario.pk, route, t, Normalization.AMOUNT), conc, conc / peak]
    assert imp.read_bytes() == _reference_csv(header, columns).encode()


def test_simulate_then_fit_recovers_the_bench_rates(tmp_path, capsys, monkeypatch):
    # bench-ev with its 30 s infusion made a bolus, the dose the fit models.
    # The fit reads the platform column by name, past the # max_rel_dev
    # trailer, without falling back to the line-by-line reader.
    scenario = tmp_path / "bench-ev-bolus.yaml"
    text = resolve_scenario("bench-ev").to_text()
    assert "duration: 30.0" in text
    scenario.write_text(text.replace("duration: 30.0", "duration: 0.0"))
    sim = tmp_path / "s.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(sim)]) == 0
    assert sim.read_text().splitlines()[-1].startswith("# max_rel_dev ")
    monkeypatch.setattr(fitting, "_parse_lines", None)
    code = main([
        "fit", "--csv", str(sim), "--column", "platform", "--route", "extravascular", "--dose", str(BENCH_DOSE),
    ])
    assert code == 0
    report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(report["k_a"]) == pytest.approx(BENCH_K_A, rel=1e-4)
    assert float(report["k_e"]) == pytest.approx(BENCH_K_E, rel=1e-4)


def test_main_builds_only_the_invoked_command_parser(monkeypatch, capsys):
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["scenarios"]) == 0
    assert main(["plan", "--mode", "orbit"]) == 2
    assert main(["bogus"]) == 2
    assert main(["--help"]) == 0
    assert main([]) == 2
    monkeypatch.setattr(sys, "argv", ["pklink", "scenarios"])
    assert main() == 0
    assert built == ["scenarios", "plan", None, None, None, "scenarios"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser("link").parse_args(["fit", "--csv", "c.csv", "--route", "intravenous", "--dose", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'fit'" in capsys.readouterr().err


def _command_flags(name: str) -> list[str]:
    parser = argparse.ArgumentParser()
    COMMANDS[name][2](parser)
    return [flag for action in parser._actions for flag in action.option_strings]


# Words the parser-split test builds command lines from: every command,
# every flag any command takes, and values valid for some of them.
PARSE_WORDS = tuple(COMMANDS) + ("bogus", "--bogus", "-h", "--help", "--") + tuple(
    sorted({flag for name in COMMANDS for flag in _command_flags(name)} - {"-h", "--help"})
) + ("1", "-1", "x", "nan", "link-ev", "ode", "flows", "volumes", "intravenous", "residuals")


def _parse(parser, argv):
    """Exit code, stdout, stderr and namespace (None on exit) of one parse.

    The namespace holds each value's repr, so that a parsed ``nan`` compares
    equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = {k: repr(v) for k, v in vars(parser.parse_args(argv)).items()}
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@settings(max_examples=300, deadline=None)
@given(
    argv=st.builds(
        lambda command, words: [command] + words,
        st.sampled_from(tuple(COMMANDS)),
        st.lists(st.sampled_from(PARSE_WORDS), max_size=8),
    )
)
@example(argv=["link", "--bogus"])
@example(argv=["plan", "--mode", "orbit"])
@example(argv=["fit", "link"])
def test_one_command_parser_parses_as_the_whole_tree(argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        assert _parse(build_parser(argv[0]), argv) == _parse(build_parser(), argv)


# The bench-EV fit CSV with the decimal point of one value deleted, so that
# value reads 2.95e16: Gauss-Newton steps to k_a ~ 8e-253, k_e ~ 3e-198,
# where (k_a - k_e)**2 underflows and the Jacobian cannot be formed.
FIT_CSV_LOST_POINT = _bench_ev_curve_csv().replace(",0.029533654565375874\n", ",0029533654565375874\n")

# Values the fuzz test gives --dt, --horizon, --seed and --lam, and plan's
# rates, flow and volumes.  With the scenarios below no accepted grid
# exceeds 8001 samples: each value either leaves the grid coarser than the
# scenario's own or is refused.
FUZZ_FLAG_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e308", "2.5", "600")
# The flags of plan the fuzz test sets.
FUZZ_PLAN_FLAGS = ("--k-a", "--k-e", "--flow", "--v-a", "--v-b", "--check-v-a", "--check-v-b")
# Built-ins with grids of at most 8001 samples, and link-ev with noise on,
# where --seed reaches the random generator.
FUZZ_SCENARIOS = ("bench-iv", "bench-ev", "link-iv", "link-ev", "link-ev-noisy")
# Replacements for one scalar of a built-in scenario text; none of them
# makes the grid finer and accepted.
FUZZ_SCALARS = (".nan", "[]", "~", "-1", "1e-9", "0", "1e308", "x")
# Bytes the fuzz test writes into a fit CSV.
FUZZ_BYTES = b",\n#-.e09nx \xff"
# The fit CSVs the fuzz test mutates: LF, CRLF, and LF with a simulate-style
# comment trailer, so mutations reach the reader's comment and CR checks.
FUZZ_FIT_FILES = (
    _bench_ev_curve_csv(),
    _bench_ev_curve_csv().replace("\n", "\r\n"),
    _bench_ev_curve_csv() + "# max_rel_dev analytic_ode=1.2e-05 analytic_platform=3.4e-06\n",
)


def _fuzz_scalar_spans(text: str) -> list[tuple[int, int]]:
    """Start and end of every scalar value in a scenario text."""
    return [m.span(1) for m in re.finditer(r"^\s*(?:- )?(?:\w+: )?([^\s:][^\n]*)$", text, re.M)
            if not m.group(0).rstrip().endswith(":")]


@st.composite
def _fuzz_cases(draw):
    """(argv, scenario text or None, fit CSV bytes or None) of one CLI call."""
    kind = draw(st.sampled_from(("flags", "scenario", "fit")))
    if kind == "flags":
        command = draw(st.sampled_from(("impulse", "simulate", "link", "plan")))
        if command == "plan":
            argv, names = ["plan", "--mode", draw(st.sampled_from(("flows", "volumes")))], FUZZ_PLAN_FLAGS
        else:
            argv = [command, "--scenario", draw(st.sampled_from(FUZZ_SCENARIOS))]
            names = ("--dt", "--horizon", "--seed") + (("--lam",) if command == "link" else ())
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)):
            argv += [name, draw(st.sampled_from(FUZZ_FLAG_VALUES))]
        return argv, None, None
    if kind == "scenario":
        name = draw(st.sampled_from(FUZZ_SCENARIOS[:4]))
        text = resolve_scenario(name).to_text()
        start, end = draw(st.sampled_from(_fuzz_scalar_spans(text)))
        text = text[:start] + draw(st.sampled_from(FUZZ_SCALARS)) + text[end:]
        commands = (["simulate"], ["impulse"], ["plan", "--mode", "volumes"])
        command = ["link"] if name.startswith("link") else draw(st.sampled_from(commands))
        return command + ["--scenario", "fuzz"], text, None
    data = bytearray(draw(st.sampled_from(FUZZ_FIT_FILES)).encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from(FUZZ_BYTES))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "replace":
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    route = draw(st.sampled_from([r.value for r in Route]))
    method = draw(st.sampled_from(("residuals", "least-squares")))
    return ["fit", "--route", route, "--dose", str(BENCH_DOSE), "--method", method], None, bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    noisy = resolve_scenario("link-ev").to_text().replace("sigma: 0.0\n", "sigma: 0.01\n")
    (directory / "link-ev-noisy.yaml").write_text(noisy)
    return directory


@settings(max_examples=150, deadline=None)
@given(case=_fuzz_cases())
@example(case=(["simulate", "--scenario", "bench-iv", "--horizon", "1e308"], None, None))
@example(case=(["link", "--scenario", "link-ev", "--dt", "1e-300"], None, None))
@example(case=(["link", "--scenario", "link-ev-noisy", "--seed", "-1"], None, None))
@example(case=(["plan", "--mode", "volumes", "--k-a", "1e-3", "--k-e", "1e-3", "--flow", "1",
                "--check-v-a", "0", "--check-v-b", "1"], None, None))
@example(case=(["plan", "--mode", "volumes", "--k-a", "1e-300", "--k-e", "1", "--flow", "1e308"], None, None))
@example(case=(["plan", "--mode", "flows", "--k-a", "1e300", "--k-e", "1", "--v-a", "1e10", "--v-b", "1"],
               None, None))
@example(case=(["fit", "--route", "extravascular", "--dose", str(BENCH_DOSE), "--method", "least-squares"], None,
               FIT_CSV_LOST_POINT.encode()))
def test_cli_fuzz_exits_cleanly(fuzz_dir, case):
    argv, scenario_text, fit_csv = case
    if scenario_text is not None:
        (fuzz_dir / "fuzz.yaml").write_text(scenario_text)
    if fit_csv is not None:
        (fuzz_dir / "fuzz.csv").write_bytes(fit_csv)
        argv = argv + ["--csv", str(fuzz_dir / "fuzz.csv")]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MOCOBO_SCENARIO_DIR", str(fuzz_dir))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
