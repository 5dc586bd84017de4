"""Command-line interface: subcommands, file output, exit codes."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pklink
from pklink import cli, fitting, modem
from pklink.channel import (
    DoseEvent,
    DoseSchedule,
    Normalization,
    PkParams,
    Route,
    ev_concentration,
    impulse_response,
    iv_concentration,
    peak_time,
)
from pklink.cli import COMMANDS, CSV_BLOCK_VALUES, build_parser, main, run_simulate
from pklink.errors import EXIT_BROKEN_PIPE, ConfigurationError
from pklink.scenarios import builtin_scenarios, resolve_scenario
from pklink.testbed import mass_audit, simulate_platform

from conftest import BENCH_DOSE, BENCH_K_A, BENCH_K_E, BENCH_V

GOLDEN_PLAN_WARNING = (
    "WARNING: planned volumes (V_a=299.6941896024465, V_b=649.0066225165563) disagree with "
    "the nominal volumes (V_a=650.0, V_b=300.0) by more than 1%; the nominal pair is "
    "inconsistent with Q = k*V and looks swapped."
)


def _subprocess_env() -> dict:
    """The environment of a fresh Python process that imports this pklink."""
    package_root = str(Path(pklink.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy():
    # the test process has scipy loaded already, so look from a fresh one
    code = "import sys, pklink.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"


def test_cli_import_loads_only_the_declared_dependencies():
    # the distributions owning the top-level modules a fresh import of
    # pklink.cli adds are those pyproject.toml declares, and pklink
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", requirement).group() for requirement in pyproject["project"]["dependencies"]}
    code = (
        "import sys; before = set(sys.modules); import pklink.cli; added = set(sys.modules) - before\n"
        "from importlib.metadata import packages_distributions; owners = packages_distributions()\n"
        "print(*{d for m in added for d in owners.get(m.partition('.')[0], [])})"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                         check=True)
    loaded = {re.sub(r"[-_.]+", "-", name).lower() for name in run.stdout.split()} - {"pklink"}
    assert loaded == {re.sub(r"[-_.]+", "-", name).lower() for name in declared} == {"numpy", "pyyaml", "orjson"}


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


def _noisy_bench_curve_csv(route: Route) -> str:
    """16 samples of the bench curve on route with 2% multiplicative noise, as a fit CSV."""
    pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    t = np.linspace(60.0, 4800.0, 16)
    c = (ev_concentration if route is Route.EXTRAVASCULAR else iv_concentration)(pk, BENCH_DOSE, t)
    c = c * (1.0 + 0.02 * np.random.default_rng(3).standard_normal(t.size))
    return "t,conc\n" + "".join(f"{float(ti)!r},{float(ci)!r}\n" for ti, ci in zip(t, c))


GOLDEN_FIT_REPORTS = {
    ("extravascular", "least-squares", None): (
        "method: least_squares\nk_a: 0.0031208884189626645\nk_e: 0.0015356388592956914\n"
        "lumped_amplitude: 0.2003510424625773\nV: 648.8611109886396\nF: 1.0\n"
        "rss: 1.971670785369647e-05\niterations: 7\nflip_flop_ambiguous: true\n"
        "k_fast: 0.0031208884189626645\nk_slow: 0.0015356388592956914\n"
        "alternate_k_a: 0.0015356388592956914\nalternate_k_e: 0.0031208884189626645\n"
    ),
    ("extravascular", "least-squares", "500"): (
        "method: least_squares\nk_a: 0.0031208884189626645\nk_e: 0.0015356388592956914\n"
        "lumped_amplitude: 0.2003510424625773\nV: 500.0\nF: 0.7705809325483741\n"
        "rss: 1.971670785369647e-05\niterations: 7\nflip_flop_ambiguous: true\n"
        "k_fast: 0.0031208884189626645\nk_slow: 0.0015356388592956914\n"
        "alternate_k_a: 0.0015356388592956914\nalternate_k_e: 0.0031208884189626645\n"
    ),
    ("intravenous", "residuals", None): (
        "method: residuals\nk_e: 0.001510644020949503\nlumped_amplitude: 0.19963413860180984\n"
        "V: 651.1912286670465\nF: 1.0\nrss: 9.556105907858342e-05\niterations: 1\n"
        "flip_flop_ambiguous: false\n"
    ),
    ("intravenous", "residuals", "500"): (
        "method: residuals\nk_e: 0.001510644020949503\nlumped_amplitude: 0.19963413860180984\n"
        "V: 500.0\nF: 0.7678236100069609\nrss: 9.556105907858342e-05\niterations: 1\n"
        "flip_flop_ambiguous: false\n"
    ),
}


@pytest.mark.parametrize("route, method, volume", list(GOLDEN_FIT_REPORTS))
def test_fit_report_matches_the_recorded_bytes(tmp_path, capsys, route, method, volume):
    # pins every line, the flip-flop flag and the fast/slow pair included,
    # which the report reads off the primary and alternate readings
    path = tmp_path / "curve.csv"
    path.write_text(_noisy_bench_curve_csv(Route(route)))
    volume_flag = [] if volume is None else ["--volume", volume]
    argv = ["fit", "--csv", str(path), "--route", route, "--dose", str(BENCH_DOSE), "--method", method]
    assert main(argv + volume_flag) == 0
    assert capsys.readouterr().out == GOLDEN_FIT_REPORTS[route, method, volume]


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
    # a scenario path that is not printable shows through repr, so the error is one line
    latin1 = tmp_path / "bad\nscen.yaml"
    latin1.write_bytes(resolve_scenario("link-ev").to_text().replace("pump dosing", "\xb5g doses").encode("latin-1"))
    assert main(["link", "--scenario", str(latin1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode scenario file {str(latin1)!r}: ")
    assert err.count("\n") == 1
    out = tmp_path / "missing-dir" / "x.csv"  # an output path that cannot be opened
    for argv in (["simulate", "--scenario", "bench-iv"], ["link", "--scenario", "link-iv"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open output file")
        assert "Traceback" not in err
    # a NUL byte, which no path can hold (an in-process caller can pass one)
    for argv, shown in (
        (["scenarios", "--out", "a\0b"], "'a\\x00b'"),
        (["simulate", "--scenario", "link-ev", "--out", "x\0"], "'x\\x00'"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot open output file {shown}: ")
        assert "\0" not in err
        assert "Traceback" not in err
    if os.path.exists("/dev/full"):  # a device that refuses every write with ENOSPC
        for argv in (["scenarios"], ["link", "--scenario", "link-ev"]):
            assert main(argv + ["--out", "/dev/full"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write output file /dev/full: ")
            assert "Traceback" not in err
    # a plan flag the mode does not read is refused, by name; a scenario's
    # flow, volumes and nominal pair are defaults and never refused
    flows = ["plan", "--mode", "flows", "--k-a", "2.89e-4", "--k-e", "4.47e-5", "--v-a", "300", "--v-b", "650"]
    volumes = ["plan", "--mode", "volumes", "--k-a", "2.89e-4", "--k-e", "4.47e-5", "--flow", "1"]
    for argv, flag, mode in (
        (flows + ["--check-v-a", "1", "--check-v-b", "2"], "--check-v-a", "flows"),
        (flows + ["--check-v-b", "2"], "--check-v-b", "flows"),
        (flows + ["--flow", "5"], "--flow", "flows"),
        (volumes + ["--v-a", "300", "--v-b", "650"], "--v-a", "volumes"),
        (volumes + ["--v-b", "650"], "--v-b", "volumes"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} is not read by plan --mode {mode}\n"
    assert main(["plan", "--mode", "flows", "--scenario", "bench-iv"]) == 0
    capsys.readouterr()
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


def _link_ev_with(old: str, new: str) -> str:
    """link-ev's scenario text with old replaced by new."""
    text = resolve_scenario("link-ev").to_text()
    assert old in text
    return text.replace(old, new)


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


def test_scenario_noise_out_of_range_exits_with_2(tmp_path, capsys):
    path = tmp_path / "negative-sigma.yaml"
    path.write_text(_link_ev_with("  sigma: 0.0\n", "  sigma: -1\n"))
    assert main(["link", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: scenario field noise: sigma must be finite and >= 0, got -1.0\n"


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
    assert main(["fit", "--csv", "a\0b", "--route", "extravascular", "--dose", "1"]) == 3  # a NUL byte
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read 'a\\x00b': ")
    assert "\0" not in err
    assert "Traceback" not in err
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"t,conc\n0.0,1.0\n10.0,0.5\n# \xb5g/mL\n20.0,0.25\n")
    code = main(["fit", "--csv", str(undecodable), "--route", "intravenous", "--dose", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode {undecodable}")
    assert "Traceback" not in err
    # a path that is not printable shows through repr, so each error is one line
    unprintable = tmp_path / "bad\nname.csv"
    for body, message in (
        ("t,conc\n0.0,1.0\n10.0,oops\n", "line 3: could not convert string to float: 'oops'"),
        ("x,conc\n0.0,1.0\n", "line 1: expected a header starting with t"),
    ):
        unprintable.write_text(body)
        assert main(["fit", "--csv", str(unprintable), "--route", "intravenous", "--dose", "10"]) == 3
        assert capsys.readouterr().err == f"error: {str(unprintable)!r}: {message}\n"
    # a word str.isdigit accepts but int refuses names a column, not an index
    good = tmp_path / "good.csv"
    good.write_text("t,conc\n0.0,1.0\n10.0,0.5\n")
    code = main(["fit", "--csv", str(good), "--route", "intravenous", "--dose", "10", "--column", "\u00b2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "no column named '\u00b2'" in err
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
    # a huge elimination rate still gives finite columns: k_a / (k_a - k_e)
    # is a finite subnormal
    bench_ev = resolve_scenario("bench-ev").to_text()
    scenario = tmp_path / "huge-rate.yaml"
    scenario.write_text(bench_ev.replace("k_e: 0.00151", "k_e: 1.0e+308"))
    out = tmp_path / "impulse.csv"
    assert main(["impulse", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))
    # a volume whose reciprocal overflows leaves a non-finite column,
    # refused before the output file is opened
    out.unlink()
    scenario = tmp_path / "overflow.yaml"
    scenario.write_text(bench_ev.replace("V: 649.0066225165563", "V: 1.0e-310"))
    assert main(["impulse", "--scenario", str(scenario), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: impulse column iv_conc is not finite at t=0.0\n"
    assert not out.exists()
    # a kernel whose |H|^2 overflows is refused before the receiver runs
    scenario = tmp_path / "tiny-volume.yaml"
    scenario.write_text(_link_ev_with("  V: 649.0066225165563", "  V: 1e-200"))
    assert main(["link", "--scenario", str(scenario)]) == 4
    assert capsys.readouterr().err == "error: kernel transform overflows: |H|^2 is not finite\n"


def test_huge_sigma_is_refused_without_a_warning(tmp_path, capsys):
    # sigma times a standard normal overflows; the error names sigma and
    # numpy's overflow warning is not printed on the way
    scenario = tmp_path / "huge-sigma.yaml"
    link_ev = resolve_scenario("link-ev").to_text()
    assert "sigma: 0.0" in link_ev
    scenario.write_text(link_ev.replace("sigma: 0.0", "sigma: 1.0e+308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["link", "--scenario", str(scenario)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: noise of sigma 1e+308 overflows the samples\n"
    assert captured.out == ""


def test_detection_errors_exit_with_5(tmp_path, capsys):
    # cutting the horizon mid-frame leaves too few symbol windows
    assert main(["link", "--scenario", "link-iv", "--horizon", "3000"]) == 5
    capsys.readouterr()
    # so does a window of more samples than numpy can shape, refused before decoding
    scenario = tmp_path / "huge-period.yaml"
    scenario.write_text(_link_ev_with("symbol_period: 600.0", "symbol_period: 1e20"))
    assert main(["link", "--scenario", str(scenario)]) == 5
    assert capsys.readouterr().err == "error: signal is shorter than the preamble\n"


def test_output_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["impulse", "--scenario", "rat-oral", "--horizon", "3000",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the bytes each built-in's simulate and impulse write to --out,
# and of link's stdout on the link scenarios with each engine.  They were
# recorded with numpy 2.4.6, as GOLDEN_FIT_REPORTS was: every float is
# written as its repr, so another numpy, whose exp or FFT may round a last
# bit differently, can move a digest without anything being wrong, and the
# digests must then be recorded again from a checkout known to be good.
GOLDEN_OUTPUT_SHA256 = {
    ("simulate", "human-oral"): "8fb508d7f8277b236637408188ff7bb4d8803243fd3a9d8f11223dd5867d60d4",
    ("impulse", "human-oral"): "c985958fd6b60d54ce6e5cb5f05d19eadd8539df69595ce1a203ca20041b0860",
    ("simulate", "rat-oral"): "5fb86d94a84c94d460e5bd0a4a3af1342bb86fa239a71354b05a639b88e6862a",
    ("impulse", "rat-oral"): "f4a400d2f4575a39a9b76fd9e93603f74d0ee769ed35dafc7798b0402284db9a",
    ("simulate", "bench-iv"): "ef3c1c2676ee361a1a2dd826003b7cd4d0ff7de0d324db02b8b332a7d8e058b2",
    ("impulse", "bench-iv"): "b9dc360eba2285f3621da17c6b8bead0fd6a92d8287c93290342fe9a96b6145c",
    ("simulate", "bench-ev"): "c8014a86dc6b6a9c9c7ef8c195817ca571f27281b13d7c8763853d43d2096600",
    ("impulse", "bench-ev"): "b9dc360eba2285f3621da17c6b8bead0fd6a92d8287c93290342fe9a96b6145c",
    ("simulate", "link-iv"): "eaa61a305803951ba213e9a14af30a2d175edb58241b71f070bad909acc88d32",
    ("impulse", "link-iv"): "b7c15e97a366b0f72d2d3be80d2470802ae61377d1d190955e26406f03af8b61",
    ("simulate", "link-ev"): "254bce965cd21bb8ad467bc3ca556b201323d06b8490a1188cbb6fb227ac354c",
    ("impulse", "link-ev"): "b7c15e97a366b0f72d2d3be80d2470802ae61377d1d190955e26406f03af8b61",
    ("link", "link-iv", "analytic"): "b4ae83115e9acba24a1305036d1c99dc1845675c4ea9d6bae6713950a5a538c9",
    ("link", "link-iv", "ode"): "d3b57e8a32e90d5deb720bfc50875ee180605bbc9ec56999afc8ac05c0ed7301",
    ("link", "link-iv", "platform"): "d3b57e8a32e90d5deb720bfc50875ee180605bbc9ec56999afc8ac05c0ed7301",
    ("link", "link-ev", "analytic"): "1a4ead88104b94ae0eab95971957c1f982e9df26b43dc56149da9c097a67ef9b",
    ("link", "link-ev", "ode"): "d63a2ea809bafc7e1ae7b172e5c0750c0dc72cdbf2a6ef7ee0530ccd47506bcf",
    ("link", "link-ev", "platform"): "d63a2ea809bafc7e1ae7b172e5c0750c0dc72cdbf2a6ef7ee0530ccd47506bcf",
}


def test_builtin_outputs_match_the_recorded_digests(tmp_path, capsys):
    changed = []
    for key, digest in GOLDEN_OUTPUT_SHA256.items():
        command, name = key[:2]
        if command == "link":
            assert main(["link", "--scenario", name, "--engine", key[2]]) == 0
            written = capsys.readouterr().out.encode()
        else:
            path = tmp_path / f"{command}-{name}.csv"
            assert main([command, "--scenario", name, "--out", str(path)]) == 0
            written = path.read_bytes()
        if hashlib.sha256(written).hexdigest() != digest:
            changed.append(key)
    assert changed == []


OUT_CALLS = {
    "link": ["link", "--scenario", "link-ev"],
    "simulate": ["simulate", "--scenario", "bench-iv", "--horizon", "600"],
}


def _fresh_output(tmp_path, command) -> bytes:
    """The bytes the command writes to a path that did not exist."""
    fresh = tmp_path / f"fresh-{command}.csv"
    assert main(OUT_CALLS[command] + ["--out", str(fresh)]) == 0
    return fresh.read_bytes()


@pytest.mark.parametrize("command", list(OUT_CALLS))
def test_out_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, capsys, command):
    expected = _fresh_output(tmp_path, command)
    out = tmp_path / "old.csv"
    out.write_bytes(b"9" * (len(expected) + 10_000))
    assert main(OUT_CALLS[command] + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("command", list(OUT_CALLS))
def test_out_rewrites_the_file_in_place(tmp_path, capsys, command):
    expected = _fresh_output(tmp_path, command)
    out = tmp_path / "out.csv"
    out.write_text("old text\n")
    out.chmod(0o640)
    link = tmp_path / "hard-link.csv"
    os.link(out, link)
    inode = out.stat().st_ino
    assert main(OUT_CALLS[command] + ["--out", str(out)]) == 0
    assert out.stat().st_ino == inode
    assert link.read_bytes() == expected
    assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_out_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    expected = _fresh_output(tmp_path, "link")
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n" * 1000)
    out = tmp_path / "out.csv"
    out.symlink_to(target)
    assert main(OUT_CALLS["link"] + ["--out", str(out)]) == 0
    assert out.is_symlink() and out.resolve() == target.resolve()
    assert target.read_bytes() == expected


def test_out_creates_a_file_with_the_umask_mode(tmp_path, capsys):
    out = tmp_path / "new.csv"
    umask = os.umask(0o027)
    try:
        assert main(OUT_CALLS["link"] + ["--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_out_to_the_null_device_succeeds(capsys):
    assert main(OUT_CALLS["link"] + ["--out", os.devnull]) == 0
    assert "recovered payload: 01010011" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
def test_out_to_a_fifo_reaches_its_reader(tmp_path, capsys):
    expected = _fresh_output(tmp_path, "simulate")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = main(OUT_CALLS["simulate"] + ["--out", str(fifo)])
    finally:
        reader.join(timeout=60)
    assert code == 0
    assert received == [expected]


def test_out_cut_after_a_failed_write_leaves_what_was_written(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old\n" * 1000)
    with pytest.raises(RuntimeError):
        with cli._output(str(out)) as fh:
            fh.write("t,analytic\n")
            raise RuntimeError("stopped mid-write")
    assert out.read_bytes() == b"t,analytic\n"


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX pipes and SIGPIPE")
def test_closed_stdout_pipe_exits_quietly():
    # simulate on bench-ev writes 0.57 MB, far more than a pipe holds
    proc = subprocess.Popen([sys.executable, "-m", "pklink.cli", "simulate", "--scenario", "bench-ev"],
                            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"t,analytic,ode,platform\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert err == b""


def _reference_csv(header, columns) -> str:
    """The CSV the writer must produce: each value as repr(float(v))."""
    rows = zip(*columns)
    return ",".join(header) + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


# Rows of a block of simulate's four columns (t and the three engines) and
# of test_csv_writer_keeps_equal_columns_and_signed_zeros' six.
SIMULATE_BLOCK_ROWS = CSV_BLOCK_VALUES // 4
BLOCK_ROWS_OF_6 = CSV_BLOCK_VALUES // 6


@pytest.mark.parametrize("n", [1, BLOCK_ROWS_OF_6 - 1, BLOCK_ROWS_OF_6, BLOCK_ROWS_OF_6 + 1, 3 * BLOCK_ROWS_OF_6])
def test_csv_writer_keeps_equal_columns_and_signed_zeros(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    zeros = np.zeros(n)
    signed = zeros.copy()
    signed[n // 2] = -0.0  # equal in value to zeros, not in bits
    # a repeated column, a strided view of its values, and 0.0 against -0.0
    copy = values.copy()
    strided = np.repeat(values, 2)[::2]
    header = ("a", "b", "c", "z", "s", "z2")
    columns = [values, copy, strided, zeros, signed, zeros]
    fh = io.StringIO()
    cli._write_rows(fh, header, columns)
    assert fh.getvalue() == _reference_csv(header, columns)
    assert fh.getvalue().splitlines()[1 + n // 2].split(",")[3:6] == ["0.0", "-0.0", "0.0"]


def test_simulate_engines_agree_bit_for_bit():
    # Both integrating engines run signals.rk4_linear on one lower-triangular
    # system and the twin's excreta state feeds nothing back, so the ode and
    # platform columns are the same doubles.
    for name, scenario in builtin_scenarios().items():
        signals, _ = run_simulate(scenario)
        ode, platform = signals["ode"].samples, signals["platform"].samples
        assert np.array_equal(ode.view(np.uint64), platform.view(np.uint64)), name


def test_simulate_engines_agree_on_a_bolus():
    # bench-ev with its infusion made impulsive: the ODE engine takes the
    # dose as a jump of the dosing compartment, as the twin does, not as
    # one step of rate, so it follows the analytic curve
    scenario = resolve_scenario("bench-ev")
    bolus = dataclasses.replace(scenario, doses=DoseSchedule(events=(DoseEvent(time=0.0, mass=130.0),)))
    _, deviations = run_simulate(bolus)
    assert deviations["analytic_ode"] <= 1e-9
    assert deviations["analytic_platform"] <= 1e-9


@pytest.mark.parametrize("name", ["bench-ev", "bench-iv", "human-oral", "rat-oral", "confluent"])
def test_simulate_engines_agree_on_a_pill_frame(name):
    # a passive pill's frame is impulsive doses only, so the integrating
    # engines take every dose as a jump (split_doses), which no pump frame does
    if name == "confluent":  # k_a = k_e, with the twin derived from the rates
        scenario = dataclasses.replace(resolve_scenario("bench-ev"), name=name, platform=None,
                                       pk=PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_E))
    else:
        scenario = resolve_scenario(name)
    times = [3000.0 - 300.0 * i for i in range(8)]
    pill = modem.pill_schedule(modem.REFERENCE_PAYLOAD, 40.0, times)
    for dt in (1.0, 5.0, 30.0):
        frame = dataclasses.replace(scenario, doses=pill, dt=dt, horizon=12000.0)
        _, deviations = run_simulate(frame)
        assert deviations["analytic_ode"] <= 1e-6, dt
        assert deviations["analytic_platform"] <= 1e-6, dt
        assert deviations["ode_platform"] <= 1e-9, dt
        trace = simulate_platform(cli.scenario_platform(frame), pill, dt, 12000.0)
        assert mass_audit(trace) <= 1e-9, dt


def test_link_refuses_a_frame_past_the_record_on_every_engine(tmp_path, capsys):
    # a record that ends before the frame's last dose is refused before any
    # engine runs, by the rule with which the integrating engines lay doses
    # on the record's steps: a truncated record (5) on every engine
    cut = ["link", "--scenario", "link-iv", "--horizon", "3000"]
    # with 600 s pump doses the last one ends at 6600 s, past 6595 s; with
    # 596.25 s doses it ends at 6596.25 s, whose nearest step is the last
    full, short = tmp_path / "full.yaml", tmp_path / "short.yaml"
    text = resolve_scenario("link-iv").to_text()
    full.write_text(text.replace("pump_rate: 1.3", f"pump_rate: {130 / 600!r}"))
    short.write_text(text.replace("pump_rate: 1.3", f"pump_rate: {130 / 596.25!r}"))
    for engine in cli.ENGINES:
        assert main(cut + ["--engine", engine]) == 5
        assert capsys.readouterr().err == (
            "error: the frame's last dose ends at 6100.0 s, after the record ends at 3000.0 s\n"
        )
        assert main(["link", "--scenario", str(full), "--horizon", "6595", "--engine", engine]) == 5
        assert capsys.readouterr().err == (
            "error: the frame's last dose ends at 6600.0 s, after the record ends at 6595.0 s\n"
        )
        assert main(["link", "--scenario", str(short), "--horizon", "6595", "--engine", engine]) == 0
        # the record ends inside the last dose, whose window recovers too little: one bit wrong on every engine
        assert capsys.readouterr().out.endswith("frame_start,threshold,errors,ber\n0.0,65.0,1,0.125\n")
    # a dose that fits the record leaves the engines' own errors as they were
    assert main(["link", "--scenario", "link-ev", "--engine", "ode", "--dt", "600"]) == 4
    assert "is unstable for rate" in capsys.readouterr().err


def test_integrating_engines_refuse_an_infusion_past_the_grid():
    # bench-ev's grid ends at 8000 s, so an infusion from 7995 s for 5.6 s
    # rounds to steps 7995 to 8001, one past the last; both integrating
    # engines lay infusions on the grid's n - 1 steps and refuse it alike,
    # where the ODE engine used to drop that step and return a curve
    scenario = resolve_scenario("bench-ev")
    late = dataclasses.replace(scenario, doses=DoseSchedule(events=(DoseEvent(time=7995.0, mass=130.0, duration=5.6),)))
    for engine in ("ode", "platform"):
        with pytest.raises(ConfigurationError, match=re.escape("dose over [7995.0, 8000.6] falls outside the signal grid")):
            cli.run_engine(late, engine)
    assert len(cli.run_engine(late, "analytic")) == scenario.grid_size()


def _assert_csv_outputs_read_as_repr(tmp_path, name, dt=None, horizon=None):
    """simulate's and impulse's CSVs of a scenario are repr(float(v)) of every value."""
    scenario = resolve_scenario(name).with_overrides(dt=dt, horizon=horizon)
    overrides = (["--dt", repr(dt)] if dt else []) + (["--horizon", repr(horizon)] if horizon else [])
    n = scenario.grid_size()
    assert n > SIMULATE_BLOCK_ROWS  # more than one block of simulate's, and so of impulse's 7 columns
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", name, "--out", str(sim)] + overrides) == 0
    signals, deviations = run_simulate(scenario)
    engines = ("analytic", "ode", "platform")
    summary = " ".join(f"{key}={float(value)!r}" for key, value in deviations.items())
    expected = _reference_csv(("t",) + engines, [signals["analytic"].times] + [signals[e].samples for e in engines])
    assert sim.read_bytes() == (expected + f"# max_rel_dev {summary}\n").encode()

    imp = tmp_path / "impulse.csv"
    assert main(["impulse", "--scenario", name, "--out", str(imp)] + overrides) == 0
    t = np.arange(n) * scenario.dt
    header, columns = ["t"], [t]
    for route, tag in ((Route.INTRAVENOUS, "iv"), (Route.EXTRAVASCULAR, "ev")):
        conc = impulse_response(scenario.pk, route, t, Normalization.CONCENTRATION)
        peak = impulse_response(scenario.pk, route, peak_time(scenario.pk, route), Normalization.CONCENTRATION)
        header += [f"{tag}_amount", f"{tag}_conc", f"{tag}_norm"]
        columns += [impulse_response(scenario.pk, route, t, Normalization.AMOUNT), conc, conc / peak]
    assert imp.read_bytes() == _reference_csv(header, columns).encode()


@pytest.mark.parametrize("dt, horizon", [(None, None), (0.5, None), (None, 7679.0)])
def test_csv_writer_formats_every_value_as_its_repr(tmp_path, dt, horizon):
    # bench-ev has 8001 rows; dt 0.5 gives 16001 (not a multiple of
    # simulate's block) and horizon 7679 gives 7680, a whole number of
    # simulate's blocks; impulse's blocks of 7 columns divide none.
    assert 16001 % SIMULATE_BLOCK_ROWS != 0 and 7680 % SIMULATE_BLOCK_ROWS == 0
    assert all(n % (CSV_BLOCK_VALUES // 7) != 0 for n in (8001, 16001, 7680))
    _assert_csv_outputs_read_as_repr(tmp_path, "bench-ev", dt, horizon)


@pytest.mark.parametrize("name", ["human-oral", "rat-oral", "bench-iv", "bench-ev", "link-iv", "link-ev"])
def test_csv_writer_formats_every_builtin_as_its_repr(tmp_path, name):
    # each built-in on its own grid, from 3001 rows (the links) to 270 001
    # (human-oral)
    _assert_csv_outputs_read_as_repr(tmp_path, name)


def test_csv_writer_spells_non_finite_values_as_repr():
    # no command writes one (SampledSignal and impulse refuse them), but
    # every double, nan and the infinities too, is written as its repr
    column = np.array([np.nan, np.inf, -np.inf, -np.nan, 0.0, -0.0, 5e-324, 1e16])
    bits = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)
    columns = [np.arange(9.0), np.concatenate([column, bits]), -np.concatenate([column, bits])]
    fh = io.StringIO()
    cli._write_rows(fh, ("t", "a", "b"), columns)
    assert fh.getvalue() == _reference_csv(("t", "a", "b"), columns)
    assert fh.getvalue().splitlines()[1:4] == ["0.0,nan,nan", "1.0,inf,-inf", "2.0,-inf,inf"]


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


def test_main_builds_each_command_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["scenarios"]) == 0
    whole_tree = ["pklink"] + [f"pklink {name}" for name in COMMANDS]
    assert len(whole_tree) == 7
    assert built == whole_tree
    assert main(["scenarios", "--out", "-"]) == 0
    assert main(["plan", "--mode", "orbit"]) == 2
    assert main(["bogus"]) == 2
    assert main(["--help"]) == 0
    assert main([]) == 2
    monkeypatch.setattr(sys, "argv", ["pklink", "scenarios"])
    assert main() == 0
    assert built == whole_tree
    capsys.readouterr()


def test_reused_parsers_keep_calls_independent(monkeypatch, capsys):
    lams = []
    real_run_link = cli.run_link

    def spy(scenario, engine="analytic", lam=None):
        lams.append(lam)
        return real_run_link(scenario, engine, lam)

    monkeypatch.setattr(cli, "run_link", spy)
    link = ["link", "--scenario", "link-ev"]
    assert main(link) == 0
    expected = capsys.readouterr()
    assert main(link + ["--lam", "0"]) == 0
    assert main(link) == 0
    assert lams == [None, 0.0, None]
    capsys.readouterr()
    # a refused command line, then a valid one
    assert main(["link", "--lam", "x"]) == 2
    assert "argument --lam: invalid float value: 'x'" in capsys.readouterr().err
    assert main(link) == 0
    assert capsys.readouterr() == expected
    # the whole tree's help, then a command; a command's help twice
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pklink ")
    assert main(link) == 0
    assert capsys.readouterr() == expected
    assert main(["link", "--help"]) == 0
    help_text = capsys.readouterr()
    assert main(["link", "--help"]) == 0
    assert capsys.readouterr() == help_text


# The --help text of pklink and of each command at COLUMNS=80, as argparse
# of Python 3.11 lays it out.
GOLDEN_HELP = {
    "pklink": (
        "usage: pklink [-h] {scenarios,impulse,simulate,link,fit,plan} ...\n"
        "\n"
        "Simulate and decode drug-concentration signalling through a one-compartment\n"
        "channel.\n"
        "\n"
        "positional arguments:\n"
        "  {scenarios,impulse,simulate,link,fit,plan}\n"
        "    scenarios           list built-in scenarios\n"
        "    impulse             sampled impulse responses for a scenario\n"
        "    simulate            run all engines on a scenario\n"
        "    link                transmit and detect a bit frame\n"
        "    fit                 estimate parameters from a concentration CSV\n"
        "    plan                plan pump flows or vessel volumes\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "scenarios": (
        "usage: pklink scenarios [-h] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT   output file path (default: stdout)\n"
    ),
    "impulse": (
        "usage: pklink impulse [-h] [--scenario SCENARIO] [--dt DT] [--horizon HORIZON]\n"
        "                      [--seed SEED] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --scenario SCENARIO  built-in scenario name or scenario file path\n"
        "  --dt DT              override the scenario sample step (s)\n"
        "  --horizon HORIZON    override the scenario horizon (s)\n"
        "  --seed SEED          override the scenario random seed\n"
        "  --out OUT            output file path (default: stdout)\n"
    ),
    "simulate": (
        "usage: pklink simulate [-h] [--scenario SCENARIO] [--dt DT]\n"
        "                       [--horizon HORIZON] [--seed SEED] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --scenario SCENARIO  built-in scenario name or scenario file path\n"
        "  --dt DT              override the scenario sample step (s)\n"
        "  --horizon HORIZON    override the scenario horizon (s)\n"
        "  --seed SEED          override the scenario random seed\n"
        "  --out OUT            output file path (default: stdout)\n"
    ),
    "link": (
        "usage: pklink link [-h] [--scenario SCENARIO] [--dt DT] [--horizon HORIZON]\n"
        "                   [--seed SEED] [--out OUT]\n"
        "                   [--engine {analytic,ode,platform}] [--lam LAM]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --scenario SCENARIO   built-in scenario name or scenario file path\n"
        "  --dt DT               override the scenario sample step (s)\n"
        "  --horizon HORIZON     override the scenario horizon (s)\n"
        "  --seed SEED           override the scenario random seed\n"
        "  --out OUT             output file path (default: stdout)\n"
        "  --engine {analytic,ode,platform}\n"
        "                        simulation engine\n"
        "  --lam LAM             deconvolution regularization weight (default: auto)\n"
    ),
    "fit": (
        "usage: pklink fit [-h] [--out OUT] --csv CSV --route\n"
        "                  {intravenous,extravascular} --dose DOSE\n"
        "                  [--method {residuals,least-squares}] [--column COLUMN]\n"
        "                  [--volume VOLUME]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --out OUT             output file path (default: stdout)\n"
        "  --csv CSV             input CSV with a t column\n"
        "  --route {intravenous,extravascular}\n"
        "  --dose DOSE           administered dose (mg)\n"
        "  --method {residuals,least-squares}\n"
        "  --column COLUMN       concentration column name or index (default: 1)\n"
        "  --volume VOLUME       known distribution volume (mL)\n"
    ),
    "plan": (
        "usage: pklink plan [-h] [--scenario SCENARIO] [--out OUT] [--k-a K_A]\n"
        "                   [--k-e K_E] --mode {flows,volumes} [--v-a V_A] [--v-b V_B]\n"
        "                   [--flow FLOW] [--check-v-a CHECK_V_A]\n"
        "                   [--check-v-b CHECK_V_B]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --scenario SCENARIO   built-in scenario name or scenario file path\n"
        "  --out OUT             output file path (default: stdout)\n"
        "  --k-a K_A             absorption rate constant (1/s)\n"
        "  --k-e K_E             elimination rate constant (1/s)\n"
        "  --mode {flows,volumes}\n"
        "  --v-a V_A             administration vessel volume (mL)\n"
        "  --v-b V_B             central vessel volume (mL)\n"
        "  --flow FLOW           shared pump flow (mL/s)\n"
        "  --check-v-a CHECK_V_A\n"
        "                        nominal V_a to check\n"
        "  --check-v-b CHECK_V_B\n"
        "                        nominal V_b to check\n"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN_HELP))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([] if command == "pklink" else [command]) + ["--help"]) == 0
    assert capsys.readouterr() == (GOLDEN_HELP[command], "")


# The bench-EV fit CSV with the decimal point of its tenth value,
# 0.029533654565375874, deleted, so that value reads 2.95e16: Gauss-Newton
# steps to k_a ~ 8e-253, k_e ~ 3e-198, where a column of the Jacobian
# underflows to zero and the Jacobian cannot be formed.  The row is written
# whole, so the other values' last bits do not decide whether it is there.
_BENCH_EV_ROWS = _bench_ev_curve_csv().splitlines(keepends=True)
FIT_CSV_LOST_POINT = "".join(
    _BENCH_EV_ROWS[:10] + [_BENCH_EV_ROWS[10].split(",")[0] + ",0029533654565375874\n"] + _BENCH_EV_ROWS[11:]
)

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
@example(case=(["link", "--scenario", "fuzz"], _link_ev_with("symbol_period: 600.0", "symbol_period: 1e20"), None))
@example(case=(["link", "--scenario", "fuzz"], _link_ev_with("  V: 649.0066225165563", "  V: 1e-200"), None))
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
