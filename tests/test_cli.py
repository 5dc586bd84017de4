"""Command-line interface: subcommands, file output, exit codes."""

import numpy as np
import pytest

from pklink.channel import PkParams, Route, ev_concentration
from pklink.cli import main
from pklink.scenarios import resolve_scenario

from conftest import BENCH_DOSE, BENCH_K_A, BENCH_K_E, BENCH_V

GOLDEN_PLAN_WARNING = (
    "WARNING: planned volumes (V_a=299.6941896024465, V_b=649.0066225165563) disagree with "
    "the nominal volumes (V_a=650.0, V_b=300.0) by more than 1%; the nominal pair is "
    "inconsistent with Q = k*V and looks swapped."
)


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


def test_fit_recovers_parameters_from_csv(tmp_path, capsys):
    pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    t = np.linspace(60.0, 4800.0, 28)
    c = ev_concentration(pk, BENCH_DOSE, t)
    path = tmp_path / "curve.csv"
    path.write_text("t,conc\n" + "".join(f"{float(ti)!r},{float(ci)!r}\n" for ti, ci in zip(t, c)))
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
    out = tmp_path / "missing-dir" / "x.csv"  # an output path that cannot be opened
    for argv in (["simulate", "--scenario", "bench-iv"], ["link", "--scenario", "link-iv"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open output file")
        assert "Traceback" not in err


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


def test_numeric_errors_exit_with_4(capsys):
    # a step too coarse for the rates fails the integrator stability guard
    assert main(["simulate", "--scenario", "bench-iv", "--dt", "200"]) == 4
    capsys.readouterr()


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
