"""Parameter estimation: curve stripping, damped least squares, diagnostics."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pklink import fitting
from pklink.channel import PkParams, Route, ev_concentration, iv_concentration
from pklink.errors import ConvergenceError, DataError, DomainError
from pklink.fitting import (
    ConcentrationSeries,
    fit_least_squares,
    fit_residuals,
    jacobian,
    predict,
)

from conftest import BENCH_DOSE, BENCH_K_A, BENCH_K_E, BENCH_V

RAT_K_A, RAT_K_E, RAT_V, RAT_DOSE = 1.69e-4, 5.08e-4, 202.0, 522.0


def _bench_series(noise_sigma=0.0, seed=7):
    pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    t = np.linspace(60.0, 4800.0, 28)
    c = ev_concentration(pk, BENCH_DOSE, t)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        c = c * (1.0 + noise_sigma * rng.standard_normal(c.size))
    return ConcentrationSeries(t, c, Route.EXTRAVASCULAR, BENCH_DOSE)


def test_series_validation():
    with pytest.raises(DataError):
        ConcentrationSeries(np.arange(3.0), np.ones(3), Route.EXTRAVASCULAR, 10.0)
    with pytest.raises(DataError):
        ConcentrationSeries(np.array([1.0, 1.0, 2.0, 3.0]), np.ones(4), Route.EXTRAVASCULAR, 10.0)
    with pytest.raises(DataError):
        ConcentrationSeries(np.arange(4.0), np.array([1.0, np.inf, 1.0, 1.0]),
                            Route.EXTRAVASCULAR, 10.0)
    with pytest.raises(DomainError):
        ConcentrationSeries(np.arange(4.0) + 1.0, np.ones(4), Route.EXTRAVASCULAR, 0.0)


def test_series_from_csv(tmp_path):
    path = tmp_path / "conc.csv"
    path.write_text(
        "t,plasma,urine\n"
        "# morning samples\n"
        "60.0,0.11,0.0\n"
        "120.0,0.19,0.001\n"
        "300.0,0.31,0.004\n"
        "900.0,0.22,0.02\n"
    )
    by_name = ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, 100.0, column="plasma")
    by_index = ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, 100.0, column=1)
    assert np.array_equal(by_name.concentrations, [0.11, 0.19, 0.31, 0.22])
    assert np.array_equal(by_name.concentrations, by_index.concentrations)
    with pytest.raises(DataError, match="no column named"):
        ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, 100.0, column="serum")
    path.write_text("t,c\n60.0,0.1\n120.0,bad\n300.0,0.3\n900.0,0.2\n")
    with pytest.raises(DataError, match="line 3"):
        ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, 100.0)


def _reference_rows(path, idx):
    """The line loop from_csv is held to: the arrays of t and column idx,
    or the number of the first line it rejects."""
    times, values = [], []
    with open(path, newline="") as fh:
        width = len(fh.readline().strip().split(","))
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != width:
                return lineno
            try:
                times.append(float(parts[0]))
                values.append(float(parts[idx]))
            except ValueError:
                return lineno
    return np.array(times), np.array(values)


def _numeral(x: float, form: int) -> str:
    text = repr(x)
    if form == 1:  # Python float() reads digit separators, np.loadtxt does not
        return re.sub(r"^(-?\d)(\d)", r"\1_\2", text)
    if form == 2:
        return f" {text}\t"
    if form == 3:
        return f"{x:.6e}"
    return text


_bad_fields = st.sampled_from(["", "oops", "1..0", "nan", "1e999", "0x10", "1_", "--1", "1.0 # note"])


def _row(draw, t: float, width: int, forms: list[int]) -> list[str]:
    fields = [t] + [draw(st.floats(-1e3, 1e3, allow_subnormal=False)) for _ in range(width - 1)]
    return [_numeral(v, draw(st.sampled_from(forms))) for v in fields]


def _mixed_body(draw, width: int) -> list[str]:
    """Up to 12 lines: rows in every spelling, comments, blanks, bad rows."""
    lines = []
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "bad", "width", "note", "short-long"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "   # indented", "#", "#1.0,2.0"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "short-long":  # two rows whose field counts still add up
            t += draw(st.floats(0.5, 100.0))
            lines.append(",".join(_row(draw, t, width, [0])[:-1]))
            t += draw(st.floats(0.5, 100.0))
            lines.append(",".join(_row(draw, t, width, [0]) + ["0.0"]))
        else:
            t += draw(st.floats(0.5, 100.0))
            parts = _row(draw, t, width, list(range(7)))
            if kind == "bad":
                parts[draw(st.integers(0, width - 1))] = draw(_bad_fields)
            elif kind == "width":
                parts = parts[:-1] if draw(st.booleans()) else parts + ["0.0"]
            elif kind == "note":  # a trailing comment is not a comment line
                parts[-1] += " # note"
            lines.append(",".join(parts))
    return lines


def _clean_body(draw, width: int) -> list[str]:
    """Rows in the spellings np.loadtxt reads, up to 12 drawn or 2000 and
    more from a seeded generator, with at most one flaw."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(2000, 2100))
        table = np.column_stack([np.cumsum(rng.uniform(0.5, 100.0, n)), rng.uniform(-1e3, 1e3, (n, width - 1))])
        lines = [",".join(map(repr, row)) for row in table.tolist()]
    else:
        lines = []
        t = 0.0
        for _ in range(draw(st.integers(1, 12))):
            t += draw(st.floats(0.5, 100.0))
            lines.append(",".join(_row(draw, t, width, [0, 2, 3])))
    at = draw(st.integers(0, len(lines) - 1))
    flaw = draw(st.sampled_from(["none", "none", "hash", "separator", "comment", "blank", "short-long",
                                 "lone-cr", "trailing-blank"]))
    if flaw == "hash":  # a # inside one value
        line = lines[at]
        cut = draw(st.integers(0, len(line)))
        lines[at] = line[:cut] + "#" + line[cut:]
    elif flaw == "separator":  # whitespace to str.strip, not to float()
        parts = lines[at].split(",")
        j = draw(st.integers(0, width - 1))
        parts[j] = draw(st.sampled_from(["\x1c", "\x1f"])) + parts[j]
        lines[at] = ",".join(parts)
    elif flaw == "comment":
        lines.insert(at, draw(st.sampled_from(["# note", "  # indented", "#"])))
    elif flaw == "blank":
        lines.insert(at, draw(st.sampled_from(["", " "])))
    elif flaw == "short-long" and at + 1 < len(lines):
        short, long = lines[at].split(","), lines[at + 1].split(",")
        lines[at : at + 2] = [",".join(short[:-1]), ",".join(long + [short[-1]])]
    elif flaw == "lone-cr":  # marked here, made a line end by _csv_files
        lines[at] += "\r"
    elif flaw == "trailing-blank":
        lines += draw(st.sampled_from([[""], ["", ""], [" "]]))
    return lines


@st.composite
def _csv_files(draw):
    """(file text, column index) of a headed CSV: a mixed body, or a clean
    one that the one-pass reader takes unless its one flaw declines it."""
    width = draw(st.integers(2, 3))
    header = "t," + ",".join(f"c{j}" for j in range(1, width))
    if draw(st.booleans()):
        lines = [header] + _clean_body(draw, width)
        end = draw(st.sampled_from(["\n", "\r\n"]))
        text = "".join(line[:-1] + "\r" if line.endswith("\r") else line + end for line in lines)
    else:
        lines = [header] + _mixed_body(draw, width)
        text = "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for line in lines)
        text += draw(st.sampled_from(["", "\n", "\n\n", " \n"]))  # trailing blank lines
    if draw(st.booleans()):  # no final line end
        text = text.removesuffix("\n").removesuffix("\r")
    return text, draw(st.integers(1, width - 1))


@settings(max_examples=300, deadline=None)
@given(case=_csv_files())
@example(case=("t,c\n1.0,\x1c2.0\n2.0,3.0\n3.0,4.0\n", 1))  # np.loadtxt reads the value, float() does not
@example(case=("t,c\n1.0,2.0\n3.0\n4.0,5.0,6.0\n7.0,8.0", 1))  # a short row, then a long one
def test_csv_reader_matches_the_line_loop(case):
    text, idx = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        path.write_bytes(text.encode())
        expected = _reference_rows(path, idx)
        if isinstance(expected, int):
            with pytest.raises(DataError, match=f": line {expected}: "):
                ConcentrationSeries.from_csv(path, Route.INTRAVENOUS, 10.0, column=idx)
            return
        try:
            series = ConcentrationSeries.from_csv(path, Route.INTRAVENOUS, 10.0, column=idx)
        except DataError as exc:  # the rows parse but fail the series checks
            with pytest.raises(DataError, match=re.escape(str(exc))):
                ConcentrationSeries(*expected, Route.INTRAVENOUS, 10.0)
            return
    assert series.times.tobytes() == expected[0].tobytes()
    assert series.concentrations.tobytes() == expected[1].tobytes()


def _with_blank_lines(body: str, blanks: list[str]) -> str:
    """body with the lines blanks between its rows, 250 rows apart."""
    rows = body.splitlines(keepends=True)
    for i, blank in enumerate(blanks):
        rows.insert(1 + i * 250, blank + "\n")
    return "".join(rows)


def test_clean_files_take_the_one_pass_reader(tmp_path, monkeypatch):
    t = np.linspace(60.0, 4800.0, 2001)
    c = ev_concentration(PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A), BENCH_DOSE, t)
    body = "".join(f"{a!r},{b!r},{2.0 * b!r}\n" for a, b in zip(t.tolist(), c.tolist()))
    ascii_blanks = ["", "", " ", "\t ", "\x0b\x0c", "\x1c\x1f"]
    files = {
        "lf": ("t,a,b\n" + body).encode(),
        "crlf": ("t,a,b\n" + body).replace("\n", "\r\n").encode(),
        "no final line end": ("t,a,b\n" + body.rstrip("\n")).encode(),
        "byte-order mark": ("t,a,b\n" + body).encode("utf-8-sig"),
        "comments": ("t,a,b\n# morning samples\n" + body + "# max_rel_dev analytic_ode=1e-05\n").encode(),
        # empty lines before the first whitespace character, then
        # whitespace-only lines, as str.strip sees them
        "blank lines": ("t,a,b\n\n" + _with_blank_lines(body, ascii_blanks) + "\n \n").encode(),
        "blank lines, comment": ("t,a,b\n" + _with_blank_lines(body, ascii_blanks) + "# max_rel_dev 1e-05\n").encode(),
        "non-ASCII blank lines": ("t,a,b\n" + _with_blank_lines(body, ["\u3000", "\xa0 \u2028"])).encode(),
    }
    monkeypatch.setattr(fitting, "_parse_lines", None)  # no line-by-line fallback
    for name, data in files.items():
        path = tmp_path / "curve.csv"
        path.write_bytes(data)
        series = ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, BENCH_DOSE, column="a")
        assert series.times.tobytes() == t.tobytes(), name
        assert series.concentrations.tobytes() == c.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(
    k_e=st.floats(1e-5, 1e-1),
    # None is the intravenous route; k_a < k_e is the flip-flop case
    ratio=st.none() | st.floats(0.05, 20.0) | st.sampled_from([1.0 - 1e-10, 1.0, 1.0 + 1e-10]),
    F=st.floats(0.05, 1.0, exclude_min=True),
    V=st.floats(1.0, 1e4),
    dose=st.sampled_from([0.1, BENCH_DOSE, RAT_DOSE, 1e4]),
    grid=st.sampled_from([(0.0, 5000.0, 41), (30.0, 3000.0, 17), (600.0, 72000.0, 97)]),
)
@example(k_e=BENCH_K_E, ratio=BENCH_K_A / BENCH_K_E, F=1.0, V=BENCH_V, dose=BENCH_DOSE, grid=(0.0, 5000.0, 41))
def test_predict_agrees_with_channel_forms(k_e, ratio, F, V, dose, grid):
    # the channel's curves and the fitted model are one closed form, so
    # they agree to the last bit
    t = np.linspace(*grid)
    if ratio is None:
        pk = PkParams(k_e=k_e, V=V)
        route, curve, lumped = Route.INTRAVENOUS, iv_concentration(pk, dose, t), dose / V
    else:
        pk = PkParams(k_e=k_e, V=V, k_a=k_e * ratio, F=F)
        route, curve, lumped = Route.EXTRAVASCULAR, ev_concentration(pk, dose, t), F * dose / V
    assert curve.tobytes() == predict(route, t, pk.k_e, lumped, pk.k_a).tobytes()


def _fd_jacobian(route, t, theta, order):
    cols = []
    for name in order:
        idx = {"k_e": 0, "amplitude": 1, "k_a": 2}[name]
        col = np.zeros(len(t))
        for sign in (+1.0, -1.0):
            point = list(theta)
            h = 1e-6 * point[idx]
            point[idx] += sign * h
            col += sign * predict(route, t, *point) / (2.0 * h)
        cols.append(col)
    return np.column_stack(cols)


def test_jacobian_matches_finite_differences():
    t = np.linspace(30.0, 3000.0, 17)
    amp = BENCH_DOSE / BENCH_V
    j_ev = jacobian(Route.EXTRAVASCULAR, t, BENCH_K_E, amp, BENCH_K_A)
    fd_ev = _fd_jacobian(Route.EXTRAVASCULAR, t, (BENCH_K_E, amp, BENCH_K_A),
                         ("k_a", "k_e", "amplitude"))
    assert np.max(np.abs(j_ev - fd_ev)) / np.max(np.abs(j_ev)) < 1e-8
    j_iv = jacobian(Route.INTRAVENOUS, t, BENCH_K_E, amp)
    fd_iv = _fd_jacobian(Route.INTRAVENOUS, t, (BENCH_K_E, amp), ("k_e", "amplitude"))
    assert np.max(np.abs(j_iv - fd_iv)) / np.max(np.abs(j_iv)) < 1e-8


@settings(max_examples=200, deadline=None)
@given(
    route=st.sampled_from(list(Route)),
    k_e=st.floats(1e-5, 3e-2),
    ratio=st.floats(0.05, 0.95) | st.floats(1.05, 20.0) | st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9]),
    decades=st.floats(-2.0, 3.0),
    span=st.floats(0.5, 10.0),
)
@example(route=Route.EXTRAVASCULAR, k_e=2.0e-3, ratio=1.0, decades=math.log10(0.2), span=6.0)
def test_jacobian_matches_central_differences_over_parameter_space(route, k_e, ratio, decades, span):
    amp = 10.0**decades
    if route is Route.INTRAVENOUS:
        theta, order, slowest = (k_e, amp), ("k_e", "amplitude"), k_e
    else:
        k_a = k_e * ratio
        theta, order, slowest = (k_e, amp, k_a), ("k_a", "k_e", "amplitude"), min(k_a, k_e)
    t = np.linspace(0.0, span / slowest, 64)
    j = jacobian(route, t, *theta)
    fd = _fd_jacobian(route, t, theta, order)
    peak = np.max(np.abs(j), axis=0)
    assert np.all(np.max(np.abs(j - fd), axis=0) <= 1e-6 * peak)


def test_jacobian_confluent_branch_matches_finite_differences():
    # at k_a == k_e exactly; step size large enough to keep the probe in
    # well conditioned territory
    amp, k = 0.2, 2.0e-3
    t = np.linspace(30.0, 3000.0, 17)
    j = jacobian(Route.EXTRAVASCULAR, t, k, amp, k)
    eps = 1e-4 * k
    fd = np.column_stack([
        (predict(Route.EXTRAVASCULAR, t, k, amp, k + eps)
         - predict(Route.EXTRAVASCULAR, t, k, amp, k - eps)) / (2 * eps),
        (predict(Route.EXTRAVASCULAR, t, k + eps, amp, k)
         - predict(Route.EXTRAVASCULAR, t, k - eps, amp, k)) / (2 * eps),
        predict(Route.EXTRAVASCULAR, t, k, 1.0, k),
    ])
    assert np.max(np.abs(j - fd)) / np.max(np.abs(j)) < 1e-6


def test_curve_stripping_recovers_bench_constants():
    result = fit_residuals(_bench_series(), volume=BENCH_V)
    assert result.method == "residuals"
    assert result.params.k_a == pytest.approx(BENCH_K_A, rel=1e-2)
    assert result.params.k_e == pytest.approx(BENCH_K_E, rel=1e-2)
    assert result.lumped_amplitude == pytest.approx(BENCH_DOSE / BENCH_V, rel=1e-2)
    assert 0.99 <= result.params.F <= 1.0


def test_least_squares_recovers_bench_constants_exactly():
    init = PkParams(k_e=2 * BENCH_K_E, V=BENCH_V / 2, k_a=2 * BENCH_K_A)
    result = fit_least_squares(_bench_series(), init, volume=BENCH_V)
    assert result.params.k_a == pytest.approx(BENCH_K_A, rel=1e-10)
    assert result.params.k_e == pytest.approx(BENCH_K_E, rel=1e-10)
    assert result.params.V == BENCH_V
    assert result.rss < 1e-20
    assert result.iterations <= 20


# Fits on seeded 2001-point curves with 1% noise, pinned to the last bit so
# that a change to the order of the Gauss-Newton arithmetic shows.  The
# goldens were taken with numpy 2.4 and OpenBLAS on x86-64; another libm or
# BLAS may move the last digits.  confluent-start begins at k_a == k_e,
# where the extravascular curve is k t exp(-k t); iv and ev reject steps on
# the way.
K_MID = (BENCH_K_A * BENCH_K_E) ** 0.5
GOLDEN_FITS = {
    "iv": (
        Route.INTRAVENOUS, PkParams(k_e=BENCH_K_E, V=BENCH_V), BENCH_DOSE, 4800.0,
        PkParams(k_e=2 * BENCH_K_E, V=BENCH_V / 2),
        "(PkParams(k_e=0.001509686445533446, V=648.9448410685068, k_a=None, F=1.0), "
        "0.20032519217804579, 0.00040787224458366256, 6)",
    ),
    "ev": (
        Route.EXTRAVASCULAR, PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A), BENCH_DOSE, 4800.0,
        PkParams(k_e=2 * BENCH_K_E, V=BENCH_V / 2, k_a=2 * BENCH_K_A),
        "(PkParams(k_e=0.001510836846570091, V=648.5476369866524, k_a=0.0032672190070215197, F=1.0), "
        "0.20044788167607724, 0.00037324527799224546, 8)",
    ),
    "flip-flop": (
        Route.EXTRAVASCULAR, PkParams(k_e=RAT_K_E, V=RAT_V, k_a=RAT_K_A), RAT_DOSE, 40000.0,
        PkParams(k_e=RAT_K_A * 1.8, V=RAT_V * 1.3, k_a=RAT_K_E * 0.6),
        "(PkParams(k_e=0.00016878423273599668, V=607.7922176123658, k_a=0.0005092576234305403, F=1.0), "
        "0.858846139969693, 0.009114172231958964, 8)",
    ),
    "confluent-start": (
        Route.EXTRAVASCULAR, PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A), BENCH_DOSE, 4800.0,
        PkParams(k_e=K_MID, V=BENCH_V, k_a=K_MID),
        "(PkParams(k_e=0.0015151893165904525, V=646.8011215670667, k_a=0.00325612456479232, F=1.0), "
        "0.20098913818367634, 0.00035109536202745375, 7)",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_FITS))
def test_least_squares_matches_the_recorded_fits_bitwise(name):
    route, truth, dose, end, init, golden = GOLDEN_FITS[name]
    seed = 11 + list(GOLDEN_FITS).index(name)
    t = np.linspace(end / 80.0, end, 2001)
    curve = iv_concentration if route is Route.INTRAVENOUS else ev_concentration
    c = curve(truth, dose, t) * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(t.size))
    result = fit_least_squares(ConcentrationSeries(t, c, route, dose), init)
    assert repr((result.params, result.lumped_amplitude, result.rss, result.iterations)) == golden


def test_least_squares_accepts_perfect_initialization():
    truth = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    result = fit_least_squares(_bench_series(), truth, volume=BENCH_V)
    assert result.iterations == 1
    assert result.rss < 1e-25


def test_least_squares_tolerates_measurement_noise():
    data = _bench_series(noise_sigma=0.01)
    init = fit_residuals(data, volume=BENCH_V).params
    result = fit_least_squares(data, init, volume=BENCH_V)
    assert result.params.k_a == pytest.approx(BENCH_K_A, rel=5e-2)
    assert result.params.k_e == pytest.approx(BENCH_K_E, rel=5e-2)


def test_intravenous_fits():
    pk = PkParams(k_e=BENCH_K_E, V=BENCH_V)
    t = np.linspace(60.0, 4800.0, 16)
    data = ConcentrationSeries(t, iv_concentration(pk, BENCH_DOSE, t), Route.INTRAVENOUS,
                               BENCH_DOSE)
    stripped = fit_residuals(data)
    assert stripped.params.k_e == pytest.approx(BENCH_K_E, rel=1e-10)
    assert stripped.params.k_a is None
    assert not stripped.flip_flop_ambiguous
    refined = fit_least_squares(data, PkParams(k_e=2 * BENCH_K_E, V=BENCH_V / 2))
    assert refined.params.k_e == pytest.approx(BENCH_K_E, rel=1e-10)
    assert refined.params.V == pytest.approx(BENCH_V, rel=1e-10)


def test_flip_flop_reports_both_readings():
    pk = PkParams(k_e=RAT_K_E, V=RAT_V, k_a=RAT_K_A)
    t = np.linspace(600.0, 40000.0, 30)
    data = ConcentrationSeries(t, ev_concentration(pk, RAT_DOSE, t), Route.EXTRAVASCULAR,
                               RAT_DOSE)
    init = PkParams(k_e=RAT_K_A * 1.8, V=RAT_V * 1.3, k_a=RAT_K_E * 0.6)
    result = fit_least_squares(data, init, volume=RAT_V)
    # primary reading applies the absorption-faster convention
    assert result.flip_flop_ambiguous
    assert result.params.k_a == pytest.approx(RAT_K_E, rel=1e-8)
    assert result.params.k_e == pytest.approx(RAT_K_A, rel=1e-8)
    assert result.k_fast == pytest.approx(RAT_K_E, rel=1e-8)
    assert result.k_slow == pytest.approx(RAT_K_A, rel=1e-8)
    # the alternate reading is the transmitted truth and predicts the same curve
    alt = result.alternate
    assert alt is not None
    assert alt.k_a == pytest.approx(RAT_K_A, rel=1e-8)
    assert alt.k_e == pytest.approx(RAT_K_E, rel=1e-8)
    assert alt.V == RAT_V
    curve_alt = ev_concentration(alt, RAT_DOSE, t)
    assert np.allclose(curve_alt, data.concentrations, rtol=1e-10)
    # both readings reproduce the observations
    curve_primary = predict(Route.EXTRAVASCULAR, t, result.params.k_e,
                            result.lumped_amplitude, result.params.k_a)
    assert np.allclose(curve_primary, data.concentrations, rtol=1e-8)


def test_volume_reconstruction_without_volume():
    result = fit_least_squares(
        _bench_series(), PkParams(k_e=2 * BENCH_K_E, V=BENCH_V / 2, k_a=2 * BENCH_K_A)
    )
    assert result.params.F == 1.0
    assert result.params.V == pytest.approx(BENCH_V, rel=1e-8)


def test_bioavailability_is_capped_at_one():
    # a supplied volume implying F > 1 is clamped; the amplitude stays honest
    result = fit_least_squares(
        _bench_series(),
        PkParams(k_e=2 * BENCH_K_E, V=BENCH_V / 2, k_a=2 * BENCH_K_A),
        volume=2.0 * BENCH_V,
    )
    assert result.params.F == 1.0
    assert result.lumped_amplitude == pytest.approx(BENCH_DOSE / BENCH_V, rel=1e-8)


def test_unfittable_data_raises_convergence_error():
    flat = ConcentrationSeries(np.arange(5.0) + 1.0, np.ones(5), Route.EXTRAVASCULAR, 10.0)
    with pytest.raises(ConvergenceError):
        fit_least_squares(flat, PkParams(k_e=1e-6, V=1.0, k_a=2e-6))


def test_a_jacobian_that_cannot_be_formed_raises_convergence_error():
    # one value with its decimal point deleted (2.95e16 in place of 0.0295)
    # drives Gauss-Newton to k_a ~ 8e-253, k_e ~ 3e-198, where the k_e and
    # amplitude columns underflow to zero: that Jacobian is an error
    series = _bench_series()
    c = series.concentrations.copy()
    c[9] = 29533654565375874.0
    broken = ConcentrationSeries(series.times, c, Route.EXTRAVASCULAR, BENCH_DOSE)
    with pytest.raises(ConvergenceError, match="Jacobian cannot be formed"):
        fit_least_squares(broken, fit_residuals(broken).params)
    t = series.times
    with pytest.raises(ConvergenceError, match="Jacobian cannot be formed"):
        jacobian(Route.EXTRAVASCULAR, t, 2.55e-198, 3.5e71, 8.15e-253)
    # a column that is zero everywhere or not finite is refused the same way
    with pytest.raises(ConvergenceError, match="Jacobian cannot be formed"):
        jacobian(Route.INTRAVENOUS, t, 1e3, 1.0)
    with pytest.raises(ConvergenceError, match="Jacobian cannot be formed"):
        jacobian(Route.INTRAVENOUS, t, 1e-3, np.inf)


def test_residuals_past_the_float_range_give_no_warning():
    # a value with its decimal point deleted: 3.4e15 in place of 0.0034
    # makes a damped trial step's residual square past the float range, and
    # 1.03e248 in place of 0.103 makes curve stripping's; the step is
    # rejected like any other whose rss is not finite, and stripping
    # reports an rss of inf
    series = _bench_series()
    c = series.concentrations.copy()
    c[0] = 3406568843856652.0
    broken = ConcentrationSeries(series.times, c, Route.INTRAVENOUS, BENCH_DOSE)
    assert math.isfinite(fit_least_squares(broken, fit_residuals(broken).params).rss)
    c = series.concentrations.copy()
    c[2] = 1.0301853820e248
    for route in Route:
        huge = ConcentrationSeries(series.times, c, route, BENCH_DOSE)
        stripped = fit_residuals(huge)
        assert stripped.rss == math.inf
        with pytest.raises(ConvergenceError):
            fit_least_squares(huge, stripped.params)


def test_stripping_rejects_non_decaying_data():
    t = np.arange(5.0) + 1.0
    rising = ConcentrationSeries(t, np.array([1.0, 2.0, 4.0, 8.0, 16.0]), Route.INTRAVENOUS, 10.0)
    with pytest.raises(ConvergenceError):
        fit_residuals(rising)
    bad_tail = ConcentrationSeries(t, np.array([1.0, 5.0, 2.0, 3.0, 4.5]),
                                   Route.EXTRAVASCULAR, 10.0)
    with pytest.raises(ConvergenceError):
        fit_residuals(bad_tail)


def test_stripping_needs_enough_post_peak_points():
    t = np.arange(4.0) + 1.0
    data = ConcentrationSeries(t, np.array([1.0, 3.0, 2.5, 2.0]), Route.EXTRAVASCULAR, 10.0)
    with pytest.raises(DataError):
        fit_residuals(data)
