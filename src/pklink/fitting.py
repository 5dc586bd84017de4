"""Parameter estimation from sampled concentration curves.

Two estimators are provided: the classical method of residuals (log-linear
regression of the terminal phase, then regression of the back-extrapolated
residuals for the fast phase) and a damped Gauss-Newton least-squares fit
with an analytic Jacobian.  Both are honest about identifiability: a
two-exponential extravascular curve determines only the pair of rates and
the lumped amplitude F*dose/V, and either rate can be the absorption rate
(flip-flop kinetics), so results carry both readings: a primary one
ranked by the absorption-faster prior, whose k_a is the faster rate, and
the swapped alternative.
"""

from __future__ import annotations

import codecs
import io
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .channel import PkParams, Route, _model
from .errors import ConvergenceError, DataError, DomainError, shown_path

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-9
MAX_REJECTED_STEPS = 20

_CHUNK_BYTES = 1 << 16  # about 2000 rows of two repr'd doubles
_BLANK = b" \t\r\x0b\x0c\x1c\x1d\x1e\x1f"  # the ASCII bytes str.strip removes, but the line feed
_NOT_NUMBERS = (b'"', b"[", b"{", b"t", b"f", b"n")  # how every other JSON value starts


@dataclass(frozen=True, eq=False)
class ConcentrationSeries:
    """Measured concentration curve with its dosing context."""

    times: np.ndarray
    concentrations: np.ndarray
    route: Route
    dose: float

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        c = np.array(self.concentrations, dtype=float)
        if t.ndim != 1 or c.ndim != 1 or t.size != c.size:
            raise DataError("times and concentrations must be 1-D and equally long")
        minimum = 4 if self.route is Route.EXTRAVASCULAR else 3
        if t.size < minimum:
            raise DataError(f"{self.route.value} fits need at least {minimum} points, got {t.size}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(c))):
            raise DataError("times and concentrations must be finite")
        if np.any(np.diff(t) <= 0):
            raise DataError("times must be strictly increasing")
        if not (math.isfinite(self.dose) and self.dose > 0):
            raise DomainError(f"dose must be positive, got {self.dose}")
        t.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "concentrations", c)

    @classmethod
    def from_csv(cls, path, route: Route, dose: float, column: str | int = 1) -> "ConcentrationSeries":
        """Read t plus one concentration column from a headed CSV file.

        The header's first name is t; column selects the concentration
        values by header name or by index (default: the column after t).
        The file is UTF-8, with or without a byte-order mark.  Blank lines
        and full-line # comments are skipped.  Malformed rows and
        undecodable bytes fail with a DataError naming the file, and
        malformed rows also name the line; undecodable bytes are located
        by their offset in the file.

        The file is read once, as bytes.  A body that is ASCII, where the
        header ends, is read in one pass over those bytes: it drops the
        lines the line-by-line reader skips, checks that every other line
        holds as many fields as the header, and converts the fields with
        orjson, whose numbers are a subset of float()'s spellings and read
        as float() reads them.  A body with a lone CR, or with a field that
        is not a JSON number (+1, .5, nan, 1e400, a # after a value, a byte
        in \\x1c-\\x1f, ...), or a malformed row, goes through the
        line-by-line reader, which gives the same values or names the
        first bad line; a body that is not ASCII is decoded once, for that
        reader.
        """
        times, values = _read_columns(path, column)
        return cls(times=times, concentrations=values, route=route, dose=dose)


def _read_columns(path, column: str | int) -> tuple[np.ndarray, np.ndarray]:
    """The t column and the selected column of the CSV file at path, for
    from_csv, which copies them only once this returns and the file's
    bytes are freed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot read {shown_path(path)}: {exc}") from exc
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    # the header line ends at the first CR, LF or CR LF, as readline(newline="") reads it
    lf = data.find(b"\n", start)
    cr = data.find(b"\r", start, lf if lf >= 0 else len(data))
    if cr >= 0:
        end = cr + (2 if data.startswith(b"\n", cr + 1) else 1)
    else:
        end = lf + 1 if lf >= 0 else len(data)
    header = _decode(path, data, start, end)
    # a byte-order mark or a header that is not ASCII leaves the body so; the view copies nothing
    ascii_body = data.isascii() or np.frombuffer(data, np.uint8, offset=end).max(initial=0) < 0x80
    text = None if ascii_body else _decode(path, data, end, len(data))  # for the line loop
    names = header.strip().split(",")
    if len(names) < 2 or names[0] != "t":
        raise DataError(f"{shown_path(path)}: line 1: expected a header starting with t")
    if isinstance(column, str):
        if column not in names:
            raise DataError(f"{shown_path(path)}: line 1: no column named {column!r} in {names}")
        idx = names.index(column)
    else:
        idx = int(column)
        if not (1 <= idx < len(names)):
            raise DataError(f"{shown_path(path)}: line 1: column index {idx} out of range")
    columns = None if text is not None else _read_table(data, end, len(names), idx)
    if columns is not None:
        return columns
    lines = io.StringIO(data[end:].decode() if text is None else text, newline="").readlines()
    return _parse_lines(path, lines, len(names), idx)


def _decode(path, data: bytes, begin: int, end: int) -> str:
    """data[begin:end] as UTF-8 text.  Bytes that are not UTF-8 raise a
    DataError giving their offset in the file."""
    try:
        return str(memoryview(data)[begin:end], "utf-8")
    except UnicodeDecodeError as exc:
        where = UnicodeDecodeError(exc.encoding, data, begin + exc.start, begin + exc.end, exc.reason)
        raise DataError(f"cannot decode {shown_path(path)}: {where}") from exc


def _read_table(data: bytes, begin: int, width: int, idx: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The t column and column idx of the ASCII CSV body data[begin:], read
    in one pass, or None when the body has a lone CR or a line that
    _rows refuses even once the lines _parse_lines skips are dropped.
    The body is converted _CHUNK_BYTES at a time, cut at line ends, so
    that only a chunk's Python floats are alive at once."""
    cr = data.find(b"\r", begin - 1)
    if cr >= 0 and data.count(b"\r", cr) != data.count(b"\r\n", cr):
        return None  # a lone CR, in the body or ending the header
    size = data.count(b"\n", begin) + 1
    times, values = np.empty(size), np.empty(size)
    rows = 0
    at = begin
    while at < len(data):
        stop = data.find(b"\n", at + _CHUNK_BYTES) + 1 or len(data)
        chunk = data[at:stop]
        table = _rows(chunk.removesuffix(b"\n"), width)
        if table is None:  # perhaps a line to skip: as _parse_lines, drop blank and comment lines
            kept = [line for line in chunk.split(b"\n") if (text := line.strip(_BLANK)) and text[0] != ord("#")]
            table = _rows(b"\n".join(kept), width) if kept else np.empty((0, width))
            if table is None:
                return None
        times[rows : rows + len(table)] = table[:, 0]
        values[rows : rows + len(table)] = table[:, idx]
        rows += len(table)
        at = stop
    return times[:rows], values[:rows]


def _rows(body: bytes, width: int) -> np.ndarray | None:
    """The lines of body, without a final LF, as a (lines, width) array of
    float() of each field, or None unless every line holds width
    comma-separated JSON numbers.  Each such field is one of float()'s
    spellings, and orjson reads it as float() does: correctly rounded,
    integers too, but for a bare -0, which orjson reads as the int 0."""
    if any(opener in body for opener in _NOT_NUMBERS):
        return None  # a JSON value that is not a number, which orjson would read
    codes = np.frombuffer(body, np.uint8)
    separators = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    lines = body.count(b"\n") + 1
    if separators.size != lines * width - 1 or np.any(codes[separators[width - 1 :: width]] != ord("\n")):
        return None  # a line with more or fewer fields
    try:
        numbers = orjson.loads(b"[" + body.replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    table = np.fromiter(numbers, float, len(numbers))
    ends = np.append(separators, len(body))
    for k in np.flatnonzero(table == 0.0):  # the field of each zero, for a bare -0
        if body[ends[k - 1] + 1 if k else 0 : ends[k]].strip() == b"-0":
            table[k] = -0.0
    return table.reshape(lines, width)


def _parse_lines(path, lines: list[str], width: int, idx: int) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line reading of a CSV body (line 2 on): the path for the
    bodies _read_table declines.  It names the first malformed line, and
    parses only t and the selected column, each with Python float()."""
    times: list[float] = []
    values: list[float] = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DataError(f"{shown_path(path)}: line {lineno}: expected {width} columns, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[idx]))
        except ValueError as exc:
            raise DataError(f"{shown_path(path)}: line {lineno}: {exc}") from exc
    return np.array(times), np.array(values)


@dataclass(frozen=True)
class FitResult:
    """Recovered parameters plus identifiability context.

    lumped_amplitude is the directly identifiable group: dose/V for
    intravenous data and F*dose/V for extravascular data.  params is the
    primary reading (absorption assumed faster than elimination), and
    alternate the swapped flip-flop reading of extravascular data, which
    fits them equally well; intravenous data have one rate and no
    alternate.  The distribution volume V is not separately
    identifiable, so params reconstructs it from the lumped amplitude with
    F = 1 unless a volume is supplied to the fit, in which case F is
    derived (and capped at 1; the lumped amplitude stays authoritative).
    """

    params: PkParams
    lumped_amplitude: float
    rss: float
    iterations: int
    method: str
    alternate: PkParams | None = None


def _formed_jacobian(columns, n: int, factors, k_a, k_e, amplitude) -> np.ndarray:
    """The (n, p) array whose column j is channel._model's derivative
    column j times factor j: ones give the raw Jacobian, the parameters
    themselves the Jacobian in log-parameter space.  A column whose sum of
    squares is 0 (a zero column), or inf or nan (one that is not finite, or
    whose squares under- or overflow), is refused with a ConvergenceError."""
    out = np.empty((n, len(factors)))
    if not all(0.0 < ss < math.inf for ss in columns(out, factors)):
        raise ConvergenceError(f"Jacobian cannot be formed at k_a={k_a!r}, k_e={k_e!r}, amplitude={amplitude!r}")
    return out


def predict(route: Route, t, k_e: float, amplitude: float, k_a: float | None = None):
    """Model concentration for the identifiable parameterization.

    Intravenous: amplitude * exp(-k_e t) with amplitude = dose/V.
    Extravascular: amplitude * k_a/(k_a-k_e) * (exp(-k_e t) - exp(-k_a t))
    with amplitude = F*dose/V, also at k_a == k_e: channel's closed form.
    """
    return _model(route, t, k_e, amplitude, k_a)[0]


def jacobian(route: Route, t, k_e: float, amplitude: float, k_a: float | None = None) -> np.ndarray:
    """Analytic Jacobian of predict() w.r.t. the raw parameters.

    Columns follow parameter order: (k_a, k_e, amplitude) for
    extravascular, (k_e, amplitude) for intravenous.
    """
    factors = (1.0, 1.0, 1.0) if route is Route.EXTRAVASCULAR else (1.0, 1.0)
    return _formed_jacobian(_model(route, t, k_e, amplitude, k_a)[1], np.size(t), factors, k_a, k_e, amplitude)


def _build_result(
    data: ConcentrationSeries,
    k_e: float,
    amplitude: float,
    rss: float,
    iterations: int,
    method: str,
    k_a: float | None,
    volume: float | None,
) -> FitResult:
    def reconstruct(ka_val, ke_val, amp) -> PkParams:
        if volume is None:
            return PkParams(k_e=ke_val, V=data.dose / amp, k_a=ka_val, F=1.0)
        return PkParams(
            k_e=ke_val,
            V=volume,
            k_a=ka_val,
            F=min(1.0, amp * volume / data.dose),
        )

    alternate = None
    if data.route is Route.EXTRAVASCULAR:
        # rank by the absorption-faster prior but keep both readings
        if k_a < k_e:
            k_a, k_e, amplitude = k_e, k_a, amplitude * k_a / k_e
        alternate = reconstruct(k_e, k_a, amplitude * k_a / k_e)
    return FitResult(
        params=reconstruct(k_a, k_e, amplitude),
        lumped_amplitude=amplitude,
        rss=rss,
        iterations=iterations,
        method=method,
        alternate=alternate,
    )


def _log_regression(t: np.ndarray, values: np.ndarray, what: str) -> tuple[float, float]:
    """Fit ln(values) = intercept - rate*t; values must be positive."""
    if np.any(values <= 0):
        raise DomainError(f"log-linear regression of the {what} needs positive values")
    slope, intercept = np.polyfit(t, np.log(values), 1)
    return -float(slope), float(math.exp(intercept))


@np.errstate(over="ignore")  # residuals past the float range give an rss of inf, not a warning
def fit_residuals(data: ConcentrationSeries, volume: float | None = None) -> FitResult:
    """Method of residuals (curve stripping).

    Intravenous data reduce to one log-linear regression.  Extravascular
    data are split at the observed peak: the later half of the post-peak
    points (at least three) determines the slow rate and its
    back-extrapolated amplitude, and regression of line-minus-data over
    the absorption phase determines the fast rate.
    """
    t = data.times
    c = data.concentrations
    if data.route is Route.INTRAVENOUS:
        k_e, amplitude = _log_regression(t, c, "elimination phase")
        if k_e <= 0:
            raise ConvergenceError(f"estimated elimination rate is not positive: {k_e}")
        rss = float(np.sum((c - predict(Route.INTRAVENOUS, t, k_e, amplitude)) ** 2))
        return _build_result(data, k_e, amplitude, rss, 1, "residuals", None, volume)

    peak = int(np.argmax(c))
    post = np.arange(peak + 1, t.size)
    if post.size < 3:
        raise DataError(f"need at least 3 points after the peak, got {post.size}")
    tail = post[-max(3, post.size // 2) :]
    k_slow, amp_slow = _log_regression(t[tail], c[tail], "terminal phase")
    if k_slow <= 0:
        raise ConvergenceError(f"estimated terminal rate is not positive: {k_slow}")

    early = np.arange(0, peak + 1)
    residual = amp_slow * np.exp(-k_slow * t[early]) - c[early]
    keep = residual > 0
    if np.count_nonzero(keep) < 2:
        raise DataError("need at least 2 positive residuals in the absorption phase")
    k_fast, _ = _log_regression(t[early][keep], residual[keep], "absorption phase")
    if k_fast <= k_slow:
        raise ConvergenceError(
            f"absorption phase ({k_fast}) did not resolve faster than the terminal phase ({k_slow})"
        )
    amplitude = amp_slow * (k_fast - k_slow) / k_fast
    rss = float(np.sum((c - predict(Route.EXTRAVASCULAR, t, k_slow, amplitude, k_fast)) ** 2))
    return _build_result(data, k_slow, amplitude, rss, 1, "residuals", k_fast, volume)


@np.errstate(over="ignore")  # an rss or Jacobian past the float range is refused as not finite
def fit_least_squares(
    data: ConcentrationSeries,
    init: PkParams,
    volume: float | None = None,
) -> FitResult:
    """Damped Gauss-Newton least squares in log-parameter space.

    Parameters are the rates and the lumped amplitude, iterated on their
    logarithms so positivity is structural and the step tolerance is
    relative.  A rejected step is retried with ten times the damping;
    MAX_REJECTED_STEPS consecutive rejections abort with a convergence
    error.  Iteration stops when the relative step drops below
    STEP_TOLERANCE or after MAX_ITERATIONS.
    """
    t = data.times
    c = data.concentrations
    ev = data.route is Route.EXTRAVASCULAR
    if ev:
        k_a0 = init.require_k_a()
        theta = np.log([k_a0, init.k_e, init.F * data.dose / init.V])
    else:
        theta = np.log([init.k_e, data.dose / init.V])

    def unpack(th):
        p = np.exp(th)
        if ev:
            return float(p[0]), float(p[1]), float(p[2])
        return None, float(p[0]), float(p[1])

    def evaluate(th):
        """Residual at th, and a function giving its log-parameter Jacobian
        from the same exponentials."""
        k_a, k_e, amp = unpack(th)
        prediction, columns = _model(data.route, t, k_e, amp, k_a)
        # chain rule: d/d(log p) = p * d/dp
        factors = (k_a, k_e, amp) if ev else (k_e, amp)
        return prediction - c, lambda: _formed_jacobian(columns, t.size, factors, k_a, k_e, amp)

    def damped_trial(normal, gradient, mu):
        """(parameters, residual, Jacobian function, rss, step) of the step
        from theta at damping mu, or None when the step is rejected: it
        cannot be solved for, leaves the representable parameter range
        (exp over- or underflows), or does not reduce the residual."""
        damped = normal + mu * np.diag(np.maximum(np.diag(normal), 1e-300))
        try:
            step = np.linalg.solve(damped, -gradient)
        except np.linalg.LinAlgError:
            return None
        trial = theta + step
        p_trial = np.exp(trial)
        if not np.all(np.isfinite(p_trial)) or np.any(p_trial <= 0.0):
            return None
        r_trial, jacobian_trial = evaluate(trial)
        rss_trial = float(r_trial @ r_trial)
        if not (math.isfinite(rss_trial) and rss_trial <= rss):
            return None
        return trial, r_trial, jacobian_trial, rss_trial, step

    r, jacobian_at = evaluate(theta)
    rss = float(r @ r)
    mu = 1e-3
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        j_log = jacobian_at()
        gradient = j_log.T @ r
        normal = j_log.T @ j_log
        # the trials need only these two: drop the grid-length arrays first
        del j_log, r, jacobian_at
        for _ in range(MAX_REJECTED_STEPS):
            accepted = damped_trial(normal, gradient, mu)
            if accepted is not None:
                break
            mu *= 10.0
        else:
            raise ConvergenceError(
                f"residual failed to decrease for {MAX_REJECTED_STEPS} consecutive damped steps"
            )
        theta, r, jacobian_at, rss, step = accepted
        del accepted  # r and jacobian_at are dropped before the next trials
        mu = max(mu / 3.0, 1e-12)
        if float(np.max(np.abs(step))) < STEP_TOLERANCE:
            break

    k_a, k_e, amp = unpack(theta)
    return _build_result(data, k_e, amp, rss, iterations, "least_squares", k_a, volume)
