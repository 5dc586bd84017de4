"""Parameter estimation from sampled concentration curves.

Two estimators are provided: the classical method of residuals (log-linear
regression of the terminal phase, then regression of the back-extrapolated
residuals for the fast phase) and a damped Gauss-Newton least-squares fit
with an analytic Jacobian.  Both are honest about identifiability: a
two-exponential extravascular curve determines only the pair of rates and
the lumped amplitude F*dose/V, and either rate can be the absorption rate
(flip-flop kinetics), so results carry the fast/slow pair, a primary
assignment ranked by the absorption-faster prior, and the swapped
alternative.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .channel import PkParams, Route, confluent
from .errors import ConvergenceError, DataError, DomainError

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-9
MAX_REJECTED_STEPS = 20


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
        malformed rows also name the line.

        The body is read in one pass: comment and whitespace-only lines
        are cut out of the text and np.loadtxt converts the rest.  A body
        that pass declines (lone CR line ends, a # inside a row, a field
        np.loadtxt rejects) goes through the line-by-line reader, which
        gives the same values or names the first bad line.
        """
        try:
            fh = open(path, newline="", encoding="utf-8-sig")
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        with fh:
            try:
                header = fh.readline()
                body = fh.read()
            except UnicodeDecodeError as exc:
                raise DataError(f"cannot decode {path}: {exc}") from exc
        names = header.strip().split(",")
        if len(names) < 2 or names[0] != "t":
            raise DataError(f"{path}: line 1: expected a header starting with t")
        if isinstance(column, str):
            if column not in names:
                raise DataError(f"{path}: line 1: no column named {column!r} in {names}")
            idx = names.index(column)
        else:
            idx = int(column)
            if not (1 <= idx < len(names)):
                raise DataError(f"{path}: line 1: column index {idx} out of range")
        table = _read_table(body, len(names))
        if table is not None:
            times, values = table[:, 0], table[:, idx]
        else:
            lines = io.StringIO(body, newline="").readlines()
            times, values = _parse_lines(path, lines, len(names), idx)
        return cls(times=times, concentrations=values, route=route, dose=dose)


# A line _parse_lines skips, with the line break before it: nothing but
# whitespace (as str.strip sees it; \s and str.isspace agree on every
# character), then optionally a # and the rest of the line.  The lookahead
# turns a row away at its first character; it also leaves an empty last
# line, after the text's final line break, to the caller's rstrip.
_SKIPPED_LINE = re.compile(r"\n(?=[\s#])[^\S\n]*(?:#[^\n]*)?(?![^\n])")

# Characters str.strip takes for whitespace and np.loadtxt skips around a
# number, but float() refuses.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# The ASCII characters str.strip takes for whitespace, line ends apart.
_ASCII_BLANKS = " \t\x0b\x0c" + _SEPARATORS


def _read_table(body: str, width: int) -> np.ndarray | None:
    """The rows of a CSV body as np.loadtxt reads them, or None when the
    body holds anything on which that could differ from _parse_lines.

    Comment and whitespace-only lines are cut out of the text, from the
    line of the first # or whitespace character on (the whole body if it
    is not ASCII), so a clean body is not scanned line by line.  Empty
    lines before that are left to np.loadtxt, which skips them.  A table is
    returned only if every other line became one row of width fields, so
    no line was skipped or split.
    """
    if "\r" in body:
        body = body.replace("\r\n", "\n")
        if "\r" in body:
            return None
    marks = [at for at in map(body.find, "#" + _ASCII_BLANKS) if at >= 0] if body.isascii() else [0]
    if marks:
        # lines before this one are rows or empty
        start = body.rfind("\n", 0, min(marks)) + 1
        body = body[:start] + _SKIPPED_LINE.sub("", "\n" + body[start:])[1:]
        if "#" in body:
            return None
    body = body.rstrip("\n")  # the final line end and trailing empty lines
    if not body or any(ch in body for ch in _SEPARATORS):
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    lines = body.count("\n") + 1
    if len(table) != lines:
        lines -= len(_SKIPPED_LINE.findall("\n" + body))  # the empty lines left
    return table if table.shape == (lines, width) else None


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
            raise DataError(f"{path}: line {lineno}: expected {width} columns, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[idx]))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(times), np.array(values)


@dataclass(frozen=True)
class FitResult:
    """Recovered parameters plus identifiability context.

    lumped_amplitude is the directly identifiable group: dose/V for
    intravenous data and F*dose/V for extravascular data.  params is the
    primary reading (absorption assumed faster than elimination); the
    swapped flip-flop reading, when it exists, is in alternate and the
    ambiguity is flagged.  The distribution volume V is not separately
    identifiable, so params reconstructs it from the lumped amplitude with
    F = 1 unless a volume is supplied to the fit, in which case F is
    derived (and capped at 1; the lumped amplitude stays authoritative).
    """

    params: PkParams
    lumped_amplitude: float
    rss: float
    iterations: int
    method: str
    flip_flop_ambiguous: bool = False
    k_fast: float | None = None
    k_slow: float | None = None
    alternate: PkParams | None = None


def _model(route: Route, t, k_e: float, amplitude: float, k_a: float | None):
    """The model at one parameter point, from one set of exponentials.

    Returns the prediction and a function that builds the Jacobian from
    the same exponentials.  That function takes one factor per parameter
    and returns the (n, p) array whose column j is the derivative with
    respect to parameter j times factor j: ones give the raw Jacobian, the
    parameters themselves the Jacobian in log-parameter space.  Parameter
    order is (k_a, k_e, amplitude) for extravascular, (k_e, amplitude) for
    intravenous.
    """
    arr = np.asarray(t, dtype=float)
    if route is Route.INTRAVENOUS:
        decay = np.exp(-k_e * arr)
        prediction = amplitude * decay

        def columns():
            return -amplitude * arr * decay, decay

    elif confluent(k_a, k_e):
        decay = np.exp(-k_a * arr)
        prediction = amplitude * k_a * arr * decay

        def columns():
            d_ka = arr * decay * (1.0 - 0.5 * k_a * arr)
            d_ke = -0.5 * k_a * arr**2 * decay
            return amplitude * d_ka, amplitude * d_ke, k_a * arr * decay

    else:
        e_slow = np.exp(-k_e * arr)
        e_fast = np.exp(-k_a * arr)
        diff = e_slow - e_fast
        delta = k_a - k_e
        prediction = amplitude * (k_a / delta) * diff

        def columns():
            d_ka = (-k_e / delta**2) * diff + (k_a / delta) * arr * e_fast
            d_ke = (k_a / delta**2) * diff - (k_a / delta) * arr * e_slow
            return amplitude * d_ka, amplitude * d_ke, (k_a / delta) * diff

    def scaled_jacobian(factors):
        cols = columns()
        out = np.empty((arr.size, len(cols)))
        for j, (col, factor) in enumerate(zip(cols, factors)):
            np.multiply(col, factor, out=out[:, j])
        return out

    return prediction, scaled_jacobian


def predict(route: Route, t, k_e: float, amplitude: float, k_a: float | None = None):
    """Model concentration for the identifiable parameterization.

    Intravenous: amplitude * exp(-k_e t) with amplitude = dose/V.
    Extravascular: amplitude * k_a/(k_a-k_e) * (exp(-k_e t) - exp(-k_a t))
    with amplitude = F*dose/V, switching to the confluent limit when the
    rates coincide.
    """
    if route is Route.EXTRAVASCULAR and k_a is None:
        raise DomainError("extravascular prediction needs k_a")
    return _model(route, t, k_e, amplitude, k_a)[0]


def jacobian(route: Route, t, k_e: float, amplitude: float, k_a: float | None = None) -> np.ndarray:
    """Analytic Jacobian of predict() w.r.t. the raw parameters.

    Columns follow parameter order: (k_a, k_e, amplitude) for
    extravascular, (k_e, amplitude) for intravenous.
    """
    if route is Route.EXTRAVASCULAR and k_a is None:
        raise DomainError("extravascular Jacobian needs k_a")
    return _model(route, t, k_e, amplitude, k_a)[1]((1.0, 1.0, 1.0))


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

    if data.route is Route.INTRAVENOUS:
        return FitResult(
            params=reconstruct(k_a, k_e, amplitude),
            lumped_amplitude=amplitude,
            rss=rss,
            iterations=iterations,
            method=method,
        )
    # rank by the absorption-faster prior but keep both readings
    k_fast, k_slow = (k_a, k_e) if k_a >= k_e else (k_e, k_a)
    amp_primary = amplitude if k_a >= k_e else amplitude * k_a / k_e
    amp_alternate = amp_primary * k_fast / k_slow
    return FitResult(
        params=reconstruct(k_fast, k_slow, amp_primary),
        lumped_amplitude=amp_primary,
        rss=rss,
        iterations=iterations,
        method=method,
        flip_flop_ambiguous=True,
        k_fast=k_fast,
        k_slow=k_slow,
        alternate=reconstruct(k_slow, k_fast, amp_alternate),
    )


def _log_regression(t: np.ndarray, values: np.ndarray, what: str) -> tuple[float, float]:
    """Fit ln(values) = intercept - rate*t; values must be positive."""
    if np.any(values <= 0):
        raise DomainError(f"log-linear regression of the {what} needs positive values")
    slope, intercept = np.polyfit(t, np.log(values), 1)
    return -float(slope), float(math.exp(intercept))


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
        prediction, jacobian_of = _model(data.route, t, k_e, amp, k_a)
        # chain rule: d/d(log p) = p * d/dp
        return prediction - c, lambda: jacobian_of((k_a, k_e, amp) if ev else (k_e, amp))

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
        with np.errstate(over="ignore"):
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
        mu = max(mu / 3.0, 1e-12)
        if float(np.max(np.abs(step))) < STEP_TOLERANCE:
            break

    k_a, k_e, amp = unpack(theta)
    return _build_result(data, k_e, amp, rss, iterations, "least_squares", k_a, volume)
