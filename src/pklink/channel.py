"""One-compartment pharmacokinetic channel model.

The body is treated as a linear time-invariant channel between a dosing
input (a mass rate in mg/s) and the drug concentration in the central
compartment (mg/mL).  Two administration routes are supported:

* intravenous: the dose enters the central compartment directly and is
  eliminated with first-order rate ``k_e``;
* extravascular: the dose first enters an absorption compartment, moves
  to the central compartment with rate ``k_a`` and fraction ``F``, and is
  then eliminated with rate ``k_e``.

All quantities use a single canonical unit system: seconds, milligrams,
millilitres, mg/mL.  Closed forms below are exact for impulsive doses and
for constant-rate (rectangular) infusions, so arbitrary dose schedules are
handled by superposition without numerical integration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

# |k_a - k_e| * t below which _model's columns sum nine terms (-1)^n x^n / (n! (n + 2))
# of q's Taylor series (exact to 1e-17 there) in place of a closed form that cancels.
Q_SERIES_BELOW = 1 / 16

# Most lag grids one superpose call keeps for reuse.  Grid-aligned edges
# need one or two (dose times and infusion ends may sit at different
# offsets from the samples); edges whose lags all differ would otherwise
# keep one grid each.
_LAG_GRIDS_KEPT = 4


class Route(enum.Enum):
    """Administration route of a dose."""

    INTRAVENOUS = "intravenous"
    EXTRAVASCULAR = "extravascular"


class Normalization(enum.Enum):
    """Output family of an impulse response: compartment amount or concentration."""

    AMOUNT = "amount"
    CONCENTRATION = "concentration"


@dataclass(frozen=True)
class PkParams:
    """Rate constants and scaling of the one-compartment model.

    k_a may be None for purely intravenous use.  F is the absorbed
    fraction of an extravascular dose and defaults to complete absorption.
    """

    k_e: float
    V: float
    k_a: float | None = None
    F: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.k_e) and self.k_e > 0):
            raise DomainError(f"k_e must be positive and finite, got {self.k_e}")
        if not (math.isfinite(self.V) and self.V > 0):
            raise DomainError(f"V must be positive and finite, got {self.V}")
        if not (0.0 < self.F <= 1.0):
            raise DomainError(f"F must lie in (0, 1], got {self.F}")
        if self.k_a is not None and not (math.isfinite(self.k_a) and self.k_a > 0):
            raise DomainError(f"k_a must be positive and finite, got {self.k_a}")

    def require_k_a(self) -> float:
        """Return k_a, or fail if the parameter set has none."""
        if self.k_a is None:
            raise ConfigurationError("extravascular route requires k_a")
        return self.k_a


@dataclass(frozen=True)
class DoseEvent:
    """A single dose: impulsive when duration == 0, else a constant-rate infusion."""

    time: float
    mass: float
    duration: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0):
            raise DomainError(f"dose time must be >= 0, got {self.time}")
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise DomainError(f"dose mass must be >= 0, got {self.mass}")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise DomainError(f"dose duration must be >= 0, got {self.duration}")

    @property
    def rate(self) -> float:
        """Infusion rate in mg/s; undefined for impulsive doses."""
        if self.duration == 0.0:
            raise DomainError("impulsive dose has no finite rate")
        return self.mass / self.duration

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class DoseSchedule:
    """Time-ordered collection of dose events."""

    events: tuple[DoseEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    @property
    def total_mass(self) -> float:
        return sum(e.mass for e in self.events)

    @property
    def end_time(self) -> float:
        """Time at which the last dose has been fully delivered."""
        return max((e.end for e in self.events), default=0.0)


def _as_times(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise DomainError("time values must be finite")
    return arr, arr.ndim == 0


def _check_nonnegative_times(arr: np.ndarray):
    if np.any(arr < 0):
        raise DomainError("time must be >= 0")


def _check_dose(dose: float):
    if not (math.isfinite(dose) and dose >= 0):
        raise DomainError(f"dose must be >= 0, got {dose}")


def _divided_difference(arr: np.ndarray, k_a: float, k_e: float):
    """exp(-k_lo t), expm1(-delta t) and exp(-k_lo t) h, h = -expm1(-delta t) / delta (t at delta == 0):
    the divided difference (exp(-k_e t) - exp(-k_a t)) / (k_a - k_e), in a form that never cancels."""
    delta = abs(k_a - k_e)
    decay = np.exp(-min(k_a, k_e) * arr)
    m = np.expm1(-delta * arr)
    shape = m / -delta if delta else arr.copy()
    shape *= decay
    return decay, m, shape


def _model(route: Route, t, k_e: float, amplitude: float, k_a: float | None):
    """amplitude times the route's unit-dose impulse response in amount, and a
    function of a C-ordered (len(t), p) array out and p factors that writes the
    derivative columns, from the same exponentials, times the factors into out
    and returns the sums of squares of the columns themselves.  The columns
    are (k_a, k_e, amplitude) on the extravascular route, (k_e, amplitude) on
    the other.  That function makes no temporary array of t's length: the
    extravascular columns are formed in the arrays of the exponentials, which
    they overwrite, so it is called once."""
    arr = np.asarray(t, dtype=float)
    if route is Route.INTRAVENOUS:
        decay = np.exp(-k_e * arr)

        def iv_columns(out, factors):
            # -amplitude * t * exp(-k_e t), exp(-k_e t)
            d_k = np.multiply(-amplitude, arr, out=out[:, 0])
            d_k *= decay
            sums = [float(d_k @ d_k), float(decay @ decay)]
            d_k *= factors[0]
            np.multiply(decay, factors[1], out=out[:, 1])
            return sums

        return amplitude * decay, iv_columns
    if k_a is None:
        raise DomainError("the extravascular model needs k_a")
    # amplitude * k_a * exp(-k_lo t) * h, formed in place
    delta = abs(k_a - k_e)
    decay, m, prediction = _divided_difference(arr, k_a, k_e)
    scale = amplitude * k_a
    prediction *= scale

    def columns(out, factors):
        scratch = out.reshape(-1)[: arr.size]  # contiguous, and free until the columns are written
        # d_hi, in m: scale exp(-k_lo t) dh/d(delta) = (scale t exp(-k_hi t) - prediction) / delta, or
        # -scale t**2 exp(-k_lo t) q(delta t), q(x) = (1 - exp(-x)(1 + x)) / x**2, where that cancels
        d_hi = m
        d_hi += 1.0
        d_hi *= decay
        d_hi *= arr
        d_hi *= scale
        d_hi -= prediction
        if delta:
            d_hi *= 1.0 / delta
        near = np.multiply(arr, delta, out=scratch) < Q_SERIES_BELOW
        if near.any():
            x = arr[near]
            q = np.vander(x * delta, 9, increasing=True) @ (
                1 / 2, -1 / 3, 1 / 8, -1 / 30, 1 / 144, -1 / 840, 1 / 5760, -1 / 45360, 1 / 403200
            )
            d_hi[near] = -q * decay[near] * x**2 * scale
        # d_lo, in decay: -(t * prediction + d_hi)
        d_lo = np.multiply(arr, prediction, out=decay)
        d_lo += d_hi
        np.negative(d_lo, out=d_lo)
        # the derivatives in k_hi and k_lo, and k_a's own factor added to the one that is k_a
        d_ka, d_ke = (d_hi, d_lo) if k_a >= k_e else (d_lo, d_hi)
        d_ka += np.multiply(prediction, 1.0 / k_a, out=scratch)
        sums = [float(d_ka @ d_ka), float(d_ke @ d_ke)]
        np.multiply(d_ka, factors[0], out=out[:, 0])
        np.multiply(d_ke, factors[1], out=out[:, 1])
        d_amp = np.multiply(prediction, 1.0 / amplitude, out=d_ka)
        sums.append(float(d_amp @ d_amp))
        np.multiply(d_amp, factors[2], out=out[:, 2])
        return sums

    return prediction, columns


@np.errstate(over="ignore")  # a rate * time past the float range: exp(-inf) = 0
def _curve(params: PkParams, route: Route, t, amplitude: float):
    """_model's curve for params at times t, a scalar or an array, once they are checked."""
    arr, scalar = _as_times(t)
    _check_nonnegative_times(arr)
    k_a = params.require_k_a() if route is Route.EXTRAVASCULAR else None
    out = _model(route, arr, params.k_e, amplitude, k_a)[0]
    return float(out) if scalar else out


def iv_concentration(params: PkParams, dose: float, t):
    """Concentration after an impulsive intravenous dose at t = 0."""
    _check_dose(dose)
    return _curve(params, Route.INTRAVENOUS, t, dose / params.V)


def ev_concentration(params: PkParams, dose: float, t):
    """Concentration after an impulsive extravascular dose at t = 0: F*D/V *
    k_a * (exp(-k_e t) - exp(-k_a t)) / (k_a - k_e) as one expression for every
    k_a, k_e > 0, F*D/V * k t exp(-k t) at k_a == k_e == k, flip-flop included."""
    _check_dose(dose)
    return _curve(params, Route.EXTRAVASCULAR, t, params.F * dose / params.V)


def peak_time(params: PkParams, route: Route) -> float:
    """Time of maximum concentration after an impulsive dose at t = 0."""
    if route is Route.INTRAVENOUS:
        return 0.0
    k_lo, k_hi = sorted((params.require_k_a(), params.k_e))
    delta = k_hi - k_lo
    # ln(k_hi / k_lo) / delta: log1p for a small spacing, k_lo / k_hi past overflow
    log_ratio = math.log1p(delta / k_lo) if delta < k_lo else -math.log(k_lo / k_hi)
    return log_ratio / delta if delta else 1.0 / k_lo


def impulse_response(params: PkParams, route: Route, t, normalization: Normalization = Normalization.CONCENTRATION):
    """Response to a unit-mass impulsive dose at t = 0.

    AMOUNT normalization returns the drug mass in the central compartment
    per unit dose; CONCENTRATION divides by the distribution volume V.
    """
    out = _curve(params, route, t, 1.0 if route is Route.INTRAVENOUS else params.F)
    return out / params.V if normalization is Normalization.CONCENTRATION else out


def frequency_response(params: PkParams, route: Route, omega):
    """Channel transfer function from mass rate to concentration at rad/s grid omega."""
    arr = np.asarray(omega, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise DomainError("omega values must be finite")
    jw = 1j * arr
    if route is Route.INTRAVENOUS:
        out = 1.0 / (params.V * (params.k_e + jw))
    else:
        k_a = params.require_k_a()
        out = params.F * k_a / (params.V * (k_a + jw) * (params.k_e + jw))
    return complex(out) if arr.ndim == 0 else out


@np.errstate(over="ignore")  # as in _curve
def _step_response_raw(params: PkParams, route: Route, t: np.ndarray) -> np.ndarray:
    """Concentration response to a unit mass-rate switched on at t = 0 (t >= 0)."""
    k_e = params.k_e
    if route is Route.INTRAVENOUS:
        return (1.0 / (params.V * k_e)) * (1.0 - np.exp(-k_e * t))
    # F/V * ((1 - exp(-k_e t)) / k_e - exp(-k_lo t) h), in place
    out, m, shape = _divided_difference(t, params.require_k_a(), k_e)
    if k_e > params.k_a:  # exp(-k_e t) = exp(-k_lo t) * exp(-delta t)
        out *= np.add(m, 1.0, out=m)
    np.subtract(1.0, out, out=out)
    out /= k_e
    out -= shape
    out *= params.F / params.V
    return out


def superpose(params: PkParams, route: Route, schedule: DoseSchedule, t):
    """Concentration produced by a dose schedule, by linear superposition.

    Impulsive events contribute a shifted impulse response; finite-duration
    events contribute the exact difference of two infusion step responses,
    so no quadrature error is introduced for rectangular pump profiles.

    Each edge (a dose time, or the end of an infusion) only touches the
    samples at or after it, on the lags t - edge.  Within one call, a
    response is evaluated once per distinct lag grid: the first edge whose
    lags start with a given value evaluates them, and a later edge whose
    lags are bitwise equal to a prefix of those reuses the prefix of that
    response.  The responses are elementwise in the lag, so the output is
    the same bits as evaluating every edge afresh.  Edges on the grid
    t = k*dt share their lags whenever the arithmetic is exact (integer dt
    and dose times); other edges evaluate their own.  t is a 1-D array of
    finite, non-negative, non-decreasing times, such as the grid that
    signals.sample passes; anything else is a DomainError.
    """
    flat = _as_times(t)[0]
    if flat.ndim != 1:
        raise DomainError(f"times must be a 1-D array, got shape {flat.shape}")
    if np.any(flat[1:] < flat[:-1]):
        raise DomainError("times must be in non-decreasing order")
    _check_nonnegative_times(flat)
    out = np.zeros_like(flat)
    # (response function, bits of the first lag) -> (lag bits, response)
    grids: dict = {}

    def lagged(evaluate, edge):
        """(first index at or after edge, evaluate's response on the lags from there)."""
        first = int(np.searchsorted(flat, edge))
        lags = flat[first:] - edge
        if lags.size == 0:
            return first, lags
        bits = lags.view(np.int64)
        key = (evaluate, int(bits[0]))
        known = grids.get(key)
        if known is not None and known[0].size >= bits.size and np.array_equal(known[0][: bits.size], bits):
            return first, known[1][: bits.size]
        response = evaluate(params, route, lags)
        if known is not None or len(grids) < _LAG_GRIDS_KEPT:
            grids[key] = (bits, response)
        return first, response

    for event in schedule:
        if event.mass == 0.0:
            continue
        if event.duration == 0.0:
            first, response = lagged(impulse_response, event.time)
            out[first:] += event.mass * response
        else:
            # before its edge the off response is +-0, and rate * (s_on - 0)
            # adds the same bits as rate * s_on
            rate = event.rate
            on, s_on = lagged(_step_response_raw, event.time)
            off, s_off = lagged(_step_response_raw, event.end)
            out[on:off] += rate * s_on[: off - on]
            out[off:] += rate * (s_on[off - on :] - s_off)
    return out
