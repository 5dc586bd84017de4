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

# Relative spacing of k_a and k_e below which the two-exponential solution
# is replaced by its analytic limit to avoid catastrophic cancellation.
DEGENERATE_RATE_TOL = 1e-9

# Most lag grids one superpose call keeps for reuse.  Grid-aligned edges
# need one or two (dose times and infusion ends may sit at different
# offsets from the samples); edges whose lags all differ would otherwise
# keep one grid each.
_LAG_GRIDS_KEPT = 4


class Route(enum.Enum):
    """Administration route of a dose."""

    INTRAVENOUS = "intravenous"
    EXTRAVASCULAR = "extravascular"


def confluent(k_a: float, k_e: float) -> bool:
    """True when k_a and k_e are too close to separate numerically."""
    return abs(k_a - k_e) < DEGENERATE_RATE_TOL * max(k_a, k_e)


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

    @property
    def degenerate(self) -> bool:
        """True when k_a and k_e are too close to separate numerically."""
        return self.k_a is not None and confluent(self.k_a, self.k_e)


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


def _model(route: Route, t, k_e: float, amplitude: float, k_a: float | None):
    """amplitude times the route's unit-dose impulse response in amount.

    Returns the curve and a function giving its derivative columns from
    the same exponentials, for the parameters (k_a, k_e, amplitude) on the
    extravascular route and (k_e, amplitude) on the intravenous one.  The
    extravascular columns raise ZeroDivisionError when (k_a - k_e)**2
    underflows to zero.
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

    return prediction, columns


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
    """Concentration after an impulsive extravascular dose at t = 0.

    Uses the two-exponential solution; when k_a and k_e coincide to within
    DEGENERATE_RATE_TOL the analytic limit F*k*D/V * t * exp(-k*t) is used
    instead.  Flip-flop parameter sets (k_a < k_e) are valid input.
    """
    _check_dose(dose)
    return _curve(params, Route.EXTRAVASCULAR, t, params.F * dose / params.V)


def peak_time(params: PkParams, route: Route) -> float:
    """Time of maximum concentration after an impulsive dose at t = 0."""
    if route is Route.INTRAVENOUS:
        return 0.0
    k_a = params.require_k_a()
    k_e = params.k_e
    if params.degenerate:
        return 1.0 / k_a
    return math.log(k_a / k_e) / (k_a - k_e)


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


def _step_response_raw(params: PkParams, route: Route, t: np.ndarray) -> np.ndarray:
    """Concentration response to a unit mass-rate switched on at t = 0 (t >= 0)."""
    k_e = params.k_e
    if route is Route.INTRAVENOUS:
        return (1.0 / (params.V * k_e)) * (1.0 - np.exp(-k_e * t))
    k_a = params.require_k_a()
    if params.degenerate:
        return (params.F / (params.V * k_a)) * (1.0 - (1.0 + k_a * t) * np.exp(-k_a * t))
    scale = params.F * k_a / (params.V * (k_a - k_e))
    return scale * ((1.0 - np.exp(-k_e * t)) / k_e - (1.0 - np.exp(-k_a * t)) / k_a)


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
    and dose times); other edges evaluate their own.  t may be a scalar or
    an array in any order.
    """
    arr, scalar = _as_times(t)
    _check_nonnegative_times(arr)
    flat = np.atleast_1d(arr).ravel()
    order = None
    if np.any(flat[1:] < flat[:-1]):
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
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
    if scalar:
        return float(out[0])
    if order is not None:
        unsorted = np.empty_like(out)
        unsorted[order] = out
        out = unsorted
    return out.reshape(arr.shape)
