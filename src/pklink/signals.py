"""Discrete-time signal engine for channel simulation and inversion.

Signals are uniformly sampled with an explicit start time, step, and role
(mass rate, mass, or concentration).  Discrete convolution is scaled by the
sample step so it approximates the continuous convolution integral, which
keeps amplitudes in physical units across the transmit/receive chain.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.signal

from .channel import DoseSchedule, Normalization, PkParams, Route, impulse_response
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    IllConditionedError,
)

# Output size at or above which convolve switches from direct summation to
# FFT evaluation.  Both paths agree to 1e-9 relative; the split is purely
# a speed choice.
FFT_CONVOLUTION_THRESHOLD = 2**14

# Relative tolerance used when two signals must share a sample step.
DT_MATCH_RTOL = 1e-12

# Recursive deconvolution needs a leading kernel tap well away from zero.
LEADING_TAP_RTOL = 1e-12

# Explicit stability margin for the fixed-step integrator: the fastest
# first-order rate in the system must resolve to at least ten steps.
MAX_RATE_PER_STEP = 0.1


class SignalRole(enum.Enum):
    """Physical unit family carried by a sampled signal."""

    MASS_RATE = "mass_rate"  # mg/s
    MASS = "mass"  # mg
    CONCENTRATION = "concentration"  # mg/mL


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled signal starting at t0 with step dt (seconds)."""

    t0: float
    dt: float
    samples: np.ndarray
    role: SignalRole

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t0):
            raise DomainError("t0 must be finite")
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise DomainError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def end_time(self) -> float:
        return self.t0 + self.dt * (self.samples.size - 1)

    def energy(self) -> float:
        """Time-domain energy: sum of squared samples scaled by dt."""
        return float(np.sum(self.samples**2) * self.dt)

    def to_csv(self, path):
        """Write rows t,value,role; one row per sample, LF line endings."""
        with open(path, "w", newline="") as fh:
            fh.write("t,value,role\n")
            role = self.role.value
            for t, v in zip(self.times, self.samples):
                fh.write(f"{float(t)!r},{float(v)!r},{role}\n")

    @classmethod
    def from_csv(cls, path) -> "SampledSignal":
        """Read a signal written by to_csv; validates a uniform time grid."""
        times: list[float] = []
        values: list[float] = []
        role: SignalRole | None = None
        with open(path, newline="") as fh:
            header = fh.readline().strip()
            if header.split(",")[:2] != ["t", "value"]:
                raise DataError(f"{path}: line 1: expected header t,value,role")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise DataError(f"{path}: line {lineno}: expected 3 columns")
                try:
                    times.append(float(parts[0]))
                    values.append(float(parts[1]))
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from exc
                try:
                    row_role = SignalRole(parts[2])
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: unknown role {parts[2]!r}") from exc
                if role is None:
                    role = row_role
                elif role is not row_role:
                    raise DataError(f"{path}: line {lineno}: mixed roles in one signal")
        if role is None or len(times) < 1:
            raise DataError(f"{path}: no samples")
        if len(times) == 1:
            return cls(t0=times[0], dt=1.0, samples=np.array(values), role=role)
        steps = np.diff(times)
        dt = float(steps[0])
        if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(abs(dt), 1.0)):
            raise DataError(f"{path}: time grid is not uniform")
        return cls(t0=times[0], dt=dt, samples=np.array(values), role=role)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """DFT of a sampled signal, scaled by dt, on an angular-frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def energy(self) -> float:
        """Frequency-domain energy: (1/2pi) * sum |X|^2 * domega."""
        domega = float(abs(self.omega[1] - self.omega[0])) if self.omega.size > 1 else 1.0
        return float(np.sum(np.abs(self.values) ** 2) * domega / (2.0 * np.pi))


@dataclass(frozen=True)
class RationalResponse:
    """Rational transfer function in jw: sum b_k (jw)^k / sum a_k (jw)^k."""

    b: tuple[float, ...]
    a: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) == 0 or self.a[-1] == 0.0:
            raise DomainError("denominator leading coefficient must be nonzero")
        if len(self.b) == 0:
            raise DomainError("numerator must have at least one coefficient")

    def evaluate(self, omega):
        """Evaluate the response at angular frequencies omega (rad/s)."""
        jw = 1j * np.asarray(omega, dtype=float)
        num = np.polyval(list(reversed(self.b)), jw)
        den = np.polyval(list(reversed(self.a)), jw)
        return num / den

    @classmethod
    def from_channel(cls, params: PkParams, route: Route) -> "RationalResponse":
        """Transfer function of the channel from mass rate to concentration."""
        if route is Route.INTRAVENOUS:
            return cls(b=(1.0 / params.V,), a=(params.k_e, 1.0))
        k_a = params.require_k_a()
        return cls(
            b=(params.F * k_a / params.V,),
            a=(k_a * params.k_e, k_a + params.k_e, 1.0),
        )


def sample(f, t0: float, dt: float, n: int, role: SignalRole = SignalRole.CONCENTRATION) -> SampledSignal:
    """Sample a time function on the grid t0 + k*dt, k = 0..n-1."""
    if n < 1:
        raise DomainError("sample count must be >= 1")
    t = t0 + dt * np.arange(n)
    try:
        values = np.asarray(f(t), dtype=float)
        if values.shape != t.shape:
            raise TypeError
    except (TypeError, ValueError):
        values = np.array([float(f(ti)) for ti in t])
    if not np.all(np.isfinite(values)):
        raise DomainError("sampled function is not finite on the grid")
    return SampledSignal(t0=t0, dt=dt, samples=values, role=role)


def sampled_kernel(
    params: PkParams,
    route: Route,
    dt: float,
    n: int,
    normalization: Normalization = Normalization.CONCENTRATION,
) -> SampledSignal:
    """Impulse-response kernel discretized for zero-order-hold inputs.

    Tap j approximates the response averaged over lag interval
    [(j-1)*dt, j*dt] by its midpoint value, with tap 0 equal to zero, so
    convolving a piecewise-constant mass-rate signal with this kernel has
    midpoint-rule accuracy O(dt^2) instead of the O(dt) of taps taken on
    the grid itself.  Use plain sample() when grid-aligned taps are needed
    (e.g. spectra); use this kernel for simulation and deconvolution of
    pump-driven schedules.
    """
    if n < 1:
        raise DomainError("kernel length must be >= 1")
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    taps = np.zeros(n)
    if n > 1:
        lag_mid = (np.arange(1, n) - 0.5) * dt
        taps[1:] = impulse_response(params, route, lag_mid, normalization)
    role = SignalRole.CONCENTRATION if normalization is Normalization.CONCENTRATION else SignalRole.MASS
    return SampledSignal(t0=0.0, dt=dt, samples=taps, role=role)


def dose_rate_signal(schedule: DoseSchedule, dt: float, n: int, t0: float = 0.0) -> SampledSignal:
    """Render a dose schedule as a zero-order-hold mass-rate signal.

    Impulsive doses land in the single step containing their event time;
    finite infusions are spread over their rounded step span.  Total mass
    is conserved exactly for every event.
    """
    if n < 1:
        raise DomainError("signal length must be >= 1")
    samples = np.zeros(n)
    for event in schedule:
        i0 = int(round((event.time - t0) / dt))
        if event.duration == 0.0:
            if not (0 <= i0 < n):
                raise ConfigurationError(f"dose at t={event.time} falls outside the signal grid")
            samples[i0] += event.mass / dt
        else:
            i1 = max(i0 + 1, int(round((event.end - t0) / dt)))
            if i0 < 0 or i1 > n:
                raise ConfigurationError(f"dose over [{event.time}, {event.end}] falls outside the signal grid")
            samples[i0:i1] += event.mass / ((i1 - i0) * dt)
    return SampledSignal(t0=t0, dt=dt, samples=samples, role=SignalRole.MASS_RATE)


def _check_dt_match(x: SampledSignal, h: SampledSignal):
    if abs(x.dt - h.dt) > DT_MATCH_RTOL * max(x.dt, h.dt):
        raise ConfigurationError(f"sample steps differ: {x.dt} vs {h.dt}")


def _combine_roles(a: SignalRole, b: SignalRole) -> SignalRole:
    """Role of a convolution output; symmetric in its arguments."""
    pair = {a, b}
    if len(pair) == 1:
        return a
    if pair == {SignalRole.MASS_RATE, SignalRole.CONCENTRATION}:
        return SignalRole.CONCENTRATION
    if pair == {SignalRole.MASS_RATE, SignalRole.MASS}:
        return SignalRole.MASS
    return SignalRole.CONCENTRATION


def convolve(x: SampledSignal, h: SampledSignal) -> SampledSignal:
    """Discrete convolution scaled by dt; approximates continuous convolution.

    Output starts at x.t0 + h.t0 and has len(x) + len(h) - 1 samples.
    Direct summation is used for small outputs and FFT evaluation above
    FFT_CONVOLUTION_THRESHOLD output samples.
    """
    _check_dt_match(x, h)
    n_out = len(x) + len(h) - 1
    if n_out < FFT_CONVOLUTION_THRESHOLD:
        acc = np.convolve(x.samples, h.samples)
    else:
        acc = scipy.signal.fftconvolve(x.samples, h.samples)
    return SampledSignal(
        t0=x.t0 + h.t0,
        dt=x.dt,
        samples=acc * x.dt,
        role=_combine_roles(x.role, h.role),
    )


def deconvolve(
    y: SampledSignal,
    h: SampledSignal,
    method: str = "frequency",
    lam: float | None = None,
    output_length: int | None = None,
) -> SampledSignal:
    """Recover the input signal x from y = convolve(x, h).

    method "frequency" solves the Tikhonov-regularized least-squares
    problem in the Fourier domain; lam defaults to 1e-3 * max |H|^2 where
    H is the dt-scaled transform of h, and lam = 0 gives exact recovery of
    full noiseless convolutions.  method "time" performs direct polynomial
    division, which requires the leading kernel tap to be well away from
    zero (extravascular responses start at zero, so they must use the
    frequency method).
    """
    _check_dt_match(y, h)
    default_len = len(y) - len(h) + 1
    n_out = default_len if output_length is None else int(output_length)
    if n_out < 1:
        raise ConfigurationError("deconvolution output would be empty (kernel longer than signal)")
    peak = _kernel_peak(h.samples)

    if method == "time":
        lead = float(abs(h.samples[0]))
        if lead < LEADING_TAP_RTOL * peak:
            raise IllConditionedError(
                f"leading kernel tap {h.samples[0]!r} is too small for recursive deconvolution"
            )
        padded = np.zeros(max(n_out, len(y)))
        padded[: len(y)] = y.samples
        quotient = scipy.signal.lfilter([1.0], h.samples, padded)
        x_hat = quotient[:n_out] / y.dt
    elif method == "frequency":
        x_hat = TikhonovSolve(h.samples, y.dt, len(y), n_out, lam).apply(y.samples)
    else:
        raise DomainError(f"unknown deconvolution method {method!r}")

    return SampledSignal(t0=y.t0 - h.t0, dt=y.dt, samples=x_hat, role=SignalRole.MASS_RATE)


def _kernel_peak(taps: np.ndarray) -> float:
    peak = float(np.max(np.abs(taps)))
    if peak == 0.0:
        raise IllConditionedError("kernel is identically zero")
    return peak


class TikhonovSolve:
    """Tikhonov-regularized frequency-domain inverse of one kernel.

    Built once for kernel taps h (sample step dt), records of n_in samples
    and n_out recovered samples, it holds the transform size n_fft, the
    dt-scaled kernel transform H, conj(H), denom = |H|^2 + lam and lam, and
    applies them to a 1-D record or to a 2-D stack (rows x samples) with
    one rfft/irfft along the samples axis: x = irfft(Y * conj(H) / denom).
    lam defaults to 1e-3 * max |H|^2, taken from the transform at the
    length of the full convolution of a record with h; that length is
    n_fft whenever n_out <= n_in, and then H itself is reused.
    """

    def __init__(self, taps: np.ndarray, dt: float, n_in: int, n_out: int, lam: float | None = None):
        _kernel_peak(taps)
        m = len(taps)
        n_probe = scipy.fft.next_fast_len(n_in + m - 1)
        self.n_fft = scipy.fft.next_fast_len(max(n_in + m - 1, n_out + m - 1))
        self.n_in = n_in
        self.n_out = n_out
        self.H = scipy.fft.rfft(taps, self.n_fft) * dt
        power = np.abs(self.H) ** 2
        if lam is None:
            probe = power if n_probe == self.n_fft else np.abs(scipy.fft.rfft(taps, n_probe) * dt) ** 2
            lam = 1e-3 * float(np.max(probe))
        if not lam >= 0:
            raise DomainError(f"regularization weight must be >= 0, got {lam}")
        self.lam = lam
        self.H_conj = np.conj(self.H)
        self.denom = power + lam
        if np.any(self.denom == 0.0):
            raise IllConditionedError("kernel transform vanishes and no regularization was given")

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Recovered input of each record along the last axis (n_in -> n_out samples)."""
        if samples.shape[-1] != self.n_in:
            raise ConfigurationError(f"records have {samples.shape[-1]} samples, the solve expects {self.n_in}")
        Y = scipy.fft.rfft(samples, self.n_fft, axis=-1)
        return scipy.fft.irfft(Y * self.H_conj / self.denom, self.n_fft, axis=-1)[..., : self.n_out]


def inverse_filter_iv(y: SampledSignal, params: PkParams) -> SampledSignal:
    """Reconstruct the intravenous mass-rate input from a concentration signal.

    Applies the exact continuous inverse of the elimination dynamics,
    u = V * dC/dt + k_e * V * C, with the derivative taken by central
    differences (one-sided at the boundary samples).
    """
    if y.role is not SignalRole.CONCENTRATION:
        raise ConfigurationError("inverse filter expects a concentration signal")
    if len(y) < 2:
        raise ConfigurationError("inverse filter needs at least 2 samples")
    derivative = np.gradient(y.samples, y.dt, edge_order=1)
    u = params.V * derivative + params.k_e * params.V * y.samples
    return SampledSignal(t0=y.t0, dt=y.dt, samples=u, role=SignalRole.MASS_RATE)


def rk4_linear(M, b, dt: float, u: np.ndarray, jumps: np.ndarray | None = None) -> np.ndarray:
    """Classical fixed-step RK4 for x' = M x + b u(t) with M lower triangular.

    u[i] is the input held constant over step i (zero-order hold).  For a
    linear system one RK4 step is exactly x[i+1] = P x[i] + q u[i], with
    z = dt*M, P = I + z + z^2/2 + z^3/6 + z^4/24 and
    q = dt*(I + z/2 + z^2/6 + z^3/24) b.  jumps[i] (length len(u) + 1) is
    an impulsive amount added along b at grid point i before the state
    there is recorded; the state starts at zero.  A compartment chain makes
    M, and so P, lower triangular, so the recurrence is solved one state at
    a time as a first-order filter driven by the states above it.  Returns
    the states on the grid, shape (len(b), len(u) + 1).  The step must
    resolve the fastest rate, dt * max(-M_kk) <= MAX_RATE_PER_STEP,
    otherwise a configuration error is raised.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    fastest = float(np.max(-np.diag(M)))
    if dt * fastest > MAX_RATE_PER_STEP:
        raise ConfigurationError(
            f"step size dt={dt} is unstable for rate {fastest}: dt*rate must be <= {MAX_RATE_PER_STEP}"
        )
    eye = np.eye(len(b))
    z = dt * M
    z2 = z @ z
    z3 = z2 @ z
    P = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
    q = dt * ((eye + z / 2.0 + z2 / 6.0 + z3 / 24.0) @ b)
    drive = np.zeros((len(b), len(u) + 1))
    drive[:, 1:] = np.outer(q, u)
    if jumps is not None:
        drive += np.outer(b, jumps)
    x = np.empty_like(drive)
    for k in range(len(b)):
        drive[k, 1:] += P[k, :k] @ x[:k, :-1]
        x[k] = scipy.signal.lfilter([1.0], [1.0, -P[k, k]], drive[k])
    return x


def integrate_ode(params: PkParams, route: Route, u: SampledSignal, horizon: float) -> SampledSignal:
    """Integrate the compartment ODEs with classical fixed-step RK4.

    The input is held constant over each step (zero-order hold) and is zero
    beyond its sampled extent.  State starts at zero at u.t0 and the
    concentration of the central compartment is returned on the input grid
    up to u.t0 + horizon.  The integration is rk4_linear, the core shared
    with the hydraulic twin, so both engines have one stability bound:
    dt * max(k_a, k_e) <= MAX_RATE_PER_STEP, otherwise a configuration
    error is raised.
    """
    if u.role is not SignalRole.MASS_RATE:
        raise ConfigurationError("integrate_ode expects a mass-rate input signal")
    dt = u.dt
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ConfigurationError(f"horizon {horizon} shorter than one step {dt}")
    if n_steps < len(u) - 1:
        raise ConfigurationError("horizon must cover the input signal duration")

    ke = params.k_e
    if route is Route.INTRAVENOUS:
        M, b = [[-ke]], [1.0]
    else:
        ka = params.require_k_a()
        M, b = [[-ka, 0.0], [ka, -ke]], [params.F, 0.0]
    rates = np.zeros(n_steps)
    rates[: len(u)] = u.samples[:n_steps]
    central = rk4_linear(M, b, dt, rates)[-1]
    return SampledSignal(t0=u.t0, dt=dt, samples=central / params.V, role=SignalRole.CONCENTRATION)


def spectrum(x: SampledSignal) -> Spectrum:
    """DFT of a sampled signal scaled by dt, on an angular-frequency grid.

    The scaling makes bin values approximate the continuous Fourier
    transform of the underlying signal; the start-time phase factor is
    included so signals with t0 != 0 transform consistently.
    """
    n = len(x)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=x.dt)
    values = np.fft.fft(x.samples) * x.dt
    if x.t0 != 0.0:
        values = values * np.exp(-1j * omega * x.t0)
    return Spectrum(omega=omega, values=values)
