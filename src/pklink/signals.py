"""Discrete-time signal engine for channel simulation and inversion.

Signals are uniformly sampled with an explicit start time, step, and role
(mass rate, mass, or concentration).  Discrete convolution is scaled by the
sample step so it approximates the continuous convolution integral, which
keeps amplitudes in physical units across the transmit/receive chain.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import DoseEvent, DoseSchedule, PkParams, Route, impulse_response
from .errors import ConfigurationError, DomainError, IllConditionedError

# Relative tolerance used when two signals must share a sample step.
DT_MATCH_RTOL = 1e-12

# Block length of first_order_scan.  Longer blocks cost more per sample in
# the triangular product, shorter ones more steps of the Python loop over
# blocks; 64 was the fastest of 16, 32, 64 and 128 on a 72 001-sample grid.
SCAN_BLOCK = 64

# Lag i - j of each entry of a lower-triangular Toeplitz block matrix, with
# SCAN_BLOCK in place of the negative lags above the diagonal.
_SCAN_LAG = np.subtract.outer(np.arange(SCAN_BLOCK), np.arange(SCAN_BLOCK))
_SCAN_LAG[_SCAN_LAG < 0] = SCAN_BLOCK

# Largest grid, in samples, of a scenario and of a ber_sweep.  At its peak
# simulate holds nine float arrays of the grid's length (two engines'
# curves, and the twin's input, jumps, three states and two scan buffers),
# so 10**8 samples already take 7.2 GB; a larger grid is refused before
# anything is allocated.
MAX_GRID_SAMPLES = 10**8

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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """DFT of a sampled signal, scaled by dt, on an angular-frequency grid."""

    omega: np.ndarray
    values: np.ndarray


def sample(f, t0: float, dt: float, n: int, role: SignalRole = SignalRole.CONCENTRATION) -> SampledSignal:
    """Sample a time function on the grid t0 + k*dt, k = 0..n-1.

    f is called once on the whole grid and must return one finite value
    per grid point; any other shape, or a value that is not finite, is a
    DomainError (the latter from SampledSignal).
    """
    if n < 1:
        raise DomainError("sample count must be >= 1")
    t = t0 + dt * np.arange(n)
    values = np.asarray(f(t), dtype=float)
    if values.shape != t.shape:
        raise DomainError(f"sampled function returned shape {values.shape} on a grid of {n} points")
    return SampledSignal(t0=t0, dt=dt, samples=values, role=role)


def sampled_kernel(params: PkParams, route: Route, dt: float, n: int) -> SampledSignal:
    """Concentration impulse-response kernel discretized for zero-order-hold inputs.

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
        taps[1:] = impulse_response(params, route, lag_mid)
    return SampledSignal(t0=0.0, dt=dt, samples=taps, role=SignalRole.CONCENTRATION)


def dose_steps(event: DoseEvent, dt: float, n_steps: int) -> tuple[int, int] | None:
    """Grid points i0 <= i1 of t = k*dt at which a dose starts and stops entering,
    or None unless both lie in 0 ... n_steps: the one rule by which a dose
    is laid on a grid's steps, or refused.

    An impulse enters at the point nearest its time (i1 = i0); an infusion
    over the steps between the points nearest its start and end, at least one.
    """
    i0 = int(round(event.time / dt))
    i1 = i0 if event.duration == 0.0 else max(i0 + 1, int(round(event.end / dt)))
    return (i0, i1) if 0 <= i0 and i1 <= n_steps else None


def dose_rate_signal(schedule: DoseSchedule, dt: float, n: int) -> SampledSignal:
    """Render a dose schedule as a zero-order-hold mass-rate signal on t = k*dt.

    Each dose is laid by dose_steps on the signal's n steps: an impulse
    fills the one step at its point, which must be one of the n sample
    points, and an infusion is spread over its span, which may end at
    point n.  Total mass is conserved exactly for every event.
    """
    if n < 1:
        raise DomainError("signal length must be >= 1")
    samples = np.zeros(n)
    for event in schedule:
        impulse = event.duration == 0.0
        steps = dose_steps(event, dt, n - 1 if impulse else n)
        if steps is None:
            where = f"at t={event.time}" if impulse else f"over [{event.time}, {event.end}]"
            raise ConfigurationError(f"dose {where} falls outside the signal grid")
        i0, i1 = steps
        if impulse:
            i1 += 1
        samples[i0:i1] += event.mass / ((i1 - i0) * dt)
    return SampledSignal(t0=0.0, dt=dt, samples=samples, role=SignalRole.MASS_RATE)


def split_doses(schedule: DoseSchedule, dt: float, n_steps: int) -> tuple[DoseSchedule, np.ndarray]:
    """The infusions of a schedule, for dose_rate_signal, and jumps[i], the mass
    of its impulsive doses nearest t = i*dt, i <= n_steps, for rk4_linear."""
    jumps = np.zeros(n_steps + 1)
    for event in schedule:
        if event.duration == 0.0 and event.mass > 0.0:
            steps = dose_steps(event, dt, n_steps)
            if steps is None:
                raise ConfigurationError(f"dose at t={event.time} falls outside the horizon")
            jumps[steps[0]] += event.mass
    return DoseSchedule(events=tuple(e for e in schedule if e.duration > 0.0 and e.mass > 0.0)), jumps


def _check_dt_match(x: SampledSignal, h: SampledSignal):
    if abs(x.dt - h.dt) > DT_MATCH_RTOL * max(x.dt, h.dt):
        raise ConfigurationError(f"sample steps differ: {x.dt} vs {h.dt}")


# Largest transform size next_fast_len answers: the full linear convolution
# of two grids of MAX_GRID_SAMPLES samples fits below it.
MAX_FFT_SIZE = 2**28


def next_fast_len(n: int) -> int:
    """Smallest even transform size >= n whose only prime factors are 2, 3 and 5.

    That is the least 2**a * 3**b * 5**c >= n with a >= 1: numpy's
    pocketfft runs these sizes fastest, while factors of 7 and 11 cost up
    to 30% more per real transform at the receiver's lengths.  n must lie
    in [1, MAX_FFT_SIZE].
    """
    if not 1 <= n <= MAX_FFT_SIZE:
        raise DomainError(f"transform size must lie in [1, {MAX_FFT_SIZE}], got {n}")
    best = max(2, 1 << (n - 1).bit_length())
    # each odd part q = 3**b * 5**c below best, doubled the fewest times
    # (at least once) that reach n
    p3 = 1
    while p3 < best:
        q = p3
        while q < best:
            best = min(best, q << max(1, (-(-n // q) - 1).bit_length()))
            q *= 5
        p3 *= 3
    return best


def convolve(x: SampledSignal, h: SampledSignal) -> SampledSignal:
    """Discrete convolution scaled by dt; approximates continuous convolution.

    Output starts at x.t0 + h.t0 and has len(x) + len(h) - 1 samples,
    evaluated by real FFTs of size next_fast_len(len(x) + len(h) - 1).
    Its role is the other factor's when one factor is a mass rate, the
    factors' own when they match, and a concentration otherwise.
    """
    _check_dt_match(x, h)
    if x.role is SignalRole.MASS_RATE:
        role = h.role
    elif h.role in (SignalRole.MASS_RATE, x.role):
        role = x.role
    else:
        role = SignalRole.CONCENTRATION
    n_out = len(x) + len(h) - 1
    n_fft = next_fast_len(n_out)
    spectra = np.fft.rfft(x.samples, n_fft) * np.fft.rfft(h.samples, n_fft)
    acc = np.fft.irfft(spectra, n_fft)[:n_out]
    return SampledSignal(
        t0=x.t0 + h.t0,
        dt=x.dt,
        samples=acc * x.dt,
        role=role,
    )


def _integer(name: str, value, minimum: float = -math.inf) -> int:
    """value as an int.  A value that is not an integer (a float or a
    bool), or is below minimum, raises a DomainError naming the argument."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if (n := operator.index(value)) < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return n


def deconvolve(
    y: SampledSignal,
    h: SampledSignal,
    method: str = "frequency",
    lam: float | None = None,
    output_length: int | None = None,
) -> SampledSignal:
    """Recover the input signal x from y = convolve(x, h).

    Solves the Tikhonov-regularized least-squares problem in the Fourier
    domain (tikhonov_filter); lam defaults to 1e-3 * max |H|^2 where H is the
    dt-scaled transform of h, and lam = 0 gives exact recovery of full
    noiseless convolutions.  The output holds output_length samples
    (default len(y) - len(h) + 1), at most len(y); an output_length that
    is not an integer (a float or a bool) raises DomainError.  method must be
    "frequency", the only one; any other value raises DomainError.
    """
    if method != "frequency":
        raise DomainError(f"unknown deconvolution method {method!r}")
    _check_dt_match(y, h)
    n_out = len(y) - len(h) + 1 if output_length is None else _integer("output_length", output_length)
    if n_out < 1:
        raise ConfigurationError("deconvolution output would be empty (kernel longer than signal)")
    if n_out > len(y):
        raise ConfigurationError(f"deconvolution output of {n_out} samples exceeds the {len(y)}-sample record")
    n_fft, h_conj, denom = tikhonov_filter(h.samples, y.dt, len(y), lam)
    x_hat = np.fft.irfft(np.fft.rfft(y.samples, n_fft) * h_conj / denom, n_fft)[:n_out]
    return SampledSignal(t0=y.t0 - h.t0, dt=y.dt, samples=x_hat, role=SignalRole.MASS_RATE)


def tikhonov_filter(
    taps: np.ndarray, dt: float, n: int, lam: float | None = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Tikhonov-regularized frequency-domain inverse of one kernel.

    For kernel taps h (sample step dt) and records of n samples, returns
    (n_fft, conj(H), |H|^2 + lam) with n_fft = next_fast_len(n + len(taps)
    - 1) and H the dt-scaled kernel transform; a record y is recovered as
    irfft(rfft(y, n_fft) * conj(H) / (|H|^2 + lam), n_fft)[:n].  lam
    defaults to 1e-3 * max |H|^2.
    """
    if not np.any(taps):
        raise IllConditionedError("kernel is identically zero")
    n_fft = next_fast_len(n + len(taps) - 1)
    H = np.fft.rfft(taps, n_fft) * dt
    # taps near the largest double overflow |H|^2; that is refused below
    with np.errstate(over="ignore"):
        power = np.abs(H) ** 2
    if not np.all(np.isfinite(power)):
        raise IllConditionedError("kernel transform overflows: |H|^2 is not finite")
    if lam is None:
        lam = 1e-3 * float(np.max(power))
    if not lam >= 0:
        raise DomainError(f"regularization weight must be >= 0, got {lam}")
    denom = power + lam
    if np.any(denom == 0.0):
        raise IllConditionedError("kernel transform vanishes and no regularization was given")
    return n_fft, np.conj(H), denom


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
    a time by first_order_scan, driven by the states above it, each into
    its own row of an array padded to whole scan blocks.  Returns the
    states on the grid, shape (len(b), len(u) + 1), a view of that array.
    The step must resolve the fastest rate, dt * max(-M_kk) <=
    MAX_RATE_PER_STEP, otherwise a configuration error is raised.
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
    n = len(u) + 1
    x = np.empty((len(b), -(-n // SCAN_BLOCK) * SCAN_BLOCK))
    for k in range(len(b)):
        # state k's drive, built in its own row: q[k] u shifted one step, b[k] jumps, and the states above
        drive = x[k, :n]
        drive[0] = 0.0
        np.multiply(q[k], u, out=drive[1:])
        if jumps is not None:
            drive += b[k] * jumps
        drive[1:] += P[k, :k] @ x[:k, : n - 1]
        first_order_scan(drive, P[k, k], out=x[k])
    return x[:, :n]


def first_order_scan(d: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """Solve y[i] = d[i] + p * y[i-1] for a 1-D d, starting from y[-1] = 0.

    The samples are cut into blocks of SCAN_BLOCK.  A block's own inputs
    reach its last sample with weights p**(SCAN_BLOCK - 1 - j), and a short
    loop over the blocks chains those sums with the factor p**SCAN_BLOCK
    into the state each block inherits.  Adding p times that state to the
    block's first input makes every block a recurrence from rest, and one
    product with the lower-triangular matrix T[i, j] = p**(i - j) solves
    them all.  out is a contiguous 1-D array of d.size rounded up to a
    multiple of SCAN_BLOCK; the product is written into it (it may hold d
    itself), and y is its first d.size entries.
    """
    n = d.size
    blocks = np.zeros((-(-n // SCAN_BLOCK), SCAN_BLOCK))
    blocks.reshape(-1)[:n] = d
    powers = p ** np.arange(SCAN_BLOCK + 1)
    decay = float(powers[-1])
    state = [0.0]
    for own in (blocks[:-1] @ powers[-2::-1]).tolist():
        state.append(own + decay * state[-1])
    blocks[:, 0] += p * np.array(state)
    powers[-1] = 0.0  # the entries above the diagonal
    np.matmul(blocks, powers[_SCAN_LAG].T, out=out.reshape(blocks.shape))
    return out[:n]


def integrate_ode(
    params: PkParams, route: Route, u: SampledSignal, horizon: float, jumps: np.ndarray | None = None
) -> SampledSignal:
    """Integrate the compartment ODEs with classical fixed-step RK4.

    The input holds one rate per step up to the horizon, held constant over
    its step (zero-order hold); a last sample at the horizon itself is not
    read.  jumps (from split_doses, one per grid point up to the horizon)
    adds impulsive doses.  State starts at zero at u.t0 and the
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
    if len(u) < n_steps:
        raise ConfigurationError(f"input holds {len(u)} rates for the {n_steps} steps to the horizon")

    ke = params.k_e
    if route is Route.INTRAVENOUS:
        M, b = [[-ke]], [1.0]
    else:
        ka = params.require_k_a()
        M, b = [[-ka, 0.0], [ka, -ke]], [params.F, 0.0]
    central = rk4_linear(M, b, dt, u.samples[:n_steps], jumps)[-1]  # rk4_linear only reads its input
    central /= params.V
    return SampledSignal(t0=u.t0, dt=dt, samples=central, role=SignalRole.CONCENTRATION)


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
