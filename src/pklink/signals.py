"""Discrete-time signal engine for channel simulation and inversion.

Signals are uniformly sampled with an explicit start time, step, and role
(mass rate, mass, or concentration).  Discrete convolution is scaled by the
sample step so it approximates the continuous convolution integral, which
keeps amplitudes in physical units across the transmit/receive chain.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import DoseSchedule, PkParams, Route, impulse_response
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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """DFT of a sampled signal, scaled by dt, on an angular-frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def energy(self) -> float:
        """Frequency-domain energy: (1/2pi) * sum |X|^2 * domega."""
        domega = float(abs(self.omega[1] - self.omega[0])) if self.omega.size > 1 else 1.0
        return float(np.sum(np.abs(self.values) ** 2) * domega / (2.0 * np.pi))


def sample(f, t0: float, dt: float, n: int, role: SignalRole = SignalRole.CONCENTRATION) -> SampledSignal:
    """Sample a time function on the grid t0 + k*dt, k = 0..n-1.

    f is called once on the whole grid and must return one value per grid
    point; any other shape is a DomainError.
    """
    if n < 1:
        raise DomainError("sample count must be >= 1")
    t = t0 + dt * np.arange(n)
    values = np.asarray(f(t), dtype=float)
    if values.shape != t.shape:
        raise DomainError(f"sampled function returned shape {values.shape} on a grid of {n} points")
    if not np.all(np.isfinite(values)):
        raise DomainError("sampled function is not finite on the grid")
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


def dose_rate_signal(schedule: DoseSchedule, dt: float, n: int) -> SampledSignal:
    """Render a dose schedule as a zero-order-hold mass-rate signal on t = k*dt.

    Impulsive doses land in the single step containing their event time;
    finite infusions are spread over their rounded step span.  Total mass
    is conserved exactly for every event.
    """
    if n < 1:
        raise DomainError("signal length must be >= 1")
    samples = np.zeros(n)
    for event in schedule:
        i0 = int(round(event.time / dt))
        if event.duration == 0.0:
            if not (0 <= i0 < n):
                raise ConfigurationError(f"dose at t={event.time} falls outside the signal grid")
            samples[i0] += event.mass / dt
        else:
            i1 = max(i0 + 1, int(round(event.end / dt)))
            if i0 < 0 or i1 > n:
                raise ConfigurationError(f"dose over [{event.time}, {event.end}] falls outside the signal grid")
            samples[i0:i1] += event.mass / ((i1 - i0) * dt)
    return SampledSignal(t0=0.0, dt=dt, samples=samples, role=SignalRole.MASS_RATE)


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


def _odd_smooth(limit: int) -> list[int]:
    """The odd numbers <= limit whose only prime factors are 3, 5, 7 and 11, sorted."""
    odd = [1]
    for prime in (3, 5, 7, 11):
        grown = []
        for q in odd:
            while q <= limit:
                grown.append(q)
                q *= prime
        odd = grown
    return sorted(odd)


# Largest transform size next_fast_len answers: the full linear convolution
# of two grids of scenarios.MAX_GRID_SAMPLES samples fits below it.
MAX_FFT_SIZE = 2**28

# The 1380 odd parts of the sizes up to MAX_FFT_SIZE, built once at import.
# Built with numpy's outer product and sort instead, the table raised a
# run's peak RSS by about 0.4 MB: code pages that no other call touches.
_ODD_SMOOTH = _odd_smooth(MAX_FFT_SIZE)


def next_fast_len(n: int) -> int:
    """Smallest transform size >= n whose only prime factors are 2, 3, 5, 7 and 11.

    These are the sizes scipy.fft.next_fast_len(n) gives by default.  n
    must lie in [1, MAX_FFT_SIZE].
    """
    if not 1 <= n <= MAX_FFT_SIZE:
        raise DomainError(f"transform size must lie in [1, {MAX_FFT_SIZE}], got {n}")
    best = 1 << (n - 1).bit_length()
    for shift in range(best.bit_length() - 1):
        # the least odd part q with q << shift >= n
        i = bisect.bisect_left(_ODD_SMOOTH, -(-n >> shift))
        if i < len(_ODD_SMOOTH):
            best = min(best, _ODD_SMOOTH[i] << shift)
    return best


def convolve(x: SampledSignal, h: SampledSignal) -> SampledSignal:
    """Discrete convolution scaled by dt; approximates continuous convolution.

    Output starts at x.t0 + h.t0 and has len(x) + len(h) - 1 samples,
    evaluated by FFT.
    """
    _check_dt_match(x, h)
    n_out = len(x) + len(h) - 1
    n_fft = next_fast_len(n_out)
    spectra = np.fft.rfft(x.samples, n_fft) * np.fft.rfft(h.samples, n_fft)
    acc = np.fft.irfft(spectra, n_fft)[:n_out]
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

    Solves the Tikhonov-regularized least-squares problem in the Fourier
    domain (TikhonovSolve); lam defaults to 1e-3 * max |H|^2 where H is the
    dt-scaled transform of h, and lam = 0 gives exact recovery of full
    noiseless convolutions.  method must be "frequency", the only one;
    any other value raises DomainError.
    """
    if method != "frequency":
        raise DomainError(f"unknown deconvolution method {method!r}")
    _check_dt_match(y, h)
    default_len = len(y) - len(h) + 1
    n_out = default_len if output_length is None else int(output_length)
    if n_out < 1:
        raise ConfigurationError("deconvolution output would be empty (kernel longer than signal)")
    x_hat = TikhonovSolve(h.samples, y.dt, len(y), n_out, lam).apply(y.samples)
    return SampledSignal(t0=y.t0 - h.t0, dt=y.dt, samples=x_hat, role=SignalRole.MASS_RATE)


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
        if not np.any(taps):
            raise IllConditionedError("kernel is identically zero")
        m = len(taps)
        n_probe = next_fast_len(n_in + m - 1)
        self.n_fft = n_probe if n_out <= n_in else next_fast_len(n_out + m - 1)
        self.n_in = n_in
        self.n_out = n_out
        self.H = np.fft.rfft(taps, self.n_fft) * dt
        power = np.abs(self.H) ** 2
        if lam is None:
            probe = power if n_probe == self.n_fft else np.abs(np.fft.rfft(taps, n_probe) * dt) ** 2
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
        Y = np.fft.rfft(samples, self.n_fft, axis=-1)
        return np.fft.irfft(Y * self.H_conj / self.denom, self.n_fft, axis=-1)[..., : self.n_out]

    def window_map(self, window: int, n_windows: int) -> np.ndarray:
        """The n_in x n_windows matrix M with records @ M the window sums of apply(records).

        Column k sums recovered samples k*window to (k+1)*window - 1, which
        must lie below n_out.  apply is a circular convolution with
        g = irfft(conj(H) / denom), so recovered sample i takes record
        sample j with weight g[(i - j) mod n_fft], and a window sum takes
        it with s[(k*window - j) mod n_fft], s[l] = g[l] + ... +
        g[l + window - 1].  s is formed in the frequency domain, as g's
        transform times the conjugate transform of a box of window ones: a
        running sum of g would cancel badly where lam is 0 and g is large.
        """
        if window * n_windows > self.n_out:
            raise ConfigurationError(
                f"{n_windows} windows of {window} samples exceed the {self.n_out} recovered samples"
            )
        box = np.fft.rfft(np.ones(window), self.n_fft)
        s = np.fft.irfft(self.H_conj / self.denom * np.conj(box), self.n_fft)
        # r lists s at lags 1 - n_in ... n_windows * window, so column k,
        # lags k*window - j for j = 0 ... n_in - 1, is a reversed run of r
        r = s[np.arange(1 - self.n_in, window * n_windows + 1) % self.n_fft]
        runs = np.lib.stride_tricks.sliding_window_view(r, self.n_in)[: window * n_windows : window]
        return runs[:, ::-1].T.copy()


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
    a time by first_order_scan, driven by the states above it.  Returns
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
        x[k] = first_order_scan(drive[k], P[k, k])
    return x


def first_order_scan(d: np.ndarray, p: float) -> np.ndarray:
    """Solve y[i] = d[i] + p * y[i-1] for a 1-D d, starting from y[-1] = 0.

    The samples are cut into blocks of SCAN_BLOCK.  A block's own inputs
    reach its last sample with weights p**(SCAN_BLOCK - 1 - j), and a short
    loop over the blocks chains those sums with the factor p**SCAN_BLOCK
    into the state each block inherits.  Adding p times that state to the
    block's first input makes every block a recurrence from rest, and one
    product with the lower-triangular matrix T[i, j] = p**(i - j) solves
    them all.
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
    return (blocks @ powers[_SCAN_LAG].T).reshape(-1)[:n]


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
