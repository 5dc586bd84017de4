"""On-off-keyed transmission of bits through the pharmacokinetic channel.

A frame is a fixed three-one preamble followed by the payload.  Each 1-bit
releases one dose at the start of its symbol slot, either as an ideal
impulse or as a constant-rate pump pulse.  The receiver deconvolves the
concentration signal back to a mass-rate estimate, integrates the
recovered mass per symbol window, locates the preamble, and thresholds
each window against half the per-symbol dose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import DoseEvent, DoseSchedule, PkParams, Route, superpose
from .errors import (
    ConfigurationError,
    DomainError,
    SynchronizationError,
    TruncationError,
)
from .signals import (
    MAX_GRID_SAMPLES,
    SampledSignal,
    SignalRole,
    TikhonovSolve,
    _integer,
    deconvolve,
    sample,
    sampled_kernel,
)

PREAMBLE = (1, 1, 1)

# Canonical loopback payload: every ordered pair of adjacent bits occurs.
REFERENCE_PAYLOAD = (0, 1, 0, 1, 0, 0, 1, 1)

# Decide 1 where a window holds more than half the dose.
THRESHOLD_FRACTION = 0.5

# Frames ber_sweep decides as one stack: enough to spread the per-stack
# costs, few enough that the stack adds little to peak memory (0.6 MB for
# 5 sigmas on the bench link, beside 0.1 MB for each of the block's clean
# frames, normals and spikes; 16 frames cost about 1 MB more peak RSS).
SWEEP_BLOCK_FRAMES = 8


def _check_bits(bits) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise DomainError(f"bits must be 0 or 1, got {bits!r}")
    return out


@dataclass(frozen=True)
class BitFrame:
    """Preamble plus payload; the preamble is always three ones."""

    payload: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "payload", _check_bits(self.payload))

    @property
    def bits(self) -> tuple[int, ...]:
        return PREAMBLE + self.payload

    def __len__(self):
        return len(self.bits)


def frame(payload) -> BitFrame:
    """Wrap payload bits in a frame with the standard preamble."""
    return BitFrame(payload=tuple(payload))


@dataclass(frozen=True)
class ModulationConfig:
    """Symbol timing and dosing for on-off keying.

    pump_rate is the constant delivery rate in mg/s; None selects ideal
    impulsive dosing.  A finite pump must fit the whole dose inside one
    symbol period.
    """

    symbol_period: float
    dose_mass: float
    route: Route
    pump_rate: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.symbol_period) and self.symbol_period > 0):
            raise DomainError(f"symbol_period must be positive, got {self.symbol_period}")
        if not (math.isfinite(self.dose_mass) and self.dose_mass > 0):
            raise DomainError(f"dose_mass must be positive, got {self.dose_mass}")
        if self.pump_rate is not None:
            if not (math.isfinite(self.pump_rate) and self.pump_rate > 0):
                raise DomainError(f"pump_rate must be positive or None, got {self.pump_rate}")
            if self.dose_mass / self.pump_rate > self.symbol_period:
                raise ConfigurationError(
                    f"pump too slow: delivering {self.dose_mass} mg at {self.pump_rate} mg/s "
                    f"exceeds the {self.symbol_period} s symbol period"
                )

    @property
    def dose_duration(self) -> float:
        return 0.0 if self.pump_rate is None else self.dose_mass / self.pump_rate


def modulate_ook(bit_frame: BitFrame, config: ModulationConfig, start: float = 0.0) -> DoseSchedule:
    """Dose schedule for a frame: one dose at the start of each 1-bit slot."""
    if not (math.isfinite(start) and start >= 0):
        raise DomainError(f"start must be >= 0, got {start}")
    duration = config.dose_duration
    events = [
        DoseEvent(time=start + i * config.symbol_period, mass=config.dose_mass, duration=duration)
        for i, bit in enumerate(bit_frame.bits)
        if bit == 1
    ]
    return DoseSchedule(events=tuple(events))


def symbol_samples(config: ModulationConfig, dt: float) -> int:
    """Samples per symbol window; a configuration error unless dt divides the symbol period."""
    w = int(round(config.symbol_period / dt))
    if w < 1 or abs(w * dt - config.symbol_period) > 1e-9 * config.symbol_period:
        raise ConfigurationError(f"sample step {dt} does not divide the symbol period {config.symbol_period}")
    return w


@dataclass(frozen=True)
class PillCompartment:
    """One dissolvable pill compartment: drug level (mg) and release time (s)."""

    level: float
    dissolution_time: float

    def __post_init__(self):
        if not (math.isfinite(self.level) and self.level > 0):
            raise DomainError(f"compartment level must be positive, got {self.level}")
        if not (math.isfinite(self.dissolution_time) and self.dissolution_time >= 0):
            raise DomainError(f"dissolution time must be >= 0, got {self.dissolution_time}")


@dataclass(frozen=True)
class PassivePill:
    """Multi-compartment pill that releases one impulsive dose per compartment.

    Compartments are ordered by strictly decreasing dissolution time, so the
    first compartment carries the most significant bit.  Levels are binary:
    the high level encodes 1 and half of it encodes 0.
    """

    compartments: tuple[PillCompartment, ...]

    def __post_init__(self):
        comps = tuple(self.compartments)
        if len(comps) == 0:
            raise DomainError("pill needs at least one compartment")
        times = [c.dissolution_time for c in comps]
        if any(t1 <= t2 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("dissolution times must be strictly decreasing")
        levels = sorted({c.level for c in comps})
        if len(levels) > 2:
            raise ConfigurationError(f"at most two distinct levels allowed, got {levels}")
        if len(levels) == 2 and abs(levels[0] - levels[1] / 2.0) > 1e-9 * levels[1]:
            raise ConfigurationError(f"low level must be half the high level, got {levels}")
        object.__setattr__(self, "compartments", comps)

    @classmethod
    def encode(cls, bits, level_one: float, dissolution_times) -> "PassivePill":
        """Build a pill for the given bits, most significant bit first."""
        checked = _check_bits(bits)
        times = tuple(float(t) for t in dissolution_times)
        if len(checked) != len(times):
            raise DomainError(f"{len(checked)} bits but {len(times)} dissolution times")
        if not (math.isfinite(level_one) and level_one > 0):
            raise DomainError(f"level_one must be positive, got {level_one}")
        comps = tuple(
            PillCompartment(level=level_one if b == 1 else level_one / 2.0, dissolution_time=t)
            for b, t in zip(checked, times)
        )
        return cls(compartments=comps)


def passive_pill_schedule(pill: PassivePill) -> DoseSchedule:
    """Impulsive dose schedule realized by a dissolving pill."""
    events = tuple(
        DoseEvent(time=c.dissolution_time, mass=c.level, duration=0.0) for c in pill.compartments
    )
    return DoseSchedule(events=events)


def _check_noise(sigmas, spike_prob: float, spike_scale: float) -> np.ndarray:
    """The noise amplitudes as an array, once each one is known to be valid."""
    sigmas = np.asarray(sigmas, dtype=float)
    for sigma in sigmas:
        if not (math.isfinite(sigma) and sigma >= 0):
            raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
    if not (0.0 <= spike_prob <= 1.0):
        raise DomainError(f"spike_prob must lie in [0, 1], got {spike_prob}")
    if not (math.isfinite(spike_scale) and spike_scale >= 0):
        raise DomainError(f"spike_scale must be finite and >= 0, got {spike_scale}")
    return sigmas


def _noisy_rows(clean: np.ndarray, sigmas: np.ndarray, spike_prob: float, spike_scale: float, seed) -> np.ndarray:
    """Noisy copies of each clean row for every sigma, shape (sigmas, rows, n).

    The rows draw in turn from np.random.default_rng(seed), each its
    normals, then uniforms and exponentials when spike_prob > 0.  The draws
    do not depend on the amplitudes (checked by _check_noise), so [i, j] is
    exactly what add_noise would give row j with sigmas[i] and the
    generator as row j finds it.
    """
    normals = np.empty_like(clean)
    spikes = np.zeros_like(clean) if spike_prob > 0 else None
    noisy = np.empty((len(sigmas),) + clean.shape)
    n = clean.shape[1]
    rng = np.random.default_rng(seed)
    # a sigma or spike_scale near the largest double overflows; that is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(clean)):
            rng.standard_normal(out=normals[j])
            if spikes is not None:
                # the add_noise contract: the spike draws are taken only when a sample can spike
                spike_at = rng.random(n) < spike_prob
                np.multiply(rng.exponential(1.0, n), spike_scale, out=spikes[j], where=spike_at)
        np.multiply(normals, sigmas[:, np.newaxis, np.newaxis], out=noisy)
        noisy += clean
        if spikes is not None:
            noisy += spikes
    finite = np.isfinite(noisy).all(axis=2)
    if not finite.all():
        # the first row that overflows, and its first sigma that does
        row = np.argmin(finite.all(axis=0))
        sigma = float(sigmas[np.argmin(finite[:, row])])
        scale = f" and spike_scale {spike_scale!r}" if spike_prob > 0 else ""
        raise DomainError(f"noise of sigma {sigma!r}{scale} overflows the samples")
    return np.clip(noisy, 0.0, None, out=noisy)


def add_noise(
    x: SampledSignal,
    sigma: float,
    spike_prob: float = 0.0,
    spike_scale: float = 0.0,
    seed=0,
) -> SampledSignal:
    """Measurement noise: zero-mean Gaussian plus sparse positive spikes.

    Spikes model droplet or bubble artifacts: with probability spike_prob a
    sample gains an exponentially distributed positive excursion of mean
    spike_scale.  The result is clamped at zero since concentrations cannot
    be negative.  Draw order is fixed (normals, then uniforms and
    exponentials, which are drawn only when spike_prob > 0) so a seed
    fully determines the output, and scaling by sigma / spike_scale happens
    after drawing so different amplitudes share the same underlying
    realization for a given seed.  The seed is anything
    np.random.default_rng takes; a Generator is drawn from, and so left
    advanced past this signal's draws.  ber_sweep relies on this: through
    the helper this function uses, its frames take their draws in turn
    from one Generator, and it scales each frame's draws for every sigma.
    A sigma or spike_scale so large that a noisy sample overflows raises
    DomainError.
    """
    sigmas = _check_noise([sigma], spike_prob, spike_scale)
    noisy = _noisy_rows(x.samples[np.newaxis], sigmas, spike_prob, spike_scale, seed)[0, 0]
    return SampledSignal(t0=x.t0, dt=x.dt, samples=noisy, role=x.role)


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Receiver output: recovered payload plus per-symbol evidence."""

    payload_bits: tuple[int, ...]
    statistics: tuple[float, ...]  # recovered mass per frame symbol window, mg
    frame_start: float
    threshold: float
    recovered: SampledSignal
    errors: int | None = None

    @property
    def ber(self) -> float | None:
        if self.errors is None or len(self.payload_bits) == 0:
            return None
        return self.errors / len(self.payload_bits)

    @property
    def decisions(self) -> tuple[int, ...]:
        """Decision of each frame window: the preamble's, whose windows found the frame, then the payload's."""
        return PREAMBLE + self.payload_bits

    def to_csv(self, fh):
        """Write per-symbol rows and a one-row summary section to an open text handle."""
        fh.write("symbol,statistic,decision\n")
        for i, (stat, dec) in enumerate(zip(self.statistics, self.decisions)):
            fh.write(f"{i},{float(stat)!r},{dec}\n")
        fh.write("frame_start,threshold,errors,ber\n")
        errors = "" if self.errors is None else str(self.errors)
        ber_val = self.ber
        ber_txt = "" if ber_val is None else repr(float(ber_val))
        fh.write(f"{float(self.frame_start)!r},{float(self.threshold)!r},{errors},{ber_txt}\n")


def _check_records(records: np.ndarray) -> None:
    if records.ndim != 2 or not np.all(np.isfinite(records)):
        raise DomainError("records must be a 2-D stack of finite samples")


class Receiver:
    """The frame geometry and decision threshold for records of n samples at step dt.

    Built once per (params, route, dt, n), it holds the symbol window in
    samples, the number of whole windows in a record and the threshold
    THRESHOLD_FRACTION * dose_mass, and works on a 2-D stack of records
    (rows x samples).  decide sums each record's recovered mass per window
    through the window-sum map, built on first use; frames reads the frame
    out of such window sums.  Windows are aligned to the sample grid, so dt
    must divide the symbol period, and a record must hold a window for
    each preamble bit.
    """

    def __init__(self, params: PkParams, config: ModulationConfig, dt: float, n: int):
        self.params, self.route = params, config.route
        self.dt, self.n = dt, n
        self.window = symbol_samples(config, dt)
        self.n_windows = n // self.window
        if self.n_windows < len(PREAMBLE):
            raise SynchronizationError("signal is shorter than the preamble")
        self.threshold = THRESHOLD_FRACTION * config.dose_mass

    @cached_property
    def window_map(self) -> np.ndarray:
        """The n x n_windows matrix M with records @ M the recovered mass per window.

        The recovery is the Tikhonov solve of the record-length channel
        kernel at the default weight, as deconvolve makes it.  Column k
        sums recovered samples k*window to (k+1)*window - 1, times dt.
        solve.apply is a circular convolution with g = irfft(conj(H) /
        denom), so recovered sample i takes record sample j with weight
        g[(i - j) mod n_fft], and a window sum takes it with
        s[(k*window - j) mod n_fft], s[l] = g[l] + ... + g[l + window - 1].
        s is formed in the frequency domain, as g's transform times the
        conjugate transform of a box of window ones: a running sum of g
        would cancel badly where g is large.
        """
        n, window, n_windows = self.n, self.window, self.n_windows
        solve = TikhonovSolve(sampled_kernel(self.params, self.route, self.dt, n).samples, self.dt, n)
        box = np.fft.rfft(np.ones(window), solve.n_fft)
        s = np.fft.irfft(solve.H_conj / solve.denom * np.conj(box), solve.n_fft)
        # r lists s at lags 1 - n ... n_windows * window, so column k,
        # lags k*window - j for j = 0 ... n - 1, is a reversed run of r
        r = s[np.arange(1 - n, window * n_windows + 1) % solve.n_fft]
        runs = np.lib.stride_tricks.sliding_window_view(r, n)[: window * n_windows : window]
        window_map = runs[:, ::-1].T.copy()
        window_map *= self.dt
        return window_map

    def decide(self, records: np.ndarray) -> np.ndarray:
        """Per-window recovered mass of each row: the window sums of
        deconvolve's waveform, up to rounding."""
        _check_records(records)
        return records @ self.window_map

    def frames(self, stats: np.ndarray, payload_length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frame start, payload decisions and whether the frame is held, per row of window sums.

        A window decides 1 when its sum is above the threshold.  The frame
        starts at the first of three consecutive windows that do, counted
        in windows; the start is -1 where a row has none.  A row holds its
        frame when it has a preamble and payload_length windows after it;
        decisions of other rows are all zero.
        """
        above = stats > self.threshold
        n_starts = self.n_windows - len(PREAMBLE) + 1
        runs = np.ones((len(stats), n_starts), dtype=bool)
        for k in range(len(PREAMBLE)):
            runs &= above[:, k : k + n_starts]
        starts = np.where(runs.any(axis=1), runs.argmax(axis=1), -1)
        first = starts + len(PREAMBLE)
        held = (starts >= 0) & (first + payload_length <= self.n_windows)
        decisions = np.zeros((len(stats), payload_length), dtype=bool)
        if held.any():
            cols = first[held, np.newaxis] + np.arange(payload_length)
            decisions[held] = np.take_along_axis(above[held], cols, axis=1)
        return starts, decisions, held


def detect(
    received: SampledSignal,
    params: PkParams,
    config: ModulationConfig,
    payload_length: int,
    lam: float | None = None,
    reference=None,
) -> DetectionReport:
    """Demodulate a received concentration signal.

    Steps: deconvolve with the channel kernel to estimate the transmitted
    mass rate, integrate recovered mass over each symbol window, find the
    first window above THRESHOLD_FRACTION * dose_mass and verify the three
    consecutive preamble windows, then threshold the payload_length
    payload windows.  The windows and the frame are those of a Receiver
    built for this one record, its window sums a one-row stack.  Windows
    are aligned to the sample grid, so the sample step must divide the
    symbol period.  payload_length must be an integer >= 0; a signal ending
    before the payload completes raises a truncation error.
    """
    payload_length = _integer("payload_length", payload_length, minimum=0)
    dt, n = received.dt, len(received)
    receiver = Receiver(params, config, dt, n)
    recovered = deconvolve(received, sampled_kernel(params, config.route, dt, n), lam=lam, output_length=n)
    w, n_windows = receiver.window, receiver.n_windows
    stats = recovered.samples[: n_windows * w].reshape(1, n_windows, w).sum(axis=2) * dt
    starts, decisions, held = receiver.frames(stats, payload_length)
    start = int(starts[0])
    if start < 0:
        raise SynchronizationError("no preamble found above threshold")
    if not held[0]:
        available = n_windows - start - len(PREAMBLE)
        raise TruncationError(f"only {available} symbol windows after the preamble, expected {payload_length}")

    payload_bits = tuple(int(b) for b in decisions[0])
    errors = None
    if reference is not None:
        checked = _check_bits(reference)
        if len(checked) != len(payload_bits):
            raise DomainError(f"reference has {len(checked)} bits, recovered {len(payload_bits)}")
        errors = sum(1 for x, y in zip(checked, payload_bits) if x != y)
    return DetectionReport(
        payload_bits=payload_bits,
        statistics=tuple(float(s) for s in stats[0, start : start + len(PREAMBLE) + payload_length]),
        frame_start=received.t0 + start * w * dt,
        threshold=receiver.threshold,
        recovered=recovered,
        errors=errors,
    )


def ber_sweep(
    params: PkParams,
    config: ModulationConfig,
    sigmas,
    n_frames: int,
    payload_length: int = 8,
    seed: int = 0,
    spike_prob: float = 0.0,
    spike_scale: float = 0.0,
    dt: float | None = None,
) -> list[float]:
    """Monte-Carlo bit error rate across noise amplitudes.

    The sweep draws from two streams, each made once per call.  Frame j's
    payload is row j of np.random.default_rng([seed, 0]).integers(0, 2,
    (n_frames, payload_length)).  Its noise is the next draws of
    np.random.default_rng([seed, 1]), taken in frame order as add_noise
    takes them (normals, then uniforms and exponentials when
    spike_prob > 0); the same draws are scaled for every sigma to keep the
    sweep comparable point to point.  So frame j's payload and noise depend
    on neither n_frames nor SWEEP_BLOCK_FRAMES.  Frames whose preamble
    cannot be found count all payload bits as errors.
    n_frames and payload_length must be integers of at least 1, seed an
    integer of at least 0, dt (by default a hundredth of the symbol
    period) finite and > 0, the grid that spans the frame plus eight of
    the slowest rate's time constants at most MAX_GRID_SAMPLES samples,
    and sigmas, spike_prob and spike_scale valid for add_noise, or a
    DomainError names the argument before anything is allocated.

    The Receiver is built once per call, and the sweep works on blocks of
    SWEEP_BLOCK_FRAMES frames.  A block's clean frames start as the sum of
    the preamble's pulses and gain each payload slot's pulse, in slot
    order, where the frame's bit is 1; every per-slot pulse is sampled
    once per call.  Each frame's noise is drawn once and scaled for every
    sigma, so the block becomes one stack of sigma x frame rows, which the
    receiver decides through its window-sum map: one matrix product, no
    transform.  The rates are those of add_noise and detect applied frame
    by frame and sigma by sigma, up to the rounding of the window sums,
    which can flip only a decision whose window sum lies within that
    rounding of the threshold.
    """
    n_frames = _integer("n_frames", n_frames, minimum=1)
    payload_length = _integer("payload_length", payload_length, minimum=1)
    seed = _integer("seed", seed, minimum=0)
    if dt is None:
        dt = config.symbol_period / 100.0
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    rate_floor = params.k_e if config.route is Route.INTRAVENOUS else min(params.require_k_a(), params.k_e)
    n_symbols = len(PREAMBLE) + payload_length
    horizon = n_symbols * config.symbol_period + 8.0 / rate_floor
    if not horizon / dt <= MAX_GRID_SAMPLES - 1:
        raise DomainError(f"grid: horizon {horizon} / dt {dt} gives more than {MAX_GRID_SAMPLES} samples")
    n = int(round(horizon / dt)) + 1
    sigmas = _check_noise(list(sigmas), spike_prob, spike_scale)

    def slot_pulse(event: DoseEvent) -> np.ndarray:
        one = DoseSchedule(events=(event,))
        pulse = sample(lambda t: superpose(params, config.route, one, t), 0.0, dt, n, SignalRole.CONCENTRATION)
        return pulse.samples

    pulses = [slot_pulse(event) for event in modulate_ook(frame((1,) * payload_length), config)]
    receiver = Receiver(params, config, dt, n)
    preamble = sum(pulses[: len(PREAMBLE)])
    payloads = np.random.default_rng([seed, 0]).integers(0, 2, (n_frames, payload_length))
    noise = np.random.default_rng([seed, 1])

    k = len(sigmas)

    def block_errors(payloads: np.ndarray) -> np.ndarray:
        # payload bit errors per sigma; a function, so that a block's buffers
        # are freed before the next block's are built
        clean = np.tile(preamble, (len(payloads), 1))
        for bits, pulse in zip(payloads.astype(bool).T, pulses[len(PREAMBLE) :]):
            np.add(clean, pulse, out=clean, where=bits[:, np.newaxis])
        rows = _noisy_rows(clean, sigmas, spike_prob, spike_scale, noise)
        _, decisions, held = receiver.frames(receiver.decide(rows.reshape(-1, n)), payload_length)
        wrong = np.count_nonzero(decisions != np.tile(payloads, (k, 1)), axis=1)
        return np.where(held, wrong, payload_length).reshape(k, len(payloads)).sum(axis=1)

    errors = np.zeros(k, dtype=int)
    for first in range(0, n_frames, SWEEP_BLOCK_FRAMES):
        errors += block_errors(payloads[first : first + SWEEP_BLOCK_FRAMES])
    return [int(e) / (n_frames * payload_length) for e in errors]
