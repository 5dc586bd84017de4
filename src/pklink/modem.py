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
# deconvolve is not called here but stays importable from this module: the
# benchmark tracer (perfbench/spans.py) wraps it under this name.
from .signals import (
    SampledSignal,
    SignalRole,
    TikhonovSolve,
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
# 5 sigmas on the bench link; 16 frames cost about 1 MB more peak RSS).
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


def _noisy_rows(clean: np.ndarray, sigmas, spike_prob: float, spike_scale: float, seed) -> np.ndarray:
    """One noisy copy of clean per sigma, all from a single draw of the seed.

    The draws (normals, then uniforms and exponentials when spike_prob > 0)
    do not depend on the amplitudes, so row i is exactly what drawing
    afresh with sigmas[i] would give.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    for sigma in sigmas:
        if not (math.isfinite(sigma) and sigma >= 0):
            raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
    if not (0.0 <= spike_prob <= 1.0):
        raise DomainError(f"spike_prob must lie in [0, 1], got {spike_prob}")
    if not (math.isfinite(spike_scale) and spike_scale >= 0):
        raise DomainError(f"spike_scale must be finite and >= 0, got {spike_scale}")
    rng = np.random.default_rng(seed)
    n = len(clean)
    noisy = clean + rng.standard_normal(n) * sigmas[:, np.newaxis]
    if spike_prob > 0:
        # nothing reads the generator after the spikes, so skipping their
        # draws when no sample can spike changes no value
        spike_at = rng.random(n) < spike_prob
        noisy += np.where(spike_at, rng.exponential(1.0, n) * spike_scale, 0.0)
    return np.clip(noisy, 0.0, None)


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
    realization for a given seed.  ber_sweep relies on this: it draws each
    frame's noise once and scales the same draws for every sigma, through
    the helper this function uses.
    """
    noisy = _noisy_rows(x.samples, [sigma], spike_prob, spike_scale, seed)[0]
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
        return tuple(int(s > self.threshold) for s in self.statistics)

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
    """Deconvolution receiver for records of n samples at step dt.

    Built once per (params, route, dt, n, lam), it owns the channel kernel,
    the cached Tikhonov solve and the decision threshold
    THRESHOLD_FRACTION * dose_mass, and works on a 2-D stack of records
    (rows x samples).  decode recovers the mass-rate waveform with one
    transform along the samples axis and sums it per window; decide gives
    the same window sums, up to rounding, as one product with the
    window-sum map, built from the solve on first use.  Windows are
    aligned to the sample grid, so dt must divide the symbol period.
    """

    def __init__(
        self,
        params: PkParams,
        config: ModulationConfig,
        dt: float,
        n: int,
        lam: float | None = None,
    ):
        self.dt = dt
        self.window = symbol_samples(config, dt)
        self.n_windows = n // self.window
        kernel = sampled_kernel(params, config.route, dt, n)
        self.solve = TikhonovSolve(kernel.samples, dt, n, n, lam)
        self.threshold = THRESHOLD_FRACTION * config.dose_mass

    @cached_property
    def window_map(self) -> np.ndarray:
        """n x n_windows matrix taking records to their recovered mass per window."""
        window_map = self.solve.window_map(self.window, self.n_windows)
        window_map *= self.dt
        return window_map

    def decode(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recovered mass rates, per-window recovered mass and frame start per row.

        The frame start is the first window of three consecutive windows
        above threshold, counted in windows; it is -1 where a row has none.
        """
        _check_records(records)
        recovered = self.solve.apply(records)
        rows, w, n_windows = len(records), self.window, self.n_windows
        stats = recovered[:, : n_windows * w].reshape(rows, n_windows, w).sum(axis=2) * self.dt
        return recovered, stats, self._starts(stats)

    def decide(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-window recovered mass and frame start per row, as decode gives them.

        The window sums come from the window-sum map instead of the
        recovered waveform, so they equal decode's up to rounding.
        """
        _check_records(records)
        stats = records @ self.window_map
        return stats, self._starts(stats)

    def _starts(self, stats: np.ndarray) -> np.ndarray:
        above = stats > self.threshold
        n_starts = self.n_windows - len(PREAMBLE) + 1
        if n_starts <= 0:
            return np.full(len(stats), -1)
        runs = np.ones((len(stats), n_starts), dtype=bool)
        for k in range(len(PREAMBLE)):
            runs &= above[:, k : k + n_starts]
        return np.where(runs.any(axis=1), runs.argmax(axis=1), -1)

    def payload_decisions(self, stats: np.ndarray, starts: np.ndarray, payload_length: int):
        """Payload decisions of each row and whether the row holds a whole frame.

        A row holds its frame when it has a preamble and payload_length
        windows after it; decisions of other rows are all zero.
        """
        first = starts + len(PREAMBLE)
        held = (starts >= 0) & (first + payload_length <= self.n_windows)
        decisions = np.zeros((len(stats), payload_length), dtype=bool)
        if held.any():
            cols = first[held, np.newaxis] + np.arange(payload_length)
            decisions[held] = np.take_along_axis(stats[held], cols, axis=1) > self.threshold
        return decisions, held


def detect(
    received: SampledSignal,
    params: PkParams,
    config: ModulationConfig,
    payload_length: int | None = None,
    lam: float | None = None,
    reference=None,
) -> DetectionReport:
    """Demodulate a received concentration signal.

    Steps: deconvolve with the channel kernel to estimate the transmitted
    mass rate, integrate recovered mass over each symbol window, find the
    first window above THRESHOLD_FRACTION * dose_mass and verify the three
    consecutive preamble windows, then threshold the payload windows.
    These are the steps of a Receiver built for this one record and
    applied to it as a one-row stack.  Windows are aligned to the sample
    grid, so the sample step must divide the symbol period.  With
    payload_length given, a signal ending before the payload completes
    raises a truncation error; otherwise every full window after the
    preamble is decoded.
    """
    receiver = Receiver(params, config, received.dt, len(received), lam)
    recovered, stats, starts = receiver.decode(received.samples[np.newaxis])
    if receiver.n_windows < len(PREAMBLE):
        raise SynchronizationError("signal is shorter than the preamble")
    start = int(starts[0])
    if start < 0:
        raise SynchronizationError("no preamble found above threshold")

    available = receiver.n_windows - start - len(PREAMBLE)
    if payload_length is None:
        n_payload = available
    else:
        if payload_length < 0:
            raise DomainError(f"payload_length must be >= 0, got {payload_length}")
        if available < payload_length:
            raise TruncationError(
                f"only {available} symbol windows after the preamble, expected {payload_length}"
            )
        n_payload = payload_length

    frame_stats = stats[0, start : start + len(PREAMBLE) + n_payload]
    decisions, _ = receiver.payload_decisions(stats, starts, n_payload)
    payload_bits = tuple(int(b) for b in decisions[0])
    errors = None
    if reference is not None:
        checked = _check_bits(reference)
        if len(checked) != len(payload_bits):
            raise DomainError(f"reference has {len(checked)} bits, recovered {len(payload_bits)}")
        errors = sum(1 for x, y in zip(checked, payload_bits) if x != y)
    return DetectionReport(
        payload_bits=payload_bits,
        statistics=tuple(float(s) for s in frame_stats),
        frame_start=received.t0 + start * receiver.window * received.dt,
        threshold=receiver.threshold,
        recovered=SampledSignal(t0=received.t0, dt=received.dt, samples=recovered[0], role=SignalRole.MASS_RATE),
        errors=errors,
    )


def ber(sent, received) -> float:
    """Bit error rate: Hamming distance over length; lengths must match."""
    a = _check_bits(sent)
    b = _check_bits(received)
    if len(a) != len(b):
        raise DomainError(f"bit sequences differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise DomainError("bit sequences are empty")
    return sum(1 for x, y in zip(a, b) if x != y) / len(a)


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
    lam: float | None = None,
) -> list[float]:
    """Monte-Carlo bit error rate across noise amplitudes.

    Each frame draws a random payload from a seed derived as seed + frame
    index, so results are reproducible and independent of evaluation
    order; the same per-frame noise realization is reused for every sigma
    (scaled draws) to keep the sweep comparable point to point.  Frames
    whose preamble cannot be found count all payload bits as errors.

    The Receiver is built once per call.  Each clean frame is the sum, in
    slot order, of per-slot pulses sampled once; each frame's noise is
    drawn once from seed [frame_seed, 1] (the add_noise contract) and
    scaled for every sigma.  The receiver decides the sigma rows of
    SWEEP_BLOCK_FRAMES frames at a time as one stack, through its
    window-sum map: one matrix product, no transform.  The rates are those
    of add_noise and detect applied frame by frame and sigma by sigma, up
    to the rounding of the window sums, which can flip only a decision
    whose window sum lies within that rounding of the threshold.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    if dt is None:
        dt = config.symbol_period / 100.0
    rate_floor = params.k_e if config.route is Route.INTRAVENOUS else min(params.require_k_a(), params.k_e)
    n_symbols = len(PREAMBLE) + payload_length
    horizon = n_symbols * config.symbol_period + 8.0 / rate_floor
    n = int(round(horizon / dt)) + 1
    sigmas = np.asarray(list(sigmas), dtype=float)

    def slot_pulse(event: DoseEvent) -> np.ndarray:
        one = DoseSchedule(events=(event,))
        pulse = sample(lambda t: superpose(params, config.route, one, t), 0.0, dt, n, SignalRole.CONCENTRATION)
        return pulse.samples

    pulses = [slot_pulse(event) for event in modulate_ook(frame((1,) * payload_length), config)]
    receiver = Receiver(params, config, dt, n, lam)

    def frame_rows(frame_seed: int, payload: np.ndarray) -> np.ndarray:
        clean = np.zeros(n)
        for bit, pulse in zip(frame(payload).bits, pulses):
            if bit:
                clean += pulse
        return _noisy_rows(clean, sigmas, spike_prob, spike_scale, [frame_seed, 1])

    k = len(sigmas)
    stack = np.empty((min(n_frames, SWEEP_BLOCK_FRAMES) * k, n))
    errors = np.zeros(k, dtype=int)
    for first in range(seed, seed + n_frames, SWEEP_BLOCK_FRAMES):
        frame_seeds = range(first, min(first + SWEEP_BLOCK_FRAMES, seed + n_frames))
        payloads = np.array([np.random.default_rng([s, 0]).integers(0, 2, payload_length) for s in frame_seeds])
        for j, (frame_seed, payload) in enumerate(zip(frame_seeds, payloads)):
            stack[j * k : (j + 1) * k] = frame_rows(frame_seed, payload)
        stats, starts = receiver.decide(stack[: len(frame_seeds) * k])
        decisions, held = receiver.payload_decisions(stats, starts, payload_length)
        wrong = np.count_nonzero(decisions != np.repeat(payloads, k, axis=0), axis=1)
        errors += np.where(held, wrong, payload_length).reshape(len(frame_seeds), k).sum(axis=0)
    return [int(e) / (n_frames * payload_length) for e in errors]
