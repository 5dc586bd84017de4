"""On-off-keyed transmission of bits through the pharmacokinetic channel.

A frame is a fixed three-one preamble followed by the payload.  Each 1-bit
releases one dose at the start of its symbol slot, either as an ideal
impulse or as a constant-rate pump pulse.  The receiver deconvolves the
concentration signal back to a mass-rate estimate, integrates the
recovered mass per symbol window, locates the preamble, and thresholds
each window against a fraction of the per-symbol dose.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .channel import DoseEvent, DoseSchedule, PkParams, Route, superpose
from .errors import (
    ConfigurationError,
    DomainError,
    SynchronizationError,
    TruncationError,
)
from .signals import SampledSignal, SignalRole, deconvolve, sample, sampled_kernel

PREAMBLE = (1, 1, 1)

# Canonical loopback payload: every ordered pair of adjacent bits occurs.
REFERENCE_PAYLOAD = (0, 1, 0, 1, 0, 0, 1, 1)


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
    be negative.  Draw order is fixed (normals, uniforms, exponentials) so
    a seed fully determines the output, and scaling by sigma / spike_scale
    happens after drawing so different amplitudes share the same underlying
    realization for a given seed.
    """
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if not (0.0 <= spike_prob <= 1.0):
        raise DomainError(f"spike_prob must lie in [0, 1], got {spike_prob}")
    if spike_scale < 0:
        raise DomainError(f"spike_scale must be >= 0, got {spike_scale}")
    rng = np.random.default_rng(seed)
    n = len(x)
    gauss = rng.standard_normal(n) * sigma
    spike_at = rng.random(n) < spike_prob
    spikes = rng.exponential(1.0, n) * spike_scale
    noisy = x.samples + gauss + np.where(spike_at, spikes, 0.0)
    return SampledSignal(t0=x.t0, dt=x.dt, samples=np.clip(noisy, 0.0, None), role=x.role)


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Receiver output: recovered payload plus per-symbol evidence."""

    payload_bits: tuple[int, ...]
    statistics: tuple[float, ...]  # recovered mass per frame symbol window, mg
    frame_start: float
    threshold: float
    symbol_period: float
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

    def to_csv(self, target):
        """Per-symbol rows followed by a one-row summary section.

        target is a file path or an open text handle, which is left open.
        """
        is_handle = hasattr(target, "write")
        with contextlib.nullcontext(target) if is_handle else open(target, "w", newline="") as fh:
            fh.write("symbol,statistic,decision\n")
            for i, (stat, dec) in enumerate(zip(self.statistics, self.decisions)):
                fh.write(f"{i},{float(stat)!r},{dec}\n")
            fh.write("frame_start,threshold,errors,ber\n")
            errors = "" if self.errors is None else str(self.errors)
            ber_val = self.ber
            ber_txt = "" if ber_val is None else repr(float(ber_val))
            fh.write(f"{float(self.frame_start)!r},{float(self.threshold)!r},{errors},{ber_txt}\n")


def detect(
    received: SampledSignal,
    params: PkParams,
    config: ModulationConfig,
    threshold_fraction: float = 0.5,
    payload_length: int | None = None,
    lam: float | None = None,
    reference=None,
) -> DetectionReport:
    """Demodulate a received concentration signal.

    Steps: deconvolve with the channel kernel to estimate the transmitted
    mass rate, integrate recovered mass over each symbol window, find the
    first window above threshold_fraction * dose_mass and verify the three
    consecutive preamble windows, then threshold the payload windows.
    Windows are aligned to the sample grid, so the sample step must divide
    the symbol period.  With payload_length given, a signal ending before
    the payload completes raises a truncation error; otherwise every full
    window after the preamble is decoded.
    """
    if not (0.0 < threshold_fraction < 1.0):
        raise DomainError(f"threshold_fraction must lie in (0, 1), got {threshold_fraction}")
    dt = received.dt
    w = int(round(config.symbol_period / dt))
    if w < 1 or abs(w * dt - config.symbol_period) > 1e-9 * config.symbol_period:
        raise ConfigurationError(
            f"sample step {dt} does not divide the symbol period {config.symbol_period}"
        )
    kernel = sampled_kernel(params, config.route, dt, len(received))
    recovered = deconvolve(received, kernel, method="frequency", lam=lam, output_length=len(received))

    n_windows = len(received) // w
    if n_windows < len(PREAMBLE):
        raise SynchronizationError("signal is shorter than the preamble")
    windowed = recovered.samples[: n_windows * w].reshape(n_windows, w)
    stats = windowed.sum(axis=1) * dt
    threshold = threshold_fraction * config.dose_mass

    start = None
    above = stats > threshold
    for k in range(n_windows - len(PREAMBLE) + 1):
        if above[k] and above[k + 1] and above[k + 2]:
            start = k
            break
    if start is None:
        raise SynchronizationError("no preamble found above threshold")

    available = n_windows - start - len(PREAMBLE)
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

    frame_stats = stats[start : start + len(PREAMBLE) + n_payload]
    payload_bits = tuple(int(s > threshold) for s in frame_stats[len(PREAMBLE) :])
    errors = None
    if reference is not None:
        checked = _check_bits(reference)
        if len(checked) != len(payload_bits):
            raise DomainError(f"reference has {len(checked)} bits, recovered {len(payload_bits)}")
        errors = sum(1 for x, y in zip(checked, payload_bits) if x != y)
    return DetectionReport(
        payload_bits=payload_bits,
        statistics=tuple(float(s) for s in frame_stats),
        frame_start=received.t0 + start * w * dt,
        threshold=threshold,
        symbol_period=config.symbol_period,
        recovered=recovered,
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
    tail: float | None = None,
    threshold_fraction: float = 0.5,
    lam: float | None = None,
) -> list[float]:
    """Monte-Carlo bit error rate across noise amplitudes.

    Each frame draws a random payload from a seed derived as seed + frame
    index, so results are reproducible and independent of evaluation
    order; the same per-frame noise realization is reused for every sigma
    (scaled draws) to keep the sweep comparable point to point.  Frames
    whose preamble cannot be found count all payload bits as errors.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    if dt is None:
        dt = config.symbol_period / 100.0
    rate_floor = params.k_e if config.route is Route.INTRAVENOUS else min(params.require_k_a(), params.k_e)
    if tail is None:
        tail = 8.0 / rate_floor
    n_symbols = len(PREAMBLE) + payload_length
    horizon = n_symbols * config.symbol_period + tail
    n = int(round(horizon / dt)) + 1

    frames = []
    for i in range(n_frames):
        frame_seed = seed + i
        payload = tuple(int(b) for b in np.random.default_rng([frame_seed, 0]).integers(0, 2, payload_length))
        schedule = modulate_ook(frame(payload), config)
        clean = sample(
            lambda t: superpose(params, config.route, schedule, t),
            0.0,
            dt,
            n,
            SignalRole.CONCENTRATION,
        )
        frames.append((frame_seed, payload, clean))

    rates = []
    for sigma in sigmas:
        errors = 0
        for frame_seed, payload, clean in frames:
            noisy = add_noise(clean, sigma, spike_prob, spike_scale, seed=[frame_seed, 1])
            try:
                report = detect(
                    noisy,
                    params,
                    config,
                    threshold_fraction=threshold_fraction,
                    payload_length=payload_length,
                    lam=lam,
                    reference=payload,
                )
                errors += report.errors
            except (SynchronizationError, TruncationError):
                errors += payload_length
        rates.append(errors / (n_frames * payload_length))
    return rates
