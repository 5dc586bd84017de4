"""Drug-concentration signalling through one-compartment pharmacokinetics.

The package models the body (or its two-beaker hardware twin) as a linear
channel from dosing schedules to compartment concentration, and layers a
complete transmit/receive chain on top: on-off keying of bit frames into
dose trains, deconvolution-based detection, parameter estimation from
concentration curves, and scenario-driven CLI tooling.
"""

from .channel import (
    DoseEvent,
    DoseSchedule,
    Normalization,
    PkParams,
    Route,
    ev_concentration,
    frequency_response,
    impulse_response,
    iv_concentration,
    peak_time,
    superpose,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    DetectionError,
    DomainError,
    IllConditionedError,
    NumericError,
    PkLinkError,
    SynchronizationError,
    TruncationError,
    UsageError,
)
from .fitting import (
    ConcentrationSeries,
    FitResult,
    calibration_scale,
    fit_least_squares,
    fit_residuals,
)
from .modem import (
    PREAMBLE,
    REFERENCE_PAYLOAD,
    BitFrame,
    DetectionReport,
    ModulationConfig,
    PassivePill,
    PillCompartment,
    add_noise,
    ber,
    ber_sweep,
    detect,
    frame,
    modulate_ook,
    passive_pill_schedule,
)
from .scenarios import NoiseConfig, Scenario, builtin_scenarios, resolve_scenario
from .signals import (
    RationalResponse,
    SampledSignal,
    SignalRole,
    Spectrum,
    convolve,
    deconvolve,
    dose_rate_signal,
    integrate_ode,
    inverse_filter_iv,
    sample,
    sampled_kernel,
    spectrum,
)
from .testbed import (
    PlatformConfig,
    PlatformTrace,
    mass_audit,
    plan_flows,
    plan_volumes,
    simulate_platform,
)

__version__ = "0.1.0"
