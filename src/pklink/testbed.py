"""Hydraulic twin of the pharmacokinetic channel.

Two stirred vessels connected by constant-flow pumps reproduce the
compartment model: an administration vessel (volume V_a) drains into a
central vessel (volume V_b) at flow Q_a, and the central vessel drains to
waste at flow Q_e.  Matching a first-order rate k to a vessel means
choosing Q = k * V, so rate constants and hardware settings are two views
of the same design.  The waste stream carries no signal back, so total
mass splits exactly between the two vessels and the accumulated excreta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DoseSchedule, Route
from .errors import ConfigurationError, DomainError
from .signals import dose_rate_signal, rk4_linear, split_doses


@dataclass(frozen=True)
class PlatformConfig:
    """Pump flows (mL/s), vessel volumes (mL), and dosing route."""

    Q_a: float
    Q_e: float
    V_a: float
    V_b: float
    route: Route

    def __post_init__(self):
        _require_positive(("Q_a", "Q_e", "V_a", "V_b"), (self.Q_a, self.Q_e, self.V_a, self.V_b))
        if not isinstance(self.route, Route):
            raise DomainError(f"route must be a Route, got {self.route!r}")

    @property
    def absorption_rate(self) -> float:
        """Effective k_a realized by the hardware: Q_a / V_a."""
        return self.Q_a / self.V_a

    @property
    def elimination_rate(self) -> float:
        """Effective k_e realized by the hardware: Q_e / V_b."""
        return self.Q_e / self.V_b


@dataclass(frozen=True, eq=False)
class PlatformTrace:
    """Simulated vessel concentrations plus mass bookkeeping on a uniform grid.

    The trace holds read-only float arrays.  An array given writeable, such
    as a caller's own, is copied, so changing it later leaves the trace as
    it was; a read-only float array is held as it is.
    """

    t0: float
    dt: float
    c_a: np.ndarray
    c_b: np.ndarray
    excreta_mass: np.ndarray
    input_mass: np.ndarray
    config: PlatformConfig

    def __post_init__(self):
        n = len(self.c_a)
        for name in ("c_a", "c_b", "excreta_mass", "input_mass"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.flags.writeable:
                arr = arr.copy()
            if arr.ndim != 1 or arr.size != n:
                raise DomainError("trace arrays must be 1-D and equally long")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.c_a.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.c_a.size)


def _require_positive(names, values, what: str = "") -> None:
    for name, value in zip(names, values):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{what}{name} must be positive and finite, got {value}")


def plan_flows(k_a: float, k_e: float, V_a: float, V_b: float) -> tuple[float, float]:
    """Pump flows that realize the given rate constants in fixed vessels.

    A flow that overflows or underflows (not positive and finite) raises
    DomainError.
    """
    _require_positive(("k_a", "k_e", "V_a", "V_b"), (k_a, k_e, V_a, V_b))
    flows = k_a * V_a, k_e * V_b
    _require_positive(("Q_a", "Q_e"), flows, "planned ")
    return flows


def plan_volumes(k_a: float, k_e: float, Q: float) -> tuple[float, float]:
    """Vessel volumes that realize the given rate constants with one shared flow.

    A volume that overflows or underflows (not positive and finite) raises
    DomainError.
    """
    _require_positive(("k_a", "k_e", "Q"), (k_a, k_e, Q))
    volumes = Q / k_a, Q / k_e
    _require_positive(("V_a", "V_b"), volumes, "planned ")
    return volumes


def simulate_platform(
    config: PlatformConfig,
    schedule: DoseSchedule,
    dt: float,
    horizon: float,
) -> PlatformTrace:
    """Integrate the two-vessel hardware model with fixed-step RK4.

    Finite-duration doses are metered in as piecewise-constant rates held
    over whole steps (rendered by dose_rate_signal); impulsive doses are
    injected as instantaneous mass jumps at their nearest grid time.  The
    vessels and the excreta are three states of one linear system, solved
    by rk4_linear, the core and stability bound shared with integrate_ode.
    Excreta is integrated as its own state, not inferred from the other
    two, so mass_audit() verifies conservation strictly.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ConfigurationError(f"horizon {horizon} shorter than one step {dt}")

    infusions, jumps = split_doses(schedule, dt, n_steps)
    rate = dose_rate_signal(infusions, dt, n_steps).samples

    ra = config.absorption_rate
    re = config.elimination_rate
    M = [[-ra, 0.0, 0.0], [ra, -re, 0.0], [0.0, re, 0.0]]
    b = [1.0, 0.0, 0.0] if config.route is Route.EXTRAVASCULAR else [0.0, 1.0, 0.0]
    states = rk4_linear(M, b, dt, rate, jumps)
    states[0] /= config.V_a
    states[1] /= config.V_b
    # jumps becomes the mass delivered by each grid time
    jumps[1:] += dt * rate
    np.cumsum(jumps, out=jumps)
    # read-only, so the trace holds them without a copy
    states.setflags(write=False)
    jumps.setflags(write=False)
    c_a, c_b, excreta = states
    return PlatformTrace(t0=0.0, dt=dt, c_a=c_a, c_b=c_b, excreta_mass=excreta, input_mass=jumps, config=config)


def mass_audit(trace: PlatformTrace) -> float:
    """Worst-case relative mass-conservation residual over a trace.

    At every sample the mass held in both vessels plus the accumulated
    excreta must equal the mass delivered so far; the residual is scaled
    by the running input mass (with a 1e-12 floor so an all-zero trace
    audits cleanly).
    """
    held = trace.config.V_a * trace.c_a + trace.config.V_b * trace.c_b + trace.excreta_mass
    residual = np.abs(held - trace.input_mass)
    scale = np.maximum(trace.input_mass, 1e-12)
    return float(np.max(residual / scale))
