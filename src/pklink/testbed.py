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
from .signals import dose_rate_signal, rk4_linear


@dataclass(frozen=True)
class PlatformConfig:
    """Pump flows (mL/s), vessel volumes (mL), and dosing route."""

    Q_a: float
    Q_e: float
    V_a: float
    V_b: float
    route: Route

    def __post_init__(self):
        for name in ("Q_a", "Q_e", "V_a", "V_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite, got {value}")
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
    """Simulated vessel concentrations plus mass bookkeeping on a uniform grid."""

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
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size != n:
                raise DomainError("trace arrays must be 1-D and equally long")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.c_a.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.c_a.size)


def plan_flows(k_a: float, k_e: float, V_a: float, V_b: float) -> tuple[float, float]:
    """Pump flows that realize the given rate constants in fixed vessels."""
    for name, value in (("k_a", k_a), ("k_e", k_e), ("V_a", V_a), ("V_b", V_b)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")
    return k_a * V_a, k_e * V_b


def plan_volumes(k_a: float, k_e: float, Q: float) -> tuple[float, float]:
    """Vessel volumes that realize the given rate constants with one shared flow."""
    for name, value in (("k_a", k_a), ("k_e", k_e), ("Q", Q)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")
    return Q / k_a, Q / k_e


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

    doses = [event for event in schedule if event.mass > 0.0]
    jumps = np.zeros(n_steps + 1)
    for event in doses:
        if event.duration == 0.0:
            idx = int(round(event.time / dt))
            if not (0 <= idx <= n_steps):
                raise ConfigurationError(f"dose at t={event.time} falls outside the horizon")
            jumps[idx] += event.mass
    infusions = DoseSchedule(events=tuple(event for event in doses if event.duration > 0.0))
    rate = dose_rate_signal(infusions, dt, n_steps).samples

    ra = config.absorption_rate
    re = config.elimination_rate
    M = [[-ra, 0.0, 0.0], [ra, -re, 0.0], [0.0, re, 0.0]]
    b = [1.0, 0.0, 0.0] if config.route is Route.EXTRAVASCULAR else [0.0, 1.0, 0.0]
    a, central, excreta = rk4_linear(M, b, dt, rate, jumps)
    delivered = jumps.copy()
    delivered[1:] += dt * rate

    return PlatformTrace(
        t0=0.0,
        dt=dt,
        c_a=a / config.V_a,
        c_b=central / config.V_b,
        excreta_mass=excreta,
        input_mass=np.cumsum(delivered),
        config=config,
    )


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
