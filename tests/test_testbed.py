"""Two-vessel hardware twin: planning, simulation, mass accounting."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pklink.channel import DoseEvent, DoseSchedule, PkParams, Route
from pklink.errors import ConfigurationError, DomainError
from pklink.signals import SampledSignal, SignalRole, dose_rate_signal, integrate_ode
from pklink.testbed import (
    PlatformConfig,
    mass_audit,
    plan_flows,
    plan_volumes,
    simulate_platform,
)

from conftest import BENCH_DOSE, BENCH_FLOW, BENCH_K_A, BENCH_K_E, rel_max


def test_plan_flows_human_scale_reference():
    # published human-scale pairing: both pumps land on 0.1025 mL/s
    q_a, q_e = plan_flows(2.89e-4, 4.47e-5, 355.0, 2292.0)
    assert q_a == pytest.approx(0.102595, rel=1e-12)
    assert q_e == pytest.approx(0.1024524, rel=1e-12)
    assert q_a == pytest.approx(0.1025, rel=5e-3)
    assert q_e == pytest.approx(0.1025, rel=5e-3)


def test_plan_volumes_rat_scale_reference():
    # published rat-scale pairing: one shared 0.1025 mL/s pump
    v_a, v_b = plan_volumes(1.69e-4, 5.08e-4, 0.1025)
    assert v_a == pytest.approx(606.508875739645, rel=1e-12)
    assert v_b == pytest.approx(201.77165354330708, rel=1e-12)
    assert v_a == pytest.approx(605.0, rel=1e-2)
    assert v_b == pytest.approx(202.0, rel=1e-2)


def test_planning_round_trip_recovers_rates():
    q_a, q_e = plan_flows(BENCH_K_A, BENCH_K_E, 120.0, 480.0)
    assert q_a / 120.0 == pytest.approx(BENCH_K_A, rel=1e-15)
    assert q_e / 480.0 == pytest.approx(BENCH_K_E, rel=1e-15)
    v_a, v_b = plan_volumes(BENCH_K_A, BENCH_K_E, BENCH_FLOW)
    assert BENCH_FLOW / v_a == pytest.approx(BENCH_K_A, rel=1e-15)
    assert BENCH_FLOW / v_b == pytest.approx(BENCH_K_E, rel=1e-15)


def test_planning_rejects_nonpositive_inputs():
    with pytest.raises(DomainError):
        plan_flows(0.0, 1e-3, 100.0, 100.0)
    with pytest.raises(DomainError):
        plan_volumes(1e-3, 1e-3, -1.0)
    with pytest.raises(DomainError):
        PlatformConfig(Q_a=1.0, Q_e=0.0, V_a=10.0, V_b=10.0, route=Route.INTRAVENOUS)
    with pytest.raises(DomainError):
        PlatformConfig(Q_a=1.0, Q_e=1.0, V_a=10.0, V_b=10.0, route="iv")


def _bench_config(route):
    v_a, v_b = plan_volumes(BENCH_K_A, BENCH_K_E, BENCH_FLOW)
    return PlatformConfig(Q_a=BENCH_FLOW, Q_e=BENCH_FLOW, V_a=v_a, V_b=v_b, route=route)


def test_config_realizes_planned_rates():
    config = _bench_config(Route.EXTRAVASCULAR)
    assert config.absorption_rate == pytest.approx(BENCH_K_A, rel=1e-14)
    assert config.elimination_rate == pytest.approx(BENCH_K_E, rel=1e-14)


def test_platform_matches_rate_equation_integration():
    # the hardware equations and the rate-constant equations are the same
    # system, so the two integrators must agree to rounding error
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=BENCH_DOSE, duration=30.0),))
    dt, horizon = 1.0, 6000.0
    n = int(horizon / dt) + 1
    for route in (Route.INTRAVENOUS, Route.EXTRAVASCULAR):
        config = _bench_config(route)
        pk = PkParams(k_e=config.elimination_rate, V=config.V_b, k_a=config.absorption_rate)
        trace = simulate_platform(config, schedule, dt, horizon)
        ode = integrate_ode(pk, route, dose_rate_signal(schedule, dt, n), horizon)
        assert rel_max(trace.c_b, ode.samples) < 1e-12


def test_mass_audit_on_pump_dosing():
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=BENCH_DOSE, duration=30.0),))
    trace = simulate_platform(_bench_config(Route.EXTRAVASCULAR), schedule, 1.0, 8000.0)
    assert mass_audit(trace) < 1e-9


def test_mass_audit_on_impulsive_dosing():
    schedule = DoseSchedule(
        events=(DoseEvent(time=1000.0, mass=70.0), DoseEvent(time=1000.0, mass=20.0))
    )
    config = _bench_config(Route.EXTRAVASCULAR)
    trace = simulate_platform(config, schedule, 1.0, 5000.0)
    assert mass_audit(trace) < 1e-9
    # the dose lands in the administration vessel as one concentration jump
    i = 1000
    assert trace.c_a[i] - trace.c_a[i - 1] == pytest.approx(90.0 / config.V_a, rel=1e-9)
    iv_trace = simulate_platform(_bench_config(Route.INTRAVENOUS), schedule, 1.0, 5000.0)
    assert iv_trace.c_a[i] == 0.0
    assert iv_trace.c_b[i] - iv_trace.c_b[i - 1] >= 90.0 / config.V_b * 0.99


def test_excreta_never_decreases():
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=BENCH_DOSE, duration=30.0),))
    trace = simulate_platform(_bench_config(Route.EXTRAVASCULAR), schedule, 1.0, 8000.0)
    assert np.all(np.diff(trace.excreta_mass) >= 0.0)
    assert trace.excreta_mass[-1] > 0.9 * BENCH_DOSE * (1 - np.exp(-BENCH_K_E * 8000.0))


def test_doubling_the_dose_doubles_the_trace_exactly():
    base = DoseSchedule(events=(DoseEvent(time=0.0, mass=65.0, duration=30.0),))
    double = DoseSchedule(events=(DoseEvent(time=0.0, mass=130.0, duration=30.0),))
    config = _bench_config(Route.EXTRAVASCULAR)
    a = simulate_platform(config, base, 1.0, 4000.0)
    b = simulate_platform(config, double, 1.0, 4000.0)
    assert np.array_equal(b.c_a, 2.0 * a.c_a)
    assert np.array_equal(b.c_b, 2.0 * a.c_b)
    assert np.array_equal(b.excreta_mass, 2.0 * a.excreta_mass)


def test_simulation_guards():
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=10.0),))
    config = _bench_config(Route.EXTRAVASCULAR)
    with pytest.raises(ConfigurationError):
        simulate_platform(config, schedule, 100.0, 10000.0)  # unstable step
    with pytest.raises(ConfigurationError):
        simulate_platform(config, schedule, 1.0, 0.5)  # shorter than one step
    late = DoseSchedule(events=(DoseEvent(time=9000.0, mass=10.0),))
    with pytest.raises(ConfigurationError):
        simulate_platform(config, late, 1.0, 5000.0)


def test_empty_schedule_audits_cleanly():
    trace = simulate_platform(_bench_config(Route.INTRAVENOUS), DoseSchedule(), 1.0, 100.0)
    assert mass_audit(trace) == 0.0
    assert np.all(trace.c_b == 0.0)


def _rk4_reference(M, b, dt, u, jumps):
    """Generic classical RK4 step loop for x' = M x + b u, jumps added along b."""
    M = np.asarray(M)
    b = np.asarray(b)
    x = b * jumps[0]
    states = [x]
    for i, ui in enumerate(u):
        k1 = M @ x + b * ui
        k2 = M @ (x + 0.5 * dt * k1) + b * ui
        k3 = M @ (x + 0.5 * dt * k2) + b * ui
        k4 = M @ (x + dt * k3) + b * ui
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) + b * jumps[i + 1]
        states.append(x)
    return np.array(states).T


N_STEPS = 300

# a dose is (start step, mass, duration in steps); duration 0 is an impulse
doses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.1, max_value=100.0),
        st.sampled_from([0, 0, 1, 7, 40]),
    ),
    min_size=1,
    max_size=5,
)


# dt is a power of two so that k = (k*dt)/dt gives back k*dt exactly and
# k*dt = 0.1 sits on the stability bound, not just past it
@settings(max_examples=40, deadline=None)
@given(
    ka_dt=st.floats(min_value=1e-3, max_value=0.1),
    ke_dt=st.floats(min_value=1e-3, max_value=0.1),
    confluent=st.booleans(),
    dt=st.sampled_from([0.25, 1.0, 4.0]),
    route=st.sampled_from(list(Route)),
    spec=doses,
)
@example(ka_dt=0.1, ke_dt=0.1, confluent=True, dt=4.0, route=Route.EXTRAVASCULAR, spec=[(0, 10.0, 0), (3, 5.0, 7)])
@example(ka_dt=1e-3, ke_dt=0.1, confluent=False, dt=1.0, route=Route.EXTRAVASCULAR, spec=[(10, 1.0, 40)])
def test_engines_match_a_generic_rk4_loop(ka_dt, ke_dt, confluent, dt, route, spec):
    k_a, k_e = ka_dt / dt, (ka_dt if confluent else ke_dt) / dt
    schedule = DoseSchedule(events=tuple(DoseEvent(i * dt, m, d * dt) for i, m, d in spec))
    double = DoseSchedule(events=tuple(DoseEvent(e.time, 2.0 * e.mass, e.duration) for e in schedule))
    horizon = N_STEPS * dt

    # the ODE engine takes every dose as a rate; impulses fill one step
    pk = PkParams(k_e=k_e, V=80.0, k_a=k_a, F=0.7)
    if route is Route.INTRAVENOUS:
        M, b = [[-k_e]], [1.0]
    else:
        M, b = [[-k_a, 0.0], [k_a, -k_e]], [pk.F, 0.0]
    rate = dose_rate_signal(schedule, dt, N_STEPS + 1)
    ode = integrate_ode(pk, route, rate, horizon).samples
    ref = _rk4_reference(M, b, dt, rate.samples[:N_STEPS], np.zeros(N_STEPS + 1))[-1] / pk.V
    assert rel_max(ode, ref) < 1e-12
    ode2 = integrate_ode(pk, route, dose_rate_signal(double, dt, N_STEPS + 1), horizon).samples
    assert np.array_equal(ode2, 2.0 * ode)

    # the twin takes impulses as jumps and infusions as rates
    config = PlatformConfig(Q_a=k_a * 30.0, Q_e=k_e * 50.0, V_a=30.0, V_b=50.0, route=route)
    ra, re = config.absorption_rate, config.elimination_rate
    jumps = np.zeros(N_STEPS + 1)
    infusions = np.zeros(N_STEPS)
    for i, m, d in spec:
        if d == 0:
            jumps[i] += m
        else:
            infusions[i : i + d] += m / (d * dt)
    entry = [1.0, 0.0, 0.0] if route is Route.EXTRAVASCULAR else [0.0, 1.0, 0.0]
    M3 = [[-ra, 0.0, 0.0], [ra, -re, 0.0], [0.0, re, 0.0]]
    ref = _rk4_reference(M3, entry, dt, infusions, jumps)
    trace = simulate_platform(config, schedule, dt, horizon)
    assert rel_max(trace.c_b, ref[1] / config.V_b) < 1e-12
    assert mass_audit(trace) < 1e-9
    trace2 = simulate_platform(config, double, dt, horizon)
    assert np.array_equal(trace2.c_a, 2.0 * trace.c_a)
    assert np.array_equal(trace2.c_b, 2.0 * trace.c_b)
    assert np.array_equal(trace2.excreta_mass, 2.0 * trace.excreta_mass)
