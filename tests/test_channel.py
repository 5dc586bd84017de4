"""Closed-form channel model: concentrations, peaks, superposition."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from pklink import channel
from pklink.channel import (
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
from pklink.cli import run_engine
from pklink.errors import ConfigurationError, DomainError
from pklink.scenarios import resolve_scenario

from conftest import BENCH_DOSE, rel_max

rates = st.floats(min_value=1e-6, max_value=1.0)
times = st.floats(min_value=0.0, max_value=1e5)


def test_iv_concentration_matches_closed_form(bench_iv_pk):
    # frozen: (130 / 649.0066225165563) * exp(-1.51e-3 * 600)
    got = iv_concentration(bench_iv_pk, BENCH_DOSE, 600.0)
    assert got == pytest.approx(0.08095122465941933, rel=1e-14)
    assert iv_concentration(bench_iv_pk, BENCH_DOSE, 0.0) == pytest.approx(
        0.2003061224489796, rel=1e-14
    )


def test_ev_concentration_matches_closed_form(bench_pk):
    # frozen: two-exponential value at t = 600 for the bench rates
    got = ev_concentration(bench_pk, BENCH_DOSE, 600.0)
    assert got == pytest.approx(0.09808661114599038, rel=1e-14)
    assert ev_concentration(bench_pk, BENCH_DOSE, 0.0) == 0.0


def test_ev_peak_time_matches_dense_argmax(bench_pk):
    tp = peak_time(bench_pk, Route.EXTRAVASCULAR)
    assert tp == pytest.approx(439.0229170922324, rel=1e-13)
    # independent check: argmax on a dense grid brackets the analytic peak
    grid = np.linspace(0.0, 2000.0, 200001)
    curve = ev_concentration(bench_pk, BENCH_DOSE, grid)
    assert abs(grid[np.argmax(curve)] - tp) <= 0.011
    assert ev_concentration(bench_pk, BENCH_DOSE, tp) == pytest.approx(
        0.10322614910900663, rel=1e-13
    )


def test_iv_peak_is_at_dose_time(bench_iv_pk):
    assert peak_time(bench_iv_pk, Route.INTRAVENOUS) == 0.0


def test_degenerate_peak_time():
    # at k_a == k_e == k the curve k t exp(-k t) peaks at 1 / k
    p = PkParams(k_e=2.0e-3, V=100.0, k_a=2.0e-3)
    assert peak_time(p, Route.EXTRAVASCULAR) == 500.0


def test_ev_curve_is_continuous_at_equal_rates():
    k = 2.0e-3
    exact = PkParams(k_e=k, V=100.0, k_a=k)
    nearby = PkParams(k_e=k, V=100.0, k_a=k * (1.0 + 2e-9))
    t = np.linspace(0.0, 5000.0, 401)
    a = ev_concentration(exact, 10.0, t)
    b = ev_concentration(nearby, 10.0, t)
    assert rel_max(a, b) < 1e-6


# k_a / k_e at, and from 1e-12 to 1e-6 away from, equal rates, where
# exp(-k_e t) - exp(-k_a t) cancels to the digits of k_a - k_e
NEAR_EQUAL_RATIOS = [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 5e-10, 1.0 + 2e-9, 1.0 - 2e-9,
                     1.0 + 1e-7, 1.0 - 1e-7, 1.0 + 1e-6, 1.0 - 1e-6]


def _near_equal_case(ratio):
    """(params, k_lo, delta, t) for k_e = 1.51e-3, k_a = ratio * k_e, on
    a grid over 40 time constants."""
    p = PkParams(k_e=1.51e-3, V=649.0, k_a=1.51e-3 * ratio, F=0.85)
    k_lo, delta = min(p.k_a, p.k_e), abs(p.k_a - p.k_e)
    return p, k_lo, delta, np.linspace(0.0, 40.0 / k_lo, 2001)


@pytest.mark.parametrize("ratio", NEAR_EQUAL_RATIOS)
def test_ev_curves_match_a_series_in_the_rate_spacing(ratio):
    # oracle: with x = delta t, (exp(-k_e t) - exp(-k_a t)) / (k_a - k_e)
    # is exp(-k_lo t) t sum_n (-x)^n / (n + 1)!, and x < 1e-4 here
    p, k_lo, delta, t = _near_equal_case(ratio)
    x = delta * t
    h = t * (1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0)
    impulse = p.F / p.V * p.k_a * np.exp(-k_lo * t) * h
    got = impulse_response(p, Route.EXTRAVASCULAR, t)
    assert np.max(np.abs(got - impulse)) <= 1e-15 * np.max(impulse)
    # the unit-rate step response integrates the impulse response term by
    # term: int_0^t exp(-k s) s^(n+1) / (n+1)! ds = P(n + 2, k t) / k^(n+2),
    # P the regularized lower incomplete gamma function: with y = k t,
    # P(m, y) = exp(-y) y^m / m! (1 + y / (m+1) + y^2 / ((m+1)(m+2)) + ...)
    # below y = m and 1 - exp(-y) (1 + y + ... + y^(m-1) / (m-1)!) above
    y = k_lo * t
    step = np.zeros_like(t)
    for n in range(3):
        m = n + 2
        term, rising = np.ones_like(y), np.ones_like(y)
        for i in range(1, 40):
            term *= y / (m + i)
            rising += term
        below = np.exp(-y) * y**m / math.factorial(m) * rising
        above = 1.0 - np.exp(-y) * sum(y**j / math.factorial(j) for j in range(m))
        step += (-delta) ** n * np.where(y < m, below, above) / k_lo**m
    step *= p.F / p.V * p.k_a
    got = channel._step_response_raw(p, Route.EXTRAVASCULAR, t)
    assert np.max(np.abs(got - step)) <= 1e-15 * p.F / (p.V * p.k_e)


@pytest.mark.parametrize("ratio", [1.0 + 2e-9, 1.0 - 2e-9])
def test_peak_time_near_equal_rates_matches_its_series(ratio):
    # ln(k_hi / k_lo) / delta = (1 - y/2 + y^2/3 - ...) / k_lo, y = delta / k_lo
    p, k_lo, delta, _ = _near_equal_case(ratio)
    y = delta / k_lo
    assert peak_time(p, Route.EXTRAVASCULAR) == pytest.approx((1.0 - y / 2.0 + y**2 / 3.0) / k_lo, rel=1e-14)


def test_flip_flop_rates_are_valid():
    p = PkParams(k_e=5.08e-4, V=202.0, k_a=1.69e-4)
    t = np.linspace(0.0, 40000.0, 101)
    c = ev_concentration(p, 522.0, t)
    assert np.all(c >= 0.0)
    assert c[10] > 0.0
    tp = peak_time(p, Route.EXTRAVASCULAR)
    assert tp > 0.0
    assert ev_concentration(p, 522.0, tp) >= np.max(c)


@settings(max_examples=50, deadline=None)
@given(k_a=rates, k_e=rates, t=times)
def test_rate_swap_scales_by_rate_ratio(k_a, k_e, t):
    # the two-exponential shape obeys C(k_a, k_e) = (k_a/k_e) * C(k_e, k_a)
    if abs(k_a - k_e) < 1e-6 * max(k_a, k_e):
        return
    a = ev_concentration(PkParams(k_e=k_e, V=50.0, k_a=k_a), 10.0, t)
    b = ev_concentration(PkParams(k_e=k_a, V=50.0, k_a=k_e), 10.0, t)
    assert a == pytest.approx((k_a / k_e) * b, rel=1e-9, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(k_a=rates, k_e=rates, f=st.floats(min_value=0.1, max_value=1.0), t=times)
def test_concentration_is_nonnegative(k_a, k_e, f, t):
    p = PkParams(k_e=k_e, V=50.0, k_a=k_a, F=f)
    assert iv_concentration(p, 10.0, t) >= 0.0
    assert ev_concentration(p, 10.0, t) >= 0.0


def test_parameter_validation():
    with pytest.raises(DomainError):
        PkParams(k_e=0.0, V=100.0)
    with pytest.raises(DomainError):
        PkParams(k_e=1e-3, V=-1.0)
    with pytest.raises(DomainError):
        PkParams(k_e=1e-3, V=100.0, F=0.0)
    with pytest.raises(DomainError):
        PkParams(k_e=1e-3, V=100.0, F=1.5)
    with pytest.raises(DomainError):
        PkParams(k_e=1e-3, V=100.0, k_a=math.inf)
    with pytest.raises(ConfigurationError):
        PkParams(k_e=1e-3, V=100.0).require_k_a()


def test_time_and_dose_validation(bench_pk):
    with pytest.raises(DomainError):
        iv_concentration(bench_pk, 10.0, -1.0)
    with pytest.raises(DomainError):
        ev_concentration(bench_pk, -10.0, 1.0)
    with pytest.raises(DomainError):
        impulse_response(bench_pk, Route.INTRAVENOUS, np.array([0.0, -2.0]))


def test_impulse_response_normalizations(bench_pk):
    t = np.linspace(0.0, 3000.0, 31)
    conc = impulse_response(bench_pk, Route.EXTRAVASCULAR, t)
    amount = impulse_response(bench_pk, Route.EXTRAVASCULAR, t, Normalization.AMOUNT)
    assert np.allclose(amount, conc * bench_pk.V, rtol=1e-14)
    # a unit intravenous dose starts as one unit of compartment mass
    assert impulse_response(bench_pk, Route.INTRAVENOUS, 0.0, Normalization.AMOUNT) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    k_e=st.floats(min_value=1e-5, max_value=1e-1),
    ratio=st.one_of(
        st.floats(min_value=1e-2, max_value=1e2),  # k_a < k_e is the flip-flop case
        st.sampled_from([1.0 - 2e-9, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 2e-9]),  # near k_a == k_e
    ),
    F=st.floats(min_value=0.05, max_value=1.0),
)
def test_dc_response_equals_impulse_area(k_e, ratio, F):
    p = PkParams(k_e=k_e, V=649.0, k_a=k_e * ratio, F=F)
    for route, gain in ((Route.INTRAVENOUS, 1.0), (Route.EXTRAVASCULAR, F)):
        # the intravenous route bypasses absorption, so F does not scale it
        dc = frequency_response(p, route, 0.0)
        assert dc.imag == 0.0
        assert dc.real == pytest.approx(gain / (p.V * k_e), rel=1e-14)
        # integrate over s = slow * t, in which the slower decay has unit rate
        slow = min(k_e, p.k_a)
        area, _ = scipy.integrate.quad(
            lambda s: impulse_response(p, route, s / slow), 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200
        )
        assert area / slow == pytest.approx(dc.real, rel=1e-9)


def test_superpose_impulses_add_shifted_responses(bench_pk):
    schedule = DoseSchedule(
        events=(DoseEvent(time=100.0, mass=40.0), DoseEvent(time=700.0, mass=90.0))
    )
    t = np.linspace(0.0, 5000.0, 501)
    got = superpose(bench_pk, Route.EXTRAVASCULAR, schedule, t)
    expect = np.zeros_like(t)
    for start, mass in ((100.0, 40.0), (700.0, 90.0)):
        live = t >= start
        expect[live] += mass * impulse_response(bench_pk, Route.EXTRAVASCULAR, t[live] - start)
    assert rel_max(got, expect) < 1e-14


def test_superpose_finite_dose_matches_quadrature(bench_pk):
    # oracle: C(t) = rate * integral of the impulse response over the
    # active lag window, evaluated with adaptive quadrature
    event = DoseEvent(time=200.0, mass=130.0, duration=100.0)
    schedule = DoseSchedule(events=(event,))
    for t in (250.0, 300.0, 900.0, 4000.0):
        lo = max(0.0, t - event.end)
        hi = t - event.time
        if hi <= 0:
            continue
        oracle, err = scipy.integrate.quad(
            lambda tau: impulse_response(bench_pk, Route.EXTRAVASCULAR, tau),
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        oracle *= event.rate
        got = superpose(bench_pk, Route.EXTRAVASCULAR, schedule, t)
        assert got == pytest.approx(oracle, rel=1e-9)


def test_superpose_scalar_matches_array(bench_pk):
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=130.0, duration=30.0),))
    t = np.array([0.0, 15.0, 30.0, 500.0])
    arr = superpose(bench_pk, Route.INTRAVENOUS, schedule, t)
    for i, ti in enumerate(t):
        assert superpose(bench_pk, Route.INTRAVENOUS, schedule, float(ti)) == arr[i]


def _superpose_per_event(params, route, schedule, t):
    """superpose as one clipped evaluation per edge: the oracle for reuse."""
    arr, scalar = channel._as_times(t)
    channel._check_nonnegative_times(arr)
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr, dtype=float)
    for event in schedule:
        if event.mass == 0.0:
            continue
        if event.duration == 0.0:
            tau = arr - event.time
            live = tau >= 0
            if np.any(live):
                out[live] += event.mass * impulse_response(params, route, tau[live])
        else:
            rate = event.rate
            tau_on = np.clip(arr - event.time, 0.0, None)
            tau_off = np.clip(arr - event.end, 0.0, None)
            step_on = channel._step_response_raw(params, route, tau_on)
            out += rate * (step_on - channel._step_response_raw(params, route, tau_off))
    return float(out[0]) if scalar else out


@st.composite
def _kinetics(draw):
    k_e = draw(st.floats(1e-5, 1e-1))
    V = draw(st.floats(1.0, 1e4))
    kind = draw(st.sampled_from(["iv", "ev", "flip-flop", "near-confluent"]))
    if kind == "iv":
        return PkParams(k_e=k_e, V=V), Route.INTRAVENOUS
    k_a = {
        "ev": k_e * draw(st.floats(1.1, 30.0)),
        "flip-flop": k_e / draw(st.floats(1.1, 30.0)),
        "near-confluent": k_e * (1.0 + draw(st.sampled_from([-1e-10, 1e-10]))),
    }[kind]
    return PkParams(k_e=k_e, V=V, k_a=k_a, F=draw(st.floats(0.1, 1.0))), Route.EXTRAVASCULAR


@st.composite
def _dosed_grids(draw):
    """(schedule, t): doses on and off the grid t = dt*k, some starting
    after its last sample, with t sorted, shuffled or one scalar."""
    dt = draw(st.sampled_from([0.25, 0.5, 1.0, 5.0, 12.0, 0.1, 0.3, 7.0 / 3.0]))
    n = draw(st.integers(1, 300))
    events = []
    for _ in range(draw(st.integers(1, 11))):
        on_grid = st.integers(0, n + 20).map(lambda k: dt * k)
        time = draw(on_grid | st.floats(0.0, dt * (n + 20)))
        duration = draw(st.just(0.0) | st.integers(1, 40).map(lambda k: dt * k) | st.floats(0.01, 100.0))
        mass = draw(st.just(0.0) | st.floats(0.01, 500.0))
        events.append(DoseEvent(time=time, mass=mass, duration=duration))
    t = dt * np.arange(n)
    order = draw(st.sampled_from(["sorted", "shuffled", "scalar"]))
    if order == "shuffled":
        t = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(t)
    elif order == "scalar":
        t = float(t[draw(st.integers(0, n - 1))])
    return DoseSchedule(events=tuple(events)), t


@settings(max_examples=100, deadline=None)
@given(kinetics=_kinetics(), case=_dosed_grids())
def test_superpose_equals_the_per_event_loop_bitwise(kinetics, case):
    params, route = kinetics
    schedule, t = case
    got = superpose(params, route, schedule, t)
    expect = _superpose_per_event(params, route, schedule, t)
    assert type(got) is type(expect)
    assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()


def test_superpose_evaluates_a_grid_aligned_frame_once(monkeypatch):
    scenario = resolve_scenario("link-ev")
    schedule = scenario.schedule()
    assert len(schedule) > 1 and all(e.duration > 0 for e in schedule)
    calls = []
    step_response = channel._step_response_raw

    def counted(params, route, t):
        calls.append(len(t))
        return step_response(params, route, t)

    monkeypatch.setattr(channel, "_step_response_raw", counted)
    run_engine(scenario, "analytic")
    assert calls == [scenario.grid_size()]


def test_dose_event_rate_and_end():
    e = DoseEvent(time=10.0, mass=50.0, duration=25.0)
    assert e.rate == 2.0
    assert e.end == 35.0
    with pytest.raises(DomainError):
        DoseEvent(time=0.0, mass=1.0).rate
    with pytest.raises(DomainError):
        DoseEvent(time=-1.0, mass=1.0)
    with pytest.raises(DomainError):
        DoseEvent(time=0.0, mass=-1.0)


def test_schedule_orders_events_and_totals():
    s = DoseSchedule(
        events=(
            DoseEvent(time=500.0, mass=2.0),
            DoseEvent(time=100.0, mass=3.0, duration=60.0),
        )
    )
    assert [e.time for e in s] == [100.0, 500.0]
    assert s.total_mass == 5.0
    assert s.end_time == 500.0
    assert len(s) == 2
    assert DoseSchedule().end_time == 0.0
