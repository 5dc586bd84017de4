"""Sampled signals: convolution, deconvolution, integration, spectra."""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pklink.channel import (
    DoseEvent,
    DoseSchedule,
    PkParams,
    Route,
    impulse_response,
    superpose,
)
from pklink.errors import (
    ConfigurationError,
    DomainError,
    IllConditionedError,
)
from pklink.scenarios import MAX_GRID_SAMPLES
from pklink.signals import (
    MAX_FFT_SIZE,
    SCAN_BLOCK,
    SampledSignal,
    SignalRole,
    Spectrum,
    TikhonovSolve,
    convolve,
    deconvolve,
    dose_rate_signal,
    first_order_scan,
    integrate_ode,
    inverse_filter_iv,
    next_fast_len,
    sample,
    sampled_kernel,
    spectrum,
)

from conftest import BENCH_DOSE, rel_max


def _plain_iv_kernel(pk, dt, n):
    return sample(lambda t: impulse_response(pk, Route.INTRAVENOUS, t), 0.0, dt, n)


def test_signal_validation():
    with pytest.raises(DomainError):
        SampledSignal(t0=0.0, dt=0.0, samples=np.ones(3), role=SignalRole.MASS)
    with pytest.raises(DomainError):
        SampledSignal(t0=0.0, dt=1.0, samples=np.array([1.0, np.nan]), role=SignalRole.MASS)
    with pytest.raises(DomainError):
        SampledSignal(t0=0.0, dt=1.0, samples=np.array([]), role=SignalRole.MASS)
    x = SampledSignal(t0=2.0, dt=0.5, samples=np.arange(5.0), role=SignalRole.MASS)
    assert x.end_time == 4.0
    assert np.array_equal(x.times, [2.0, 2.5, 3.0, 3.5, 4.0])
    assert x.energy() == pytest.approx(0.5 * np.sum(np.arange(5.0) ** 2))


def test_sample_propagates_errors_of_vectorized_callables():
    # sample calls f once, on the whole grid; a ValueError from a branch on
    # an array is a bug in the callable and must surface, even though each
    # point would pass
    def scalar_branch(t):
        return 0.0 if t < 1.0 else math.exp(-t)

    with pytest.raises(ValueError, match="ambiguous"):
        sample(scalar_branch, 0.0, 0.5, 20)
    # a scalar-only callable fails on the grid, and a single value for the
    # whole grid is refused
    with pytest.raises(TypeError):
        sample(math.exp, 0.0, 0.5, 20)
    with pytest.raises(DomainError, match="shape"):
        sample(lambda t: 1.0, 0.0, 0.5, 20)


def test_sampled_kernel_uses_midpoint_taps(bench_pk):
    dt = 2.0
    k = sampled_kernel(bench_pk, Route.EXTRAVASCULAR, dt, 6)
    assert k.samples[0] == 0.0
    for j in range(1, 6):
        expect = impulse_response(bench_pk, Route.EXTRAVASCULAR, (j - 0.5) * dt)
        assert k.samples[j] == pytest.approx(expect, rel=1e-14)
    assert k.role is SignalRole.CONCENTRATION


def test_kernel_convolution_tracks_analytic_superposition(bench_pk):
    # a held pump pulse pushed through the sampled kernel must match the
    # exact rectangular-infusion solution on the same grid
    dt, n = 1.0, 8001
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=BENCH_DOSE, duration=30.0),))
    rate = dose_rate_signal(schedule, dt, n)
    kernel = sampled_kernel(bench_pk, Route.EXTRAVASCULAR, dt, n)
    numeric = convolve(rate, kernel).samples[:n]
    exact = sample(
        lambda t: superpose(bench_pk, Route.EXTRAVASCULAR, schedule, t), 0.0, dt, n
    ).samples
    assert rel_max(numeric, exact) < 5e-6


def test_convolve_offsets_roles_and_grid(bench_pk):
    x = SampledSignal(t0=2.0, dt=0.5, samples=np.ones(4), role=SignalRole.MASS_RATE)
    h = SampledSignal(t0=1.0, dt=0.5, samples=np.array([1.0, 0.5]), role=SignalRole.CONCENTRATION)
    y = convolve(x, h)
    assert y.t0 == 3.0
    assert len(y) == 5
    assert y.role is SignalRole.CONCENTRATION
    assert convolve(h, x).role is SignalRole.CONCENTRATION
    bad = SampledSignal(t0=0.0, dt=0.25, samples=np.ones(4), role=SignalRole.MASS_RATE)
    with pytest.raises(ConfigurationError):
        convolve(bad, h)


def test_direct_and_fft_convolution_agree():
    rng = np.random.default_rng(3)
    x = SampledSignal(0.0, 1.0, rng.standard_normal(12000), SignalRole.MASS_RATE)
    h = SampledSignal(0.0, 1.0, rng.standard_normal(6000), SignalRole.CONCENTRATION)
    fft_out = convolve(x, h).samples
    direct = np.convolve(x.samples, h.samples) * x.dt  # the direct sum, as reference
    assert rel_max(fft_out, direct) < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    n_x=st.integers(min_value=1, max_value=20000),
    n_h=st.integers(min_value=1, max_value=20000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fft_convolution_matches_fftconvolve(n_x, n_h, seed):
    rng = np.random.default_rng(seed)
    x = SampledSignal(0.0, 0.5, rng.standard_normal(n_x), SignalRole.MASS_RATE)
    h = SampledSignal(0.0, 0.5, rng.random(n_h), SignalRole.CONCENTRATION)
    expect = scipy.signal.fftconvolve(x.samples, h.samples) * x.dt
    assert rel_max(convolve(x, h).samples, expect) < 1e-12


def test_next_fast_len_matches_scipy():
    # The even 2-3-5-smooth sizes >= n are twice scipy's real-transform
    # (2-3-5-smooth) sizes >= ceil(n / 2).
    expect = [2 * scipy.fft.next_fast_len(-(-n // 2), real=True) for n in range(1, 20001)]
    assert [next_fast_len(n) for n in range(1, 20001)] == expect
    with pytest.raises(DomainError):
        next_fast_len(0)


def _smooth_mask(lo: int, hi: int) -> np.ndarray:
    """Which of lo..hi-1 are even with no prime factor but 2, 3 and 5: each
    prime is divided out of every multiple of each of its powers."""
    rest = np.arange(lo, hi)
    for p in (2, 3, 5):
        power = p
        while power < hi:
            rest[(-lo) % power :: power] //= p
            power *= p
    return (rest == 1) & (np.arange(lo, hi) % 2 == 0)


def _next_smooth(n: int) -> int:
    lo, width = n, 4096
    while not (hits := np.flatnonzero(_smooth_mask(lo, lo + width))).size:
        lo, width = lo + width, 2 * width
    return lo + int(hits[0])


def test_next_fast_len_matches_a_brute_force_search():
    assert 2 * MAX_GRID_SAMPLES <= MAX_FFT_SIZE
    smooth = np.flatnonzero(_smooth_mask(1, 2**15)) + 1
    small = np.arange(1, 20001)
    assert [next_fast_len(n) for n in small.tolist()] == smooth[np.searchsorted(smooth, small)].tolist()
    for n in np.random.default_rng(2020).integers(20001, 2 * MAX_GRID_SAMPLES, 300).tolist():
        assert next_fast_len(n) == _next_smooth(n), n
    assert next_fast_len(MAX_FFT_SIZE) == MAX_FFT_SIZE == _next_smooth(MAX_FFT_SIZE)
    for n in (0, MAX_FFT_SIZE + 1):
        with pytest.raises(DomainError):
            next_fast_len(n)


def _scan_loop(d, p):
    y, state = [], 0.0
    for value in d.tolist():
        state = value + p * state
        y.append(state)
    return np.array(y)


@settings(max_examples=25, deadline=None)
@given(
    k_dt=st.floats(min_value=1e-7, max_value=0.1),
    n=st.one_of(
        st.sampled_from([1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1]),
        st.integers(min_value=1, max_value=300_000),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(k_dt=1e-7, n=300_000, seed=0)
def test_first_order_scan_matches_a_plain_loop(k_dt, n, seed):
    # p is a diagonal entry of the RK4 step map for a rate k at step dt
    z = -k_dt
    p = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    d = np.random.default_rng(seed).standard_normal(n) + 0.5
    assert rel_max(first_order_scan(d, p), _scan_loop(d, p)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=-3.0, max_value=3.0))
def test_convolution_is_linear(scale):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    h = SampledSignal(0.0, 1.0, rng.standard_normal(16), SignalRole.CONCENTRATION)
    x1 = SampledSignal(0.0, 1.0, a, SignalRole.MASS_RATE)
    x2 = SampledSignal(0.0, 1.0, b, SignalRole.MASS_RATE)
    mixed = SampledSignal(0.0, 1.0, scale * a + b, SignalRole.MASS_RATE)
    lhs = convolve(mixed, h).samples
    rhs = scale * convolve(x1, h).samples + convolve(x2, h).samples
    assert rel_max(lhs, rhs, scale=max(1.0, np.max(np.abs(lhs)))) < 1e-12


def test_frequency_deconvolution_round_trip(bench_pk):
    rng = np.random.default_rng(42)
    dt = 2.0
    x = SampledSignal(0.0, dt, rng.random(400) * 2.0, SignalRole.MASS_RATE)
    h = _plain_iv_kernel(bench_pk, dt, 1500)
    y = convolve(x, h)
    back = deconvolve(y, h, method="frequency", lam=0.0)
    assert back.role is SignalRole.MASS_RATE
    assert back.t0 == 0.0
    assert len(back) == len(x)
    assert rel_max(back.samples, x.samples) < 1e-9


@given(
    k_e_dt=st.floats(min_value=1e-4, max_value=0.1),
    k_a_dt=st.floats(min_value=1e-4, max_value=0.1),  # flip-flop when below k_e_dt
    # a ratio k_a / k_e at and on either side of the confluent tolerance,
    # used in place of k_a_dt when drawn
    ratio=st.one_of(st.none(), st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9])),
    dt=st.sampled_from([0.5, 1.0, 6.0, 30.0]),
    route=st.sampled_from(list(Route)),
    n_h=st.integers(min_value=2, max_value=4000),
    n_x=st.integers(min_value=1, max_value=500),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_lam_zero_deconvolution_inverts_any_sampled_kernel(k_e_dt, k_a_dt, ratio, dt, route, n_h, n_x, seed):
    k_e = k_e_dt / dt
    k_a = k_a_dt / dt if ratio is None else k_e * ratio
    pk = PkParams(k_e=k_e, V=100.0, k_a=None if route is Route.INTRAVENOUS else k_a)
    h = sampled_kernel(pk, route, dt, n_h)
    x = SampledSignal(0.0, dt, np.random.default_rng(seed).random(n_x) * 2.0, SignalRole.MASS_RATE)
    back = deconvolve(convolve(x, h), h, lam=0.0)
    assert len(back) == n_x
    assert rel_max(back.samples, x.samples) < 1e-6


def test_deconvolve_argument_validation(bench_pk):
    h = _plain_iv_kernel(bench_pk, 2.0, 50)
    y = SampledSignal(0.0, 2.0, np.ones(10), SignalRole.CONCENTRATION)
    with pytest.raises(ConfigurationError):
        deconvolve(y, h)  # kernel longer than the signal
    with pytest.raises(DomainError):
        deconvolve(h, h, method="cepstral")
    with pytest.raises(DomainError):
        deconvolve(h, h, lam=-1.0)
    zero = SampledSignal(0.0, 2.0, np.zeros(10), SignalRole.CONCENTRATION)
    with pytest.raises(IllConditionedError):
        deconvolve(y, zero)


def test_deconvolve_output_length_and_origin(bench_pk):
    rng = np.random.default_rng(9)
    dt = 1.0
    x = SampledSignal(10.0, dt, rng.random(64), SignalRole.MASS_RATE)
    h = SampledSignal(5.0, dt, _plain_iv_kernel(bench_pk, dt, 32).samples, SignalRole.CONCENTRATION)
    y = convolve(x, h)
    back = deconvolve(y, h, lam=0.0, output_length=64)
    assert back.t0 == 10.0
    assert len(back) == 64
    assert rel_max(back.samples, x.samples) < 1e-9


def test_default_weight_is_a_thousandth_of_the_peak_kernel_power(bench_pk):
    # lam=None must equal the explicit 1e-3 * max |H|^2 bit for bit, whether
    # the solve reuses its own kernel transform (probe length = n_fft) or,
    # for an output longer than the record, transforms at the probe length
    rng = np.random.default_rng(5)
    dt = 6.0
    for n, m, n_out in ((1984, 1984, 1984), (3001, 400, None), (500, 100, 900)):
        h = sampled_kernel(bench_pk, Route.EXTRAVASCULAR, dt, m)
        y = SampledSignal(0.0, dt, rng.random(n), SignalRole.CONCENTRATION)
        n_probe = next_fast_len(n + m - 1)
        lam = 1e-3 * float(np.max(np.abs(scipy.fft.rfft(h.samples, n_probe) * dt) ** 2))
        default = deconvolve(y, h, output_length=n_out)
        explicit = deconvolve(y, h, lam=lam, output_length=n_out)
        assert np.array_equal(default.samples, explicit.samples)


def test_tikhonov_solve_decodes_a_stack_row_by_row(bench_pk):
    rng = np.random.default_rng(6)
    dt, n = 5.0, 1251
    h = sampled_kernel(bench_pk, Route.INTRAVENOUS, dt, n)
    solve = TikhonovSolve(h.samples, dt, n, n)
    stack = rng.random((4, n))
    assert np.array_equal(solve.apply(stack), np.array([solve.apply(row) for row in stack]))
    with pytest.raises(ConfigurationError):
        solve.apply(stack[:, :-1])
    with pytest.raises(DomainError):
        TikhonovSolve(h.samples, dt, n, n, lam=float("nan"))


def test_tikhonov_solve_sizes_and_window_map(bench_pk):
    # one transform size search when the record bounds the output; the
    # window-sum map reproduces apply's window sums, also when n_fft is
    # short of n_in + n_out - 1 and apply wraps around
    rng = np.random.default_rng(8)
    dt = 6.0
    cases = ((1984, 1984, 1984, 100, 4000), (3001, 400, 2500, 7, 3456), (500, 100, 900, 30, 1000))
    for n_in, m, n_out, window, n_fft in cases:
        h = sampled_kernel(bench_pk, Route.EXTRAVASCULAR, dt, m)
        solve = TikhonovSolve(h.samples, dt, n_in, n_out)
        assert solve.n_fft == next_fast_len(max(n_in, n_out) + m - 1) == n_fft
        n_windows = n_out // window
        stack = rng.random((3, n_in))
        sums = solve.apply(stack)[:, : n_windows * window].reshape(3, n_windows, window).sum(axis=2)
        assert rel_max(stack @ solve.window_map(window, n_windows), sums) < 1e-13
        with pytest.raises(ConfigurationError):
            solve.window_map(window, n_windows + 1)


def test_regularization_tames_noise_amplification(bench_pk):
    # with noise on the observation, the default weight must beat exact
    # inversion, which amplifies high frequencies without bound
    rng = np.random.default_rng(17)
    dt, n = 1.0, 4000
    x = sample(lambda t: 2.0 * np.exp(-0.5 * ((t - 1200.0) / 150.0) ** 2), 0.0, dt, n,
               SignalRole.MASS_RATE)
    h = sampled_kernel(bench_pk, Route.INTRAVENOUS, dt, n)
    clean = convolve(x, h)
    noisy = SampledSignal(
        clean.t0,
        dt,
        clean.samples + 1e-4 * rng.standard_normal(len(clean)),
        SignalRole.CONCENTRATION,
    )
    exact = deconvolve(noisy, h, lam=0.0, output_length=n)
    damped = deconvolve(noisy, h, output_length=n)
    err_exact = rel_max(exact.samples, x.samples, scale=np.max(x.samples))
    err_damped = rel_max(damped.samples, x.samples, scale=np.max(x.samples))
    assert err_damped < err_exact


def test_inverse_filter_matches_deconvolution(bench_iv_pk):
    # frozen companion case: smooth pump profile, interior agreement
    dt, n = 1.0, 12000
    x = sample(lambda t: 5.0 * np.exp(-0.5 * ((t - 3000.0) / 500.0) ** 2), 0.0, dt, n,
               SignalRole.MASS_RATE)
    h = sampled_kernel(bench_iv_pk, Route.INTRAVENOUS, dt, n)
    y = convolve(x, h)
    y_cut = SampledSignal(y.t0, dt, y.samples[:n], SignalRole.CONCENTRATION)
    by_filter = inverse_filter_iv(y_cut, bench_iv_pk)
    by_deconv = deconvolve(y_cut, h, lam=0.0, output_length=n)
    interior = slice(2, n - 2)
    scale = np.max(np.abs(x.samples))
    assert by_filter.role is SignalRole.MASS_RATE
    assert rel_max(by_filter.samples[interior], by_deconv.samples[interior], scale=scale) < 1e-3


def test_inverse_filter_requires_concentration_role(bench_iv_pk):
    u = SampledSignal(0.0, 1.0, np.ones(10), SignalRole.MASS_RATE)
    with pytest.raises(ConfigurationError):
        inverse_filter_iv(u, bench_iv_pk)


def test_inverse_filter_on_pure_decay_returns_zero_rate(bench_iv_pk):
    # free decay has no input, so the reconstruction must vanish inside
    y = sample(
        lambda t: 0.2 * np.exp(-bench_iv_pk.k_e * t), 0.0, 1.0, 2000, SignalRole.CONCENTRATION
    )
    u = inverse_filter_iv(y, bench_iv_pk)
    drive_scale = 0.2 * bench_iv_pk.V * bench_iv_pk.k_e
    assert np.max(np.abs(u.samples[1:-1])) / drive_scale < 1e-6


def test_ode_integration_matches_analytic(bench_pk):
    dt, n = 1.0, 6001
    schedule = DoseSchedule(events=(DoseEvent(time=0.0, mass=BENCH_DOSE, duration=30.0),))
    rate = dose_rate_signal(schedule, dt, n)
    for route in (Route.INTRAVENOUS, Route.EXTRAVASCULAR):
        got = integrate_ode(bench_pk, route, rate, (n - 1) * dt)
        exact = sample(lambda t: superpose(bench_pk, route, schedule, t), 0.0, dt, n)
        assert got.role is SignalRole.CONCENTRATION
        assert rel_max(got.samples, exact.samples) < 1e-9


def test_ode_reaches_analytic_steady_state(bench_iv_pk):
    # constant infusion settles at rate / (V * k_e)
    dt, n = 1.0, 12001
    u = SampledSignal(0.0, dt, np.full(n, 0.7), SignalRole.MASS_RATE)
    got = integrate_ode(bench_iv_pk, Route.INTRAVENOUS, u, (n - 1) * dt)
    expect = 0.7 / (bench_iv_pk.V * bench_iv_pk.k_e)
    assert got.samples[-1] == pytest.approx(expect, rel=1e-6)


def test_ode_bioavailability_scales_exactly():
    base = PkParams(k_e=1.51e-3, V=200.0, k_a=3.27e-3, F=1.0)
    half = PkParams(k_e=1.51e-3, V=200.0, k_a=3.27e-3, F=0.5)
    u = SampledSignal(0.0, 1.0, np.ones(500), SignalRole.MASS_RATE)
    full = integrate_ode(base, Route.EXTRAVASCULAR, u, 499.0)
    scaled = integrate_ode(half, Route.EXTRAVASCULAR, u, 499.0)
    assert np.array_equal(scaled.samples, 0.5 * full.samples)


def test_ode_guards(bench_pk):
    u = SampledSignal(0.0, 1.0, np.ones(100), SignalRole.MASS_RATE)
    conc = SampledSignal(0.0, 1.0, np.ones(100), SignalRole.CONCENTRATION)
    with pytest.raises(ConfigurationError):
        integrate_ode(bench_pk, Route.INTRAVENOUS, conc, 99.0)
    with pytest.raises(ConfigurationError):
        integrate_ode(bench_pk, Route.INTRAVENOUS, u, 50.0)  # horizon cuts the input
    coarse = SampledSignal(0.0, 100.0, np.ones(10), SignalRole.MASS_RATE)
    with pytest.raises(ConfigurationError):
        integrate_ode(bench_pk, Route.EXTRAVASCULAR, coarse, 900.0)


def test_dose_rate_signal_conserves_mass():
    schedule = DoseSchedule(
        events=(
            DoseEvent(time=5.0, mass=12.0),
            DoseEvent(time=40.0, mass=30.0, duration=17.0),
        )
    )
    u = dose_rate_signal(schedule, 2.0, 60)
    assert u.role is SignalRole.MASS_RATE
    assert np.sum(u.samples) * u.dt == pytest.approx(42.0, rel=1e-13)
    with pytest.raises(ConfigurationError):
        dose_rate_signal(DoseSchedule(events=(DoseEvent(time=500.0, mass=1.0),)), 2.0, 60)


def test_spectrum_matches_rational_response(bench_pk):
    from pklink.channel import frequency_response

    dt, n = 1.0, 60000
    for route, bound in ((Route.INTRAVENOUS, 1e-3), (Route.EXTRAVASCULAR, 1e-5)):
        xs = sample(lambda t: impulse_response(bench_pk, route, t), 0.0, dt, n)
        sp = spectrum(xs)
        band = (sp.omega >= 0) & (sp.omega <= 10 * bench_pk.k_a)
        analytic = frequency_response(bench_pk, route, sp.omega[band])
        assert rel_max(sp.values[band], analytic, scale=np.max(np.abs(analytic))) < bound


def test_spectrum_start_time_phase():
    base = SampledSignal(0.0, 0.5, np.arange(8.0), SignalRole.MASS_RATE)
    shifted = SampledSignal(3.0, 0.5, np.arange(8.0), SignalRole.MASS_RATE)
    sp0 = spectrum(base)
    sp1 = spectrum(shifted)
    expect = sp0.values * np.exp(-1j * sp0.omega * 3.0)
    assert np.allclose(sp1.values, expect, rtol=0, atol=1e-12)


def test_spectrum_energy_parseval():
    rng = np.random.default_rng(23)
    x = SampledSignal(0.0, 0.25, rng.standard_normal(256), SignalRole.MASS_RATE)
    assert spectrum(x).energy() == pytest.approx(x.energy(), rel=1e-12)
