"""On-off keying over the concentration channel: framing through detection."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklink import modem, signals
from pklink.channel import PkParams, Route, superpose
from pklink.cli import run_link
from pklink.errors import (
    ConfigurationError,
    DomainError,
    SynchronizationError,
    TruncationError,
)
from pklink.modem import (
    PREAMBLE,
    REFERENCE_PAYLOAD,
    ModulationConfig,
    Receiver,
    _noisy_rows,
    add_noise,
    ber_sweep,
    detect,
    modulate_ook,
    pill_schedule,
)
from pklink.scenarios import resolve_scenario
from pklink.signals import SampledSignal, SignalRole, deconvolve, sample, sampled_kernel

from conftest import BENCH_DOSE, BENCH_K_A, BENCH_K_E, BENCH_V, rel_max


def _link_config(route, pump_rate=1.3):
    return ModulationConfig(
        symbol_period=600.0, dose_mass=BENCH_DOSE, route=route, pump_rate=pump_rate
    )


def _clean_frame_signal(pk, config, payload, dt, n, start=0.0):
    schedule = modulate_ook(payload, config, start=start)
    return sample(
        lambda t: superpose(pk, config.route, schedule, t), 0.0, dt, n, SignalRole.CONCENTRATION
    )


def _deconvolved(pk, route, record: SampledSignal, lam=None) -> SampledSignal:
    """The record's recovered mass rate through the record-length channel kernel."""
    n = len(record)
    return deconvolve(record, sampled_kernel(pk, route, record.dt, n), lam=lam, output_length=n)


def _window_sums(receiver, recovered: np.ndarray) -> np.ndarray:
    """Recovered mass per window of each row of a stack of recovered mass rates."""
    w, n_windows = receiver.window, receiver.n_windows
    return recovered[:, : n_windows * w].reshape(len(recovered), n_windows, w).sum(axis=2) * receiver.dt


# Values that are not a sequence of bits: none is truncated to one.
_NOT_BITS = [(0, 2), (0, 1.5), (0.6,), (-0.4, 1), ("a",), (0, math.nan), "0110", 5, {0: 1, 1: 0}, np.array(1)]


def test_frame_prepends_preamble():
    config = ModulationConfig(600.0, 5.0, Route.INTRAVENOUS)
    schedule = modulate_ook((0, 1, 1), config, start=60.0)
    # the preamble's three slots, then payload slots 1 and 2
    assert [e.time for e in schedule] == [60.0, 660.0, 1260.0, 2460.0, 3060.0]
    with pytest.raises(DomainError, match="bits must be 0 or 1"):
        modulate_ook((0, 2), config)
    with pytest.raises(DomainError, match="bits must be 0 or 1"):
        modulate_ook((0, 2), config, start=-1.0)  # the bits are checked first
    for bits in _NOT_BITS:
        with pytest.raises(DomainError, match="^bits must be 0 or 1, got "):
            modulate_ook(bits, config)
    assert modulate_ook(np.array([1.0, 0.0]), config) == modulate_ook((1, 0), config)


def test_modulation_schedule_places_doses_at_one_bits():
    config = _link_config(Route.EXTRAVASCULAR)
    schedule = modulate_ook(REFERENCE_PAYLOAD, config)
    starts = [e.time for e in schedule]
    # ones sit at the three preamble slots plus payload slots 1, 3, 6, 7
    assert starts == [0.0, 600.0, 1200.0, 2400.0, 3600.0, 5400.0, 6000.0]
    assert all(e.mass == BENCH_DOSE for e in schedule)
    assert all(e.duration == pytest.approx(100.0) for e in schedule)
    impulsive = modulate_ook((1,), ModulationConfig(600.0, 5.0, Route.INTRAVENOUS))
    assert [e.duration for e in impulsive] == [0.0, 0.0, 0.0, 0.0]


def test_pump_must_fit_the_symbol():
    with pytest.raises(ConfigurationError):
        ModulationConfig(symbol_period=600.0, dose_mass=130.0, route=Route.INTRAVENOUS,
                         pump_rate=0.1)
    with pytest.raises(DomainError):
        ModulationConfig(symbol_period=0.0, dose_mass=130.0, route=Route.INTRAVENOUS)


def test_modulation_refuses_a_route_that_is_not_a_route():
    with pytest.raises(DomainError, match=re.escape("route must be a Route, got 'intravenous'")):
        ModulationConfig(600.0, 130.0, "intravenous", 1.3)


def test_passive_pill_encoding():
    schedule = pill_schedule((1, 0, 1, 1), level_one=40.0, dissolution_times=(900.0, 600.0, 300.0, 0.0))
    # the first bit dissolves last
    assert [e.time for e in schedule] == [0.0, 300.0, 600.0, 900.0]
    assert [e.mass for e in schedule] == [40.0, 40.0, 20.0, 40.0]
    assert schedule.total_mass == 140.0
    assert all(e.duration == 0.0 for e in schedule)


def test_passive_pill_validation():
    def refused(error, message, bits, level_one, times):
        with pytest.raises(error, match=re.escape(message)):
            pill_schedule(bits, level_one, times)

    refused(DomainError, "bits must be 0 or 1", (1, 2), 0.0, (1.0,))  # the bits are checked first
    for bits in _NOT_BITS:
        refused(DomainError, "bits must be 0 or 1", bits, 40.0, (1.0, 0.0))
    refused(DomainError, "2 bits but 1 dissolution times", (1, 0), 0.0, (100.0,))
    for level in (0.0, -1.0, math.inf, math.nan):
        refused(DomainError, f"level_one must be positive, got {level}", (1,), level, (-1.0,))
    # half of the least subnormal underflows to 0; a compartment's level is checked before its time
    refused(DomainError, "compartment level must be positive, got 0.0", (0, 1), 5e-324, (1.0, -1.0))
    refused(DomainError, "dissolution time must be >= 0, got -1.0", (1, 0), 5e-324, (-1.0, 1.0))
    assert [e.mass for e in pill_schedule((1, 1), 5e-324, (1.0, 0.0))] == [5e-324, 5e-324]
    refused(DomainError, "dissolution time must be >= 0, got nan", (1,), 40.0, (math.nan,))
    refused(DomainError, "dissolution time must be a number, got 'soon'", (1,), 40.0, ("soon",))
    refused(DomainError, "pill needs at least one compartment", (), 40.0, ())
    refused(ConfigurationError, "dissolution times must be strictly decreasing", (1, 0), 40.0, (100.0, 100.0))
    refused(ConfigurationError, "dissolution times must be strictly decreasing", (1, 0), 40.0, (100.0, 200.0))


def test_noise_is_reproducible_and_clipped():
    x = SampledSignal(0.0, 1.0, np.full(2000, 0.05), SignalRole.CONCENTRATION)
    a = add_noise(x, sigma=0.1, seed=7)
    b = add_noise(x, sigma=0.1, seed=7)
    c = add_noise(x, sigma=0.1, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert np.min(a.samples) == 0.0  # clipping engaged for this sigma
    assert np.array_equal(add_noise(x, sigma=0.0).samples, x.samples)


def test_noise_amplitude_scales_a_shared_realization():
    # same seed, doubled sigma: excursions double exactly when no sample clips
    x = SampledSignal(0.0, 1.0, np.full(500, 100.0), SignalRole.CONCENTRATION)
    n1 = add_noise(x, sigma=1.0, seed=3).samples - x.samples
    n2 = add_noise(x, sigma=2.0, seed=3).samples - x.samples
    assert np.allclose(n2, 2.0 * n1, rtol=0, atol=1e-12)


def test_noise_validation():
    x = SampledSignal(0.0, 1.0, np.ones(4), SignalRole.CONCENTRATION)
    with pytest.raises(DomainError):
        add_noise(x, sigma=-1.0)
    with pytest.raises(DomainError):
        add_noise(x, sigma=0.1, spike_prob=1.5)
    # a NaN passes a plain "< 0" test; the error must still name the argument
    with pytest.raises(DomainError, match="sigma"):
        add_noise(x, sigma=math.nan)
    with pytest.raises(DomainError, match="spike_scale"):
        add_noise(x, sigma=0.1, spike_prob=0.5, spike_scale=math.nan)
    # finite amplitudes whose noise overflows a double are refused by name
    many = SampledSignal(0.0, 1.0, np.ones(2000), SignalRole.CONCENTRATION)
    with pytest.raises(DomainError, match=r"^noise of sigma 1e\+308 overflows the samples$"):
        add_noise(many, sigma=1e308)
    with pytest.raises(DomainError, match=r"^noise of sigma 0\.1 and spike_scale 1e\+308 overflows"):
        add_noise(many, sigma=0.1, spike_prob=1.0, spike_scale=1e308)


def test_noise_draws_spikes_only_when_a_sample_can_spike():
    # reference: the three draws of the add_noise contract, all taken every time
    def all_three_draws(clean, sigma, spike_prob, spike_scale, seed):
        rng = np.random.default_rng(seed)
        n = len(clean)
        normals = rng.standard_normal(n)
        spike_at = rng.random(n) < spike_prob
        spikes = np.where(spike_at, rng.exponential(1.0, n) * spike_scale, 0.0)
        return np.clip(clean + normals * sigma + spikes, 0.0, None)

    x = SampledSignal(0.0, 1.0, np.linspace(0.0, 0.3, 3000), SignalRole.CONCENTRATION)
    for sigma, spike_prob, spike_scale in ((0.1, 0.0, 0.0), (0.1, 0.0, 2.0), (0.1, 0.02, 0.5), (0.0, 1.0, 0.5)):
        for seed in (0, 7, [3, 1]):
            noisy = add_noise(x, sigma, spike_prob, spike_scale, seed=seed).samples
            assert np.array_equal(noisy, all_three_draws(x.samples, sigma, spike_prob, spike_scale, seed))


def _replayed(rng, draw):
    # the draw, then rng's state as it was before it, so the next draw repeats it
    state = rng.bit_generator.state
    try:
        return draw()
    finally:
        rng.bit_generator.state = state


@pytest.mark.parametrize("spike_prob, spike_scale", [(0.0, 0.0), (0.05, 0.5)])
def test_block_noise_rows_equal_add_noise_of_each_frame_and_sigma(spike_prob, spike_scale):
    # ber_sweep draws a block of frames at once, the rows in turn from one
    # Generator; each row must be add_noise's from the Generator as row j
    # finds it (each sigma from the same state)
    clean = np.abs(np.random.default_rng(5).standard_normal((3, 700)))
    sigmas = np.array([0.0, 0.1, 2.0])
    shared = np.random.default_rng([4, 1])
    for seed in ([4, 1], shared):
        rows = _noisy_rows(clean, sigmas, spike_prob, spike_scale, seed)
        assert rows.shape == (len(sigmas),) + clean.shape
        rng = np.random.default_rng([4, 1])
        for j in range(len(clean)):
            x = SampledSignal(0.0, 1.0, clean[j], SignalRole.CONCENTRATION)
            for i, sigma in enumerate(sigmas):
                noisy = _replayed(rng, lambda: add_noise(x, sigma, spike_prob, spike_scale, seed=rng)).samples
                assert np.array_equal(rows[i, j], noisy)
            add_noise(x, 0.0, spike_prob, spike_scale, seed=rng)  # row j's draws, taken
    # a Generator is drawn from, and left past the rows' draws
    assert shared.bit_generator.state == rng.bit_generator.state


def test_noiseless_detection_recovers_the_payload(bench_pk):
    dt, n = 5.0, 3001
    for route in (Route.INTRAVENOUS, Route.EXTRAVASCULAR):
        config = _link_config(route)
        received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, dt, n)
        report = detect(received, bench_pk, config, payload_length=8, lam=0.0,
                        reference=REFERENCE_PAYLOAD)
        assert report.payload_bits == REFERENCE_PAYLOAD
        assert report.errors == 0
        assert report.ber == 0.0
        assert report.frame_start == 0.0
        assert report.threshold == pytest.approx(65.0)
        stats = np.array(report.statistics)
        sent = np.array(PREAMBLE + REFERENCE_PAYLOAD, dtype=bool)
        assert np.all(np.abs(stats[sent] - BENCH_DOSE) < 0.01)
        assert np.all(np.abs(stats[~sent]) < 0.01)


def test_detection_finds_a_delayed_frame(bench_pk):
    dt, n = 5.0, 3601
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, dt, n, start=1200.0)
    report = detect(received, bench_pk, config, payload_length=8, lam=0.0)
    assert report.frame_start == 1200.0
    assert report.payload_bits == REFERENCE_PAYLOAD


@pytest.mark.parametrize("name", ["link-ev", "link-iv"])
@pytest.mark.parametrize("dt", [1.0, 5.0, 10.0, 30.0])
def test_link_decisions_do_not_depend_on_the_transform_size(monkeypatch, name, dt):
    # the transform size enters the Tikhonov estimate only through the
    # aliasing of the regularized inverse; a power-of-two size in place of
    # next_fast_len's must leave every decision and move the window sums by
    # rounding with the automatic weight, and by little more at lam = 0
    scenario = resolve_scenario(name).with_overrides(dt=dt)
    dose = scenario.modulation.dose_mass
    for lam, tol in ((None, 1e-9), (0.0, 1e-6)):
        report = run_link(scenario, lam=lam)
        with monkeypatch.context() as mp:
            mp.setattr(signals, "next_fast_len", lambda n: 1 << (n - 1).bit_length())
            pow2 = run_link(scenario, lam=lam)
        assert pow2.decisions == report.decisions
        assert pow2.payload_bits == report.payload_bits == scenario.payload
        assert np.max(np.abs(np.subtract(pow2.statistics, report.statistics))) <= tol * dose


def test_detection_grid_must_divide_the_symbol(bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, 7.0, 2000)
    with pytest.raises(ConfigurationError):
        detect(received, bench_pk, config, payload_length=8)


def test_detection_reports_truncation(bench_pk):
    dt = 5.0
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, dt, 700)
    with pytest.raises(TruncationError):
        detect(received, bench_pk, config, payload_length=8)


def test_detection_needs_a_preamble(bench_pk):
    silent = SampledSignal(0.0, 5.0, np.zeros(2000), SignalRole.CONCENTRATION)
    config = _link_config(Route.INTRAVENOUS)
    with pytest.raises(SynchronizationError, match="^no preamble found above threshold$"):
        detect(silent, bench_pk, config, payload_length=8)
    short = SampledSignal(0.0, 5.0, np.zeros(200), SignalRole.CONCENTRATION)
    with pytest.raises(SynchronizationError, match="^signal is shorter than the preamble$"):
        detect(short, bench_pk, config, payload_length=8)


def test_a_receiver_refuses_a_record_shorter_than_the_preamble(bench_pk):
    # a window of 2e19 samples leaves no whole window in the record
    config = ModulationConfig(1e20, 130.0, Route.EXTRAVASCULAR, 1.3)
    with pytest.raises(SynchronizationError, match="^signal is shorter than the preamble$"):
        Receiver(bench_pk, config, 5.0, 3001)


@pytest.mark.parametrize("route", [Route.INTRAVENOUS, Route.EXTRAVASCULAR])
@pytest.mark.parametrize("lam, sigma", [(None, 0.01), (0.0, 0.0)])  # exact inversion amplifies noise 5e6-fold
def test_detection_recovers_through_deconvolve(bench_pk, route, lam, sigma):
    config = _link_config(route)
    received = add_noise(_clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, 5.0, 3001), sigma, seed=2)
    report = detect(received, bench_pk, config, payload_length=8, lam=lam)
    recovered = _deconvolved(bench_pk, route, received, lam)
    assert np.array_equal(report.recovered.samples, recovered.samples)
    assert (report.recovered.t0, report.recovered.dt, report.recovered.role) == (0.0, 5.0, SignalRole.MASS_RATE)


def test_detection_parameter_validation(bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, (1, 0), 5.0, 1500)
    with pytest.raises(DomainError):
        detect(received, bench_pk, config, payload_length=2, reference=(1, 0, 1))
    for bits in _NOT_BITS:
        with pytest.raises(DomainError, match="^bits must be 0 or 1, got "):
            detect(received, bench_pk, config, payload_length=2, reference=bits)


@pytest.mark.parametrize(
    "payload_length, message",
    [
        (8.0, "payload_length must be an integer, got 8.0"),
        (True, "payload_length must be an integer, got True"),
        (-1, "payload_length must be >= 0, got -1"),
    ],
)
def test_detection_refuses_a_payload_length_that_is_not_a_count(bench_pk, payload_length, message):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, 5.0, 3001)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        detect(received, bench_pk, config, payload_length)


def test_report_csv_sections(tmp_path, bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, 5.0, 3001)
    report = detect(received, bench_pk, config, payload_length=8, lam=0.0,
                    reference=REFERENCE_PAYLOAD)
    path = tmp_path / "report.csv"
    with open(path, "w", newline="") as fh:
        report.to_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "symbol,statistic,decision"
    assert lines[12] == "frame_start,threshold,errors,ber"
    assert lines[13].split(",")[2] == "0"
    assert len(lines) == 14


def test_ber_sweep_is_reproducible_and_ordered(bench_pk):
    config = _link_config(Route.EXTRAVASCULAR)
    sigmas = [0.0, 0.15, 1.5]
    a = ber_sweep(bench_pk, config, sigmas, n_frames=10, seed=0)
    b = ber_sweep(bench_pk, config, sigmas, n_frames=10, seed=0)
    assert a == b
    assert a[0] == 0.0
    assert all(x <= y + 1e-12 for x, y in zip(a, a[1:]))
    assert a[-1] > 0.0
    with pytest.raises(DomainError):
        ber_sweep(bench_pk, config, sigmas, n_frames=0)


def _frame_by_frame_rates(pk, config, sigmas, n_frames, payload_length=8, seed=0, spike_prob=0.0, spike_scale=0.0):
    """ber_sweep's rates from add_noise then detect, one frame and sigma at a time.

    Frame j's payload is row j of one draw from default_rng([seed, 0]); its
    noise is add_noise's draws from default_rng([seed, 1]) as frame j finds
    it, the generator's state restored before each sigma.
    """
    dt = config.symbol_period / 100.0
    rate_floor = pk.k_e if config.route is Route.INTRAVENOUS else min(pk.k_a, pk.k_e)
    horizon = (len(PREAMBLE) + payload_length) * config.symbol_period + 8.0 / rate_floor
    n = int(round(horizon / dt)) + 1
    payloads = np.random.default_rng([seed, 0]).integers(0, 2, (n_frames, payload_length))
    noise = np.random.default_rng([seed, 1])
    errors = [0] * len(sigmas)
    for payload in payloads:
        clean = _clean_frame_signal(pk, config, payload, dt, n)
        for i, sigma in enumerate(sigmas):
            noisy = _replayed(noise, lambda: add_noise(clean, sigma, spike_prob, spike_scale, seed=noise))
            try:
                errors[i] += detect(noisy, pk, config, payload_length, reference=payload).errors
            except (SynchronizationError, TruncationError):
                errors[i] += payload_length
        add_noise(clean, 0.0, spike_prob, spike_scale, seed=noise)  # the frame's draws, taken
    return [e / (n_frames * payload_length) for e in errors]


# BER lists of the frame-by-frame sweep (_frame_by_frame_rates: add_noise
# then detect for every frame and sigma), which the batched sweep must
# reproduce exactly: 30 frames, seed 7 unless noted, sigmas GOLDEN_SIGMAS.
GOLDEN_SIGMAS = (0.0, 0.05, 0.15, 0.5, 1.5)
GOLDEN_BER = [
    ((Route.INTRAVENOUS, 1.3, {}),
     [0.0, 0.0, 0.125, 0.4, 0.4375]),
    ((Route.INTRAVENOUS, None, {}),
     [0.6916666666666667, 0.5458333333333333, 0.4583333333333333, 0.4791666666666667, 0.44583333333333336]),
    ((Route.EXTRAVASCULAR, 1.3, {}),
     [0.0, 0.07083333333333333, 0.3333333333333333, 0.45416666666666666, 0.44583333333333336]),
    ((Route.EXTRAVASCULAR, None, {}),
     [0.4083333333333333, 0.4083333333333333, 0.49583333333333335, 0.4791666666666667, 0.44583333333333336]),
    ((Route.EXTRAVASCULAR, 1.3, {"seed": 5, "spike_prob": 0.01, "spike_scale": 0.5}),
     [0.1, 0.14583333333333334, 0.37916666666666665, 0.5, 0.5125]),
]


@pytest.mark.parametrize("case, expected", GOLDEN_BER)
def test_ber_sweep_matches_the_frame_by_frame_golden_values(bench_pk, case, expected):
    route, pump_rate, options = case
    options = {"seed": 7, **options}
    rates = ber_sweep(bench_pk, _link_config(route, pump_rate), GOLDEN_SIGMAS, n_frames=30, **options)
    assert rates == expected


@pytest.mark.parametrize("case, expected", GOLDEN_BER)
def test_the_frame_by_frame_sweep_gives_the_golden_values(bench_pk, case, expected):
    route, pump_rate, options = case
    options = {"seed": 7, **options}
    rates = _frame_by_frame_rates(bench_pk, _link_config(route, pump_rate), GOLDEN_SIGMAS, 30, **options)
    assert rates == expected


@pytest.mark.parametrize("spikes", [{}, {"spike_prob": 0.01, "spike_scale": 0.5}])
def test_ber_sweep_rates_do_not_depend_on_the_block_size(monkeypatch, bench_pk, spikes):
    # frame j's payload and noise are the same whichever block it falls in
    config = _link_config(Route.EXTRAVASCULAR)
    rates = []
    for block in (1, 3, 8, 64):
        monkeypatch.setattr(modem, "SWEEP_BLOCK_FRAMES", block)
        rates.append(ber_sweep(bench_pk, config, GOLDEN_SIGMAS, n_frames=29, seed=3, **spikes))
    assert rates[0][-1] > 0.0
    assert all(r == rates[0] for r in rates)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"payload_length": 0}, "payload_length must be >= 1, got 0"),
        ({"payload_length": -1}, "payload_length must be >= 1, got -1"),
        ({"payload_length": 2.0}, "payload_length must be an integer, got 2.0"),
        ({"n_frames": 2.5}, "n_frames must be an integer, got 2.5"),
        ({"n_frames": True}, "n_frames must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ],
)
def test_ber_sweep_refuses_frame_and_payload_counts_that_are_not_positive_integers(bench_pk, options, message):
    config = _link_config(Route.INTRAVENOUS)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        ber_sweep(bench_pk, config, [0.1], **{"n_frames": 2, **options})


@pytest.mark.parametrize(
    "symbol_period, dt, message",
    [
        (600.0, 0.0, "dt must be finite and > 0, got 0.0"),
        (600.0, -5.0, "dt must be finite and > 0, got -5.0"),
        (600.0, float("nan"), "dt must be finite and > 0, got nan"),
        (600.0, float("inf"), "dt must be finite and > 0, got inf"),
        (600.0, 1e-6, "gives more than 100000000 samples"),  # 1.2e10 samples, 88.6 GiB a pulse
        (1e20, 5.0, "gives more than 100000000 samples"),  # 2.2e20 samples
    ],
)
def test_ber_sweep_refuses_a_bad_grid_before_allocating(bench_pk, symbol_period, dt, message):
    config = dataclasses.replace(_link_config(Route.EXTRAVASCULAR), symbol_period=symbol_period)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=re.escape(message)):
            ber_sweep(bench_pk, config, [0.1], n_frames=2, dt=dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize(
    "options, message",
    [
        ({"sigmas": [-1.0]}, "sigma must be finite and >= 0, got -1.0"),
        ({"sigmas": [0.1, float("nan")]}, "sigma must be finite and >= 0, got nan"),
        ({"spike_prob": 2.0}, "spike_prob must lie in [0, 1], got 2.0"),
        ({"spike_prob": 0.5, "spike_scale": -1.0}, "spike_scale must be finite and >= 0, got -1.0"),
    ],
)
def test_ber_sweep_refuses_bad_noise_before_allocating(bench_pk, options, message):
    # dt = 0.1 s gives about 119 000 samples a pulse, 0.95 MB each
    config = _link_config(Route.EXTRAVASCULAR)
    options = {"sigmas": [0.1], **options}
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ber_sweep(bench_pk, config, n_frames=2, dt=0.1, **options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_ber_sweep_refuses_an_off_grid_dt_before_sampling_the_pulses(bench_pk):
    # dt = 0.7 s does not divide the 600 s symbol; the 11 slot pulses
    # would take about 17 000 samples, 0.14 MB, each
    config = _link_config(Route.EXTRAVASCULAR)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="does not divide the symbol period"):
            ber_sweep(bench_pk, config, [0.0], n_frames=2, dt=0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_ber_sweep_keeps_the_frame_by_frame_validation(bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    with pytest.raises(DomainError):
        ber_sweep(bench_pk, config, [0.1, -0.1], n_frames=2)
    with pytest.raises(DomainError):
        ber_sweep(bench_pk, config, [float("nan")], n_frames=2)  # non-finite samples
    with pytest.raises(DomainError):
        ber_sweep(bench_pk, config, [0.1], n_frames=2, spike_prob=2.0)
    with pytest.raises(ConfigurationError):
        ber_sweep(bench_pk, config, [0.1], n_frames=2, dt=7.0)


@settings(max_examples=40, deadline=None)
@given(
    route=st.sampled_from((Route.INTRAVENOUS, Route.EXTRAVASCULAR)),
    dt=st.sampled_from((5.0, 6.0, 12.0, 30.0)),
    lam=st.sampled_from((None, 0.0)),
    n_windows=st.integers(min_value=3, max_value=15),
    rows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1800.0),  # frame start, s
            st.tuples(*[st.integers(0, 1)] * 8),  # payload
            st.sampled_from((0.0, 0.05, 0.5)),  # sigma
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_a_stack_decodes_like_each_record_alone(route, dt, lam, n_windows, rows):
    # frames reads a stack of deconvolve's window sums as detect reads each record's
    bench_pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    config = _link_config(route)
    w = int(round(600.0 / dt))
    n = n_windows * w + 1
    records = [
        add_noise(_clean_frame_signal(bench_pk, config, payload, dt, n, start=start), sigma, seed=j)
        for j, (start, payload, sigma) in enumerate(rows)
    ]
    receiver = Receiver(bench_pk, config, dt, n)
    recovered = np.array([_deconvolved(bench_pk, route, r, lam).samples for r in records])
    stats = _window_sums(receiver, recovered)
    starts, decisions, held = receiver.frames(stats, 8)
    for i, record in enumerate(records):
        try:
            report = detect(record, bench_pk, config, payload_length=8, lam=lam)
        except SynchronizationError:
            assert starts[i] == -1 and not held[i]
            continue
        except TruncationError as exc:
            assert starts[i] >= 0 and not held[i]
            available = n_windows - int(starts[i]) - len(PREAMBLE)
            assert str(exc) == f"only {available} symbol windows after the preamble, expected 8"
            continue
        k = int(starts[i])
        assert held[i]
        assert report.statistics == tuple(float(s) for s in stats[i, k : k + len(PREAMBLE) + 8])
        assert report.frame_start == k * w * dt
        assert report.decisions == tuple(int(s > report.threshold) for s in stats[i, k : k + 11])
        assert report.payload_bits == tuple(int(b) for b in decisions[i])
        assert np.array_equal(report.recovered.samples, recovered[i])


def test_ber_grows_with_noise_at_a_thousandth(bench_pk):
    # 10^4 frames (8 * 10^4 bits) per route at noise levels around BER 1e-3,
    # where a binomial standard error is a few 1e-4: enough power to see a
    # receiver whose errors do not grow with the noise
    cases = ((Route.INTRAVENOUS, (0.06, 0.07, 0.08, 0.09)), (Route.EXTRAVASCULAR, (0.025, 0.03, 0.035)))
    n_frames = 10_000
    n_bits = 8 * n_frames
    for route, sigmas in cases:
        rates = ber_sweep(bench_pk, _link_config(route), sigmas, n_frames=n_frames, seed=11)
        assert rates[0] < 1e-3 < rates[-1]
        for a, b in zip(rates, rates[1:]):
            se = np.sqrt((a * (1 - a) + b * (1 - b)) / n_bits)
            assert b >= a - 3.0 * se


def test_window_map_sums_the_recovered_windows(bench_pk):
    # records @ window_map are the window sums of deconvolve's recovered
    # waveform on random stacks, through the kernels of record length a
    # Receiver builds; the windows of 100 and 7 samples leave part of a
    # window at the end of the record
    rng = np.random.default_rng(8)
    dt = 6.0
    for n, symbol_period in ((1984, 600.0), (3001, 42.0)):
        config = ModulationConfig(symbol_period=symbol_period, dose_mass=BENCH_DOSE, route=Route.EXTRAVASCULAR)
        receiver = Receiver(bench_pk, config, dt, n)
        assert receiver.n_windows * receiver.window < n
        stack = rng.random((3, n))
        records = [SampledSignal(0.0, dt, row, SignalRole.CONCENTRATION) for row in stack]
        sums = _window_sums(receiver, np.array([_deconvolved(bench_pk, config.route, r).samples for r in records]))
        assert receiver.window_map.shape == (n, receiver.n_windows)
        assert rel_max(stack @ receiver.window_map, sums) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    route=st.sampled_from((Route.INTRAVENOUS, Route.EXTRAVASCULAR)),
    pump_rate=st.sampled_from((1.3, None)),
    dt=st.sampled_from((5.0, 6.0, 12.0, 30.0)),
    n_windows=st.integers(min_value=3, max_value=15),
    extra=st.floats(min_value=0.0, max_value=0.999),  # part of a window past the last whole one
    rows=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1800.0), st.tuples(*[st.integers(0, 1)] * 8)),
        min_size=1,
        max_size=3,
    ),
)
def test_window_map_matches_the_decoded_window_sums(route, pump_rate, dt, n_windows, extra, rows):
    bench_pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    config = _link_config(route, pump_rate)
    w = int(round(600.0 / dt))
    n = n_windows * w + int(extra * w)
    records = [_clean_frame_signal(bench_pk, config, payload, dt, n, start=start) for start, payload in rows]
    receiver = Receiver(bench_pk, config, dt, n)
    decoded = _window_sums(receiver, np.array([_deconvolved(bench_pk, route, r).samples for r in records]))
    stats = np.array([r.samples for r in records]) @ receiver.window_map
    # Both paths round in proportion to the gain of the inverse, which is
    # about 16 at the default weight, the map's.
    tol = 1e-12 * BENCH_DOSE
    assert stats.shape == decoded.shape
    assert np.max(np.abs(stats - decoded), initial=0.0) <= tol
    assert np.array_equal(receiver.frames(stats, 0)[0], receiver.frames(decoded, 0)[0])
    clear = np.abs(decoded - receiver.threshold) > tol
    assert np.array_equal((stats > receiver.threshold)[clear], (decoded > receiver.threshold)[clear])
