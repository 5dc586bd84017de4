"""On-off keying over the concentration channel: framing through detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklink.channel import PkParams, Route, superpose
from pklink.errors import (
    ConfigurationError,
    DomainError,
    SynchronizationError,
    TruncationError,
)
from pklink.modem import (
    PREAMBLE,
    REFERENCE_PAYLOAD,
    BitFrame,
    ModulationConfig,
    PassivePill,
    Receiver,
    add_noise,
    ber,
    ber_sweep,
    detect,
    frame,
    modulate_ook,
    passive_pill_schedule,
)
from pklink.signals import SampledSignal, SignalRole, sample

from conftest import BENCH_DOSE, BENCH_K_A, BENCH_K_E, BENCH_V, rel_max


def _link_config(route, pump_rate=1.3):
    return ModulationConfig(
        symbol_period=600.0, dose_mass=BENCH_DOSE, route=route, pump_rate=pump_rate
    )


def _clean_frame_signal(pk, config, payload, dt, n, start=0.0):
    schedule = modulate_ook(frame(payload), config, start=start)
    return sample(
        lambda t: superpose(pk, config.route, schedule, t), 0.0, dt, n, SignalRole.CONCENTRATION
    )


def test_frame_prepends_preamble():
    f = frame((0, 1, 1))
    assert f.bits == PREAMBLE + (0, 1, 1)
    assert len(f) == 6
    with pytest.raises(DomainError):
        frame((0, 2))


def test_modulation_schedule_places_doses_at_one_bits():
    config = _link_config(Route.EXTRAVASCULAR)
    schedule = modulate_ook(frame(REFERENCE_PAYLOAD), config)
    starts = [e.time for e in schedule]
    # ones sit at the three preamble slots plus payload slots 1, 3, 6, 7
    assert starts == [0.0, 600.0, 1200.0, 2400.0, 3600.0, 5400.0, 6000.0]
    assert all(e.mass == BENCH_DOSE for e in schedule)
    assert all(e.duration == pytest.approx(100.0) for e in schedule)
    impulsive = modulate_ook(frame((1,)), ModulationConfig(600.0, 5.0, Route.INTRAVENOUS))
    assert [e.duration for e in impulsive] == [0.0, 0.0, 0.0, 0.0]


def test_pump_must_fit_the_symbol():
    with pytest.raises(ConfigurationError):
        ModulationConfig(symbol_period=600.0, dose_mass=130.0, route=Route.INTRAVENOUS,
                         pump_rate=0.1)
    with pytest.raises(DomainError):
        ModulationConfig(symbol_period=0.0, dose_mass=130.0, route=Route.INTRAVENOUS)


def test_passive_pill_encoding():
    pill = PassivePill.encode((1, 0, 1, 1), level_one=40.0, dissolution_times=(900.0, 600.0, 300.0, 0.0))
    levels = [c.level for c in pill.compartments]
    assert levels == [40.0, 20.0, 40.0, 40.0]
    schedule = passive_pill_schedule(pill)
    assert [e.time for e in schedule] == [0.0, 300.0, 600.0, 900.0]
    assert schedule.total_mass == 140.0
    assert all(e.duration == 0.0 for e in schedule)


def test_passive_pill_validation():
    from pklink.modem import PillCompartment

    with pytest.raises(ConfigurationError):
        PassivePill(compartments=(
            PillCompartment(level=10.0, dissolution_time=100.0),
            PillCompartment(level=10.0, dissolution_time=200.0),
        ))
    with pytest.raises(ConfigurationError):
        PassivePill(compartments=(
            PillCompartment(level=10.0, dissolution_time=200.0),
            PillCompartment(level=7.0, dissolution_time=100.0),
        ))
    with pytest.raises(DomainError):
        PassivePill.encode((1, 0), level_one=40.0, dissolution_times=(100.0,))


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


def test_detection_without_payload_length_decodes_all_windows(bench_pk):
    dt, n = 5.0, 3001
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, dt, n)
    report = detect(received, bench_pk, config, lam=0.0)
    assert report.payload_bits[:8] == REFERENCE_PAYLOAD
    # trailing windows past the frame carry no mass and decode as zeros
    assert all(b == 0 for b in report.payload_bits[8:])


def test_detection_grid_must_divide_the_symbol(bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, 7.0, 2000)
    with pytest.raises(ConfigurationError):
        detect(received, bench_pk, config)


def test_detection_reports_truncation(bench_pk):
    dt = 5.0
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, dt, 700)
    with pytest.raises(TruncationError):
        detect(received, bench_pk, config, payload_length=8)


def test_detection_needs_a_preamble(bench_pk):
    silent = SampledSignal(0.0, 5.0, np.zeros(2000), SignalRole.CONCENTRATION)
    config = _link_config(Route.INTRAVENOUS)
    with pytest.raises(SynchronizationError):
        detect(silent, bench_pk, config)
    short = SampledSignal(0.0, 5.0, np.zeros(200), SignalRole.CONCENTRATION)
    with pytest.raises(SynchronizationError):
        detect(short, bench_pk, config)


def test_detection_parameter_validation(bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, (1, 0), 5.0, 1500)
    with pytest.raises(DomainError):
        detect(received, bench_pk, config, payload_length=2, reference=(1, 0, 1))


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


def test_bit_error_rate_counts_mismatches():
    assert ber((1, 0, 1, 1), (1, 0, 1, 1)) == 0.0
    assert ber((1, 0, 1, 1), (0, 0, 1, 0)) == 0.5
    with pytest.raises(DomainError):
        ber((1, 0), (1, 0, 1))
    with pytest.raises(DomainError):
        ber((), ())


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


# BER lists of the frame-by-frame sweep (add_noise then detect for every
# frame and sigma), which the batched sweep must reproduce exactly:
# 30 frames, seed 7 unless noted, sigmas GOLDEN_SIGMAS.
GOLDEN_SIGMAS = (0.0, 0.05, 0.15, 0.5, 1.5)
GOLDEN_BER = [
    ((Route.INTRAVENOUS, 1.3, {}),
     [0.0, 0.0, 0.11666666666666667, 0.4041666666666667, 0.4791666666666667]),
    ((Route.INTRAVENOUS, None, {}),
     [0.6333333333333333, 0.4708333333333333, 0.37083333333333335, 0.45, 0.48333333333333334]),
    ((Route.EXTRAVASCULAR, 1.3, {}),
     [0.0, 0.0625, 0.3458333333333333, 0.5166666666666667, 0.5291666666666667]),
    ((Route.EXTRAVASCULAR, None, {}),
     [0.3875, 0.35833333333333334, 0.4375, 0.49583333333333335, 0.5291666666666667]),
    ((Route.EXTRAVASCULAR, 1.3, {"seed": 5, "spike_prob": 0.01, "spike_scale": 0.5}),
     [0.10833333333333334, 0.12916666666666668, 0.3541666666666667, 0.48333333333333334, 0.5125]),
]


@pytest.mark.parametrize("case, expected", GOLDEN_BER)
def test_ber_sweep_matches_the_frame_by_frame_golden_values(bench_pk, case, expected):
    route, pump_rate, options = case
    options = {"seed": 7, **options}
    rates = ber_sweep(bench_pk, _link_config(route, pump_rate), GOLDEN_SIGMAS, n_frames=30, **options)
    assert rates == expected


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
    with pytest.raises(DomainError):
        ber_sweep(bench_pk, config, [0.1], n_frames=2, lam=-1.0)


@settings(max_examples=40, deadline=None)
@given(
    route=st.sampled_from((Route.INTRAVENOUS, Route.EXTRAVASCULAR)),
    dt=st.sampled_from((5.0, 6.0, 12.0, 30.0)),
    lam=st.sampled_from((None, 0.0)),
    n_windows=st.integers(min_value=2, max_value=15),
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
    bench_pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    config = _link_config(route)
    w = int(round(600.0 / dt))
    n = n_windows * w + 1
    records = [
        add_noise(_clean_frame_signal(bench_pk, config, payload, dt, n, start=start), sigma, seed=j)
        for j, (start, payload, sigma) in enumerate(rows)
    ]
    receiver = Receiver(bench_pk, config, dt, n, lam=lam)
    recovered, stats, starts = receiver.decode(np.array([r.samples for r in records]))
    decisions, held = receiver.payload_decisions(stats, starts, 8)
    for i, record in enumerate(records):
        try:
            report = detect(record, bench_pk, config, payload_length=8, lam=lam)
        except SynchronizationError:
            assert starts[i] == -1
            continue
        except TruncationError:
            assert starts[i] >= 0 and not held[i]
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


@settings(max_examples=60, deadline=None)
@given(
    route=st.sampled_from((Route.INTRAVENOUS, Route.EXTRAVASCULAR)),
    pump_rate=st.sampled_from((1.3, None)),
    dt=st.sampled_from((5.0, 6.0, 12.0, 30.0)),
    lam=st.sampled_from((None, 0.0)),
    n_windows=st.integers(min_value=2, max_value=15),
    extra=st.floats(min_value=0.0, max_value=0.999),  # part of a window past the last whole one
    rows=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1800.0), st.tuples(*[st.integers(0, 1)] * 8)),
        min_size=1,
        max_size=3,
    ),
)
def test_window_map_matches_the_decoded_window_sums(route, pump_rate, dt, lam, n_windows, extra, rows):
    bench_pk = PkParams(k_e=BENCH_K_E, V=BENCH_V, k_a=BENCH_K_A)
    config = _link_config(route, pump_rate)
    w = int(round(600.0 / dt))
    n = n_windows * w + int(extra * w)
    records = np.array([
        _clean_frame_signal(bench_pk, config, payload, dt, n, start=start).samples for start, payload in rows
    ])
    receiver = Receiver(bench_pk, config, dt, n, lam=lam)
    _, decoded, decoded_starts = receiver.decode(records)
    stats, starts = receiver.decide(records)
    # Both paths round in proportion to the gain of the inverse, which is
    # 16 at the default weight but up to about 5e6 for exact inversion of
    # the extravascular kernel at dt 5 s, where they agree to about 3e-12
    # doses (and both sit up to 2e-8 doses from the exact sums).
    solve = receiver.solve
    gain = float(np.max(np.abs(solve.H_conj / solve.denom)) * np.max(np.abs(solve.H)))
    tol = 1e-16 * BENCH_DOSE * max(1e4, gain)
    assert stats.shape == decoded.shape
    assert np.max(np.abs(stats - decoded), initial=0.0) <= tol
    assert np.array_equal(starts, decoded_starts)
    clear = np.abs(decoded - receiver.threshold) > max(1e-9, tol)
    assert np.array_equal((stats > receiver.threshold)[clear], (decoded > receiver.threshold)[clear])
