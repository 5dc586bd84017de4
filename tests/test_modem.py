"""On-off keying over the concentration channel: framing through detection."""

import numpy as np
import pytest

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
    add_noise,
    ber,
    ber_sweep,
    detect,
    frame,
    modulate_ook,
    passive_pill_schedule,
)
from pklink.signals import SampledSignal, SignalRole, sample

from conftest import BENCH_DOSE, rel_max


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
        detect(received, bench_pk, config, threshold_fraction=0.0)
    with pytest.raises(DomainError):
        detect(received, bench_pk, config, payload_length=2, reference=(1, 0, 1))


def test_report_csv_sections(tmp_path, bench_pk):
    config = _link_config(Route.INTRAVENOUS)
    received = _clean_frame_signal(bench_pk, config, REFERENCE_PAYLOAD, 5.0, 3001)
    report = detect(received, bench_pk, config, payload_length=8, lam=0.0,
                    reference=REFERENCE_PAYLOAD)
    path = tmp_path / "report.csv"
    report.to_csv(path)
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
