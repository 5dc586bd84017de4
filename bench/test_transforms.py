"""Receiver timings: recover one record and sum it per window, as detect does.

detect builds a Receiver (the frame geometry), samples the channel kernel,
deconvolves the record through it and sums the recovered waveform per
symbol window.  The deconvolution takes three real FFTs at the size
signals.next_fast_len picks, so this is the layer that size rule moves.
n = 15 001 is a 15 000 s frame at dt = 1 s, n = 3 001 the same at dt = 5 s.

Not part of the test suite (pyproject's testpaths collects tests/ only).
Run from the root of a checkout:

    python -m pytest bench/test_transforms.py --benchmark-json bench/transforms.json
"""

import numpy as np
import pytest

from pklink.channel import PkParams, Route
from pklink.modem import ModulationConfig, Receiver
from pklink.signals import SampledSignal, SignalRole, deconvolve, sampled_kernel

BENCH_PK = PkParams(k_e=1.51e-3, V=0.98 / 1.51e-3, k_a=3.27e-3)
CONFIG = ModulationConfig(symbol_period=600.0, dose_mass=130.0, route=Route.EXTRAVASCULAR, pump_rate=1.3)
HORIZON = 15000.0


@pytest.mark.parametrize("n", [15001, 3001])
def test_receiver_build_and_recover(benchmark, n):
    dt = HORIZON / (n - 1)
    record = SampledSignal(0.0, dt, np.random.default_rng(n).random(n), SignalRole.CONCENTRATION)

    def build_and_recover():
        receiver = Receiver(BENCH_PK, CONFIG, dt, n)
        recovered = deconvolve(record, sampled_kernel(BENCH_PK, CONFIG.route, dt, n), output_length=n)
        w, n_windows = receiver.window, receiver.n_windows
        return recovered.samples[: n_windows * w].reshape(1, n_windows, w).sum(axis=2) * dt

    stats = benchmark(build_and_recover)
    assert stats.shape == (1, n // round(CONFIG.symbol_period / dt))
