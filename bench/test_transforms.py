"""Receiver timings: build a Receiver for one record and decode it.

A Receiver build samples the channel kernel and takes its transform; decode
transforms the record and inverts it.  The three real FFTs run at the size
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

BENCH_PK = PkParams(k_e=1.51e-3, V=0.98 / 1.51e-3, k_a=3.27e-3)
CONFIG = ModulationConfig(symbol_period=600.0, dose_mass=130.0, route=Route.EXTRAVASCULAR, pump_rate=1.3)
HORIZON = 15000.0


@pytest.mark.parametrize("n", [15001, 3001])
def test_receiver_build_and_decode(benchmark, n):
    dt = HORIZON / (n - 1)
    record = np.random.default_rng(n).random((1, n))

    def build_and_decode():
        return Receiver(BENCH_PK, CONFIG, dt, n).decode(record)

    _, stats, _ = benchmark(build_and_decode)
    assert stats.shape == (1, n // round(CONFIG.symbol_period / dt))
