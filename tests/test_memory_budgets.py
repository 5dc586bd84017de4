"""Traced-heap budgets of the dense paths on a 72 001-sample grid.

A dense fit reads its CSV once, as bytes, and the fitter and the
integrating engines build their grid-length arrays in place, so each call
holds a few arrays the length of the grid at its peak.  The budgets are
about 15% above the peaks tracemalloc reads for them (numpy reports its
array buffers to tracemalloc), so a change that brings back a decoded copy
of the file or a handful of temporaries fails here.
"""

import tracemalloc

import numpy as np
import pytest

from pklink import cli
from pklink.channel import Route, ev_concentration
from pklink.fitting import ConcentrationSeries, fit_least_squares, fit_residuals
from pklink.scenarios import resolve_scenario

MB = 1e6

# Traced peaks (bytes) of each call; one float array of the grid takes 0.58 MB.
FROM_CSV_BUDGET = 3.9 * MB  # the file's 2.1 MB of bytes and the 1.2 MB table
FIT_BUDGET = 4.8 * MB  # 7 arrays: the model's three, the residual, the Jacobian's three columns
SIMULATE_BUDGET = 5.4 * MB  # 8 arrays: two engines' curves, the twin's input, jumps, states, scan blocks


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rat_oral_csv(tmp_path_factory):
    """A 72 001-row t,c file: rat-oral's extravascular curve with 1% seeded noise."""
    scenario = resolve_scenario("rat-oral")
    t = scenario.dt * np.arange(scenario.grid_size())
    c = ev_concentration(scenario.pk, 522.0, t) * (1.0 + 0.01 * np.random.default_rng(1).standard_normal(t.size))
    path = tmp_path_factory.mktemp("dense") / "rat-oral.csv"
    path.write_text("t,c\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), c.tolist())))
    return path


def test_csv_reader_holds_the_file_once(rat_oral_csv):
    peak = _traced_peak(lambda: ConcentrationSeries.from_csv(rat_oral_csv, Route.EXTRAVASCULAR, 522.0))
    assert rat_oral_csv.stat().st_size > 2 * MB
    assert peak <= FROM_CSV_BUDGET


def test_least_squares_fit_stays_in_budget(rat_oral_csv):
    data = ConcentrationSeries.from_csv(rat_oral_csv, Route.EXTRAVASCULAR, 522.0)
    init = fit_residuals(data).params
    assert _traced_peak(lambda: fit_least_squares(data, init)) <= FIT_BUDGET


def test_simulate_stays_in_budget():
    scenario = resolve_scenario("rat-oral")
    assert scenario.grid_size() == 72001
    assert _traced_peak(lambda: cli.run_simulate(scenario)) <= SIMULATE_BUDGET
