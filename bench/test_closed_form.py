"""Closed-form channel timings: the extravascular curve, its columns, superpose.

channel._model is the one closed form behind the concentration curves and
the least-squares fit; a fit evaluates its prediction once per trial step
and its derivative columns once per iteration.  The grid is rat-oral's
72 001 samples (dt = 1 s, flip-flop rates k_a < k_e), the length of the
dense curves the fits in the long-grid workload read.  superpose is
timed on the same scenario, whose one 30 s infusion makes two step
responses on that grid.

Not part of the test suite (pyproject's testpaths collects tests/ only).
Run from the root of a checkout:

    python -m pytest bench/test_closed_form.py --benchmark-json bench/closed-form.json
"""

import numpy as np
import pytest

from pklink import channel
from pklink.channel import Route
from pklink.scenarios import resolve_scenario

SCENARIO = resolve_scenario("rat-oral")
GRID = SCENARIO.dt * np.arange(SCENARIO.grid_size())
PK = SCENARIO.pk


def _prediction():
    return channel._model(Route.EXTRAVASCULAR, GRID, PK.k_e, PK.F / PK.V, PK.k_a)[0]


def _prediction_and_columns():
    prediction, columns = channel._model(Route.EXTRAVASCULAR, GRID, PK.k_e, PK.F / PK.V, PK.k_a)
    jacobian = np.empty((GRID.size, 3))
    columns(jacobian, (1.0, 1.0, 1.0))
    return prediction, jacobian


def _superpose():
    return channel.superpose(PK, SCENARIO.route, SCENARIO.schedule(), GRID)


CASES = {"prediction": _prediction, "prediction-and-columns": _prediction_and_columns, "superpose": _superpose}


@pytest.mark.parametrize("case", list(CASES))
def test_closed_form(benchmark, case):
    out = benchmark(CASES[case])
    curve = out[0] if case == "prediction-and-columns" else out
    assert curve.shape == GRID.shape and np.all(np.isfinite(curve))
