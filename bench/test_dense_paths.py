"""Dense-path timings and traced peaks: the CSV reader, the fit, simulate.

The long-grid benchmark workload fits 72 001-row curves read from CSV and
simulates rat-oral on its 72 001-sample grid; these are its three dense
calls.  ConcentrationSeries.from_csv and fit_least_squares run on a t,c
file of rat-oral's extravascular curve with 1% seeded noise, written once
per case outside the timed region; cli.run_simulate runs the three
engines on rat-oral.  Each case first runs once under tracemalloc and
stores that call's traced peak, in MB, as extra_info["traced_peak_mb"];
the timed rounds run untraced.

Not part of the test suite (pyproject's testpaths collects tests/ only).
Run from the root of a checkout:

    python -m pytest bench/test_dense_paths.py --benchmark-json bench/dense-paths.json
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pklink import cli
from pklink.channel import Route, ev_concentration
from pklink.fitting import ConcentrationSeries, fit_least_squares, fit_residuals
from pklink.scenarios import resolve_scenario

SCENARIO = resolve_scenario("rat-oral")
DOSE = 522.0


def _write_curve(path: Path) -> None:
    t = SCENARIO.dt * np.arange(SCENARIO.grid_size())
    c = ev_concentration(SCENARIO.pk, DOSE, t) * (1.0 + 0.01 * np.random.default_rng(1).standard_normal(t.size))
    path.write_text("t,c\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), c.tolist())))


def _timed_call(case: str, path: Path):
    """The call a case times, with its input read beforehand."""
    if case == "from_csv":
        return lambda: ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, DOSE)
    if case == "fit_least_squares":
        data = ConcentrationSeries.from_csv(path, Route.EXTRAVASCULAR, DOSE)
        init = fit_residuals(data).params
        return lambda: fit_least_squares(data, init)
    return lambda: cli.run_simulate(SCENARIO)


@pytest.mark.parametrize("case", ["from_csv", "fit_least_squares", "run_simulate"])
def test_dense_path(benchmark, case):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rat-oral.csv"
        _write_curve(path)
        call = _timed_call(case, path)
        tracemalloc.start()
        try:
            call()
            benchmark.extra_info["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        result = benchmark(call)
    assert result is not None
