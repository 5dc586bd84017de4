"""CSV writer timings: cli._write_rows on the columns simulate and impulse write.

rat-oral simulate writes 72 001 rows of t, analytic, ode and platform, whose
ode and platform columns are the same doubles bit for bit; bench-ev impulse
writes 8 001 rows of seven columns, no two alike.  The columns are computed
once, outside the timed region, so only the formatting is timed.

Not part of the test suite (pyproject's testpaths collects tests/ only).
Run from the root of a checkout:

    python -m pytest bench/test_csv_writer.py --benchmark-json bench/csv-writer.json
"""

import io

import numpy as np
import pytest

from pklink import cli
from pklink.channel import Normalization, Route, impulse_response, peak_time
from pklink.scenarios import resolve_scenario


def _simulate_columns():
    signals, _ = cli.run_simulate(resolve_scenario("rat-oral"))
    return ("t",) + cli.ENGINES, [signals["analytic"].times] + [signals[e].samples for e in cli.ENGINES]


def _impulse_columns():
    scenario = resolve_scenario("bench-ev")
    t = np.arange(scenario.grid_size()) * scenario.dt
    header, columns = ["t"], [t]
    for route, tag in ((Route.INTRAVENOUS, "iv"), (Route.EXTRAVASCULAR, "ev")):
        conc = impulse_response(scenario.pk, route, t, Normalization.CONCENTRATION)
        peak = impulse_response(scenario.pk, route, peak_time(scenario.pk, route), Normalization.CONCENTRATION)
        header += [f"{tag}_amount", f"{tag}_conc", f"{tag}_norm"]
        columns += [impulse_response(scenario.pk, route, t, Normalization.AMOUNT), conc, conc / peak]
    return header, columns


@pytest.mark.parametrize("case", ["rat-oral-simulate", "bench-ev-impulse"])
def test_write_rows(benchmark, case):
    header, columns = _simulate_columns() if case == "rat-oral-simulate" else _impulse_columns()

    def write():
        fh = io.StringIO()
        cli._write_rows(fh, header, columns)
        return fh.getvalue()

    text = benchmark(write)
    assert text.count("\n") == len(columns[0]) + 1
