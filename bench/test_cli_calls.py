"""In-process call timings: repeated cli.main calls and one BER sweep.

A program that drives pklink from Python, as the sweep-cli benchmark
workload does, calls cli.main once per short run and ber_sweep for its
error-rate curves.  Each round of a cli.main case is one call in the same
process, with its standard output kept in memory: link on link-ev (a short
frame), to stdout and with --out over the same temporary file on every
round, plan of bench-iv's vessel volumes, and the list of built-in
scenarios, so the per-call costs (argument parsing, scenario loading,
validation, opening the output file) weigh as they do in such a program.
The sweep decides 200 bench-link frames (extravascular, 1.3 mg/s pump) at
five sigmas.

Not part of the test suite (pyproject's testpaths collects tests/ only).
Run from the root of a checkout:

    python -m pytest bench/test_cli_calls.py --benchmark-json bench/cli-calls.json
    python -m pytest bench/test_cli_calls.py -k "cli_main and link" --benchmark-json bench/cli-out.json
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from pklink import cli
from pklink.channel import PkParams, Route
from pklink.modem import ModulationConfig, ber_sweep

CALLS = {
    "link": ["link", "--scenario", "link-ev"],
    "plan": ["plan", "--mode", "volumes", "--scenario", "bench-iv"],
    "scenarios": ["scenarios"],
}

# The flow-bench rates and volume, and the link's symbol timing and dose.
BENCH_PK = PkParams(k_e=1.51e-3, V=0.98 / 1.51e-3, k_a=3.27e-3)
SWEEP_CONFIG = ModulationConfig(symbol_period=600.0, dose_mass=130.0, route=Route.EXTRAVASCULAR, pump_rate=1.3)
SWEEP_SIGMAS = (0.0, 0.05, 0.15, 0.5, 1.5)


@pytest.mark.parametrize("case", list(CALLS))
def test_cli_main(benchmark, case):
    def call():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(CALLS[case])
        return code, out.getvalue()

    code, text = benchmark(call)
    assert code == 0 and text


def test_cli_main_link_out(benchmark):
    # link with --out, over the file the previous round wrote
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "link.csv"
        argv = CALLS["link"] + ["--out", str(out)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        assert benchmark(call) == 0
        assert out.read_text().startswith("symbol,statistic,decision\n")


def test_ber_sweep(benchmark):
    rates = benchmark(lambda: ber_sweep(BENCH_PK, SWEEP_CONFIG, SWEEP_SIGMAS, 200, seed=1))
    assert rates[0] == 0.0 and len(rates) == len(SWEEP_SIGMAS)
