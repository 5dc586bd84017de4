"""Benchmark code outside the test suite still runs against the package.

The benchmark tracer still finds every function it wraps, every
benchmark operation exits and checks as the benchmark expects, and every
pytest-benchmark module under bench/ still runs against the package.
"""

import importlib.util
import sys
from pathlib import Path

from pklink import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks up its module while it is built
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    # the tracer patches the attribute its owner holds, so an import the
    # package drops would break only a traced benchmark run
    spans = _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    assert spans.TARGETS
    missing = [
        (owner, attribute)
        for _, owner, attribute, _ in spans.TARGETS
        if attribute not in vars(spans._owner(owner))
    ]
    assert missing == []


class _RunOnce:
    """Stand-in for pytest-benchmark's fixture: calls the timed function once."""

    def __init__(self):
        self.extra_info = {}

    def __call__(self, run):
        return run()


def test_every_bench_module_runs_once():
    # bench/ lies outside testpaths, so a change to what a pytest-benchmark
    # module calls would otherwise break it unnoticed; each test in each
    # bench/test_*.py runs once per parameter set, with a stand-in
    # benchmark fixture that calls the timed function once
    ran = []
    for path in sorted((ROOT / "bench").glob("test_*.py")):
        module = _load(path, f"bench_{path.stem}")
        for name, bench in vars(module).items():
            if not name.startswith("test_"):
                continue
            cases = [{}]
            for mark in getattr(bench, "pytestmark", []):
                if mark.name == "parametrize":
                    argnames, values = mark.args
                    assert "," not in argnames
                    cases = [dict(case, **{argnames: value}) for case in cases for value in values]
            for case in cases:
                bench(_RunOnce(), **case)
            ran.append(f"{path.stem}::{name}")
    assert ran == [
        "test_cli_calls::test_cli_main",
        "test_cli_calls::test_cli_main_link_out",
        "test_cli_calls::test_ber_sweep",
        "test_closed_form::test_closed_form",
        "test_csv_writer::test_write_rows",
        "test_dense_paths::test_dense_path",
        "test_transforms::test_receiver_build_and_recover",
    ]


def test_every_workload_operation_passes_its_check_once(tmp_path, capsys):
    # the benchmark refuses a run in which an operation exits with another
    # code than expected or fails its output check; its inputs come from
    # the package (ev_concentration curves, scenario files), so a change
    # there can break a benchmark run without failing another test
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    for name in ("long-grid", "sweep-cli"):
        ops = workloads.build(name, 1, str(tmp_path / name))
        problems = []
        for index, op in enumerate(ops):
            if op.call is not None:
                code, stdout = 0, op.call()
            else:
                code = cli.main(op.argv)
                stdout = capsys.readouterr().out
            if code != op.expect:
                problems.append((index, op.label, f"exit {code}, expected {op.expect}"))
            elif code == 0 and op.check is not None:
                problem = op.check(stdout, op.out)
                if problem:
                    problems.append((index, op.label, problem))
        assert problems == [], name
        assert workloads.audit_failures(ops) == {}, name
