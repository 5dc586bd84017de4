"""Benchmark code outside the test suite still runs against the package.

The benchmark tracer still finds every function it wraps, and the
pytest-benchmark module still builds and decodes with the Receiver API.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
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


def test_receiver_benchmark_runs_once_per_size():
    # bench/ lies outside testpaths, so a Receiver or TikhonovSolve change
    # would otherwise break it unnoticed; the stand-in benchmark fixture
    # calls the timed function once
    bench = _load(ROOT / "bench" / "test_transforms.py", "bench_transforms").test_receiver_build_and_decode
    (mark,) = [m for m in bench.pytestmark if m.name == "parametrize"]
    argnames, sizes = mark.args
    assert argnames == "n" and sizes
    for n in sizes:
        bench(lambda run: run(), n)
