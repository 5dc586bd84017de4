"""The benchmark tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    # the tracer patches the attribute its owner holds, so an import the
    # package drops would break only a traced benchmark run
    spans = _load_spans()
    assert spans.TARGETS
    missing = [
        (owner, attribute)
        for _, owner, attribute, _ in spans.TARGETS
        if attribute not in vars(spans._owner(owner))
    ]
    assert missing == []
