"""In-memory call spans around pklink's public functions.

The tracer wraps functions at the module attribute their callers look up
(``pklink.cli.integrate_ode``, not ``pklink.signals.integrate_ode``), so
the program's own files are untouched and the spans sit at the boundary
between two modules.  Wrappers are installed for a traced round and
removed afterwards, so untraced rounds run the original functions.

A span is ``[name, op, parent, start, end, child_time, error, note]``:
``parent`` indexes the enclosing span (-1 for a root), ``child_time`` is
the time covered by direct children, ``error`` names an exception that
escaped the call and ``note`` holds a per-call value that a layer metric
needs (the kernel key of a detection, the iterations of a fit).  The
process runs one thread and no queues, so no span waits on another and
the layers have no wait time to report.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

NAME, OP, PARENT, START, END, CHILD, ERROR, NOTE = range(8)

DETECTION_ERRORS = ("SynchronizationError", "TruncationError")


def _detect_key(args, kwargs, result):
    received = args[0] if args else kwargs["received"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    return (params, config.route, received.dt, len(received))


def _fit_iterations(args, kwargs, result):
    return 0 if result is None else result.iterations


# (span name, owner, attribute, note).  Owners are named "module" or
# "module:Class"; each attribute is the one the callers in the traced
# paths resolve at call time.
TARGETS = (
    ("cli.main", "pklink.cli", "main", None),
    ("scenarios.resolve_scenario", "pklink.cli", "resolve_scenario", None),
    ("channel.superpose", "pklink.cli", "superpose", None),
    ("channel.superpose", "pklink.modem", "superpose", None),
    ("signals.sample", "pklink.cli", "sample", None),
    ("signals.sample", "pklink.modem", "sample", None),
    ("signals.dose_rate_signal", "pklink.cli", "dose_rate_signal", None),
    ("signals.integrate_ode", "pklink.cli", "integrate_ode", None),
    ("testbed.simulate_platform", "pklink.cli", "simulate_platform", None),
    ("signals.sampled_kernel", "pklink.modem", "sampled_kernel", None),
    ("signals.deconvolve", "pklink.modem", "deconvolve", None),
    ("modem.detect", "pklink.cli", "detect", _detect_key),
    ("modem.detect", "pklink.modem", "detect", _detect_key),
    ("modem.add_noise", "pklink.cli", "add_noise", None),
    ("modem.add_noise", "pklink.modem", "add_noise", None),
    ("fitting.from_csv", "pklink.fitting:ConcentrationSeries", "from_csv", None),
    ("fitting.fit_residuals", "pklink.cli", "fit_residuals", None),
    ("fitting.fit_least_squares", "pklink.cli", "fit_least_squares", _fit_iterations),
)


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span recorder; spans stay in memory until ``write`` is called."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.op, parent, time.perf_counter(), 0.0, 0.0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list):
        record[END] = time.perf_counter()
        self._stack.pop()
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][CHILD] += record[END] - record[START]

    @contextlib.contextmanager
    def root(self, op: int):
        """Root span of one benchmark operation; its children share the op id."""
        self.op = op
        record = self._open("op")
        try:
            yield record
        finally:
            self._close(record)
            self.op = None

    def _wrap(self, name: str, fn, note):
        def traced(*args, **kwargs):
            record = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                if note is not None:
                    record[NOTE] = note(args, kwargs, result)
                self._close(record)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, spec, attr, note in TARGETS:
                owner = _owner(spec)
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, note)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, note))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path, t0: float):
        """Write the spans as JSON lines, times relative to t0."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "op": s[OP], "parent": s[PARENT],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "self": s[END] - s[START] - s[CHILD], "error": s[ERROR],
                }) + "\n")


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced round's spans."""
    totals: dict[str, float] = {}
    seen_kernels = set()
    detect_calls = detect_failed = repeats = 0
    for s in spans:
        name = s[NAME]
        if name == "op":
            continue
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + (s[END] - s[START] - s[CHILD])
        if name == "modem.detect":
            detect_calls += 1
            detect_failed += s[ERROR] in DETECTION_ERRORS
            repeats += s[NOTE] in seen_kernels
            seen_kernels.add(s[NOTE])
        elif name == "fitting.fit_least_squares":
            key = "fitting.fit_least_squares.iterations"
            totals[key] = totals.get(key, 0) + s[NOTE]
    totals["modem.detect.fail_ratio"] = detect_failed / detect_calls if detect_calls else 0.0
    totals["modem.detect.kernel_repeat_ratio"] = repeats / detect_calls if detect_calls else 0.0
    return totals


def median_totals(rounds: list[dict[str, float]], names) -> dict[str, float]:
    """Median over rounds of each named total (0 where a round lacks it)."""
    return {name: statistics.median(r.get(name, 0) for r in rounds) for name in names}
