"""Lines of the package that the benchmark workloads and the acceptance gate never reach.

Runs one round of each perfbench workload (seed 1, the operations that
perfbench/workloads.py builds, each once, plus the workload's mass audit)
and then tests/test_acceptance.py, all under one sys.settrace line
trace, and prints, per module of src/pklink, the executable lines that
none of them executes.  A listed line is reached only by the unit tests,
or by nothing: a candidate for removal, or for a workload.

Not part of the test suite (pyproject's testpaths collects tests/ only,
and the file has no test_ prefix).  Run from the root of a checkout:

    PYTHONPATH=src python bench/traffic.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pklink"
SEED = 1


def line_tracer(reached: dict[str, set[int]]):
    """A sys.settrace function that adds each line executed in a file named
    in reached to that file's set, and traces no other file."""

    def trace(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None  # not the package: no line events

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_code.co_firstlineno)
        return local

    return trace


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from path attribute instructions to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a code object starts at line 0
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_workloads() -> list[str]:
    """One round of each workload; returns the operations that did not exit
    as expected and the failed mass audits."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pklink import cli
    import workloads

    problems = []
    for name in workloads._BUILDERS:
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.build(name, SEED, workdir)
            for i, op in enumerate(ops):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    if op.call is None:
                        code = cli.main(op.argv)
                    else:
                        op.call()
                        code = 0
                if code != op.expect:
                    problems.append(f"{name} op {i} ({op.kind}): exit {code}, expected {op.expect}")
            problems += [f"{name}: mass audit {r:.3e} on {s}" for s, r in workloads.audit_failures(ops).items()]
    return problems


def main() -> int:
    reached = {str(path): set() for path in PACKAGE.glob("*.py")}
    sys.settrace(line_tracer(reached))
    try:
        problems = run_workloads()
        import pytest

        gate = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    finally:
        sys.settrace(None)
    if gate != 0:
        problems.append(f"tests/test_acceptance.py exited {gate}")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - reached[str(path)])
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} executable lines not reached")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"total: {total} lines not reached")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
