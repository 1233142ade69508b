"""Line reach report: which lines of `qcf` the commands never run.

Runs `qcf.cli.main` in this process under a line trace, for every command on
each document of tests/golden (with `--targets P,P` for `tensor`) and for the
three benchmark workloads, their documents written at seeds 0 and 1 by
`perfbench.workloads.write_inputs`. Then it prints, per module, each function
with the body lines that no run reached, or "never called". It fails only
when a run raises; a report with unreached lines still exits 0.

    python3 tests/reach.py

The trace is installed before `qcf` is imported. It is not collected by
pytest. The methods that `qcf._record` compiles with `exec` belong to no
module file, so the report does not list them.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcf"
FILES = {str(path) for path in PACKAGE.glob("*.py")}

hits: dict[int, set[int]] = {}  # id of a traced code object -> lines reached
tracers: dict[int, object] = {}
codes: list = []  # the traced code objects, kept alive so their ids stay theirs


def _trace(frame, event, arg):
    code = frame.f_code
    key = id(code)
    local = tracers.get(key)
    if local is None:
        if code.co_filename not in FILES:
            return None
        codes.append(code)
        lines = hits[key] = set()
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        tracers[key] = local
    return local


sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
sys.settrace(_trace)

from qcf import cli  # noqa: E402
from perfbench.workloads import WORKLOADS, write_inputs  # noqa: E402


def runs(directory: Path):
    """The argument lists of every run: each command on each golden
    document, then each workload at seeds 0 and 1."""
    for doc in sorted((ROOT / "tests" / "golden").glob("*.qcf")):
        for command in cli.COMMANDS:
            args = [command, "--input", str(doc)]
            if command == "tensor":
                args += ["--targets", "P,P"]
            yield args
    for workload in WORKLOADS:
        for seed in (0, 1):
            yield write_inputs(workload, seed, directory / f"{workload}-{seed}")


def body_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def functions(code, owner=None):
    """(qualified name, code objects) per function under `code`: a lambda's
    or comprehension's code counts as its enclosing function's."""
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        if const.co_name.startswith("<") and owner is not None:
            owner[1].append(const)
            yield from functions(const, owner)
        else:
            entry = (const.co_qualname, [const])
            yield from functions(const, entry)
            # a class body is no function: only its methods are reported
            if const.co_flags & 0x2:  # CO_NEWLOCALS
                yield entry


def ranges(lines: list[int]) -> str:
    parts = []
    start = prev = lines[0]
    for line in lines[1:]:
        if line != prev + 1:
            parts.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
        prev = line
    parts.append(str(start) if start == prev else f"{start}-{prev}")
    return ", ".join(parts)


def report() -> None:
    reached: dict[tuple, set[int]] = {}
    for code in codes:
        key = (code.co_filename, code.co_firstlineno, code.co_qualname)
        reached.setdefault(key, set()).update(hits[id(code)])
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        lines_out = []
        for name, parts in sorted(functions(module), key=lambda f: f[1][0].co_firstlineno):
            missed = set()
            for code in parts:
                got = reached.get((code.co_filename, code.co_firstlineno, code.co_qualname), ())
                missed |= body_lines(code) - set(got)
            if (str(path), parts[0].co_firstlineno, name) not in reached:
                lines_out.append(f"  {name}: never called")
            elif missed:
                lines_out.append(f"  {name}: lines {ranges(sorted(missed))}")
        print(f"qcf.{path.stem}: {len(lines_out)} functions not fully reached")
        print("\n".join(lines_out) if lines_out else "  (every line reached)")


def main() -> int:
    t0 = time.perf_counter()
    statuses = []
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for args in runs(directory):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = cli.main(args + ["--output", str(directory / "report.json")])
            statuses.append(status)
    sys.settrace(None)
    seconds = time.perf_counter() - t0
    failed = sum(status != 0 for status in statuses)
    print(f"{len(statuses)} runs in {seconds:.1f} s, {failed} exited with status 2 (refused input)")
    report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
