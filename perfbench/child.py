"""One `qcf` invocation in a fresh interpreter, started by run.py.

    python child.py MODE STAMP QCF-ARGS...

MODE is `run` (the plain CLI), `setup` (import, parse and resolve the
document, then exit) or `trace` (the CLI with every layer boundary wrapped;
spans are written to STAMP.spans). STAMP receives the peak resident set and
the times at which set-up ended and the command returned. They are read from
CLOCK_MONOTONIC, which all processes on the machine share, so the parent
can subtract the time it spawned this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    Not ru_maxrss: on Linux that also counts the parent's resident set at the
    moment of exec, so it would read the memory of run.py."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, stamp, *argv = sys.argv[1:]
    stamps: dict = {}
    if mode == "trace":
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)

    import qcf
    from qcf import cli, dsl

    if Path(qcf.__file__).resolve().parent != SRC / "qcf":
        print(f"qcf imported from {qcf.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    resolve = cli.resolve

    def timed_resolve(*args, **kwargs):
        result = resolve(*args, **kwargs)
        stamps["setup_done"] = time.monotonic()
        return result

    cli.resolve = timed_resolve
    if mode == "setup":
        flags = cli.build_arg_parser().parse_args(argv)
        doc, diags = dsl.parse(Path(flags.input).read_text())
        if doc is not None:
            _, diags = cli.resolve(doc, Path(flags.input).parent)
        rc = 2 if doc is None or diags else 0
    else:
        rc = cli.main(argv)
    stamps["main_done"] = time.monotonic()
    stamps["peak_rss_mb"] = peak_rss_mb()
    if mode == "trace":
        # memo size at exit: cached_mul calls beyond it were hits
        memo = getattr(sys.modules["qcf.scalars"], "_MUL_CACHE", {})
        recorder.counters["scalars.cached_mul.distinct"] = len(memo)
        recorder.dump(Path(stamp + ".spans"))
    Path(stamp).write_text(json.dumps(stamps))
    return rc


if __name__ == "__main__":
    sys.exit(main())
