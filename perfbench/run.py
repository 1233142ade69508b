"""End-to-end benchmark of the `qcf` CLI.

    python3 perfbench/run.py [--workload hopf-verify|forms|embed|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program under test is the
checkout's `src/qcf`, never an installed copy.

Each sample is one `qcf COMMAND` invocation in a fresh interpreter, and the
next starts only after it exits: a closed loop with one client. A fresh
process per sample matters because `scalars._MUL_CACHE`,
`scalars._POWER_CACHE` and the cyclotomic-polynomial cache live for the
whole process, and a CLI user always starts them cold.

Times are normalized to the host's speed. On a shared host a CPU's speed
changes by up to 1.7x in spells of seconds to minutes, so raw wall times of
identical runs spread more than any useful bound. The benchmark therefore
pins itself and its child to one CPU and stops the child every SLICE_S
seconds to time a fixed calibration kernel there. Each running interval of
the child is scaled by CAL_REF_S over the mean kernel time on either side of
it: a time is given in seconds of a host on which the kernel takes CAL_REF_S.
The raw running times are printed too, and kept in the result file.

`--trace 0` starts invocations while the next one is expected to end within
`--seconds`, then runs SETUP_RUNS set-up-only invocations, and reports
(medians over the run, normalized as above):

    wall_s       spawn to exit of one invocation, stopped intervals excluded
    setup_s      spawn until the document is parsed and resolved
    peak_rss_mb  the child's peak resident set (VmHWM)

and prints failure_rate: invocations with a nonzero exit, a timeout or a
failed output check, over invocations attempted. Every report is checked for
content; at the default seed its SHA-256 must also match golden.json.

`--trace 1` runs one plain and one traced invocation, neither stopped for
calibration and both timed raw like the spans, and reports the
per-layer metrics of tracer.py, named `<module>.<function>.<measure>`, plus
`<module>.self_s` for every module and `trace.overhead_ratio`.

`--workload all` (the default) runs every workload both ways. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit status is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))  # the forms inputs come from qcf.rand

import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

SETUP_RUNS = 4
INVOCATION_TIMEOUT_S = 120
RUN_DEADLINE_S = 160  # every run, trace analysis included, exits within 180 s

SLICE_S = 0.25  # the child runs this long between calibrations
CAL_ITERATIONS = 3000
CAL_REF_S = 0.025  # the kernel's time on the reference host: about its
                   # fastest on a 2-vCPU Xeon VM under Python 3.11

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"scalars.{op}.{m}": "count" for op in ("cyc_mul", "cyc_add") for m in ("m1", "m4", "m8")},
    "scalars.cyc_mul.calls": "count",
    "scalars.cyc_mul.busy_s": "s",
    "scalars.cyc_add.calls": "count",
    "scalars.cyc_add.busy_s": "s",
    "scalars.cyc_inv.calls": "count",
    "scalars.cached_mul.calls": "count",
    "scalars.cached_mul.busy_s": "s",
    "scalars.cached_mul.hit_ratio": "ratio",
    "lincomb.add_term.calls": "count",
    "lincomb.add_term.busy_s": "s",
    "lincomb.eq.calls": "count",
    "lincomb.eq.busy_s": "s",
    "lincomb.scale.calls": "count",
    "lincomb.map_linear.busy_s": "s",
    "lincomb.pair_tensor.busy_s": "s",
    "lincomb.expand_slot.busy_s": "s",
    "linalg.sparse_int_nullspace.busy_s": "s",
    "linalg.sparse_int_echelon.busy_s": "s",
    "linalg.rows": "count",
    "linalg.unknowns": "count",
    "linalg.pivots": "count",
    "linalg.sparse_int_rank.busy_s": "s",
    "linalg.field_nullspace.busy_s": "s",
    "linalg.field_nullspace.cells": "count",
    "forms.balanced_space_bruteforce.self_s": "s",
    "forms.is_balanced.busy_s": "s",
    "forms.radicals.busy_s": "s",
    "forms.form_params.busy_s": "s",
    "hopf.build_Hn.busy_s": "s",
    "hopf.compute_antipode.busy_s": "s",
    "hopf.verify_hopf.busy_s": "s",
    "hopf.mul_lin_basis.calls": "count",
    "hopf.mul_lin_basis.busy_s": "s",
    "hopf.mul_basis_lin.calls": "count",
    "hopf.mul_basis_lin.busy_s": "s",
    "hopf.mul_tensor2.calls": "count",
    "hopf.mul_tensor2.busy_s": "s",
    "hopf.mul.calls": "count",
    "posets.embed.self_s": "s",
    "posets.poset_build.busy_s": "s",
    "posets.incidence_build.busy_s": "s",
    "posets.incidence_validate.busy_s": "s",
    "posets.comul.calls": "count",
    "quiver.splits.calls": "count",
    "quiver.splits.busy_s": "s",
    "quiver.comul.calls": "count",
    "quiver.build_family.busy_s": "s",
    "dsl.parse.busy_s": "s",
    "dsl.input_bytes": "bytes",
    "cli.resolve.busy_s": "s",
    "cli.command.busy_s": "s",
    "cli.serialize.busy_s": "s",
    "cli.report_bytes": "bytes",
    **{f"{module}.self_s": "s" for module in tracer.MODULES},
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# metrics that must repeat exactly between two traced runs of one document
COUNTS = sorted(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes"))


class Run:
    """The invocations of one run, with their samples and failures."""

    def __init__(self, workload: str, seed: int, small: bool = False, golden: str | None = None):
        self.workload = workload
        self.seed = seed
        self.small = small
        self.dir = WORK / (f"{workload}-small" if small else workload)
        self.golden = golden  # SHA-256 every report must have, if given
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.args: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.wall: list[float] = []
        self.raw_wall: list[float] = []
        self.setup: list[float] = []
        self.rss_mb: list[float] = []

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.args = workloads.write_inputs(self.workload, self.seed, self.dir / "input", self.small)

    def invoke(self, mode: str, sliced: bool = True) -> dict | None:
        """One child interpreter; returns its timings, or None on failure.

        Unsliced, the child is never stopped, so times it measures itself
        hold no calibration time."""
        self.attempted += 1
        stamp = self.dir / "stamp.json"
        report = self.dir / "report.json"
        for stale in (stamp, report):
            stale.unlink(missing_ok=True)
        argv = [*self.args, "--output", str(report)]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(self.seed % 2**32))
        timeout = max(1, min(INVOCATION_TIMEOUT_S, int(self.deadline - time.monotonic())))
        with open(self.dir / "stderr.txt", "wb") as err:
            status, slices, cals = _run_sliced(
                [sys.executable, str(HERE / "child.py"), mode, str(stamp), *argv],
                timeout, sliced, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
        if status is None:
            return self.fail(f"{mode}: timed out after {timeout} s")
        if status != 0:
            tail = (self.dir / "stderr.txt").read_text(errors="replace").strip()[-400:]
            return self.fail(f"{mode}: exit status {status}: {tail}")
        stamps = json.loads(stamp.read_text())
        if mode != "setup":
            problem = judge(self.workload, report, self.golden, self.small)
            if problem:
                return self.fail(f"{mode}: {problem}")
        return {
            "wall_s": running_time(slices, cals),
            "setup_s": running_time(slices, cals, stamps["setup_done"]),
            "raw_wall_s": running_time(slices),
            "raw_main_s": running_time(slices, until=stamps["main_done"]),
            "peak_rss_mb": stamps["peak_rss_mb"],
        }

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAIL {self.workload} seed={self.seed}: {reason}", file=sys.stderr)
        return None

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline - 1


def _kernel() -> None:
    """Fixed stdlib work shaped like qcf's hot paths: exact rational products
    and sums hashed into a dict under tuple keys, and small-int arithmetic."""
    x = Fraction(1, 3)
    table: dict = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        y = x * Fraction(i % 17 + 1, i % 13 + 2) + Fraction(1, 7)
        key = (i % 97, y)
        table[key] = table.get(key, 0) + 1
        for j in range(20):
            total += j * i % 7


def calibrate() -> float:
    """Seconds the calibration kernel takes now, on this process's CPU."""
    t0 = time.monotonic()
    _kernel()
    return time.monotonic() - t0


def _run_sliced(argv: list[str], timeout: int, sliced: bool = True, **popen_args):
    """Run a child, stopping it every SLICE_S s (if `sliced`) to time the
    calibration kernel; kill it after `timeout` s.

    Returns (exit status, or None on a timeout; the child's running
    intervals; the kernel times, one before the first interval and one after
    each)."""
    cals = [calibrate()]
    start = time.monotonic()
    deadline = start + timeout
    child = subprocess.Popen(argv, **popen_args)
    slices = []
    pidfd = os.pidfd_open(child.pid)
    try:
        poll = select.poll()
        poll.register(pidfd, select.POLLIN)
        while True:
            wait_s = SLICE_S if sliced else max(0.0, deadline - time.monotonic())
            exited = poll.poll(int(wait_s * 1000))
            if not exited:
                os.kill(child.pid, signal.SIGSTOP)
            _, raw = os.waitpid(child.pid, 0 if exited else os.WUNTRACED)
            slices.append((start, time.monotonic()))
            cals.append(calibrate())
            if not os.WIFSTOPPED(raw):
                child.returncode = os.waitstatus_to_exitcode(raw)
                return child.returncode, slices, cals
            if time.monotonic() >= deadline:
                return None, slices, cals
            os.kill(child.pid, signal.SIGCONT)
            start = time.monotonic()
    finally:  # on a timeout or an interruption, never leave the child behind
        os.close(pidfd)
        if child.returncode is None:
            child.kill()
            child.wait()


def running_time(slices: list, cals: list[float] | None = None, until: float | None = None) -> float:
    """The child's running time up to `until` (to the end if None). With the
    kernel times `cals`, each interval is scaled by CAL_REF_S over the mean
    kernel time on either side of it."""
    total = 0.0
    for i, (start, end) in enumerate(slices):
        end = end if until is None else min(end, until)
        if end > start:
            total += (end - start) * (1 if cals is None else 2 * CAL_REF_S / (cals[i] + cals[i + 1]))
    return total


def judge(workload: str, report: Path, golden: str | None, small: bool) -> str | None:
    """Why a written report is wrong, or None when it passes every check."""
    try:
        data = report.read_bytes()
        parsed = json.loads(data)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    try:
        problem = workloads.check_report(workload, parsed, small)
    except (AttributeError, TypeError) as exc:  # JSON of the wrong shape
        return f"malformed report: {exc}"
    if problem:
        return problem
    if golden is not None and hashlib.sha256(data).hexdigest() != golden:
        return "report differs from the golden report for the default seed"
    return None


def measure(run: Run, seconds: float) -> dict:
    """Untraced samples while the next is expected to end within `seconds`,
    then SETUP_RUNS set-up-only ones."""
    start = time.monotonic()
    last = 0.0  # how long the previous invocation took, calibration included
    while not run.attempted or time.monotonic() - start + last <= seconds:
        if run.out_of_time():
            break
        t0 = time.monotonic()
        sample = run.invoke("run")
        last = time.monotonic() - t0
        if sample is not None:
            run.wall.append(sample["wall_s"])
            run.raw_wall.append(sample["raw_wall_s"])
            run.setup.append(sample["setup_s"])
            run.rss_mb.append(sample["peak_rss_mb"])
    for _ in range(SETUP_RUNS):
        if run.out_of_time():
            break
        sample = run.invoke("setup")
        if sample is not None:
            run.setup.append(sample["setup_s"])
    if not (run.wall and run.setup):
        return {}
    return {
        "wall_s": statistics.median(run.wall),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": statistics.median(run.rss_mb),
    }


def trace(run: Run) -> dict:
    """One plain and one traced invocation; per-layer metrics of the latter.

    Both run unsliced and their times are raw, like the spans the traced
    child records."""
    plain = run.invoke("run", sliced=False)
    traced = run.invoke("trace", sliced=False) if plain is not None else None
    if traced is None:
        return {}
    summary = tracer.summarize(run.dir / "stamp.json.spans")
    calls = summary.get("scalars.cached_mul.calls", 0)
    distinct = summary.get("scalars.cached_mul.distinct", 0)
    summary["scalars.cached_mul.hit_ratio"] = (calls - distinct) / calls if calls else 0.0
    summary["trace.overhead_ratio"] = traced["raw_main_s"] / plain["raw_main_s"]
    attributed = sum(summary.get(f"{m}.self_s", 0.0) for m in tracer.MODULES)
    summary["trace.unattributed_s"] = traced["raw_main_s"] - attributed
    metrics = {name: summary.get(name, 0) for name in PER_LAYER}
    shares = sorted(((summary[f"{m}.self_s"], m) for m in tracer.MODULES), reverse=True)
    print(
        f"{run.workload} self time by module (of {traced['raw_main_s']:.2f} s traced): "
        + ", ".join(f"{m} {t / traced['raw_main_s']:.1%}" for t, m in shares if t > 0)
    )
    if summary["missing"]:
        print(f"{run.workload} not traced, no longer defined: {', '.join(summary['missing'])}")
    if calls:
        print(f"{run.workload} cached_mul hit_ratio base: {calls} calls, {distinct} distinct products")
    return metrics


def _compare_pinned_counts(workload: str, metrics: dict) -> None:
    """Report counts that moved from golden.json (the counts at the default
    seed when the benchmark was defined). A moved count is not a failure: an
    optimization is expected to move some of them."""
    pinned = json.loads(GOLDEN.read_text())["counts"][workload]
    for name in COUNTS:
        if metrics[name] != pinned.get(name, 0):
            print(f"{workload} count {name}: {metrics[name]} (pinned {pinned.get(name, 0)})")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, small: bool = False):
    golden = None
    if seed == workloads.DEFAULT_SEED and not small:
        golden = json.loads(GOLDEN.read_text())["report_sha256"][workload]
    run = Run(workload, seed, small, golden)
    run.prepare()
    values = trace(run) if traced else measure(run, seconds)
    if traced and values and golden is not None:
        _compare_pinned_counts(workload, values)
    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(),
        "samples": {"wall_s": run.wall, "raw_wall_s": run.raw_wall, "setup_s": run.setup,
                    "peak_rss_mb": run.rss_mb},
        "failures": run.failures,
        "attempted": run.attempted,
        "metrics": metrics,
    }
    (run.dir / f"result-trace{int(traced)}.json").write_text(json.dumps(result, indent=1))
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{workload} {name} = {value} {m['unit']}")
    if not traced:
        # a tail percentile needs at least ten samples beyond it; runs this
        # short never have them, so only the median is reported
        print(f"{workload} samples: wall_s n={len(run.wall)}, setup_s n={len(run.setup)}")
        if run.raw_wall:
            print(f"{workload} raw running time, not normalized: median "
                  f"{statistics.median(run.raw_wall):.6g} s")
        rate = len(run.failures) / run.attempted
        print(f"{workload} failure_rate = {rate:.6g} ratio ({len(run.failures)}/{run.attempted})")
    ok = not run.failures and len(metrics) == len(units)
    return ok, run.attempted, len(run.failures), metrics


def precompile() -> None:
    """Byte-compile the sources once, so no sample pays for compilation."""
    if not compileall.compile_dir(str(SRC / "qcf"), quiet=1):
        raise SystemExit("error: qcf sources do not compile")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    flags = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # calibration only tells the child's speed on the child's own CPU: the
    # host slows each CPU independently
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "qcf" / "__init__.py").is_file():
        print(f"error: no qcf sources at {SRC}", file=sys.stderr)
        return 2
    precompile()
    print("environment: " + json.dumps(environment()))
    names = workloads.WORKLOADS if flags.workload == "all" else (flags.workload,)
    modes = (False, True) if flags.trace is None else (bool(flags.trace),)
    single = len(names) * len(modes) == 1
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        for traced in modes:
            ok, n, bad, values = run_workload(workload, flags.seed, flags.seconds, traced)
            correct &= ok
            attempted += n
            failed += bad
            prefix = "" if single else f"{workload}."
            metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
