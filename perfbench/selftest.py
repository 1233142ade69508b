"""Reduced-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, on small documents, it checks that:

- the untraced and the traced run print every metric with its unit, and
  failure_rate;
- two traced runs of one document give identical counts;
- the wrappers replaced every name that another module imported;
- a truncated report, a report with a negative verdict, and a report that
  differs from the pinned hash by one byte are each judged wrong, and a
  wrong report is counted as a failed invocation.

It also checks that a child that outlives its timeout is reported as timed
out and killed, though it is stopped between slices, and that the benchmark
refuses to run without the `qcf` sources.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time

import run
import workloads

# modules that import a wrapped name and must look up the wrapper
IMPORT_SITES = {
    "scalars.cached_mul": {"qcf.lincomb", "qcf.hopf"},
    "lincomb.map_linear": {"qcf.hopf", "qcf.posets"},
    "lincomb.pair_tensor": {"qcf.hopf", "qcf.posets"},
    "lincomb.expand_slot": {"qcf.hopf"},
    "linalg.sparse_int_nullspace": {"qcf.forms"},
    "linalg.field_nullspace": {"qcf.forms"},
    "linalg.sparse_int_rank": {"qcf.posets"},
    "posets.embed": {"qcf.cli"},
}

# one verdict per workload that the content check must catch when negated
VERDICT = {"hopf-verify": "verified", "forms": "agree", "embed": "injective"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {message}")


def run_small(workload: str, traced: bool):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok, attempted, failed, metrics = run.run_workload(workload, 1, 0, traced, small=True)
    lines = out.getvalue().splitlines()
    expect(ok and failed == 0, f"{workload}: small run failed")
    units = run.PER_LAYER if traced else run.END_TO_END
    for name, unit in units.items():
        expect(
            any(l.startswith(f"{workload} {name} = ") and l.endswith(f" {unit}") for l in lines),
            f"{workload}: {name} is not printed with unit {unit}",
        )
    if not traced:
        expect(any(l.startswith(f"{workload} failure_rate = ") for l in lines),
               f"{workload}: failure_rate is not printed")
    return {name: metrics[name]["value"] for name in run.COUNTS} if traced else None


def check_corruption(workload: str) -> None:
    report = run.WORK / f"{workload}-small" / "report.json"
    good = report.read_bytes()
    digest = hashlib.sha256(good).hexdigest()
    expect(run.judge(workload, report, digest, True) is None, f"{workload}: good report rejected")
    key = f'"{VERDICT[workload]}": true'.encode()
    corrupted = {
        "truncated": good[: len(good) // 2],
        "negative verdict": good.replace(key, key.replace(b"true", b"false"), 1),
        "one byte": good.replace(b"\n", b" \n", 1),
    }
    for label, data in corrupted.items():
        report.write_bytes(data)
        expect(run.judge(workload, report, digest, True) is not None,
               f"{workload}: {label} report accepted")
    wrong = run.Run(workload, 1, small=True, golden="0" * 64)
    wrong.prepare()
    with contextlib.redirect_stderr(io.StringIO()):
        wrong.invoke("run")
    expect(wrong.attempted == 1 and len(wrong.failures) == 1,
           f"{workload}: a wrong report is not counted as a failure")


def check_import_sites(workload: str) -> None:
    sidecar = run.WORK / f"{workload}-small" / "stamp.json.spans.json"
    sites = json.loads(sidecar.read_text())["sites"]
    for name, modules in IMPORT_SITES.items():
        missing = modules - set(sites.get(name, ()))
        expect(not missing, f"{name} is not wrapped where {sorted(missing)} look it up")


def check_timeout_kills() -> None:
    t0 = time.monotonic()
    status, slices, cals = run._run_sliced(
        [sys.executable, "-c", "while True: pass"], 1, stdout=subprocess.DEVNULL)
    expect(status is None, "a child past its timeout is not reported as timed out")
    expect(time.monotonic() - t0 < 10, "a child past its timeout is not killed")
    expect(len(cals) == len(slices) + 1 and len(slices) >= 2,
           "the child is not stopped for calibration between slices")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "the benchmark ran without qcf sources")


def main() -> int:
    run.precompile()
    for workload in workloads.WORKLOADS:
        run_small(workload, traced=False)
        first = run_small(workload, traced=True)
        second = run_small(workload, traced=True)
        moved = sorted(k for k in first if first[k] != second[k])
        expect(not moved, f"{workload}: counts differ between two traced runs: {moved}")
        check_import_sites(workload)
        check_corruption(workload)
        print(f"{workload}: ok")
    check_timeout_kills()
    check_refuses_without_sources()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
