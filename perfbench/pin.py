"""Rewrite golden.json from the current sources at the default seed.

    python3 perfbench/pin.py

Pins the SHA-256 of each workload's report and the exact per-layer counts.
Reports are meant to stay byte-identical across refactors, so re-pin a hash
only for a change that intends to alter the report, and say so.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    run.precompile()
    golden = {"seed": workloads.DEFAULT_SEED, "report_sha256": {}, "counts": {}}
    for workload in workloads.WORKLOADS:
        r = run.Run(workload, workloads.DEFAULT_SEED)
        r.prepare()
        counts = run.trace(r)
        if r.failures:
            print(f"{workload}: {r.failures}", file=sys.stderr)
            return 1
        digest = hashlib.sha256((r.dir / "report.json").read_bytes()).hexdigest()
        golden["report_sha256"][workload] = digest
        golden["counts"][workload] = {name: counts[name] for name in run.COUNTS}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
