"""What a fresh interpreter loads and compiles to run a command.

Every CLI command starts a new interpreter, so start-up is paid once per
answer. Importing `qcf.cli` must not load `fractions` or `decimal`, and a
record method is compiled only when something calls it. Each probe runs with
`-S`: a site-packages .pth file may import modules before qcf runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import qcf

SRC = FilePath(qcf.__file__).resolve().parent.parent
DOC = FilePath(__file__).resolve().parent / "golden" / "doc.qcf"

# argv: an optional command, then the report file. Prints, as JSON, the
# modules of the two that are loaded and, per record class, the generated
# methods that were compiled and those that still hold their stand-ins.
PROBE = """
import json, sys
import qcf.cli
from qcf import _record

if len(sys.argv) > 2:
    rc = qcf.cli.main([sys.argv[1], "--input", sys.argv[2], "--output", sys.argv[3]])
    assert rc == 0, rc
stand_in = _record._stand_in(object, "__repr__", [], {}).__code__
records = {}
for name, module in sorted(sys.modules.items()):
    if name.startswith("qcf."):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == name:
                codes = {k: getattr(v, "__code__", None) for k, v in vars(cls).items()}
                waiting = sorted(k for k, c in codes.items() if c is stand_in)
                compiled = sorted(k for k, c in codes.items() if c is not None and c.co_filename == "<string>")
                if waiting or compiled:
                    records[f"{name}.{cls.__qualname__}"] = {"waiting": waiting, "compiled": compiled}
print(json.dumps({"loaded": sorted({"fractions", "decimal"} & set(sys.modules)), "records": records}))
"""


def probe(*argv):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_fractions_and_compiles_no_record_method():
    seen = probe()
    assert seen["loaded"] == []
    records = seen["records"]
    assert len(records) > 30 and "qcf.quiver.Path" in records
    assert all(r["compiled"] == [] and "__init__" in r["waiting"] for r in records.values())


@pytest.mark.parametrize("command", ["hopf-verify", "forms", "embed"])
def test_a_command_loads_no_fractions_and_compiles_only_what_it_calls(command, tmp_path):
    seen = probe(command, DOC, tmp_path / "report.json")
    assert seen["loaded"] == []
    assert json.loads((tmp_path / "report.json").read_text())["command"] == command
    records = seen["records"]
    assert any(r["compiled"] for r in records.values())  # the command did build records
    for name, r in records.items():
        assert not set(r["waiting"]) & set(r["compiled"])
        if command == "embed" and name.startswith("qcf.frobenius."):
            assert r["compiled"] == [] and "__init__" in r["waiting"], name
