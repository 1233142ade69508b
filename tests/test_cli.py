import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcf
from qcf import dsl
import qcf.cli
from qcf.cli import (
    MAX_FAMILY_DIMENSION,
    MAX_HOPF_DIMENSION,
    MAX_POSET_ELEMENTS,
    MAX_TENSOR_TERMS,
    _write_report,
    main,
    resolve,
)
from qcf.posets import TensorIsoResult
from qcf.quiver import Path as QPath
from qcf.quiver import PathRun
from qcf.scalars import Cyc

DOC = """
quiver Q { vertices: u v; arrows: a: u -> v; }
poset P { elements: 0 1 2; covers: 0 < 1; 1 < 2; }
coalgebra FullQ = paths(Q)
coalgebra K21 = family(Cn, n=2, s=1)
coalgebra K41 = family(Cn, n=4, s=1)
coalgebra ChainFull = full(P)
coalgebra Pair = sum(K21, K21)
coalgebra Pair41 = sum(K41, K41)
hopf H = hn(s=1, q=root(2,1), group=cyclic(4), alpha=1)
"""


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.qcf"
    path.write_text(DOC)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_command(doc_file, capsys):
    code, report = run_cli(capsys, "validate", "--input", doc_file)
    assert code == 0
    assert all(entry["ok"] for entry in report["results"].values())


def test_forms_command_matches_census(doc_file, capsys):
    code, report = run_cli(capsys, "forms", "--input", doc_file)
    assert code == 0
    k21 = report["results"]["K21"]
    assert k21["F_size"] == 4
    assert k21["nullspace_dim"] == 4
    assert k21["agree"] is True
    chain = report["results"]["ChainFull"]
    assert chain["marked_classes"] == 1
    assert chain["nullspace_dim"] == 1


def test_frobenius_command_reports_verdicts(doc_file, capsys):
    code, report = run_cli(capsys, "frobenius", "--input", doc_file)
    assert code == 0
    assert report["results"]["FullQ"]["left_coFrobenius"] == "no"
    assert report["results"]["FullQ"]["witness_left"]["at"] == "v"
    assert report["results"]["K21"]["left_coFrobenius"] == "yes"
    assert report["results"]["K21"]["right_coFrobenius"] == "yes"


def test_classify_command(doc_file, capsys):
    code, report = run_cli(capsys, "classify", "--input", doc_file)
    assert code == 0
    pair = report["results"]["Pair"]
    assert pair["co_frobenius"] is True
    assert pair["admits_hopf"]["family"] == "II"
    pair41 = report["results"]["Pair41"]
    assert pair41["admits_hopf"]["family"] == "II"
    assert pair41["admits_hopf"]["n"] == 4 and pair41["admits_hopf"]["s"] == 1
    full_q = report["results"]["FullQ"]
    assert full_q["co_frobenius"] is False


def test_classify_names_the_vertex_with_no_outgoing_arrow(tmp_path, capsys):
    # v0 comes first in the vertex order, so the witness is v0, not the
    # vertex v1 that has an outgoing arrow but no incoming one
    doc = tmp_path / "doc.qcf"
    doc.write_text("quiver Q { vertices: v0 v1; arrows: a: v1 -> v0; }\ncoalgebra C = paths(Q)\n")
    code, report = run_cli(capsys, "classify", "--input", doc)
    assert code == 0
    assert report["results"]["C"] == {
        "co_frobenius": False,
        "violation": {"at": "v0", "reason": "vertex with an incoming arrow but no outgoing arrow"},
    }


def test_validate_lists_bases(doc_file, capsys):
    code, report = run_cli(capsys, "validate", "--input", doc_file)
    assert code == 0
    chain = report["results"]["ChainFull"]["basis"]["segments"]
    assert "[0,2]" in chain
    pair = report["results"]["Pair"]["basis"]
    assert len(pair["vertices"]) == 4 and len(pair["paths"]) == 4


def test_dangling_arrow_endpoint_diagnostic(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text("quiver Q { vertices: u; arrows: a: u -> w; }")
    code = main(["validate", "--input", str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'a'" in err and "'w'" in err  # names the offending arrow and endpoint


def test_embed_and_tensor_commands(doc_file, capsys):
    code, report = run_cli(capsys, "embed", "--input", doc_file)
    assert code == 0
    chain = report["results"]["ChainFull"]
    assert chain["morphism_ok"] and chain["injective"] and chain["single_path_image"]
    code, report = run_cli(capsys, "tensor", "--input", doc_file, "--targets", "P,P")
    assert code == 0
    assert report["ok" if "ok" in report else "results"]  # top-level ok report
    assert report["results"]["ok"] is True
    assert report["results"]["product_elements"] == 9


def test_hopf_commands(doc_file, capsys):
    code, report = run_cli(capsys, "hopf-verify", "--input", doc_file)
    assert code == 0
    entry = report["results"]["H"]
    assert entry["verified"] is True
    assert all(chk["ok"] for chk in entry["checks"].values())
    code, report = run_cli(capsys, "hopf", "--input", doc_file)
    assert code == 0
    entry = report["results"]["H"]
    assert len(entry["basis"]) == 8
    assert entry["counit"]["e|x^0"] == "1"
    assert "product" in entry and "antipode" in entry


def test_product_groups_list_i_j_at_index_i_times_order_plus_j(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "hopf A = group_algebra(product(cyclic(2), cyclic(3)))\n"
        "hopf H = hn(s=1, q=root(2,1), group=product(cyclic(2), cyclic(2)))\n"
    )
    code, report = run_cli(capsys, "hopf", "--input", doc)
    assert code == 0
    assert report["results"]["A"]["basis"] == ["e*e", "e*c1", "e*c2", "c1*e", "c1*c1", "c1*c2"]
    assert report["results"]["H"]["basis"] == [
        f"c{i}t{f}|x^{u}" for i in range(2) for f in range(2) for u in range(2)
    ]


def test_reports_are_deterministic(doc_file, capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["forms", "--input", str(doc_file), "--seed", "7", "--output", str(out1)]) == 0
    assert main(["forms", "--input", str(doc_file), "--seed", "7", "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = [
    "validate", "forms", "frobenius", "classify", "embed", "tensor", "hopf", "hopf-verify",
]
# sums.qcf pins the direct sums: golden sums-<command>.json
SUMS_COMMANDS = ["validate", "forms", "frobenius", "classify", "embed"]
# windows.qcf pins the line-family windows: golden windows-<command>.json
WINDOWS_COMMANDS = ["validate", "frobenius", "classify"]
# pentagon.qcf pins embed's image order where saturated chains differ in
# length: golden pentagon-embed.json
PENTAGON_COMMANDS = ["embed"]


@pytest.mark.parametrize(
    "document, command",
    [pytest.param("doc", c, id=c) for c in GOLDEN_COMMANDS]
    + [pytest.param("sums", c, id=f"sums-{c}") for c in SUMS_COMMANDS]
    + [pytest.param("windows", c, id=f"windows-{c}") for c in WINDOWS_COMMANDS]
    + [pytest.param("pentagon", c, id=f"pentagon-{c}") for c in PENTAGON_COMMANDS],
)
def test_report_matches_golden(document, command, tmp_path, capsys):
    # both sinks, the --output file and standard output, give the golden bytes
    out = tmp_path / "report.json"
    argv = [command, "--input", str(GOLDEN / f"{document}.qcf")]
    if command == "tensor":
        argv += ["--targets", "P,P"]
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    name = command if document == "doc" else f"{document}-{command}"
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert out.read_bytes() == golden
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == golden


def test_parse_errors_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.qcf"
    bad.write_text("quiver Q { vertices u; }")
    code = main(["validate", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "expected" in err


def test_reference_errors_exit_nonzero(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text("coalgebra C = paths(Missing)")
    code = main(["frobenius", "--input", str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown quiver" in err


def test_validation_violations_are_data_for_validate(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "quiver Q { vertices: u v; arrows: a: u -> v; }\n"
        "coalgebra C = basis(Q) { a; }\n"
    )
    code, report = run_cli(capsys, "validate", "--input", doc)
    assert code == 0
    entry = report["results"]["C"]
    assert entry["ok"] is False
    assert len(entry["violations"]) == 2  # both endpoints missing


def test_full_incidence_coalgebras_resolve_without_validation(tmp_path, capsys, monkeypatch):
    # full(P) is closed under subintervals by construction; its entries
    # read as in the golden report of the document that declares them
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "poset P { elements: 0 1 2; covers: 0 < 1; 1 < 2; }\n"
        "poset Vee { elements: 0 1 2; covers: 0 < 1; 0 < 2; }\n"
        "poset Wedge { elements: 0 1 2; covers: 1 < 0; 2 < 0; }\n"
        "coalgebra Chain = full(P)\n"
        "coalgebra VeeFull = full(Vee)\n"
        "coalgebra WedgeFull = full(Wedge)\n"
    )

    def refuse(self):
        raise AssertionError("validate called")

    monkeypatch.setattr(qcf.cli.IncidenceSubcoalgebra, "validate", refuse)
    code, report = run_cli(capsys, "validate", "--input", doc)
    assert code == 0
    golden = json.loads((GOLDEN / "validate.json").read_text())["results"]
    assert report["results"] == {name: golden[name] for name in ("Chain", "VeeFull", "WedgeFull")}


def test_invalid_coalgebra_blocks_analysis(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "quiver Q { vertices: u v; arrows: a: u -> v; }\n"
        "coalgebra C = basis(Q) { a; }\n"
    )
    code = main(["forms", "--input", str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "fails validation" in err


def test_sum_of_invalid_path_coalgebras_is_invalid(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "quiver Q { vertices: u v; arrows: a: u -> v; }\n"
        "coalgebra C = basis(Q) { a; }\n"
        "coalgebra S = sum(C, C)\n"
    )
    code, report = run_cli(capsys, "validate", "--input", doc)
    assert code == 0
    entry = report["results"]["S"]
    assert entry["ok"] is False
    assert entry["violations"] == [
        f"<s{i}.{v}> is a subpath of <s{i}.a> but missing from the basis"
        for i in (0, 1)
        for v in ("u", "v")
    ]


def test_sums_of_valid_summands_resolve_without_validation(tmp_path, capsys, monkeypatch):
    # a sum is valid exactly when its summands are, so a sum of valid
    # summands is never validated itself; the report is the golden one
    real_sum = qcf.cli.direct_sum

    def unvalidated(parts):
        coalg = real_sum(parts)

        def refuse():
            raise AssertionError("the sum was validated")

        coalg.validate = refuse
        return coalg

    monkeypatch.setattr(qcf.cli, "direct_sum", unvalidated)
    code, report = run_cli(capsys, "validate", "--input", GOLDEN / "sums.qcf")
    assert code == 0
    assert report == json.loads((GOLDEN / "sums-validate.json").read_text())


def test_sum_with_an_invalid_summand_reports_the_sums_violations(tmp_path, capsys):
    # the summand Part misses [1,1]: the sum is validated, and its
    # violations are those of the renamed copies side by side
    text = (
        "quiver Q { vertices: u v; arrows: a: u -> v; }\n"
        "poset P { elements: 0 1 2; covers: 0 < 1; 1 < 2; }\n"
        "coalgebra Hand = basis(Q) { u; v; a; }\n"
        "coalgebra C = basis(Q) { a; }\n"
        "coalgebra Chain = full(P)\n"
        "coalgebra Part = segments(P) { [0,0]; [0,1]; }\n"
        "coalgebra PathSum = sum(Hand, C)\n"
        "coalgebra IncidenceSum = sum(Chain, Part)\n"
    )
    doc = tmp_path / "doc.qcf"
    doc.write_text(text)
    code, report = run_cli(capsys, "validate", "--input", doc)
    assert code == 0
    coalgebras = resolve(dsl.parse(text)[0])[0].coalgebras
    for name, parts in [("PathSum", ["Hand", "C"]), ("IncidenceSum", ["Chain", "Part"])]:
        expected = qcf.cli.direct_sum([coalgebras[p].finite for p in parts]).validate()
        entry = report["results"][name]
        assert entry["ok"] is False
        assert entry["violations"] == list(expected) != []
    assert report["results"]["IncidenceSum"]["violations"] == [
        "segment ('s1.1', 's1.1') lies inside ('s1.0', 's1.1') but is missing"
    ]


def test_sums_of_more_line_families_than_the_limit_exit_2(tmp_path):
    # each line doubles the number of line families: 1,024 for S10, the
    # limit, and 2,048 for S11, refused before it is built
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "coalgebra S0 = family(Ainf, window=[0,0], r={0:1})\n"
        + "".join(f"coalgebra S{k} = sum(S{k - 1}, S{k - 1})\n" for k in range(1, 14))
    )
    assert qcf.cli.MAX_SUM_FAMILIES == 1024
    src = str(Path(qcf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "frobenius", "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0] == (
        f"{doc}:12:1: coalgebra S11: its summands hold 2048 line families, "
        "over the limit of 1024"
    )
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_oversize_input_rejected(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text("coalgebra K = family(Cn, n=21, s=1)")
    code = main(["forms", "--input", str(doc), "--bound", "40"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, bound, params, n",
    [
        pytest.param("coalgebra K = family(Cn, n=21, s=1)", 40, "path_form_params", 42, id="cycle"),
        # Big, the largest window the size limits admit, comes first
        pytest.param((GOLDEN / "windows.qcf").read_text(), 200, "path_form_params", 19900,
                     id="window"),
        pytest.param(
            "poset P { elements: 0 1 2; covers: 0 < 1; 1 < 2; }\ncoalgebra F = full(P)",
            5, "incidence_form_params", 6, id="incidence",
        ),
    ],
)
def test_forms_refuses_over_bound_before_the_form_parameters(
    tmp_path, capsys, monkeypatch, text, bound, params, n
):
    def unreachable(coalg):
        raise AssertionError(f"{params} ran on a basis over the bound")

    monkeypatch.setattr(qcf.forms, params, unreachable)
    doc = tmp_path / "doc.qcf"
    doc.write_text(text)
    assert main(["forms", "--input", str(doc), "--bound", str(bound)]) == 2
    assert capsys.readouterr().err == f"error: basis size {n} exceeds brute-force bound {bound}\n"


def test_default_bound_admits_dimension_44(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text("coalgebra K = family(Cn, n=11, s=3)")
    code, report = run_cli(capsys, "forms", "--input", doc)
    assert code == 0
    entry = report["results"]["K"]
    assert entry["basis_size"] == 44
    assert entry["agree"] is True


def test_csv_group_table(tmp_path, capsys):
    table = tmp_path / "klein.csv"
    table.write_text("0,1,2,3\n1,0,3,2\n2,3,0,1\n3,2,1,0\n")
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        f'hopf H = hn(s=1, q=root(2,1), group=csv("{table.name}"), g=1, '
        "chi=[1, -1, 1, -1], alpha=0)"
    )
    code, report = run_cli(capsys, "hopf-verify", "--input", doc)
    assert code == 0
    assert report["results"]["H"]["verified"] is True


@pytest.mark.parametrize(
    "hopf_decl, message",
    [
        ("hn(s=1, q=root(2,1), group=cyclic(4), alpha=1/0)", "zero denominator"),
        ('hn(s=1, q=root(2,1), group=csv("bad.csv"), g=1, chi=[1, -1], alpha=0)',
         "cannot read group table"),
        ("hn(s=1, q=root(2,1), alpha=1)", "hn(...) needs group"),
        ("hn(s=1, q=1/2, group=cyclic(2))", "hopf H: q must be root(m, k), 1, or -1\n"),
        ("hn(s=1, q=root(2,1), group=cyclic(2), g=1, chi=[1, 1/2])",
         "hopf H: chi[1] must be root(m, k), 1, or -1\n"),
        ("hn(s=1, q=root(2,1), group=dihedral(3))",
         "hopf H: dihedral(3) has no central element of order 3 with a matching character\n"),
        ("hn(s=1, q=root(2,1), group=product(cyclic(2), cyclic(3)))",
         "hopf H: this group constructor needs explicit g and chi\n"),
    ],
    ids=["zero-denominator", "csv-cell-not-an-integer", "hn-without-group", "q-not-a-root",
         "chi-entry-not-a-root", "dihedral-without-datum", "product-without-datum"],
)
def test_bad_hopf_input_exits_2_without_traceback(hopf_decl, message, tmp_path):
    (tmp_path / "bad.csv").write_text("0,1\n1,x\n")
    doc = tmp_path / "doc.qcf"
    doc.write_text(f"hopf H = {hopf_decl}\n")
    src = str(Path(qcf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "hopf-verify", "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hn_default_dihedral_datum_verifies(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text("hopf H = hn(s=1, q=root(2,1), group=dihedral(2), alpha=1)\n")
    code, report = run_cli(capsys, "hopf-verify", "--input", doc)
    assert code == 0
    entry = report["results"]["H"]
    assert entry["verified"] is True
    assert entry["meta"]["group_order"] == 4


LONG_INT = "1" * 5000


def long_quiver(closed: bool) -> str:
    """A 1,200-vertex chain, or the cycle that closes it, as one line."""
    n = 1200
    ends = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    vertices = " ".join(f"v{i}" for i in range(n))
    arrows = " ".join(f"a{i}: v{i} -> v{j};" for i, j in ends)
    return f"quiver Q {{ vertices: {vertices}; arrows: {arrows} }}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("coalgebra K = family(Cn, n=², s=1)", "1:28: expected 'int', found '²'"),
        (f"coalgebra K = family(Cn, n={LONG_INT}, s=1)",
         "1:28: integer literal too long (5000 digits)"),
        (f"hopf H = hn(s=1, q=root(2,1), group=cyclic(4), alpha=1/{LONG_INT})",
         "1:56: integer literal too long (5000 digits)"),
        ("coalgebra W = family(Ainf, window=[0,1], r={0:1, 0:2, 1:3})",
         "1:50: repeated reach key 0"),
        ("hopf H = hn(s=2, s=1, q=root(3,1), q=root(2,1), group=cyclic(4), alpha=1)",
         "1:18: repeated hn(...) argument 's'"),
        ("hopf H = hn(s=1, x=2)", "1:18: unknown hn(...) argument 'x'"),
        # an empty table covers the reversed window [1,0] as list(range(1, 1))
        ("coalgebra W = family(Ainf, window=[1,0], r={})",
         "1:1: coalgebra W: reach table must cover the window"),
        ("poset P { elements: x y z; covers: x < y; y < z; z < x; }",
         "1:1: poset P: antisymmetry fails between 'x' and 'y'"),
        ("quiver Q { vertices: u u; }", "1:1: quiver Q: duplicate vertex id"),
        ("coalgebra C = paths(Q)", "1:1: coalgebra C: unknown quiver 'Q'"),
        ("coalgebra C = full(P)", "1:1: coalgebra C: unknown poset 'P'"),
        ("coalgebra S = sum(A)", "1:1: coalgebra S: unknown summand 'A'"),
        ("quiver Q { vertices: u v; arrows: a: u -> v; }\ncoalgebra C = basis(Q) { u; x; }",
         "2:1: coalgebra C: bad path item 'x'"),
        ("poset P { elements: 0 1; covers: 0 < 1; }\ncoalgebra C = segments(P) { [1,0]; }",
         "2:1: coalgebra C: segment ('1', '0') has lo > hi"),
        ("coalgebra W = family(Ainf, window=[0,1], r={0:0, 1:2})",
         "1:1: coalgebra W: reach must exceed the vertex: r(0) = 0"),
        ("hopf H = hn(s=1, q=root(2,1), alpha=1)", "1:1: hopf H: hn(...) needs group"),
        # deeper than the recursion limit: the acyclicity check peels sources instead
        (long_quiver(closed=False) + "\ncoalgebra C = paths(Q)",
         "2:1: coalgebra C: paths(Q) has more basis paths than the limit of 20000"),
        (long_quiver(closed=True) + "\ncoalgebra C = paths(Q)",
         "2:1: coalgebra C: full path coalgebra of a cyclic quiver is infinite dimensional"),
        ("hopf H = group_algebra(" + "product(" * 1000 + "cyclic(2)" + ")" * 1001,
         "1:536: product(...) nested more than 64 deep"),
    ],
    ids=["superscript-digit", "long-n", "long-denominator", "repeated-reach-key",
         "repeated-hn-argument", "unknown-hn-argument", "reversed-window", "cyclic-covers",
         "duplicate-vertex", "unknown-quiver", "unknown-poset", "unknown-summand",
         "bad-path-item", "reversed-segment", "reach-below-vertex", "hn-without-group",
         "long-chain", "long-cycle", "deep-product"],
)
def test_malformed_input_exits_2_with_a_positioned_message(text, message, tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text(text + "\n")
    assert main(["validate", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    # parse and resolution diagnostics alike, one line each, after the file name
    assert captured.err == f"{doc}:{message}\n"
    assert captured.out == ""


def test_a_reference_to_a_failed_declaration_is_not_called_unknown(tmp_path, capsys):
    # nested sums double a line family: S11 passes the limit of 1,024
    # families, and S12 and S13, which are declared, fail because it did
    lines = ["coalgebra S0 = family(Ainf, window=[0,0], r={0:1})"]
    lines += [f"coalgebra S{k} = sum(S{k - 1}, S{k - 1})" for k in range(1, 14)]
    doc = tmp_path / "doc.qcf"
    doc.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"{doc}:12:1: coalgebra S11: its summands hold 2048 line families, over the limit of 1024\n"
        f"{doc}:13:1: coalgebra S12: summand 'S11' did not resolve\n"
        f"{doc}:14:1: coalgebra S13: summand 'S12' did not resolve\n"
    )
    assert captured.out == ""


def test_negative_window_margin_exits_2_without_traceback():
    # a negative margin would list vertices outside W's window [-2,3] as interior
    src = str(Path(qcf.__file__).resolve().parent.parent)
    argv = ["frobenius", "--input", str(GOLDEN / "doc.qcf"), "--window-margin"]
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", *argv, "-3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2
    assert "argument --window-margin: must be >= 0, got -3" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", *argv, "0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["W"]["interior"] == ["-2", "-1", "0", "1", "2", "3"]


def test_mixed_incidence_and_path_sum_exits_2_without_traceback(tmp_path):
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "quiver Q { vertices: u v; arrows: a: u -> v; }\n"
        "poset P { elements: 0 1; covers: 0 < 1; }\n"
        "coalgebra A = paths(Q)\n"
        "coalgebra B = full(P)\n"
        "coalgebra S = sum(A, B)\n"
    )
    src = str(Path(qcf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "frobenius", "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2
    assert "coalgebra S: cannot mix incidence and path summands" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_nested_sums_exit_2_once_their_dimension_passes_the_limit(tmp_path):
    # each line doubles the dimension: 2,000 for A0, 32,000 for A4
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        "coalgebra A0 = family(Cn, n=1000, s=1)\n"
        + "".join(f"coalgebra A{i} = sum(A{i - 1}, A{i - 1})\n" for i in range(1, 6))
    )
    src = str(Path(qcf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "validate", "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2
    assert "coalgebra A4: its summands have dimension 32000 in all, over the limit of 20000" in (
        proc.stderr
    )
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_non_associative_csv_table_names_the_first_failing_triple(tmp_path, capsys):
    # the smallest non-associative loop: a Latin square with identity 0
    rows = ["0,1,2,3,4", "1,0,3,4,2", "2,4,0,1,3", "3,2,4,0,1", "4,3,1,2,0"]
    (tmp_path / "loop.csv").write_text("\n".join(rows) + "\n")
    doc = tmp_path / "doc.qcf"
    doc.write_text(
        'hopf H = hn(s=1, q=root(2,1), group=csv("loop.csv"), g=1, chi=[1, -1, 1, -1, 1], alpha=0)'
    )
    code = main(["hopf-verify", "--input", str(doc)])
    assert code == 2
    assert "associativity fails at (g1, g1, g2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,1,2", "1,2,0", "2,0,7"], "malformed multiplication table row 2"),
        (["0,1,2", "1,0,0", "2,1,0"], "associativity fails at (g1, g1, g2)"),
        (["0,1,2", "1,2,0", "2,1,0"], "associativity fails at (g1, g1, g1)"),
        (["0,1", "1,1"], "element g1 has no inverse"),
    ],
    ids=["entry-out-of-range", "not-associative", "not-associative-no-inverse", "no-inverse"],
)
def test_csv_group_algebra_that_is_no_group_exits_2(rows, message, tmp_path, capsys):
    # as hn(...) does: the CSV table is checked before any product is built
    (tmp_path / "t.csv").write_text("\n".join(rows) + "\n")
    doc = tmp_path / "doc.qcf"
    doc.write_text('hopf K = group_algebra(csv("t.csv"))\n')
    assert main(["hopf-verify", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == f"{doc}:1:1: hopf K: {message}\n"


def test_csv_factor_of_a_group_algebra_product_is_checked(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,1\n1,1\n")
    doc = tmp_path / "doc.qcf"
    doc.write_text('hopf K = group_algebra(product(cyclic(2), csv("t.csv")))\n')
    assert main(["hopf-verify", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == f"{doc}:1:1: hopf K: element e*g1 has no inverse\n"


TWO_LOOPS = "quiver Q { vertices: v; arrows: a: v -> v; b: v -> v; }\n"


def line_window(width: int) -> str:
    """family(Ainf) on the window [0, width-1] with r(k) = k + width: about
    width^2/2 basis paths holding about width^3/6 arrows."""
    r = ", ".join(f"{k}:{k + width}" for k in range(width))
    return f"coalgebra L = family(Ainf, window=[0,{width - 1}], r={{{r}}})"


@pytest.mark.parametrize(
    "command, decl, message",
    [
        ("hopf-verify", "hopf H = hn(s=1, q=root(2,1), group=cyclic(100000000), alpha=1)",
         "a group of order 100000000 gives dimension 200000000"),
        ("hopf-verify", "hopf H = group_algebra(product(cyclic(600), cyclic(600)))",
         "a group of order 600 gives dimension 600"),
        ("validate", "coalgebra K = family(Cn, n=100000000, s=3)",
         "has dimension 400000000"),
        ("validate", "coalgebra K = family(Cn, n=1, s=100000)",
         "5000050000 arrows"),
        # two loops give 2^41 - 1 paths up to length 40
        ("forms", TWO_LOOPS + "coalgebra K = paths(Q, maxlen=40)",
         "paths(Q, maxlen=40) has more basis paths than the limit of 20000"),
        # building the 55440-th cyclotomic polynomial takes longer than 30 s
        ("hopf-verify", "hopf H = hn(s=1, q=root(2,1), group=cyclic(2), alpha=root(55440,1))",
         "roots of unity of order 55440, over the limit of 1024"),
        ("hopf-verify", "hopf H = hn(s=1, q=root(2,1), group=cyclic(2), g=1, "
                        "chi=[root(1,0), root(55440,1)], alpha=0)",
         "roots of unity of order 55440, over the limit of 1024"),
        ("frobenius", line_window(400),
         "family(Ainf, window=[0,399]) has dimension 80200 and 10666600 arrows"),
    ],
    ids=[
        "hn-cyclic", "group-algebra-product", "cycle-family-dimension",
        "cycle-family-arrows", "two-loop-paths", "alpha-root-order", "chi-root-order",
        "line-family-window",
    ],
)
def test_oversized_input_exits_2_before_it_is_built(command, decl, message, tmp_path):
    doc = tmp_path / "doc.qcf"
    doc.write_text(decl + "\n")
    src = str(Path(qcf.__file__).resolve().parent.parent)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", command, "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def errors(text):
    """The resolution diagnostics of a document that parses."""
    doc, diags = dsl.parse(text)
    assert doc is not None, diags
    return [str(d) for d in resolve(doc)[1]]


def test_size_limits_are_inclusive(monkeypatch):
    order = MAX_HOPF_DIMENSION // 2
    assert errors(f"hopf H = hn(s=1, q=root(2,1), group=cyclic({order}), alpha=1)") == []
    assert "over the limit" in errors(
        f"hopf H = hn(s=1, q=root(2,1), group=cyclic({order + 2}), alpha=1)"
    )[0]
    n = MAX_FAMILY_DIMENSION // 2
    assert errors(f"coalgebra K = family(Cn, n={n}, s=1)") == []
    assert "over the limits" in errors(f"coalgebra K = family(Cn, n={n + 1}, s=1)")[0]
    # a line window of width 199 has 19,900 basis paths, one of width 200 20,100
    assert errors(line_window(199)) == []
    assert "has dimension 20100 and 1333300 arrows" in errors(line_window(200))[0]
    # 1 + 2 + 4 paths up to length 2, 15 up to length 3
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 7)
    assert errors(TWO_LOOPS + "coalgebra K = paths(Q, maxlen=2)") == []
    assert "than the limit of 7" in errors(TWO_LOOPS + "coalgebra K = paths(Q, maxlen=3)")[0]
    # an acyclic quiver without maxlen: u, v, w, a, b, ab
    chain = "quiver C { vertices: u v w; arrows: a: u -> v; b: v -> w; }\n"
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 6)
    assert errors(chain + "coalgebra K = paths(C)") == []
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 5)
    assert "paths(C) has more basis paths" in errors(chain + "coalgebra K = paths(C)")[0]
    # K has dimension 4 and W 2 + 2 + 1: a sum adds them up
    parts = (
        "coalgebra K = family(Cn, n=2, s=1)\n"
        "coalgebra W = family(A0inf, window=[0,2], r={0:1, 1:2, 2:3})\n"
    )
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 9)
    assert errors(parts + "coalgebra S = sum(K, W)") == []
    assert errors(parts + "coalgebra S = sum(K, W, K)") == [
        "3:1: coalgebra S: its summands have dimension 13 in all, over the limit of 9"
    ]
    # the line families of a sum are counted whatever their dimensions
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", MAX_FAMILY_DIMENSION)
    monkeypatch.setattr(qcf.cli, "MAX_SUM_FAMILIES", 2)
    assert errors(parts + "coalgebra S = sum(W, K, W)") == []
    assert errors(parts + "coalgebra S = sum(W, W, W)") == [
        "3:1: coalgebra S: its summands hold 3 line families, over the limit of 2"
    ]
    # q of order 2 and alpha of order 1024: conductor lcm(2, 1024) = 1024
    at_limit = "hopf H = hn(s=1, q=root(2,1), group=cyclic(2), alpha=root(1024,1))"
    assert qcf.cli.MAX_CONDUCTOR == 1024
    assert errors(at_limit) == []
    monkeypatch.setattr(qcf.cli, "MAX_CONDUCTOR", 1023)
    assert "order 1024, over the limit of 1023" in errors(at_limit)[0]



def boolean_lattice(rank: int) -> str:
    size = 1 << rank
    covers = " ".join(
        f"x{i} < x{i | 1 << b};" for i in range(size) for b in range(rank) if not i >> b & 1
    )
    elements = " ".join(f"x{i}" for i in range(size))
    return f"poset B {{ elements: {elements}; covers: {covers} }}\ncoalgebra E = full(B)\n"


def test_oversized_embed_exits_2_before_listing_paths(tmp_path):
    # B9 has 2,681,216 Hasse paths between the ends of its segments; listing
    # them would take minutes and gigabytes, counting them takes well under a second
    doc = tmp_path / "doc.qcf"
    doc.write_text(boolean_lattice(9))
    src = str(Path(qcf.__file__).resolve().parent.parent)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "embed", "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 2
    assert "coalgebra E maps its segments to 2681216 Hasse paths" in proc.stderr
    assert "over the limit of 1000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_embed_path_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    # full(B3): 27 segments whose images hold 8 + 12 + 12 + 6 = 38 Hasse paths
    doc = tmp_path / "doc.qcf"
    doc.write_text(boolean_lattice(3))
    monkeypatch.setattr(qcf.cli, "MAX_EMBED_PATHS", 38)
    code, report = run_cli(capsys, "embed", "--input", doc)
    assert code == 0
    entry = report["results"]["E"]
    assert entry["morphism_ok"] and entry["injective"]
    assert sum(len(paths) for paths in entry["images"].values()) == 38
    monkeypatch.setattr(qcf.cli, "MAX_EMBED_PATHS", 37)
    assert main(["embed", "--input", str(doc)]) == 2
    assert "maps its segments to 38 Hasse paths, over the limit of 37" in capsys.readouterr().err


def chain(name: str, n: int) -> str:
    covers = " ".join(f"{i} < {i + 1};" for i in range(n - 1))
    return f"poset {name} {{ elements: {' '.join(map(str, range(n)))}; covers: {covers} }}\n"


def test_poset_and_segment_limits_are_inclusive(monkeypatch):
    def antichain(n):
        return f"poset A {{ elements: {' '.join(f'e{i}' for i in range(n))}; }}\n"

    assert errors(antichain(MAX_POSET_ELEMENTS)) == []
    assert errors(antichain(MAX_POSET_ELEMENTS + 1)) == [
        f"1:1: poset A: {MAX_POSET_ELEMENTS + 1} elements, over the limit of {MAX_POSET_ELEMENTS}"
    ]
    assert errors(boolean_lattice(8)) == []  # 256 elements, 6,561 segments
    # a 200-element chain has 20,100 segments, refused before one is listed
    assert errors(chain("P", 200) + "coalgebra C = full(P)\n") == [
        "2:1: coalgebra C: full(P) has 20100 segments, over the limit of 20000"
    ]
    # the 3-element chain has 6 segments
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 6)
    assert errors(chain("P", 3) + "coalgebra C = full(P)\n") == []
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 5)
    assert "full(P) has 6 segments, over the limit of 5" in errors(chain("P", 3) + "coalgebra C = full(P)\n")[0]
    part = chain("P", 3) + "coalgebra C = segments(P) { [0,0]; [1,1]; [0,1]; }\n"
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 3)
    assert errors(part) == []
    monkeypatch.setattr(qcf.cli, "MAX_FAMILY_DIMENSION", 2)
    assert errors(part) == ["2:1: coalgebra C: segments(P) has 3 segments, over the limit of 2"]


def test_tensor_limits_are_inclusive(tmp_path, capsys, monkeypatch):
    # chains of 3 and 2 elements: 6 product elements; the sums of their
    # interval sizes are 3 + 2 * 2 + 3 = 10 and 2 + 2 = 4, so 40 terms
    doc = tmp_path / "doc.qcf"
    doc.write_text(chain("X", 3) + chain("Y", 2))
    argv = ["tensor", "--input", str(doc), "--targets", "X,Y"]
    monkeypatch.setattr(qcf.cli, "MAX_TENSOR_ELEMENTS", 6)
    monkeypatch.setattr(qcf.cli, "MAX_TENSOR_TERMS", 40)
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["results"]["ok"] and report["results"]["checked_segments"] == 6 * 3
    monkeypatch.setattr(qcf.cli, "MAX_TENSOR_TERMS", 39)
    assert main(argv) == 2
    assert "the product of X and Y has 40 comultiplication terms, over the limit of 39" in capsys.readouterr().err
    monkeypatch.setattr(qcf.cli, "MAX_TENSOR_ELEMENTS", 5)
    assert main(argv) == 2
    assert "the product of X and Y has 6 elements, over the limit of 5" in capsys.readouterr().err


def test_oversized_tensor_exits_2_at_once(tmp_path):
    # two 30-element chains: 900 product elements, but 4,960^2 comultiplication
    # terms, which took the check over 100 s
    doc = tmp_path / "doc.qcf"
    doc.write_text(chain("A", 30) + chain("B", 30))
    src = str(Path(qcf.__file__).resolve().parent.parent)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "tensor", "--input", str(doc), "--targets", "A,B"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 2
    assert f"has 24601600 comultiplication terms, over the limit of {MAX_TENSOR_TERMS}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hopf_verify_of_dimension_200_runs_in_seconds(tmp_path):
    # associativity over 2 certified generators visits 80,000 triples, not 8,000,000
    doc = tmp_path / "doc.qcf"
    doc.write_text("hopf H = hn(s=1, q=root(2,1), group=cyclic(100), alpha=1)\n")
    src = str(Path(qcf.__file__).resolve().parent.parent)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "hopf-verify", "--input", str(doc)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 0
    entry = json.loads(proc.stdout)["results"]["H"]
    assert entry["verified"] is True
    assert entry["meta"]["dimension"] == 200


def test_unwritable_output_exits_2_without_traceback(tmp_path):
    src = str(Path(qcf.__file__).resolve().parent.parent)
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qcf.cli", "validate", "--input", str(GOLDEN / "doc.qcf"),
         "--output", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_failed_run_leaves_an_existing_output_file_untouched(tmp_path, capsys):
    doc = tmp_path / "doc.qcf"
    doc.write_text("coalgebra C = paths(Missing)")
    out = tmp_path / "r.json"
    out.write_text("previous report\n")
    assert main(["validate", "--input", str(doc), "--output", str(out)]) == 2
    assert "unknown quiver" in capsys.readouterr().err
    assert out.read_text() == "previous report\n"


def test_write_error_exits_2(monkeypatch, capsys):
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["validate", "--input", str(GOLDEN / "doc.qcf")]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def written(value, batch: int | None = None) -> str:
    out: list[str] = []
    if batch is None:
        _write_report(value, out.append)
    else:
        _write_report(value, out.append, batch)
    return "".join(out)


# quotes, backslashes, control characters and non-ASCII text, BMP and beyond
TEXT = st.text('"\\/\b\f\n\r\t\x00\x1f\x7f az-09\u00e9\u2028\u4e2d\U0001f600', max_size=12)
INTS = st.one_of(st.integers(-300, 300), st.integers(-(2 ** 200), 2 ** 200))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)


def nested(leaves):
    """Lists and dicts of `leaves`, nested to random depth."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.dictionaries(TEXT, inner, max_size=5),
            # int keys, negatives included, as in the reach tables of validate
            st.dictionaries(st.integers(-12, 12), inner, max_size=5),
        ),
        max_leaves=30,
    )


VALUES = nested(SCALARS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=VALUES, depth=st.integers(0, 40))
def test_report_writer_matches_json_dumps(value, depth):
    for level in range(depth):
        value = [value] if level % 2 else {"k": value, "": [], "e": {}}
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert written(value) == expected
    # flushing after every value changes nothing
    assert written(value, batch=1) == expected


def paths_as_dicts(value):
    """`value` with every path replaced by its JSON shape in a report, and
    every run by the list of its paths' shapes."""
    if isinstance(value, PathRun):
        return [paths_as_dicts(p) for p in value.paths()]
    if isinstance(value, QPath):
        if not value.arrows:
            return {"vertex": value.source}
        return {"source": value.source, "arrows": list(value.arrows), "target": value.target}
    if isinstance(value, list):
        return [paths_as_dicts(x) for x in value]
    if isinstance(value, dict):
        return {k: paths_as_dicts(x) for k, x in value.items()}
    return value


PATHS = st.one_of(
    TEXT.map(lambda v: QPath(v, v, ())),
    st.builds(QPath, TEXT, TEXT, st.lists(TEXT, min_size=1, max_size=7).map(tuple)),
)
PATH_VALUES = nested(st.one_of(SCALARS, PATHS))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=PATH_VALUES, depth=st.integers(0, 40))
def test_report_writer_writes_paths_as_their_dict_form(value, depth):
    for level in range(depth):
        value = [value] if level % 2 else {"k": value, "": [], "e": {}}
    expected = json.dumps(paths_as_dicts(value), indent=2, sort_keys=True)
    assert written(value) == expected
    assert written(value, batch=1) == expected


# runs of no path, of a vertex alone, and of arrow paths with the vertex path
# () among them, as a run of one source and target never holds
ARROWS = st.lists(TEXT, min_size=1, max_size=7).map(tuple)
RUNS = st.one_of(
    TEXT.map(lambda v: PathRun(v, v, [()])),
    st.builds(PathRun, TEXT, TEXT, st.lists(st.one_of(st.just(()), ARROWS), max_size=6)),
)
RUN_VALUES = nested(st.one_of(SCALARS, PATHS, RUNS))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=RUN_VALUES, depth=st.integers(0, 40))
def test_report_writer_writes_runs_as_lists_of_their_paths(value, depth):
    for level in range(depth):
        value = [value] if level % 2 else {"k": value, "": [], "e": {}}
    expected = json.dumps(paths_as_dicts(value), indent=2, sort_keys=True)
    assert written(value) == expected
    assert written(value, batch=1) == expected


def test_report_writer_flushes_paths_in_bounded_strings():
    # 20,000 seven-arrow paths make a 4.5 MB report; a flush every 512
    # pieces hands `write` about 59 KB at a time, every 4,096 pieces 471 KB
    report = {
        "images": [
            QPath(f"v{i}", f"w{i}", tuple(f"a{i}_{j}" for j in range(7))) for i in range(20_000)
        ]
    }
    sizes: list[int] = []
    _write_report(report, lambda text: sizes.append(len(text)))
    assert sum(sizes) > 4_000_000
    assert max(sizes) < 100_000


def test_report_writer_flushes_inside_a_run():
    # one run of 20,000 seven-arrow paths, as embed reports one segment's
    # image, is flushed as the list of those paths is: about 59 KB at a
    # time, at most 256 paths, half the 512 pieces, in each string; and so
    # are 2,000 runs of ten paths
    seqs = [tuple(f"a{i}_{j}" for j in range(7)) for i in range(20_000)]
    for images in (
        {"(v, w)": PathRun("v", "w", seqs)},
        {f"(v, w{k})": PathRun("v", f"w{k}", seqs[10 * k:10 * k + 10]) for k in range(2_000)},
    ):
        texts: list[str] = []
        _write_report({"images": images}, texts.append)
        assert sum(map(len, texts)) > 4_000_000
        assert max(map(len, texts)) < 100_000
        assert max(text.count('"arrows"') for text in texts) == 256
        assert "".join(texts) == json.dumps(
            {"images": {seg: paths_as_dicts(run) for seg, run in images.items()}},
            indent=2, sort_keys=True,
        )


@pytest.mark.parametrize(
    "bad",
    [1.5, Fraction(1, 2), (1, 2), Cyc.one(), TensorIsoResult(True, 4, 4)],
    ids=["float", "Fraction", "tuple", "Cyc", "record"],
)
def test_report_writer_refuses_values_outside_json(bad):
    for value in (bad, [0, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            written(value)
    if isinstance(bad, (float, Fraction, tuple)):  # hashable keys
        with pytest.raises(TypeError):
            written({bad: 0})


@pytest.mark.parametrize("key", [QPath("u", "u", ()), QPath("u", "v", ("a",))])
def test_report_writer_refuses_a_path_as_a_key(key):
    with pytest.raises(TypeError):
        written({key: 0})
