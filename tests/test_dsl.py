import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcf import cli, dsl

GOOD = """
# comment lines are skipped
quiver Q {
  vertices: u v w;
  arrows:
    a: u -> v;
    b: v -> w;
}
poset P { elements: 0 1 2; covers: 0 < 1; 1 < 2; }
coalgebra Full = paths(Q)
coalgebra Short = paths(Q, maxlen=1)
coalgebra Hand = basis(Q) { u; v; a; }
coalgebra Segs = segments(P) { [0,0]; [1,1]; [0,1]; }
coalgebra All = full(P)
coalgebra K = family(Cn, n=4, s=1)
coalgebra W = family(Ainf, window=[-1,3], r={-1:1, 0:2, 1:3, 2:4, 3:5})
coalgebra H0 = family(A0inf, window=[0,3], r={0:2, 1:3, 2:4, 3:5})
coalgebra Both = sum(K, K)
hopf HA = hn(s=1, q=root(2,1), group=cyclic(4), alpha=1)
hopf HB = hn(s=2, q=root(3,1), group=product(cyclic(6), cyclic(2)), alpha=0)
hopf HC = group_algebra(dihedral(3))
"""


def test_parse_good_document():
    doc, diags = dsl.parse(GOOD)
    assert diags == []
    assert doc is not None
    names = doc.by_name()
    assert set(names) == {
        "Q", "P", "Full", "Short", "Hand", "Segs", "All", "K", "W", "H0",
        "Both", "HA", "HB", "HC",
    }
    assert names["Q"].arrows == (("a", "u", "v"), ("b", "v", "w"))
    assert names["K"].expr.n == 4 and names["K"].expr.s == 1
    assert names["W"].expr.window == (-1, 3)
    assert names["HA"].expr.q.order == 2


def test_parse_reports_position_of_syntax_errors():
    doc, diags = dsl.parse("quiver Q {\n  vertices u v;\n}")
    assert doc is None
    assert len(diags) == 1
    assert diags[0].pos.line == 2
    assert "':'" in diags[0].message


def test_parse_rejects_unknown_keyword():
    doc, diags = dsl.parse("module X {}")
    assert doc is None
    assert "unknown declaration" in diags[0].message


def test_parse_rejects_duplicate_names():
    doc, diags = dsl.parse("poset P { elements: x; }\nposet P { elements: y; }")
    assert doc is None
    assert "duplicate" in diags[0].message


def test_parse_rejects_unterminated_string():
    doc, diags = dsl.parse('hopf H = hn(s=1, q=root(2,1), group=csv("x)')
    assert doc is None


def test_tokenizer_tracks_columns():
    tokens, diags = dsl.tokenize("a ->\n  b")
    assert diags == []
    kinds = [(t.kind, t.text, t.pos.line, t.pos.col) for t in tokens]
    assert kinds[0] == ("name", "a", 1, 1)
    assert kinds[1] == ("punct", "->", 1, 3)
    assert kinds[2] == ("name", "b", 2, 3)


def test_print_parse_round_trip():
    doc, diags = dsl.parse(GOOD)
    assert diags == []
    printed = dsl.print_document(doc)
    doc2, diags2 = dsl.parse(printed)
    assert diags2 == []
    assert dsl.print_document(doc2) == printed
    # same declarations modulo source positions
    for d1, d2 in zip(doc.declarations, doc2.declarations):
        assert type(d1) is type(d2)
        assert d1.name == d2.name


def test_negative_numbers_in_windows():
    doc, diags = dsl.parse(
        "coalgebra W = family(Ainf, window=[-3,-1], r={-3:-1, -2:0, -1:1})"
    )
    assert diags == []
    expr = doc.declarations[0].expr
    assert expr.window == (-3, -1)
    assert dict(expr.r) == {-3: -1, -2: 0, -1: 1}


def test_tokenizer_counts_a_trailing_comment_in_the_eof_column():
    tokens, diags = dsl.tokenize("a # note")
    assert diags == []
    assert [(t.kind, t.pos.col) for t in tokens] == [("name", 1), ("eof", 9)]


def test_integers_are_decimal_digits():
    # an Arabic-Indic three is a decimal digit, as int() reads it
    doc, diags = dsl.parse("coalgebra K = family(Cn, n=٣, s=1)")
    assert diags == [] and doc.declarations[0].expr.n == 3
    # a superscript two is a digit but no decimal digit: no integer
    doc, diags = dsl.parse("coalgebra K = family(Cn, n=², s=1)")
    assert doc is None
    assert [(d.pos.line, d.pos.col, d.message) for d in diags] == [
        (1, 28, "expected 'int', found '²'")
    ]
    # a numeric character that is no digit is no name either
    doc, diags = dsl.parse("poset P { elements: ½; }")
    assert doc is None and diags[0].message == "unexpected character '½'"


LONG = "1" * 5000


@pytest.mark.parametrize(
    "text, col",
    [
        (f"coalgebra K = family(Cn, n={LONG}, s=1)", 28),
        (f"hopf H = hn(s=1, q=root(2,1), group=cyclic(4), alpha=1/-{LONG})", 56),
    ],
    ids=["n", "denominator"],
)
def test_too_long_integer_gets_a_diagnostic_at_the_literal(text, col):
    doc, diags = dsl.parse(text)
    assert doc is None
    assert [(d.pos.line, d.pos.col, d.message) for d in diags] == [
        (1, col, "integer literal too long (5000 digits)")
    ]


@pytest.mark.parametrize(
    "text, col, message",
    [
        ("coalgebra W = family(Ainf, window=[0,1], r={0:1, 0:2, 1:3})", 50,
         "repeated reach key 0"),
        # -0 is the key 0 too
        ("coalgebra W = family(Ainf, window=[0,1], r={0:1, 1:2, -0:3})", 55,
         "repeated reach key 0"),
        ("hopf H = hn(s=2, s=1, q=root(3,1), q=root(2,1), group=cyclic(4), alpha=1)", 18,
         "repeated hn(...) argument 's'"),
        ("hopf H = hn(s=1, q=root(2,1), group=cyclic(4), alpha=1, alpha=0)", 57,
         "repeated hn(...) argument 'alpha'"),
    ],
    ids=["reach-key", "reach-key-spelled-otherwise", "hn-s", "hn-alpha"],
)
def test_repeated_keys_are_rejected_at_the_repeat(text, col, message):
    doc, diags = dsl.parse(text)
    assert doc is None
    assert [(d.pos.line, d.pos.col, d.message) for d in diags] == [(1, col, message)]


def nested_products(depth: int) -> str:
    return "hopf H = group_algebra(" + "product(" * depth + "cyclic(2)" + ")" * (depth + 1) + "\n"


def test_group_nesting_is_capped_at_the_product_that_passes_it():
    deepest = nested_products(dsl.MAX_GROUP_DEPTH)
    doc, diags = dsl.parse(deepest)
    assert diags == [] and dsl.print_document(doc) == deepest
    doc, diags = dsl.parse(nested_products(dsl.MAX_GROUP_DEPTH + 1))
    assert doc is None
    # `hopf H = group_algebra(` is 23 columns, each `product(` 8 more
    assert [(d.pos.line, d.pos.col, d.message) for d in diags] == [
        (1, 24 + 8 * dsl.MAX_GROUP_DEPTH, f"product(...) nested more than {dsl.MAX_GROUP_DEPTH} deep")
    ]


def test_printer_writes_only_the_hn_arguments_given():
    # hn(...) without q or group parses (the resolver reports what is missing)
    for text in ("hopf H = hn(s=1, group=cyclic(4))\n", "hopf H = hn(s=0)\n"):
        doc, diags = dsl.parse(text)
        assert diags == []
        assert dsl.print_document(doc) == text


# --- properties

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_DOCS = {p.name: p.read_text() for p in sorted(GOLDEN.glob("*.qcf"))}


def token_spans(text):
    """(start, end) offsets of the tokens of `text`, eof left out."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tokens, diags = dsl.tokenize(text)
    assert diags == []
    spans = []
    for t in tokens[:-1]:
        start = line_starts[t.pos.line - 1] + t.pos.col - 1
        spans.append((start, start + len(t.text) + 2 * (t.kind == "string")))
    return spans


GOLDEN_SPANS = {name: token_spans(text) for name, text in GOLDEN_DOCS.items()}
# tokens a mutation may put in besides the document's own: punctuation,
# keywords, and literals that int() does not read: '²', '½' and one past
# its digit limit
SPARE = [
    "{", "}", "(", ")", "[", "]", ",", ";", ":", "=", "<", "->", "/", "-", '"', "#", "@",
    "hn", "s", "q", "g", "r", "chi", "alpha", "group", "root", "cyclic", "dihedral",
    "product", '"t.csv"', "0", "-1", "²", "½", LONG,
]


@st.composite
def mutated_golden(draw):
    """A golden document with one to three token edits: a token deleted,
    replaced by another of the document's tokens or a spare one, or a spare
    token or a copy of the token put in before it."""
    name = draw(st.sampled_from(sorted(GOLDEN_DOCS)))
    text, spans = GOLDEN_DOCS[name], GOLDEN_SPANS[name]
    own = [text[a:b] for a, b in spans]
    edits = draw(st.dictionaries(
        st.integers(0, len(spans) - 1),
        st.tuples(st.integers(0, 4), st.sampled_from(own), st.sampled_from(SPARE)),
        min_size=1, max_size=3,
    ))
    for index in sorted(edits, reverse=True):  # later edits first keep the spans valid
        op, other, spare = edits[index]
        a, b = spans[index]
        new = ["", other, spare, spare + " " + text[a:b], text[a:b] + " " + text[a:b]][op]
        text = text[:a] + new + text[b:]
    return text


DSL_PIECES = st.sampled_from(SPARE + sorted({t for text in GOLDEN_DOCS.values()
                                             for t in re.findall(r"\S+", text)}))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=st.one_of(st.text(max_size=40), st.lists(DSL_PIECES, max_size=30).map(" ".join)))
@example(text="coalgebra K = family(Cn, n=², s=1)")
@example(text=f"coalgebra K = family(Cn, n={LONG}, s=1)")
def test_parse_never_raises(text):
    doc, diags = dsl.parse(text)
    if doc is None:
        assert diags and all(isinstance(d, dsl.Diagnostic) for d in diags)
    else:
        assert isinstance(doc, dsl.Document) and diags == []


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_print_parse_print_is_stable_on_goldens(name):
    doc, diags = dsl.parse(GOLDEN_DOCS[name])
    assert diags == []
    printed = dsl.print_document(doc)
    again, diags = dsl.parse(printed)
    assert diags == []
    assert dsl.print_document(again) == printed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=mutated_golden())
def test_print_parse_print_is_stable_on_mutations(text):
    doc, _ = dsl.parse(text)
    if doc is not None:
        printed = dsl.print_document(doc)
        again, diags = dsl.parse(printed)
        assert diags == []
        assert dsl.print_document(again) == printed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=mutated_golden())
@example(text="coalgebra K = family(Cn, n=², s=1)\n")
def test_validate_on_mutations_exits_0_or_2(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated") / "doc.qcf"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--input", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
