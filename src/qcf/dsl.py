"""Parser and printer for the structure-description language.

Declarations, one per statement:

    quiver Q { vertices: u v; arrows: a: u -> v; }
    poset P { elements: 0 1 2; covers: 0 < 1; 1 < 2; }
    coalgebra C = paths(Q)                    # finite acyclic quivers only
    coalgebra C = paths(Q, maxlen=3)
    coalgebra C = basis(Q) { u; v; a; }       # one path per item: arrow ids or a vertex
    coalgebra C = segments(P) { [0,0]; [0,1]; }
    coalgebra C = full(P)
    coalgebra C = family(Cn, n=4, s=1)
    coalgebra C = family(Ainf, window=[-2,3], r={-2:0, -1:1, 0:2, 1:3, 2:5, 3:6})
    coalgebra C = family(A0inf, window=[0,4], r={0:2, 1:3, 2:4, 3:5, 4:6})
    coalgebra D = sum(C1, C2)
    hopf H = hn(s=1, q=root(2,1), group=cyclic(4), alpha=1)
    hopf K = group_algebra(cyclic(3))

Groups: cyclic(n), dihedral(n) (order 2n), product(G1, G2), csv("table.csv");
csv groups need explicit g=INDEX and chi=[...] entries. Scalars are integers,
fractions p/q, or root(m, k) for the k-th power of a primitive m-th root.
An integer is decimal digits with an optional leading '-', as int() reads
them (so a superscript digit is no integer). A reach key of r={...} and an
argument of hn(...) may not repeat. A group nests at most MAX_GROUP_DEPTH
product(...)s.

Diagnostics carry line and column. parse() never raises on bad input.
"""

from __future__ import annotations

import re

from ._record import record

# The group parser, the resolver and the printer recurse once per product(...)
# level; a product of more than nine nontrivial factors already has an order
# over the Hopf dimension limit of 512, so 64 levels refuse no usable group.
MAX_GROUP_DEPTH = 64


@record(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@record
class Diagnostic:
    pos: Pos
    message: str

    def __str__(self) -> str:
        return f"{self.pos}: {self.message}"


@record(frozen=True)
class Token:
    kind: str  # name | int | string | punct | eof
    text: str
    pos: Pos


# One alternative per token kind, tried in order, after the blanks and the
# comment before the token: skipping those in the same match halves the
# matches per document. The pattern matches at every index, at the end of the
# text by `\Z`, which is no group. A name starts with a letter, '_' or a digit
# that is no decimal digit; `tokenize` reports any other start of a `name`
# match, such as '½', as an unexpected character.
_TOKEN = re.compile(
    r'[ \t\r]*(?:#[^\n]*)?'
    r'(?:(?P<newline>\n)|(?P<punct>->|[{}()\[\]=,;:</])|(?P<string>"[^"\n]*")|(?P<quote>")'
    r'|(?P<int>-?\d+)|(?P<name>[^\W\d][\w.]*)|(?P<other>.)|\Z)'
)


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, start, i = 1, 0, 0  # start: the index where the current line starts
    while kind := (m := _TOKEN.match(text, i)).lastgroup:
        s, i = m.span(kind)
        if kind == "newline":
            line, start = line + 1, i
            continue
        pos = Pos(line, s - start + 1)
        if kind == "name" and not (text[s].isalpha() or text[s] == "_" or text[s].isdigit()):
            kind, i = "other", s + 1
        if kind == "quote":
            diags.append(Diagnostic(pos, "unterminated string"))
            return tokens, diags
        if kind == "other":
            diags.append(Diagnostic(pos, f"unexpected character {text[s]!r}"))
        else:
            tokens.append(Token(kind, text[s + 1 : i - 1] if kind == "string" else text[s:i], pos))
    tokens.append(Token("eof", "", Pos(line, len(text) - start + 1)))
    return tokens, diags


# ---------------------------------------------------------------------------
# AST


@record
class QuiverDecl:
    name: str
    pos: Pos
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]


@record
class PosetDecl:
    name: str
    pos: Pos
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]


@record
class ScalarExpr:
    kind: str  # rational | root
    num: int = 0
    den: int = 1
    order: int = 1
    exponent: int = 0


@record
class GroupExpr:
    kind: str  # cyclic | dihedral | product | csv
    n: int = 0
    parts: tuple = ()
    path: str = ""


@record
class CoalgExpr:
    kind: str  # paths | basis | segments | full | family | sum
    target: str = ""
    maxlen: int | None = None
    items: tuple = ()  # basis path items / segment items / sum names
    family_tag: str = ""
    window: tuple[int, int] | None = None
    r: tuple[tuple[int, int], ...] = ()
    n: int = 0
    s: int = 0


@record
class CoalgebraDecl:
    name: str
    pos: Pos
    expr: CoalgExpr


@record
class HopfExpr:
    kind: str  # hn | group_algebra
    s: int = 0
    q: ScalarExpr | None = None
    group: GroupExpr | None = None
    g: int | None = None
    chi: tuple[ScalarExpr, ...] | None = None
    alpha: ScalarExpr | None = None


@record
class HopfDecl:
    name: str
    pos: Pos
    expr: HopfExpr


@record
class Document:
    declarations: tuple  # QuiverDecl | PosetDecl | CoalgebraDecl | HopfDecl, in order


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.diags: list[Diagnostic] = []

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, pos: Pos, message: str):
        self.diags.append(Diagnostic(pos, message))
        raise _ParseAbort()

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(tok.pos, f"expected {want!r}, found {tok.text!r}")
        return self.next()

    def expect_name(self, value: str | None = None) -> Token:
        return self.expect("name", value)

    def expect_int(self) -> int:
        """An int literal's value; every int literal is read here."""
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            self.error(tok.pos, f"integer literal too long ({len(tok.text.lstrip('-'))} digits)")

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind not in ("name", "int"):
            self.error(tok.pos, f"expected an identifier, found {tok.text!r}")
        return self.next().text

    def idents(self) -> list[str]:
        """Identifiers up to the next token that is none."""
        names = []
        while self.peek().kind in ("name", "int"):
            names.append(self.ident())
        return names

    # --- token sequences that recur

    def head(self, punct: str) -> tuple[str, Pos]:
        """`KEYWORD NAME punct`: the declared name and the keyword's position."""
        pos = self.next().pos
        name = self.expect_name().text
        self.expect("punct", punct)
        return name, pos

    def key(self, name: str, read):
        """`name = value`: the value, as `read` reads it."""
        self.expect_name(name)
        self.expect("punct", "=")
        return read()

    def inside(self, read):
        """`( value )`: the value, as `read` reads it."""
        self.expect("punct", "(")
        value = read()
        self.expect("punct", ")")
        return value

    def target(self) -> str:
        return self.inside(self.expect_name).text

    def listed(self, item) -> tuple:
        """`(item, ..., item)`, one item or more."""
        self.expect("punct", "(")
        items = [item()]
        while self.accept("punct", ","):
            items.append(item())
        self.expect("punct", ")")
        return tuple(items)

    def until(self, close: str, item) -> list:
        """`item, ..., item close`, after the opening bracket: none or more
        items, and a comma may follow the last."""
        items = []
        while not self.accept("punct", close):
            items.append(item())
            if not self.accept("punct", ","):
                self.expect("punct", close)
                break
        return items

    def pair(self, item, open: str = "[", close: str = "]") -> tuple:
        self.expect("punct", open)
        lo = item()
        self.expect("punct", ",")
        hi = item()
        self.expect("punct", close)
        return lo, hi

    def block(self, item) -> tuple:
        """`{ item; ...; item; }`, the items of `basis` and `segments`."""
        self.expect("punct", "{")
        items = []
        while not self.accept("punct", "}"):
            items.append(item())
            self.expect("punct", ";")
        return tuple(items)

    # --- declarations

    def document(self) -> Document:
        decls = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.error(tok.pos, f"expected a declaration, found {tok.text!r}")
            if tok.text == "quiver":
                decls.append(self.listing(QuiverDecl, "vertices", "arrows", (":", "->")))
            elif tok.text == "poset":
                decls.append(self.listing(PosetDecl, "elements", "covers", ("<",)))
            elif tok.text == "coalgebra":
                decls.append(CoalgebraDecl(*self.head("="), self.coalg_expr()))
            elif tok.text == "hopf":
                decls.append(HopfDecl(*self.head("="), self.hopf_expr()))
            else:
                self.error(tok.pos, f"unknown declaration keyword {tok.text!r}")
        return Document(tuple(decls))

    def listing(self, decl, members: str, links: str, seps: tuple[str, ...]):
        """`quiver Q { vertices: ...; arrows: a: u -> v; ... }` or
        `poset P { elements: ...; covers: x < y; ... }`: a link is its
        identifiers with `seps` between them."""
        name, pos = self.head("{")
        self.expect_name(members)
        self.expect("punct", ":")
        ids = self.idents()
        self.expect("punct", ";")
        rows = []
        if self.accept("name", links):
            self.expect("punct", ":")
            while self.peek().kind in ("name", "int"):
                row = [self.ident()]
                for sep in seps:
                    self.expect("punct", sep)
                    row.append(self.ident())
                self.expect("punct", ";")
                rows.append(tuple(row))
        self.expect("punct", "}")
        return decl(name, pos, tuple(ids), tuple(rows))

    def coalg_expr(self) -> CoalgExpr:
        tok = self.expect_name()
        kind = tok.text
        if kind == "paths":
            self.expect("punct", "(")
            target = self.expect_name().text
            maxlen = self.key("maxlen", self.expect_int) if self.accept("punct", ",") else None
            self.expect("punct", ")")
            return CoalgExpr("paths", target=target, maxlen=maxlen)
        if kind == "basis":
            path = lambda: (self.ident(), *self.idents())
            return CoalgExpr("basis", target=self.target(), items=self.block(path))
        if kind == "segments":
            segment = lambda: self.pair(self.ident)
            return CoalgExpr("segments", target=self.target(), items=self.block(segment))
        if kind == "full":
            return CoalgExpr("full", target=self.target())
        if kind == "family":
            self.expect("punct", "(")
            tag = self.expect_name().text
            if tag not in ("Ainf", "A0inf", "Cn"):
                self.error(tok.pos, f"unknown family tag {tag!r}")
            self.expect("punct", ",")
            if tag == "Cn":
                n = self.key("n", self.expect_int)
                self.expect("punct", ",")
                s = self.key("s", self.expect_int)
                self.expect("punct", ")")
                return CoalgExpr("family", family_tag=tag, n=n, s=s)
            window = self.key("window", lambda: self.pair(self.expect_int))
            self.expect("punct", ",")
            r = self.key("r", self.reach_table)
            self.expect("punct", ")")
            return CoalgExpr("family", family_tag=tag, window=window, r=r)
        if kind == "sum":
            return CoalgExpr("sum", items=self.listed(lambda: self.expect_name().text))
        self.error(tok.pos, f"unknown coalgebra constructor {kind!r}")

    def reach_table(self) -> tuple[tuple[int, int], ...]:
        """`{k: v, ...}`; a repeated k gets a diagnostic at the repeat."""
        reach: dict[int, int] = {}

        def entry():
            pos = self.peek().pos
            k = self.expect_int()
            if k in reach:
                self.error(pos, f"repeated reach key {k}")
            self.expect("punct", ":")
            reach[k] = self.expect_int()

        self.expect("punct", "{")
        self.until("}", entry)
        return tuple(reach.items())

    def scalar_expr(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "int":
            num, den = self.expect_int(), 1
            if self.accept("punct", "/"):
                pos = self.peek().pos
                den = self.expect_int()
                if den == 0:
                    self.error(pos, "zero denominator in scalar")
            return ScalarExpr("rational", num=num, den=den)
        if tok.kind == "name" and tok.text == "root":
            self.next()
            order, exponent = self.pair(self.expect_int, "(", ")")
            return ScalarExpr("root", order=order, exponent=exponent)
        self.error(tok.pos, f"expected a scalar, found {tok.text!r}")

    def group_expr(self, depth: int = 0) -> GroupExpr:
        """A group inside `depth` product(...)s."""
        tok = self.expect_name()
        if tok.text in ("cyclic", "dihedral"):
            return GroupExpr(tok.text, n=self.inside(self.expect_int))
        if tok.text == "product":
            if depth == MAX_GROUP_DEPTH:
                self.error(tok.pos, f"product(...) nested more than {MAX_GROUP_DEPTH} deep")
            return GroupExpr("product", parts=self.listed(lambda: self.group_expr(depth + 1)))
        if tok.text == "csv":
            return GroupExpr("csv", path=self.inside(lambda: self.expect("string")).text)
        self.error(tok.pos, f"unknown group constructor {tok.text!r}")

    def hopf_expr(self) -> HopfExpr:
        tok = self.expect_name()
        if tok.text == "group_algebra":
            return HopfExpr("group_algebra", group=self.inside(self.group_expr))
        if tok.text != "hn":
            self.error(tok.pos, f"unknown hopf constructor {tok.text!r}")
        self.expect("punct", "(")
        expr = HopfExpr("hn")
        seen = set()
        while not self.accept("punct", ")"):
            key = self.expect_name()
            self.expect("punct", "=")
            if key.text in seen:
                self.error(key.pos, f"repeated hn(...) argument {key.text!r}")
            seen.add(key.text)
            if key.text in ("s", "g"):
                value = self.expect_int()
            elif key.text in ("q", "alpha"):
                value = self.scalar_expr()
            elif key.text == "group":
                value = self.group_expr()
            elif key.text == "chi":
                self.expect("punct", "[")
                value = tuple(self.until("]", self.scalar_expr))
            else:
                self.error(key.pos, f"unknown hn(...) argument {key.text!r}")
            setattr(expr, key.text, value)
            self.accept("punct", ",")
        return expr


class _ParseAbort(Exception):
    pass


def parse(text: str) -> tuple[Document | None, list[Diagnostic]]:
    tokens, diags = tokenize(text)
    if diags:
        return None, diags
    parser = _Parser(tokens)
    try:
        doc = parser.document()
    except _ParseAbort:
        return None, parser.diags
    names = {}
    for d in doc.declarations:
        if d.name in names:
            parser.diags.append(
                Diagnostic(d.pos, f"duplicate declaration name {d.name!r}")
            )
            return None, parser.diags
        names[d.name] = d
    return doc, parser.diags


# ---------------------------------------------------------------------------
# canonical printer (parse . print . parse is the identity on documents)


def _print_scalar(sc: ScalarExpr | tuple[ScalarExpr, ...]) -> str:
    if isinstance(sc, tuple):  # chi=[...]
        return "[" + ", ".join(map(_print_scalar, sc)) + "]"
    if sc.kind == "rational":
        return str(sc.num) if sc.den == 1 else f"{sc.num}/{sc.den}"
    return f"root({sc.order}, {sc.exponent})"


def _print_group(g: GroupExpr) -> str:
    if g.kind in ("cyclic", "dihedral"):
        return f"{g.kind}({g.n})"
    if g.kind == "product":
        return "product(" + ", ".join(_print_group(p) for p in g.parts) + ")"
    return f'csv("{g.path}")'


def print_document(doc: Document) -> str:
    out = []
    for d in doc.declarations:
        if isinstance(d, QuiverDecl):
            lines = [f"quiver {d.name} {{"]
            lines.append("  vertices: " + " ".join(d.vertices) + ";")
            if d.arrows:
                lines.append("  arrows:")
                for aid, src, tgt in d.arrows:
                    lines.append(f"    {aid}: {src} -> {tgt};")
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(d, PosetDecl):
            lines = [f"poset {d.name} {{"]
            lines.append("  elements: " + " ".join(d.elements) + ";")
            if d.covers:
                lines.append("  covers:")
                for a, b in d.covers:
                    lines.append(f"    {a} < {b};")
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(d, CoalgebraDecl):
            e = d.expr
            if e.kind == "paths":
                body = f"paths({e.target})" if e.maxlen is None else f"paths({e.target}, maxlen={e.maxlen})"
            elif e.kind == "basis":
                items = " ".join("".join(f"{p} " for p in item).strip() + ";" for item in e.items)
                body = f"basis({e.target}) {{ {items} }}" if e.items else f"basis({e.target}) {{ }}"
            elif e.kind == "segments":
                items = " ".join(f"[{lo},{hi}];" for lo, hi in e.items)
                body = f"segments({e.target}) {{ {items} }}" if e.items else f"segments({e.target}) {{ }}"
            elif e.kind == "full":
                body = f"full({e.target})"
            elif e.kind == "family":
                if e.family_tag == "Cn":
                    body = f"family(Cn, n={e.n}, s={e.s})"
                else:
                    rs = ", ".join(f"{k}:{v}" for k, v in e.r)
                    body = (
                        f"family({e.family_tag}, window=[{e.window[0]},{e.window[1]}], "
                        f"r={{{rs}}})"
                    )
            else:
                body = "sum(" + ", ".join(e.items) + ")"
            out.append(f"coalgebra {d.name} = {body}")
        elif isinstance(d, HopfDecl):
            e = d.expr
            if e.kind == "group_algebra":
                out.append(f"hopf {d.name} = group_algebra({_print_group(e.group)})")
            else:
                # the arguments the document gives; hn(...) may lack any but s
                parts = [f"s={e.s}"]
                for key, show in (("q", _print_scalar), ("group", _print_group), ("g", str),
                                  ("chi", _print_scalar), ("alpha", _print_scalar)):
                    if getattr(e, key) is not None:
                        parts.append(f"{key}={show(getattr(e, key))}")
                out.append(f"hopf {d.name} = hn(" + ", ".join(parts) + ")")
    return "\n".join(out) + "\n"
