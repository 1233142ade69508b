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

Diagnostics carry line and column. parse() never raises on bad input.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass
class Diagnostic:
    pos: Pos
    message: str

    def __str__(self) -> str:
        return f"{self.pos}: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # name | int | string | punct | eof
    text: str
    pos: Pos


_PUNCT2 = ("->",)
_PUNCT1 = "{}()[]=,;:</"


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col)
        if text.startswith("->", i):
            tokens.append(Token("punct", "->", pos))
            i += 2
            col += 2
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"' and text[j] != "\n":
                j += 1
            if j >= n or text[j] != '"':
                diags.append(Diagnostic(pos, "unterminated string"))
                return tokens, diags
            tokens.append(Token("string", text[i + 1 : j], pos))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], pos))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append(Token("name", text[i:j], pos))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, pos))
            i += 1
            col += 1
            continue
        diags.append(Diagnostic(pos, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(Token("eof", "", Pos(line, col)))
    return tokens, diags


# ---------------------------------------------------------------------------
# AST


@dataclass
class QuiverDecl:
    name: str
    pos: Pos
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]


@dataclass
class PosetDecl:
    name: str
    pos: Pos
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]


@dataclass
class ScalarExpr:
    kind: str  # rational | root
    num: int = 0
    den: int = 1
    order: int = 1
    exponent: int = 0


@dataclass
class GroupExpr:
    kind: str  # cyclic | dihedral | product | csv
    n: int = 0
    parts: tuple = ()
    path: str = ""


@dataclass
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


@dataclass
class CoalgebraDecl:
    name: str
    pos: Pos
    expr: CoalgExpr


@dataclass
class HopfExpr:
    kind: str  # hn | group_algebra
    s: int = 0
    q: ScalarExpr | None = None
    group: GroupExpr | None = None
    g: int | None = None
    chi: tuple[ScalarExpr, ...] | None = None
    alpha: ScalarExpr | None = None


@dataclass
class HopfDecl:
    name: str
    pos: Pos
    expr: HopfExpr


@dataclass
class Document:
    declarations: tuple  # QuiverDecl | PosetDecl | CoalgebraDecl | HopfDecl, in order

    def by_name(self) -> dict:
        return {d.name: d for d in self.declarations}


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
        return int(self.expect("int").text)

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

    # --- declarations

    def document(self) -> Document:
        decls = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.error(tok.pos, f"expected a declaration, found {tok.text!r}")
            if tok.text == "quiver":
                decls.append(self.quiver_decl())
            elif tok.text == "poset":
                decls.append(self.poset_decl())
            elif tok.text == "coalgebra":
                decls.append(self.coalgebra_decl())
            elif tok.text == "hopf":
                decls.append(self.hopf_decl())
            else:
                self.error(tok.pos, f"unknown declaration keyword {tok.text!r}")
        return Document(tuple(decls))

    def quiver_decl(self) -> QuiverDecl:
        pos = self.next().pos
        name = self.expect_name().text
        self.expect("punct", "{")
        self.expect_name("vertices")
        self.expect("punct", ":")
        vertices = []
        while self.peek().kind in ("name", "int"):
            vertices.append(self.ident())
        self.expect("punct", ";")
        arrows = []
        if self.accept("name", "arrows"):
            self.expect("punct", ":")
            while self.peek().kind in ("name", "int"):
                aid = self.ident()
                self.expect("punct", ":")
                src = self.ident()
                self.expect("punct", "->")
                tgt = self.ident()
                self.expect("punct", ";")
                arrows.append((aid, src, tgt))
        self.expect("punct", "}")
        return QuiverDecl(name, pos, tuple(vertices), tuple(arrows))

    def poset_decl(self) -> PosetDecl:
        pos = self.next().pos
        name = self.expect_name().text
        self.expect("punct", "{")
        self.expect_name("elements")
        self.expect("punct", ":")
        elements = []
        while self.peek().kind in ("name", "int"):
            elements.append(self.ident())
        self.expect("punct", ";")
        covers = []
        if self.accept("name", "covers"):
            self.expect("punct", ":")
            while self.peek().kind in ("name", "int"):
                a = self.ident()
                self.expect("punct", "<")
                b = self.ident()
                self.expect("punct", ";")
                covers.append((a, b))
        self.expect("punct", "}")
        return PosetDecl(name, pos, tuple(elements), tuple(covers))

    def coalgebra_decl(self) -> CoalgebraDecl:
        pos = self.next().pos
        name = self.expect_name().text
        self.expect("punct", "=")
        expr = self.coalg_expr()
        return CoalgebraDecl(name, pos, expr)

    def coalg_expr(self) -> CoalgExpr:
        tok = self.expect_name()
        kind = tok.text
        if kind == "paths":
            self.expect("punct", "(")
            target = self.expect_name().text
            maxlen = None
            if self.accept("punct", ","):
                self.expect_name("maxlen")
                self.expect("punct", "=")
                maxlen = self.expect_int()
            self.expect("punct", ")")
            return CoalgExpr("paths", target=target, maxlen=maxlen)
        if kind == "basis":
            self.expect("punct", "(")
            target = self.expect_name().text
            self.expect("punct", ")")
            self.expect("punct", "{")
            items = []
            while not self.accept("punct", "}"):
                parts = [self.ident()]
                while self.peek().kind in ("name", "int"):
                    parts.append(self.ident())
                self.expect("punct", ";")
                items.append(tuple(parts))
            return CoalgExpr("basis", target=target, items=tuple(items))
        if kind == "segments":
            self.expect("punct", "(")
            target = self.expect_name().text
            self.expect("punct", ")")
            self.expect("punct", "{")
            items = []
            while not self.accept("punct", "}"):
                self.expect("punct", "[")
                lo = self.ident()
                self.expect("punct", ",")
                hi = self.ident()
                self.expect("punct", "]")
                self.expect("punct", ";")
                items.append((lo, hi))
            return CoalgExpr("segments", target=target, items=tuple(items))
        if kind == "full":
            self.expect("punct", "(")
            target = self.expect_name().text
            self.expect("punct", ")")
            return CoalgExpr("full", target=target)
        if kind == "family":
            self.expect("punct", "(")
            tag = self.expect_name().text
            if tag not in ("Ainf", "A0inf", "Cn"):
                self.error(tok.pos, f"unknown family tag {tag!r}")
            if tag == "Cn":
                self.expect("punct", ",")
                self.expect_name("n")
                self.expect("punct", "=")
                n = self.expect_int()
                self.expect("punct", ",")
                self.expect_name("s")
                self.expect("punct", "=")
                s = self.expect_int()
                self.expect("punct", ")")
                return CoalgExpr("family", family_tag=tag, n=n, s=s)
            self.expect("punct", ",")
            self.expect_name("window")
            self.expect("punct", "=")
            self.expect("punct", "[")
            lo = self.expect_int()
            self.expect("punct", ",")
            hi = self.expect_int()
            self.expect("punct", "]")
            self.expect("punct", ",")
            self.expect_name("r")
            self.expect("punct", "=")
            self.expect("punct", "{")
            entries = []
            while not self.accept("punct", "}"):
                k = self.expect_int()
                self.expect("punct", ":")
                v = self.expect_int()
                entries.append((k, v))
                if not self.accept("punct", ","):
                    self.expect("punct", "}")
                    break
            self.expect("punct", ")")
            return CoalgExpr(
                "family", family_tag=tag, window=(lo, hi), r=tuple(entries)
            )
        if kind == "sum":
            self.expect("punct", "(")
            names = [self.expect_name().text]
            while self.accept("punct", ","):
                names.append(self.expect_name().text)
            self.expect("punct", ")")
            return CoalgExpr("sum", items=tuple(names))
        self.error(tok.pos, f"unknown coalgebra constructor {kind!r}")

    def scalar_expr(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "int":
            num = self.expect_int()
            if self.accept("punct", "/"):
                den_tok = self.expect("int")
                den = int(den_tok.text)
                if den == 0:
                    self.error(den_tok.pos, "zero denominator in scalar")
                return ScalarExpr("rational", num=num, den=den)
            return ScalarExpr("rational", num=num)
        if tok.kind == "name" and tok.text == "root":
            self.next()
            self.expect("punct", "(")
            order = self.expect_int()
            self.expect("punct", ",")
            exponent = self.expect_int()
            self.expect("punct", ")")
            return ScalarExpr("root", order=order, exponent=exponent)
        self.error(tok.pos, f"expected a scalar, found {tok.text!r}")

    def group_expr(self) -> GroupExpr:
        tok = self.expect_name()
        if tok.text == "cyclic":
            self.expect("punct", "(")
            n = self.expect_int()
            self.expect("punct", ")")
            return GroupExpr("cyclic", n=n)
        if tok.text == "dihedral":
            self.expect("punct", "(")
            n = self.expect_int()
            self.expect("punct", ")")
            return GroupExpr("dihedral", n=n)
        if tok.text == "product":
            self.expect("punct", "(")
            parts = [self.group_expr()]
            while self.accept("punct", ","):
                parts.append(self.group_expr())
            self.expect("punct", ")")
            return GroupExpr("product", parts=tuple(parts))
        if tok.text == "csv":
            self.expect("punct", "(")
            path = self.expect("string").text
            self.expect("punct", ")")
            return GroupExpr("csv", path=path)
        self.error(tok.pos, f"unknown group constructor {tok.text!r}")

    def hopf_decl(self) -> HopfDecl:
        pos = self.next().pos
        name = self.expect_name().text
        self.expect("punct", "=")
        tok = self.expect_name()
        if tok.text == "group_algebra":
            self.expect("punct", "(")
            group = self.group_expr()
            self.expect("punct", ")")
            return HopfDecl(name, pos, HopfExpr("group_algebra", group=group))
        if tok.text != "hn":
            self.error(tok.pos, f"unknown hopf constructor {tok.text!r}")
        self.expect("punct", "(")
        expr = HopfExpr("hn")
        while not self.accept("punct", ")"):
            key = self.expect_name().text
            self.expect("punct", "=")
            if key == "s":
                expr.s = self.expect_int()
            elif key == "q":
                expr.q = self.scalar_expr()
            elif key == "group":
                expr.group = self.group_expr()
            elif key == "g":
                expr.g = self.expect_int()
            elif key == "chi":
                self.expect("punct", "[")
                vals = []
                while not self.accept("punct", "]"):
                    vals.append(self.scalar_expr())
                    if not self.accept("punct", ","):
                        self.expect("punct", "]")
                        break
                expr.chi = tuple(vals)
            elif key == "alpha":
                expr.alpha = self.scalar_expr()
            else:
                self.error(tok.pos, f"unknown hn(...) argument {key!r}")
            self.accept("punct", ",")
        return HopfDecl(name, pos, expr)


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


def _print_scalar(sc: ScalarExpr) -> str:
    if sc.kind == "rational":
        return str(sc.num) if sc.den == 1 else f"{sc.num}/{sc.den}"
    return f"root({sc.order}, {sc.exponent})"


def _print_group(g: GroupExpr) -> str:
    if g.kind == "cyclic":
        return f"cyclic({g.n})"
    if g.kind == "dihedral":
        return f"dihedral({g.n})"
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
                parts = [f"s={e.s}", f"q={_print_scalar(e.q)}", f"group={_print_group(e.group)}"]
                if e.g is not None:
                    parts.append(f"g={e.g}")
                if e.chi is not None:
                    parts.append("chi=[" + ", ".join(_print_scalar(c) for c in e.chi) + "]")
                if e.alpha is not None:
                    parts.append(f"alpha={_print_scalar(e.alpha)}")
                out.append(f"hopf {d.name} = hn(" + ", ".join(parts) + ")")
    return "\n".join(out) + "\n"
