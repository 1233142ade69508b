"""Command dispatch and JSON reporting; the only module with I/O.

Commands: validate, forms, frobenius, classify, embed, tensor, hopf,
hopf-verify. Input is a document in the structure-description language;
output is a single JSON report. Exit status 0 means the analysis completed
(negative verdicts included); nonzero means bad input.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm, prod
from pathlib import Path as FilePath

from . import dsl, forms, frobenius, hopf
from ._record import record
from .linalg import field_nullspace
from .lincomb import LinComb
from .posets import (
    IncidenceSubcoalgebra,
    Poset,
    embed,
    full_incidence_coalgebra,
    hasse_path_count,
    tensor_iso_check,
)
from .quiver import (
    Path,
    PathRun,
    PathSubcoalgebra,
    Quiver,
    QuiverError,
    WindowedFamily,
    bounded_path_coalgebra,
    build_family,
    direct_sum,
    full_path_coalgebra,
)
from .scalars import Cyc, RootOfUnity, scalar_to_str

COMMANDS = (
    "validate",
    "forms",
    "frobenius",
    "classify",
    "embed",
    "tensor",
    "hopf",
    "hopf-verify",
)


# Size limits, checked before anything is built. A Hopf table stores
# dimension^2 products; a cycle family family(Cn, n, s) has n(s+1) basis
# paths holding n s(s+1)/2 arrows in all, a line family's window is held to
# the same limits (WindowedFamily.size), and paths(Q, maxlen=...) and a
# sum(...), whose summands' dimensions add up, to the same number of basis
# paths; `embed` lists every Hasse path between the ends of each basis
# segment, 297,856 for full(B8) and 2,681,216 for full(B9), B_n the Boolean
# lattice on n points. A poset declaration holds at most MAX_POSET_ELEMENTS
# elements (B9 has 512), its order closed over n-bit masks in n^2 steps
# (0.06 s for a 512-element chain), and full(P) and segments(P) at most
# MAX_FAMILY_DIMENSION segments, counted before they are listed. `tensor`
# builds the product poset from the factors' masks (0.1 s for two
# 32-element chains) and compares both comultiplications on every product
# segment: T_X T_Y terms in all, T the sum of a factor's interval sizes.
# A sum(...) holds at most MAX_SUM_FAMILIES line families, whatever their
# dimensions: each is reported on its own, 0.9 MB of frobenius report for
# 1,024 families of dimension 1.
MAX_HOPF_DIMENSION = 512
MAX_FAMILY_DIMENSION = 20_000
MAX_FAMILY_ARROWS = 2_000_000
MAX_EMBED_PATHS = 1_000_000
MAX_POSET_ELEMENTS = 512
MAX_TENSOR_ELEMENTS = 1_024
MAX_TENSOR_TERMS = 200_000
MAX_SUM_FAMILIES = 1_024
# The lcm of the orders of the roots of unity declared for q, chi and alpha
# in hn(...); a character value has an order dividing the group order.
MAX_CONDUCTOR = 1024


class InputError(Exception):
    pass


class ResolveError(InputError):
    """The positioned diagnostics of resolving a document."""

    def __init__(self, diags: list[dsl.Diagnostic]):
        super().__init__("; ".join(str(d) for d in diags))
        self.diags = diags


# ---------------------------------------------------------------------------
# resolution: declarations -> library objects


@record
class CoalgValue:
    """A resolved coalgebra declaration: a finite part (a path or an
    incidence subcoalgebra, or None) plus windowed line families, which only
    sum with path parts."""

    finite: PathSubcoalgebra | IncidenceSubcoalgebra | None
    families: tuple[WindowedFamily, ...] = ()
    violations: tuple[str, ...] = ()


def _summed_dimension(finite_parts, families) -> int:
    """The dimension of the sum of finite parts and line families, counted
    without building a window."""
    return sum(p.dimension for p in finite_parts) + sum(f.size()[0] for f in families)


@record
class HopfValue:
    """A resolved hopf declaration: `build()` makes its table, without the
    antipode, and `label` prints a basis label."""

    build: Callable[[], hopf.HopfTable]
    label: Callable[[object], str]


@record
class Resolved:
    quivers: dict
    posets: dict
    coalgebras: dict  # name -> CoalgValue
    hopfs: dict  # name -> HopfValue


def _scalar_value(sc: dsl.ScalarExpr) -> Cyc:
    if sc.kind == "rational":
        return Cyc.rational(Fraction(sc.num, sc.den))
    return Cyc.root(sc.order, sc.exponent)


def _root_value(sc: dsl.ScalarExpr, name: str) -> RootOfUnity:
    if sc.kind == "root":
        return RootOfUnity(sc.order, sc.exponent)
    if sc.kind == "rational" and sc.den == 1 and sc.num == -1:
        return RootOfUnity(2, 1)
    if sc.kind == "rational" and sc.den == 1 and sc.num == 1:
        return RootOfUnity(1, 0)
    raise InputError(f"{name} must be root(m, k), 1, or -1")


def _group_value(expr: dsl.GroupExpr, base: FilePath | None, levels: int = 1):
    """(table, names, identity). InputError before a table is built whose
    order times `levels` (the x-degrees 0..s of hn) exceeds
    MAX_HOPF_DIMENSION; a CSV table is checked once read."""

    def check_order(order: int) -> None:
        if order * levels > MAX_HOPF_DIMENSION:
            raise InputError(
                f"a group of order {order} gives dimension {order * levels}, "
                f"over the limit of {MAX_HOPF_DIMENSION}"
            )

    if expr.kind == "cyclic":
        check_order(expr.n)
        return hopf.cyclic_table(expr.n), hopf.cyclic_names(expr.n), 0
    if expr.kind == "dihedral":
        check_order(2 * expr.n)
        table, names, _ = hopf.dihedral_table(expr.n)
        return table, names, 0
    if expr.kind == "product":
        parts = [_group_value(p, base, levels) for p in expr.parts]
        check_order(prod(len(part[0]) for part in parts))
        table, names, identity = parts[0]
        for t2, n2, e2 in parts[1:]:
            table = hopf.product_table(table, t2)
            names = tuple(f"{a}*{b}" for a in names for b in n2)
            identity = identity * len(t2) + e2
        return table, names, identity
    path = FilePath(expr.path)
    if base is not None and not path.is_absolute():
        path = base / path
    try:
        with open(path, newline="") as fh:
            rows = [[int(x) for x in row] for row in csv.reader(fh) if row]
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read group table {path}: {exc}") from exc
    check_order(len(rows))
    return hopf.group_from_csv_rows(rows)


def resolve(doc: dsl.Document, base: FilePath | None = None) -> tuple[Resolved, list[dsl.Diagnostic]]:
    """The document's objects, and a diagnostic for every declaration that
    fails: its resolver raises, and the message is prefixed with the
    declaration's keyword and name; its name maps to None. QuiverError,
    PosetError and HopfError are ValueErrors and ScalarError an
    ArithmeticError."""
    quivers: dict = {}
    posets: dict = {}
    coalgebras: dict = {}
    hopfs: dict = {}
    diags: list[dsl.Diagnostic] = []
    for d in doc.declarations:
        try:
            if isinstance(d, dsl.QuiverDecl):
                quivers[d.name] = Quiver(d.vertices, d.arrows)
            elif isinstance(d, dsl.PosetDecl):
                if len(d.elements) > MAX_POSET_ELEMENTS:
                    raise InputError(
                        f"{len(d.elements)} elements, over the limit of {MAX_POSET_ELEMENTS}"
                    )
                posets[d.name] = Poset.from_covers(d.elements, d.covers)
            elif isinstance(d, dsl.CoalgebraDecl):
                coalgebras[d.name] = _resolve_coalgebra(d.expr, quivers, posets, coalgebras)
            elif isinstance(d, dsl.HopfDecl):
                hopfs[d.name] = _resolve_hopf(d.expr, base)
        except (InputError, ValueError, ArithmeticError) as exc:
            keyword = type(d).__name__.removesuffix("Decl").lower()  # QuiverDecl: quiver
            diags.append(dsl.Diagnostic(d.pos, f"{keyword} {d.name}: {exc}"))
            # so that _lookup reports a reference to it as failed, not unknown
            dict(quiver=quivers, poset=posets, coalgebra=coalgebras, hopf=hopfs)[keyword][d.name] = None
    return Resolved(quivers, posets, coalgebras, hopfs), diags


def _lookup(declared: dict, kind: str, name: str):
    if name not in declared:
        raise InputError(f"unknown {kind} {name!r}")
    if declared[name] is None:
        raise InputError(f"{kind} {name!r} did not resolve")
    return declared[name]


def _path_count(quiver: Quiver, maxlen: int | None) -> int:
    """Paths of length at most maxlen (any length if None), counted per end
    vertex until the count passes MAX_FAMILY_DIMENSION or a length has none."""
    ends, total, length = dict.fromkeys(quiver.vertices, 1), len(quiver.vertices), 0
    while ends and total <= MAX_FAMILY_DIMENSION and (maxlen is None or length < maxlen):
        step: dict[str, int] = {}
        for aid in quiver.arrow_ids:
            count = ends.get(quiver.source(aid))
            if count:
                end = quiver.target(aid)
                step[end] = step.get(end, 0) + count
        ends, total, length = step, total + sum(step.values()), length + 1
    return total


def _resolve_coalgebra(e: dsl.CoalgExpr, quivers, posets, coalgebras) -> CoalgValue:
    if e.kind in ("paths", "basis"):
        quiver = _lookup(quivers, "quiver", e.target)
        if e.kind == "paths":
            # a cyclic quiver without maxlen is refused by full_path_coalgebra
            # as infinite dimensional
            if e.maxlen is not None or quiver.is_acyclic():
                if _path_count(quiver, e.maxlen) > MAX_FAMILY_DIMENSION:
                    bound = "" if e.maxlen is None else f", maxlen={e.maxlen}"
                    raise InputError(f"paths({e.target}{bound}) has more basis paths "
                                     f"than the limit of {MAX_FAMILY_DIMENSION}")
            if e.maxlen is None:
                coalg = full_path_coalgebra(quiver)
            else:
                coalg = bounded_path_coalgebra(quiver, e.maxlen)
        else:
            basis = []
            arrow_set = set(quiver.arrow_ids)
            vertex_set = set(quiver.vertices)
            for item in e.items:
                if len(item) == 1 and item[0] in vertex_set:
                    basis.append(quiver.vertex_path(item[0]))
                elif all(p in arrow_set for p in item):
                    basis.append(quiver.make_path(item))
                else:
                    raise InputError(f"bad path item {' '.join(item)!r}")
            coalg = PathSubcoalgebra(quiver, basis)
        return CoalgValue(coalg, violations=tuple(coalg.validate()))
    if e.kind in ("segments", "full"):
        poset = _lookup(posets, "poset", e.target)
        count = poset.segment_count() if e.kind == "full" else len(e.items)
        if count > MAX_FAMILY_DIMENSION:
            raise InputError(f"{e.kind}({e.target}) has {count} segments, "
                             f"over the limit of {MAX_FAMILY_DIMENSION}")
        if e.kind == "full":  # closed under subintervals by construction
            return CoalgValue(full_incidence_coalgebra(poset))
        coalg = IncidenceSubcoalgebra(poset, e.items)
        return CoalgValue(coalg, violations=tuple(coalg.validate()))
    if e.kind == "family":
        if e.family_tag == "Cn":
            fam = WindowedFamily.cycle(e.n, e.s)
        else:
            r = dict(e.r)
            lo, hi = e.window
            if hi < lo or sorted(r) != list(range(lo, hi + 1)):
                raise InputError("reach table must cover the window")
            fam = WindowedFamily.line(e.family_tag, r)
        errs = fam.validate()
        if errs:
            raise InputError("; ".join(errs))
        dimension, arrows = fam.size()
        if dimension > MAX_FAMILY_DIMENSION or arrows > MAX_FAMILY_ARROWS:
            shape = f"n={e.n}, s={e.s}" if e.family_tag == "Cn" else f"window=[{fam.lo},{fam.hi}]"
            raise InputError(
                f"family({e.family_tag}, {shape}) has dimension {dimension} and {arrows} "
                f"arrows in its basis paths, over the limits {MAX_FAMILY_DIMENSION} "
                f"and {MAX_FAMILY_ARROWS}"
            )
        if e.family_tag == "Cn":
            # cycle families are finite; materialize them outright
            return CoalgValue(build_family(fam))
        return CoalgValue(None, (fam,))
    if e.kind == "sum":
        parts = [_lookup(coalgebras, "summand", name) for name in e.items]
        finite_parts = [p.finite for p in parts if p.finite is not None]
        families = [f for p in parts for f in p.families]
        incidence_parts = [p for p in finite_parts if isinstance(p, IncidenceSubcoalgebra)]
        if incidence_parts and (len(incidence_parts) < len(finite_parts) or families):
            raise InputError("cannot mix incidence and path summands")
        if len(families) > MAX_SUM_FAMILIES:
            raise InputError(f"its summands hold {len(families)} line families, "
                             f"over the limit of {MAX_SUM_FAMILIES}")
        dimension = _summed_dimension(finite_parts, families)
        if dimension > MAX_FAMILY_DIMENSION:
            raise InputError(f"its summands have dimension {dimension} in all, "
                             f"over the limit of {MAX_FAMILY_DIMENSION}")
        finite = direct_sum(finite_parts) if finite_parts else None
        # a sum is valid exactly when its summands are: a subpath or a
        # subinterval of a summand's renamed copy lies in that copy
        if any(p.violations for p in parts):
            return CoalgValue(finite, tuple(families), tuple(finite.validate()))
        return CoalgValue(finite, tuple(families))
    raise AssertionError(e.kind)


def _resolve_hopf(e: dsl.HopfExpr, base) -> HopfValue:
    if e.group is None:
        raise InputError("hn(...) needs group")
    levels = max(e.s + 1, 1) if e.kind == "hn" else 1
    table, names, identity = _group_value(e.group, base, levels)
    if e.kind == "group_algebra":
        if _reads_csv(e.group):  # the built-in groups are groups by construction
            hopf.check_group_table(table, names, identity)
        return HopfValue(lambda: hopf.group_algebra(table, names, identity), lambda l: names[l])
    if e.q is None:
        raise InputError("hn(...) needs q")
    # checked before any Cyc is built: Cyc.root(m, k) reduces by the m-th
    # cyclotomic polynomial, which takes seconds to build for m in the thousands
    roots = (e.q, *(e.chi or ()), e.alpha)
    conductor = lcm(*(r.order for r in roots if r is not None and r.kind == "root"))
    if conductor > MAX_CONDUCTOR:
        raise InputError(
            f"q, chi and alpha need roots of unity of order {conductor}, "
            f"over the limit of {MAX_CONDUCTOR}"
        )
    q = _root_value(e.q, "q")
    s = e.s
    alpha = _scalar_value(e.alpha) if e.alpha is not None else Cyc.zero()
    if e.chi is not None:
        chi = tuple(_root_value(c, f"chi[{i}]") for i, c in enumerate(e.chi))
        if len(chi) != len(table):
            raise InputError("chi must list one value per group element")
    else:
        chi = None
    if e.g is not None:
        g = e.g
        if not 0 <= g < len(table):
            raise InputError(f"g index {g} out of range")
        if chi is None:
            raise InputError("explicit g needs an explicit chi")
        datum = hopf.FiniteGroupData(table, names, identity, g, chi)
    else:
        datum = _default_datum(e.group, s, q, chi)
    datum.validate(s, q, alpha)
    return HopfValue(
        lambda: hopf.build_Hn(s, q, datum, alpha), lambda l: f"{datum.names[l[0]]}|x^{l[1]}"
    )


def _reads_csv(gexpr) -> bool:
    return gexpr.kind == "csv" or any(_reads_csv(p) for p in gexpr.parts)


def _default_datum(gexpr, s, q, chi):
    if chi is not None:
        raise InputError("explicit chi needs an explicit g")
    if gexpr.kind == "cyclic":
        return hopf.cyclic_hopf_datum(gexpr.n, s, q)
    if gexpr.kind == "product" and all(p.kind == "cyclic" for p in gexpr.parts):
        if len(gexpr.parts) == 2 and gexpr.parts[1].n == 2:
            return hopf.cyclic_x_c2_hopf_datum(gexpr.parts[0].n, s, q)
    if gexpr.kind == "dihedral":
        datum = hopf.dihedral_hopf_datum(gexpr.n, s, q)
        if datum is None:
            raise InputError(
                f"dihedral({gexpr.n}) has no central element of order {gexpr.n} "
                "with a matching character"
            )
        return datum
    raise InputError("this group constructor needs explicit g and chi")


# ---------------------------------------------------------------------------
# JSON serialization helpers


class _Encoded(dict):
    """Each name's JSON text, encoded on first use: `encoded[name]`."""

    def __missing__(self, name: str) -> str:
        text = self[name] = encode_basestring_ascii(name)
        return text


def _write_report(report, write, batch: int = 512) -> None:
    """Hand `write` the text of json.dumps(report, indent=2, sort_keys=True)
    in strings of about `batch` pieces, never the whole text at once. A piece
    is one key, scalar, bracket or separator, or one whole path. Only dicts,
    lists, strings, ints, booleans, None, `Path`s and `PathRun`s; a float is
    a TypeError.

    A `Path` is written as its dict form, {"vertex": source} for a vertex,
    else {"arrows": [...], "source": source, "target": target}, and a
    `PathRun`, as `embed` reports a segment's image, as the list of its
    paths' dict forms. A run's paths are written in batched joins: its
    source and target are encoded once, each path is one join of its arrows
    between a head and an end text made once per batch, and at most
    `batch` // 2 paths are joined before each flush, as many as a flush of
    `batch` pieces holds when every path comes with its separator. Arrow
    names are encoded once per call. So a report of paths needs no dict per
    path, and embed's none per image path either. Neither may be a dict
    key."""
    pieces: list[str] = []
    held = 0  # paths joined into `pieces` since the last flush
    room = max(batch // 2, 1)
    encoded = _Encoded().__getitem__

    def flush() -> None:
        nonlocal held
        write("".join(pieces))
        pieces.clear()
        held = 0

    def scalar(o) -> str:
        if o is None or o is True or o is False:
            return "null" if o is None else "true" if o else "false"
        if isinstance(o, int):
            return int.__repr__(o)
        raise TypeError(f"a report cannot hold {type(o).__name__} {o!r}")

    def paths_text(seqs, source: str, target: str, pad: str) -> str:
        # the dict forms at the indent `pad` of the paths from source to
        # target with these arrow tuples, joined as items of a list;
        # `source` and `target` come already encoded
        inner = pad + "  "
        head = f'{{\n{inner}"arrows": [\n{inner}  '
        end = f'\n{inner}],\n{inner}"source": {source},\n{inner}"target": {target}\n{pad}}}'
        vertex = f'{{\n{inner}"vertex": {source}\n{pad}}}'
        sep = f",\n{inner}  "
        return (",\n" + pad).join(
            [head + sep.join(map(encoded, seq)) + end if seq else vertex for seq in seqs]
        )

    def emit(o, pad: str) -> None:
        nonlocal held
        if isinstance(o, str):
            pieces.append(encode_basestring_ascii(o))
        elif isinstance(o, Path):
            pieces.append(paths_text([o.arrows], encoded(o.source), encoded(o.target), pad))
        elif isinstance(o, PathRun):
            seqs = o.seqs
            if not seqs:
                pieces.append("[]")
            else:
                inner = pad + "  "
                ends = encoded(o.source), encoded(o.target)
                pieces.append("[\n" + inner)
                start = 0
                while start < len(seqs):  # held < room, so each batch takes a path
                    if start:  # the batch before filled the room
                        flush()
                        pieces.append(",\n" + inner)
                    stop = start + room - held
                    pieces.append(paths_text(seqs[start:stop], *ends, inner))
                    held += min(stop, len(seqs)) - start
                    start = stop
                pieces.append("\n" + pad + "]")
        elif not isinstance(o, (list, dict)):
            pieces.append(scalar(o))
        elif not o:
            pieces.append("[]" if isinstance(o, list) else "{}")
        else:
            inner = pad + "  "
            sep = ",\n" + inner
            if isinstance(o, list):
                pieces.append("[\n" + inner)
                for i, x in enumerate(o):
                    if i:
                        pieces.append(sep)
                    emit(x, inner)
                pieces.append("\n" + pad + "]")
            else:
                # the keys themselves are sorted, as by sort_keys: ints in numeric order
                for i, k in enumerate(sorted(o)):
                    key = encode_basestring_ascii(k if isinstance(k, str) else scalar(k))
                    pieces.append(("{\n" + inner if i == 0 else sep) + key + ": ")
                    emit(o[k], inner)
                pieces.append("\n" + pad + "}")
        if len(pieces) >= batch or held >= room:
            flush()

    emit(report, "")
    write("".join(pieces))


def basis_json(coalg: PathSubcoalgebra):
    return {
        "vertices": coalg.vertices(),
        "paths": [list(p.arrows) for p in coalg.basis_list if not p.is_vertex()],
    }


def segment_str(seg) -> str:
    return f"[{seg[0]},{seg[1]}]"


def lincomb_json(x: LinComb, label_fn=repr):
    return {label_fn(l): scalar_to_str(c) for l, c in sorted(x.items(), key=lambda kv: label_fn(kv[0]))}


def witness_json(w):
    if w is None:
        return None
    vertex, reason = w
    return {"at": str(vertex), "reason": reason}


QCF_NOTE = (
    "quasi-co-Frobenius is equivalent to co-Frobenius for path and incidence "
    "subcoalgebras; the verdicts coincide"
)


def frobenius_json(rep: frobenius.FrobeniusReport):
    out = {
        "kind": rep.kind,
        "left_coFrobenius": rep.left_verdict,
        "right_coFrobenius": rep.right_verdict,
        "quasi_coFrobenius": QCF_NOTE,
        "R": {str(v): str(t) for v, t in sorted(rep.r_map().items(), key=lambda kv: str(kv[0]))},
        "L": {str(v): str(t) for v, t in sorted(rep.l_map().items(), key=lambda kv: str(kv[0]))},
        "witness_left": witness_json(rep.left_witness),
        "witness_right": witness_json(rep.right_witness),
    }
    if rep.kind == "window":
        out["family"] = rep.family
        out["interior"] = list(rep.interior)
        out["margin"] = rep.margin
        out["window_limited"] = {
            "left": rep.window_limited_left,
            "right": rep.window_limited_right,
        }
        out["notes"] = list(rep.notes)
    return out


def _merge_frobenius(reports: list) -> dict:
    if len(reports) == 1:
        return frobenius_json(reports[0])
    merged = {
        "kind": "sum",
        "parts": [frobenius_json(r) for r in reports],
    }
    for side in ("left", "right"):
        verdicts = [getattr(r, f"{side}_verdict") for r in reports]
        merged[f"{side}_coFrobenius"] = "no" if "no" in verdicts else "yes"
        merged[f"witness_{side}"] = next(
            (
                witness_json(getattr(r, f"{side}_witness"))
                for r in reports
                if getattr(r, f"{side}_witness") is not None
            ),
            None,
        )
    return merged


# ---------------------------------------------------------------------------
# commands


def cmd_validate(res: Resolved, flags) -> dict:
    results = {}
    for name, value in sorted(res.coalgebras.items()):
        entry = {
            "ok": not value.violations,
            "violations": list(value.violations),
        }
        if isinstance(value.finite, IncidenceSubcoalgebra):
            entry["basis"] = {"segments": [segment_str(s) for s in value.finite.basis_list]}
        elif value.finite is not None:
            entry["basis"] = basis_json(value.finite)
        if value.families:
            entry["families"] = [
                {"tag": f.tag, "window": [f.lo, f.hi], "r": dict(f.r)} for f in value.families
            ]
        results[name] = entry
    return results


def cmd_forms(res: Resolved, flags) -> dict:
    results = {}
    for name, value in sorted(res.coalgebras.items()):
        _require_valid(name, value)
        parts = [value.finite] if value.finite is not None else []
        # refused before the windows are built and the quadratic work starts
        forms.require_within_bound(_summed_dimension(parts, value.families), flags.bound)
        parts.extend(build_family(f) for f in value.families)
        coalg = direct_sum(parts) if len(parts) > 1 else parts[0]
        if isinstance(coalg, IncidenceSubcoalgebra):
            params = forms.incidence_form_params(coalg)
            form = forms.form_from_incidence_params(
                coalg, params, forms.all_ones_alpha_incidence(params)
            )
            census: dict = {
                "kind": "incidence",
                "marked_classes": params.size,
                "class_census": [
                    {
                        "x": str(c.x),
                        "y": str(c.y),
                        "members": [str(m) for m in c.members],
                        "marked": c.marked,
                    }
                    for c in params.classes
                ],
            }
        else:
            params = forms.path_form_params(coalg)
            form = forms.form_from_path_params(
                coalg, params, forms.all_ones_alpha_path(params)
            )
            census = {
                "kind": "path",
                "F_size": params.size,
                "F": list(params.paths),
            }
        space = forms.balanced_space_bruteforce(coalg, bound=flags.bound)
        balanced = forms.is_balanced(form)
        # the form's matrix is square, so its left and right radicals both
        # have dimension n - rank: one nullspace gives both
        index = {p: i for i, p in enumerate(coalg.basis_list)}
        rows: dict = {}
        for (p, q), c in form.entries.items():
            rows.setdefault(p, {})[index[q]] = c
        radical_dim = len(field_nullspace(list(rows.values()), coalg.dimension))
        census.update(
            {
                "basis_size": coalg.dimension,
                "param_count": params.size,
                "nullspace_dim": len(space),
                "agree": len(space) == params.size,
                "all_ones_balanced": balanced.ok,
                "left_radical_dim": radical_dim,
                "right_radical_dim": radical_dim,
            }
        )
        results[name] = census
    return results


def cmd_frobenius(res: Resolved, flags) -> dict:
    results = {}
    for name, value in sorted(res.coalgebras.items()):
        _require_valid(name, value)
        reports = [frobenius.analyze(value.finite)] if value.finite is not None else []
        for fam in value.families:
            reports.append(frobenius.analyze(fam, margin=flags.window_margin))
        results[name] = _merge_frobenius(reports)
    return results


def cmd_classify(res: Resolved, flags) -> dict:
    results = {}
    for name, value in sorted(res.coalgebras.items()):
        _require_valid(name, value)
        if isinstance(value.finite, IncidenceSubcoalgebra):
            results[name] = {"error": "classification applies to path-type coalgebras"}
            continue
        partial = []
        if value.finite is not None:
            partial.append(frobenius.classify(value.finite))
        if value.families:
            partial.append(frobenius.classify(list(value.families)))
        result = frobenius.combine(*partial)
        if not result.ok:
            results[name] = {
                "co_frobenius": False,
                "violation": {
                    "reason": result.violation[0],
                    "at": str(result.violation[1]),
                },
            }
            continue
        cls = result.classification
        adm = frobenius.admits_hopf(cls)
        admits = {
            "family": adm.family,
            "summand_count": adm.summand_count,
            "s": adm.s,
            "n": adm.n,
            "reason": adm.reason,
            "window_limited": adm.window_limited,
        }
        if adm.family == "I":
            admits["note"] = (
                "the infinite-group table is not materialized; its products are "
                "covered exactly by the closed-form line product on finitely "
                "supported elements"
            )
        results[name] = {
            "co_frobenius": True,
            "summands": [list(map(str, d)) for d in cls.summands],
            "canonical_key": repr(frobenius.iso_key(cls)),
            "admits_hopf": admits,
        }
    return results


def cmd_embed(res: Resolved, flags) -> dict:
    results = {}
    for name, value in sorted(res.coalgebras.items()):
        if not isinstance(value.finite, IncidenceSubcoalgebra):
            continue
        _require_valid(name, value)
        paths = hasse_path_count(value.finite)
        if paths > MAX_EMBED_PATHS:
            raise InputError(
                f"coalgebra {name} maps its segments to {paths} Hasse paths, "
                f"over the limit of {MAX_EMBED_PATHS}"
            )
        r = embed(value.finite)
        results[name] = {
            "morphism_ok": r.morphism_ok,
            "injective": r.injective,
            "image_dimension": r.image_dimension,
            "single_path_image": r.single_path_image,
            "failure": r.failure,
            "images": {segment_str(seg): run for seg, run in r.runs.items()},
        }
    if not results:
        raise InputError("embed needs at least one incidence coalgebra declaration")
    return results


def cmd_tensor(res: Resolved, flags) -> dict:
    names = flags.targets.split(",") if flags.targets else sorted(res.posets)
    if len(names) != 2:
        raise InputError("tensor needs exactly two posets (use --targets A,B)")
    x, y = (_lookup(res.posets, "poset", name) for name in names)
    product = f"the product of {names[0]} and {names[1]}"
    elements = len(x.elements) * len(y.elements)
    if elements > MAX_TENSOR_ELEMENTS:
        raise InputError(f"{product} has {elements} elements, over the limit of {MAX_TENSOR_ELEMENTS}")
    terms = x.interval_size_sum() * y.interval_size_sum()
    if terms > MAX_TENSOR_TERMS:
        raise InputError(
            f"{product} has {terms} comultiplication terms, over the limit of {MAX_TENSOR_TERMS}"
        )
    r = tensor_iso_check(x, y)
    return {
        "posets": names,
        "ok": r.ok,
        "product_elements": r.product_elements,
        "checked_segments": r.checked_segments,
        "failure": r.failure,
    }


def cmd_hopf(res: Resolved, flags, verify_only: bool = False) -> dict:
    results = {}
    for name, value in sorted(res.hopfs.items()):
        table = hopf.with_antipode(value.build())
        rep = hopf.verify_hopf(table)
        label = value.label
        entry = {
            "meta": table.meta,
            "verified": rep.ok,
            "checks": {k: {"ok": v.ok, "failure": v.failure} for k, v in rep.checks.items()},
        }
        if not verify_only:
            entry["basis"] = [label(l) for l in table.labels]
            entry["product"] = {
                f"{label(a)} * {label(b)}": lincomb_json(table.product[(a, b)], label)
                for a in table.labels
                for b in table.labels
            }
            entry["coproduct"] = {
                label(l): lincomb_json(
                    table.coproduct[l], lambda pair: f"{label(pair[0])} (x) {label(pair[1])}"
                )
                for l in table.labels
            }
            entry["counit"] = {label(l): scalar_to_str(table.counit[l]) for l in table.labels}
            entry["antipode"] = {
                label(l): lincomb_json(table.antipode[l], label) for l in table.labels
            }
        results[name] = entry
        # so that the next table is built in this one's memory, not beside it
        del table
    if not results:
        raise InputError("no hopf declarations in the document")
    return results


def _require_valid(name: str, value: CoalgValue) -> None:
    if value.violations:
        raise InputError(
            f"coalgebra {name} fails validation: {value.violations[0]}"
            + (f" (+{len(value.violations) - 1} more)" if len(value.violations) > 1 else "")
        )


# ---------------------------------------------------------------------------
# entry point


def run(command: str, doc: dsl.Document, flags, base=None) -> dict:
    resolved, diags = resolve(doc, base)
    if diags:
        raise ResolveError(diags)
    dispatch = {
        "validate": cmd_validate,
        "forms": cmd_forms,
        "frobenius": cmd_frobenius,
        "classify": cmd_classify,
        "embed": cmd_embed,
        "tensor": cmd_tensor,
        "hopf": cmd_hopf,
        "hopf-verify": lambda r, f: cmd_hopf(r, f, verify_only=True),
    }
    results = dispatch[command](resolved, flags)
    return {
        "command": command,
        "seed": flags.seed,
        "results": results,
    }


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcf",
        description="Exact analysis of path and incidence subcoalgebras.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="document file (.qcf)")
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in reports")
    parser.add_argument(
        "--bound", type=int, default=forms.BRUTEFORCE_BOUND,
        help="basis-size bound for the brute-force solver",
    )
    parser.add_argument(
        "--window-margin", type=int, default=None, dest="window_margin",
        help="override the interior margin (>= 0) for windowed families",
    )
    parser.add_argument("--targets", default=None, help="comma-separated declaration names")
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    flags = parser.parse_args(argv)
    if flags.window_margin is not None and flags.window_margin < 0:
        parser.error(f"argument --window-margin: must be >= 0, got {flags.window_margin}")
    try:
        text = FilePath(flags.input).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc, diags = dsl.parse(text)
    if doc is None:
        for d in diags:
            print(f"{flags.input}:{d}", file=sys.stderr)
        return 2
    try:
        report = run(flags.command, doc, flags, base=FilePath(flags.input).parent)
    except ResolveError as exc:
        for d in exc.diags:
            print(f"{flags.input}:{d}", file=sys.stderr)
        return 2
    except (InputError, forms.FormError, QuiverError, hopf.HopfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the file is opened only now, so a failed run leaves it as it was
    try:
        if flags.output:
            with open(flags.output, "w") as fh:
                _write_report(report, fh.write)
                fh.write("\n")
        else:
            _write_report(report, sys.stdout.write)
            sys.stdout.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
