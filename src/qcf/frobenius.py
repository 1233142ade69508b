"""Co-Frobenius decision procedures, classification, and Hopf admissibility.

The criterion is combinatorial: every vertex must carry a unique maximal
outgoing basis path, the endpoint map must land on vertices carrying a
unique maximal incoming path, and following the maximal path forward and
then backward must return to the start. One analyzer serves path and
incidence subcoalgebras: "maximal" is taken in the factor order of the
comultiplication, prefixes and suffixes of a path, and segments sharing an
end with one containing them.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter

from ._record import record
from .forms import IncidenceFormParams, PathFormParams
from .posets import IncidenceSubcoalgebra
from .quiver import (
    A_0INF,
    A_INF,
    C_N,
    Path,
    PathSubcoalgebra,
    QuiverError,
    Quiver,
    WindowedFamily,
    build_family,
)

YES = "yes"
NO = "no"
INCONCLUSIVE = "window-inconclusive"


@record
class VertexVerdict:
    vertex: object
    in_R: bool
    r: object | None
    in_L: bool
    l: object | None
    left_ok: bool
    right_ok: bool
    left_reason: str | None = None
    right_reason: str | None = None


@record
class FrobeniusReport:
    kind: str  # path | incidence | window
    per_vertex: dict
    left_verdict: str
    right_verdict: str
    left_witness: tuple | None = None  # (vertex, reason)
    right_witness: tuple | None = None
    family: str | None = None
    interior: tuple = ()
    margin: int | None = None
    window_limited_left: bool = False
    window_limited_right: bool = False
    notes: tuple[str, ...] = ()

    def r_map(self) -> dict:
        return {v: info.r for v, info in self.per_vertex.items() if info.in_R}

    def l_map(self) -> dict:
        return {v: info.l for v, info in self.per_vertex.items() if info.in_L}


def _side_reason(v, forward: dict, backward: dict, reasons: tuple, back_name: str) -> str | None:
    """Why following `forward` from v and then `backward` (called
    `back_name` in the message) fails to return to v, or None when it
    returns. `reasons` holds the templates for a missing forward image and
    for an image with no backward image."""
    if v not in forward:
        return reasons[0]
    w = forward[v]
    if w not in backward:
        return reasons[1].format(w)
    if backward[w] != v:
        return f"{back_name} map sends {w!r} to {backward[w]!r}, not back to {v!r}"
    return None


def _assemble(kind: str, vertices, r_of: dict, l_of: dict, left_reasons, right_reasons):
    """Per-vertex verdicts from the forward map r_of and the backward map
    l_of; the first failing vertex on each side is its witness."""
    per_vertex = {}
    for v in vertices:
        left_reason = _side_reason(v, r_of, l_of, left_reasons, "backward")
        right_reason = _side_reason(v, l_of, r_of, right_reasons, "forward")
        per_vertex[v] = VertexVerdict(
            vertex=v,
            in_R=v in r_of,
            r=r_of.get(v),
            in_L=v in l_of,
            l=l_of.get(v),
            left_ok=left_reason is None,
            right_ok=right_reason is None,
            left_reason=left_reason,
            right_reason=right_reason,
        )
    left_witness = next(
        ((v, per_vertex[v].left_reason) for v in vertices if not per_vertex[v].left_ok),
        None,
    )
    right_witness = next(
        ((v, per_vertex[v].right_reason) for v in vertices if not per_vertex[v].right_ok),
        None,
    )
    return FrobeniusReport(
        kind=kind,
        per_vertex=per_vertex,
        left_verdict=NO if left_witness else YES,
        right_verdict=NO if right_witness else YES,
        left_witness=left_witness,
        right_witness=right_witness,
    )


# per class: the reason templates of the left side and of the right side,
# each for a missing forward image and for an image with no backward image
_REASONS = {
    "path": (
        (
            "no unique maximal outgoing path",
            "endpoint {!r} has no unique maximal incoming path",
        ),
        (
            "no unique maximal incoming path",
            "start {!r} has no unique maximal outgoing path",
        ),
    ),
    "incidence": (
        (
            "no maximum among segments starting here",
            "endpoint {!r} has no minimum among incoming segments",
        ),
        (
            "no minimum among segments ending here",
            "start {!r} has no maximum among outgoing segments",
        ),
    ),
}


def _analyze_finite(coalg) -> FrobeniusReport:
    """The forward map sends v to the far end of the basis element starting
    at v that every other one starting at v is a left factor of (a prefix,
    or a segment (v, x) with x below its top); the backward map is the dual,
    with ends and right factors. Basis order puts such an element last."""
    if isinstance(coalg, PathSubcoalgebra):
        kind, ends = "path", attrgetter("source", "target")
        left_factor = lambda a, b: a.arrows == b.arrows[: a.length]
        right_factor = lambda a, b: a.arrows == b.arrows[b.length - a.length :]
    else:
        leq = coalg.poset.leq
        kind, ends = "incidence", lambda seg: seg
        left_factor = lambda a, b: leq(a[1], b[1])
        right_factor = lambda a, b: leq(b[0], a[0])
    starting, ending = defaultdict(list), defaultdict(list)
    for b in coalg.basis_list:
        start, end = ends(b)
        starting[start].append(b)
        ending[end].append(b)
    vertices = coalg.vertices()
    r_of: dict = {}
    l_of: dict = {}
    for v in vertices:
        top = starting[v][-1]
        if all(left_factor(b, top) for b in starting[v]):
            r_of[v] = ends(top)[1]
        top = ending[v][-1]
        if all(right_factor(b, top) for b in ending[v]):
            l_of[v] = ends(top)[0]
    return _assemble(kind, vertices, r_of, l_of, *_REASONS[kind])


def _analyze_window(fam: WindowedFamily, margin: int | None = None) -> FrobeniusReport:
    errs = fam.validate()
    if errs:
        raise QuiverError("; ".join(errs))
    finite = build_family(fam)
    base = _analyze_finite(finite)
    if fam.tag == C_N:
        return FrobeniusReport(
            kind="window",
            per_vertex=base.per_vertex,
            left_verdict=base.left_verdict,
            right_verdict=base.right_verdict,
            left_witness=base.left_witness,
            right_witness=base.right_witness,
            family=C_N,
            interior=tuple(str(k) for k in range(fam.n)),
            margin=0,
        )
    rm = fam.r_map()
    deviations = [rm[v] - v for v in range(fam.lo, fam.hi + 1)]
    m = max(deviations) if margin is None else margin
    interior = tuple(
        str(v) for v in range(fam.lo + m, fam.hi - m + 1)
    )
    notes = [
        "per-vertex results are exact for interior vertices; the global verdict "
        "follows from the declared family invariants"
    ]
    if margin is None:
        # with the automatic margin, truncation cannot disturb interior vertices
        for v in interior:
            if not base.per_vertex[v].left_ok:
                raise QuiverError(f"family invariants violated at interior vertex {v}")
    constant = len(set(deviations)) == 1
    if fam.tag == A_INF:
        if constant:
            right_verdict, right_witness, wl = YES, None, True
            notes.append(
                f"offset is constant ({deviations[0]}) on the window; the forward map "
                "is onto there, which the window cannot certify globally"
            )
        else:
            idx = next(
                i for i in range(1, len(deviations)) if deviations[i] != deviations[i - 1]
            )
            skipped = rm[fam.lo + idx - 1] + 1
            right_verdict, right_witness, wl = (
                NO,
                (str(skipped), "vertex is not the endpoint of any maximal path"),
                False,
            )
        return FrobeniusReport(
            kind="window",
            per_vertex=base.per_vertex,
            left_verdict=YES,
            right_verdict=right_verdict,
            right_witness=right_witness,
            family=A_INF,
            interior=interior,
            margin=m,
            window_limited_left=True,
            window_limited_right=wl,
            notes=tuple(notes),
        )
    # half line: the bottom vertex certifies the right-side failure exactly
    return FrobeniusReport(
        kind="window",
        per_vertex=base.per_vertex,
        left_verdict=YES,
        right_verdict=NO,
        right_witness=("0", "forward map does not return to the bottom vertex"),
        family=A_0INF,
        interior=interior,
        margin=m,
        window_limited_left=True,
        window_limited_right=False,
        notes=tuple(notes),
    )


def analyze(obj, margin: int | None = None) -> FrobeniusReport:
    """Full criterion evaluation for a finite coalgebra or a windowed family."""
    if isinstance(obj, (PathSubcoalgebra, IncidenceSubcoalgebra)):
        return _analyze_finite(obj)
    if isinstance(obj, WindowedFamily):
        return _analyze_window(obj, margin)
    raise TypeError(f"cannot analyze {type(obj).__name__}")


@record
class ExtensionCheck:
    ok: bool
    witness: object | None = None  # first basis element with no extension
    failures: tuple = ()


def _extension_check(coalg, extendable) -> ExtensionCheck:
    failures = tuple(b for b in coalg.basis_list if b not in extendable)
    if failures:
        return ExtensionCheck(False, failures[0], failures)
    return ExtensionCheck(True)


def check_condition_d(coalg: PathSubcoalgebra, params: PathFormParams) -> ExtensionCheck:
    """Every basis path must extend, by a composable basis path, to a parameter
    path: it is a prefix of a parameter path whose rest is a basis path."""
    split = coalg.quiver.splits
    return _extension_check(
        coalg, {q for d in params.paths for q, p in split(d) if p in coalg.basis}
    )


def check_condition_d_incidence(
    coalg: IncidenceSubcoalgebra, params: IncidenceFormParams
) -> ExtensionCheck:
    """Every basis segment (x, z) must admit y >= z with (z, y) in the basis
    and the class of z between x and y marked: z is a member of a marked
    class with lower end x."""
    return _extension_check(
        coalg, {(c.x, z) for c in params.marked for z in c.members}
    )


POINT = ("point",)


@record
class Classification:
    """Multiset of canonical summand descriptors plus the vertex assignment."""

    summands: tuple  # descriptor tuples, sorted
    assignment: dict  # vertex -> summand index (into summands)

    def key(self) -> tuple:
        return self.summands


@record
class ClassificationResult:
    classification: Classification | None
    violation: tuple | None = None  # (reason, where)

    @property
    def ok(self) -> bool:
        return self.classification is not None


def classify_finite(coalg: PathSubcoalgebra) -> ClassificationResult:
    """Decompose into connected components and match each against the
    canonical shapes; any mismatch is returned as a violation witness."""
    vertices = coalg.vertices()
    vset = set(vertices)
    basis_arrows = [p for p in coalg.basis_list if p.length == 1]
    out_of: dict[str, list[Path]] = {v: [] for v in vertices}
    into: dict[str, list[Path]] = {v: [] for v in vertices}
    for a in basis_arrows:
        out_of[a.source].append(a)
        into[a.target].append(a)

    for v in vertices:
        if len(out_of[v]) > 1:
            return ClassificationResult(None, ("two basis arrows leave one vertex", v))
        if len(into[v]) > 1:
            return ClassificationResult(None, ("two basis arrows enter one vertex", v))
        if not out_of[v] and into[v]:
            return ClassificationResult(
                None, ("vertex with an incoming arrow but no outgoing arrow", v)
            )
        if out_of[v] and not into[v]:
            return ClassificationResult(
                None, ("vertex with an outgoing arrow but no incoming arrow", v)
            )

    # components of the arrow graph restricted to the basis
    comp: dict[str, int] = {}
    order: list[list[str]] = []
    for v in vertices:
        if v in comp:
            continue
        idx = len(order)
        stack = [v]
        members = []
        comp[v] = idx
        while stack:
            u = stack.pop()
            members.append(u)
            for a in out_of[u] + into[u]:
                for w in (a.source, a.target):
                    if w in vset and w not in comp:
                        comp[w] = idx
                        stack.append(w)
        order.append(sorted(members))

    max_out: dict[str, int] = {v: 0 for v in vertices}
    for p in coalg.basis_list:
        if p.source in max_out:
            max_out[p.source] = max(max_out[p.source], p.length)

    descriptors = []
    for members in order:
        arrows_here = sum(len(out_of[v]) for v in members)
        if arrows_here == 0:
            descriptors.append(POINT)
            continue
        n = len(members)
        lengths = sorted({max_out[v] for v in members})
        if len(lengths) != 1:
            return ClassificationResult(
                None,
                (
                    "maximal path lengths differ around a cycle",
                    tuple((v, max_out[v]) for v in members),
                ),
            )
        descriptors.append((C_N, n, lengths[0]))

    summands = tuple(sorted(descriptors))
    ordered = sorted(range(len(order)), key=lambda i: descriptors[i])
    assignment = {}
    for new_idx, old_idx in enumerate(ordered):
        for v in order[old_idx]:
            assignment[v] = new_idx
    return ClassificationResult(Classification(summands, assignment))


def family_descriptor(fam: WindowedFamily) -> tuple:
    errs = fam.validate()
    if errs:
        raise QuiverError("; ".join(errs))
    if fam.tag == C_N:
        return (C_N, fam.n, fam.s)
    rm = fam.r_map()
    diffs = tuple(rm[v] - v for v in range(fam.lo, fam.hi + 1))
    return (fam.tag, diffs)


def classify(obj) -> ClassificationResult:
    """Classify a finite path subcoalgebra, a windowed family, or a list of
    windowed families (line families keep their window descriptors)."""
    if isinstance(obj, PathSubcoalgebra):
        return classify_finite(obj)
    if isinstance(obj, WindowedFamily):
        obj = [obj]
    if isinstance(obj, (list, tuple)):
        finite_parts = []
        descriptors = []
        for fam in obj:
            if fam.tag == C_N:
                finite_parts.append(fam)
            else:
                descriptors.append(family_descriptor(fam))
        for fam in finite_parts:
            descriptors.append(family_descriptor(fam))
        return ClassificationResult(
            Classification(tuple(sorted(descriptors)), {})
        )
    raise TypeError(f"cannot classify {type(obj).__name__}")


def combine(*results: ClassificationResult) -> ClassificationResult:
    """Merge classifications of independent summand groups."""
    summands = []
    for res in results:
        if not res.ok:
            return res
        summands.extend(res.classification.summands)
    return ClassificationResult(Classification(tuple(sorted(summands)), {}))


def iso_key(classification: Classification) -> tuple:
    """Canonical isomorphism key: the sorted descriptor multiset.

    Two-sided line windows enter through their run of reach offsets, which
    is invariant under translating the whole window; half-line families
    compare verbatim; cycles compare by (n, s); points by count.
    """
    return classification.key()


@record
class IsoCheck:
    isomorphic: bool
    window_limited: bool  # true when line-family windows took part


def iso_check(c1: Classification, c2: Classification) -> IsoCheck:
    limited = any(d[0] in (A_INF, A_0INF) for d in c1.summands + c2.summands)
    return IsoCheck(iso_key(c1) == iso_key(c2), limited)


@record
class HopfAdmissibility:
    family: str  # "I" | "II" | "III" | "none"
    summand_count: int
    s: int | None = None
    n: int | None = None
    reason: str | None = None
    window_limited: bool = False


def admits_hopf(classification: Classification) -> HopfAdmissibility:
    """Which coalgebras of this shape carry a Hopf structure: equal line
    summands with constant offset, equal cycle summands with the divisibility
    constraint, or pure grouplike."""
    summands = classification.summands
    count = len(summands)
    if count == 0:
        return HopfAdmissibility("none", 0, reason="empty coalgebra")
    kinds = {d[0] for d in summands}
    if kinds == {"point"}:
        return HopfAdmissibility("III", count)
    if kinds == {C_N}:
        if len(set(summands)) != 1:
            return HopfAdmissibility("none", count, reason="cycle summands differ")
        _, n, s = summands[0]
        if n >= 2 and n % (s + 1) == 0:
            return HopfAdmissibility("II", count, s=s, n=n)
        return HopfAdmissibility(
            "none", count, s=s, n=n, reason=f"{s + 1} does not divide {n}"
        )
    if kinds == {A_INF}:
        if len(set(summands)) != 1:
            return HopfAdmissibility("none", count, reason="line summands differ")
        diffs = summands[0][1]
        if len(set(diffs)) == 1:
            return HopfAdmissibility("I", count, s=diffs[0], window_limited=True)
        return HopfAdmissibility(
            "none", count, reason="reach offset is not constant on the window"
        )
    if kinds == {A_0INF}:
        return HopfAdmissibility(
            "none", count, reason="half-line summands are never right co-Frobenius"
        )
    return HopfAdmissibility("none", count, reason="mixed summand kinds")


def finite_path_coalgebra_hopf(quiver: Quiver) -> bool:
    """A finite-dimensional full path coalgebra admits a Hopf structure
    exactly when the quiver has no arrows."""
    if not quiver.is_acyclic():
        raise QuiverError("path coalgebra is infinite dimensional (quiver has a cycle)")
    return len(quiver.arrow_ids) == 0
