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
from .posets import IncidenceSubcoalgebra
from .quiver import (
    A_0INF,
    A_INF,
    C_N,
    Path,
    PathSubcoalgebra,
    QuiverError,
    WindowedFamily,
    build_family,
)

YES = "yes"
NO = "no"


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
    """A line window's maps, read from its reach table without building it:
    the longest basis path from k ends at min(r(k), hi), and since r is
    strictly increasing, the longest one into v starts at the least k with
    r(k) >= v. No interior vertex can fail the left side: `validate`
    refuses every reach table that is not strictly increasing, and on a
    strictly increasing one l(r(v)) = v at every interior vertex."""
    errs = fam.validate()
    if errs:
        raise QuiverError("; ".join(errs))
    r_of: dict = {}
    l_of: dict = {}
    k = 0
    for v, rv in fam.r:
        r_of[str(v)] = str(min(rv, fam.hi))
        while fam.r[k][1] < v:
            k += 1
        l_of[str(v)] = str(fam.r[k][0])
    # string order, as PathSubcoalgebra.vertices() gives the built window's
    base = _assemble("path", sorted(r_of), r_of, l_of, *_REASONS["path"])
    offsets = [rv - v for v, rv in fam.r]
    m = max(offsets) if margin is None else margin
    interior = tuple(
        str(v) for v in range(fam.lo + m, fam.hi - m + 1)
    )
    notes = [
        "per-vertex results are exact for interior vertices; the global verdict "
        "follows from the declared family invariants"
    ]
    if fam.tag == A_0INF:
        # half line: the bottom vertex certifies the right-side failure exactly
        right_verdict, right_witness, wl = (
            NO,
            ("0", "forward map does not return to the bottom vertex"),
            False,
        )
    elif len(set(offsets)) == 1:
        right_verdict, right_witness, wl = YES, None, True
        notes.append(
            f"offset is constant ({offsets[0]}) on the window; the forward map "
            "is onto there, which the window cannot certify globally"
        )
    else:
        idx = next(i for i in range(1, len(offsets)) if offsets[i] != offsets[i - 1])
        skipped = fam.r[idx - 1][1] + 1
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
        family=fam.tag,
        interior=interior,
        margin=m,
        window_limited_left=True,
        window_limited_right=wl,
        notes=tuple(notes),
    )


def analyze(obj, margin: int | None = None) -> FrobeniusReport:
    """Full criterion evaluation for a finite coalgebra or a windowed family
    (a cycle family is finite and is built first)."""
    if isinstance(obj, (PathSubcoalgebra, IncidenceSubcoalgebra)):
        return _analyze_finite(obj)
    if isinstance(obj, WindowedFamily):
        if obj.tag == C_N:
            return _analyze_finite(build_family(obj))
        return _analyze_window(obj, margin)
    raise TypeError(f"cannot analyze {type(obj).__name__}")


@record
class ExtensionCheck:
    ok: bool
    witness: object | None = None  # first basis element with no extension
    failures: tuple = ()


def check_condition_d(coalg, params) -> ExtensionCheck:
    """Every basis element q must extend to a parameter: some pair (p, q) is
    in the support of the form parameters `params`. For paths, q is a prefix
    of a parameter path whose rest p is a basis path; for segments, q = (x, z)
    with z a member of a marked class with lower end x."""
    extendable = {q for pairs in params.support.values() for _, q in pairs}
    failures = tuple(b for b in coalg.basis_list if b not in extendable)
    if failures:
        return ExtensionCheck(False, failures[0], failures)
    return ExtensionCheck(True)


check_condition_d_incidence = check_condition_d  # the acceptance suite's name


POINT = ("point",)


@record
class Classification:
    """Multiset of canonical summand descriptors."""

    summands: tuple  # descriptor tuples, sorted
    assignment: dict  # always {}: nothing reads which summand holds a vertex


@record
class ClassificationResult:
    classification: Classification | None
    violation: tuple | None = None  # (reason, where)

    @property
    def ok(self) -> bool:
        return self.classification is not None


def classify_finite(coalg: PathSubcoalgebra) -> ClassificationResult:
    """Match each connected component against the canonical shapes; any
    mismatch is returned as a violation witness. Once no vertex has two
    basis arrows in or out, or an arrow one way and none the other, every
    component with an arrow is a directed cycle: it is walked along its one
    out-arrow from its least vertex."""
    vertices = coalg.vertices()
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

    max_out: dict[str, int] = {v: 0 for v in vertices}
    for p in coalg.basis_list:
        max_out[p.source] = max(max_out[p.source], p.length)

    descriptors = []
    seen: set[str] = set()
    for v in vertices:
        if v in seen:
            continue
        if not out_of[v]:
            descriptors.append(POINT)
            continue
        members, w = [], v
        while w not in seen:
            seen.add(w)
            members.append(w)
            w = out_of[w][0].target
        if len({max_out[u] for u in members}) != 1:
            return ClassificationResult(
                None,
                (
                    "maximal path lengths differ around a cycle",
                    tuple((u, max_out[u]) for u in sorted(members)),
                ),
            )
        descriptors.append((C_N, len(members), max_out[v]))

    return ClassificationResult(Classification(tuple(sorted(descriptors)), {}))


def family_descriptor(fam: WindowedFamily) -> tuple:
    errs = fam.validate()
    if errs:
        raise QuiverError("; ".join(errs))
    if fam.tag == C_N:
        return (C_N, fam.n, fam.s)
    return (fam.tag, tuple(rv - v for v, rv in fam.r))


def classify(obj) -> ClassificationResult:
    """Classify a finite path subcoalgebra, a windowed family, or a list of
    windowed families (line families keep their window descriptors)."""
    if isinstance(obj, PathSubcoalgebra):
        return classify_finite(obj)
    if isinstance(obj, WindowedFamily):
        obj = [obj]
    if isinstance(obj, (list, tuple)):
        return ClassificationResult(
            Classification(tuple(sorted(family_descriptor(f) for f in obj)), {})
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
    return classification.summands


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
