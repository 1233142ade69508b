"""Balanced bilinear forms on path and incidence subcoalgebras.

A form beta is balanced when, for every pair of basis elements (p, q),
expanding beta against the comultiplication on either side gives the same
element: sum beta(p2, q) p1 = sum beta(p, q1) q2. Balancedness is linear
in the values beta(p, q), so the space of balanced forms is the nullspace
of an explicit homogeneous system; the closed-form parameterizations below
describe the same space and the two routes are checked against each other.
"""

from __future__ import annotations

from ._record import record
from .lincomb import LinComb
from .linalg import field_nullspace, sparse_int_nullspace
from .posets import IncidenceSubcoalgebra
from .quiver import Path, PathSubcoalgebra, path_sort_key
from .scalars import Cyc


class FormError(ValueError):
    pass


@record
class BilinearForm:
    """A bilinear form on a subcoalgebra, stored sparsely over basis pairs."""

    coalgebra: object
    entries: dict  # (p, q) -> Cyc, zero entries omitted

    def entry(self, p, q) -> Cyc:
        return self.entries.get((p, q), Cyc.zero())


@record
class BalancedCheck:
    ok: bool
    violation: tuple | None = None  # (p, q, coordinate)


def is_balanced(form: BilinearForm) -> BalancedCheck:
    """Direct check of the balance identity on every basis pair, driven by
    the form's entries, so that it costs time in their number.

    An entry beta(a, b) adds c beta(a, b) p1 to the left side of the pair
    (p, b) for each term c p1 (x) a of Delta p, and c beta(a, b) q2 to the
    right side of the pair (a, q) for each term c b (x) q2 of Delta q; a
    pair that no entry reaches has both sides zero. The witness (p, q, coordinate)
    is the first pair in basis order whose sides differ, with the smallest
    coordinate by repr at which they do.
    """
    coalg = form.coalgebra
    basis = coalg.basis_list
    # per label: (basis element, other factor, coefficient) for each
    # comultiplication term with the label as its right, resp. left, factor
    as_right: dict = {}
    as_left: dict = {}
    for p in basis:
        for (p1, p2), c in coalg.comul(p).items():
            as_right.setdefault(p2, []).append((p, p1, c))
            as_left.setdefault(p1, []).append((p, p2, c))
    diff: dict = {}  # (p, q, coordinate) -> left side minus right side
    for (a, b), v in form.entries.items():
        for p, p1, c in as_right.get(a, ()):
            key, term = (p, b, p1), v if c.is_one() else c * v
            diff[key] = diff[key] + term if key in diff else term
        for q, q2, c in as_left.get(b, ()):
            key, term = (a, q, q2), -(v if c.is_one() else c * v)
            diff[key] = diff[key] + term if key in diff else term
    index = {p: i for i, p in enumerate(basis)}
    unequal = [key for key, d in diff.items() if not d.is_zero()]
    if not unequal:
        return BalancedCheck(True)
    return BalancedCheck(
        False, min(unequal, key=lambda k: (index[k[0]], index[k[1]], repr(k[2])))
    )


BRUTEFORCE_BOUND = 200  # largest basis size the brute-force solver accepts by default


def balanced_space_bruteforce(coalg, bound: int = BRUTEFORCE_BOUND) -> list[BilinearForm]:
    """Exact nullspace basis of the balance constraints, treating every
    beta(p, q) as an unknown, found by `linalg.sparse_int_nullspace`.
    It uses none of the closed-form parameterizations it is checked against."""
    basis = coalg.basis_list
    n = len(basis)
    if n > bound:
        raise FormError(f"basis size {n} exceeds brute-force bound {bound}")
    index = {p: i for i, p in enumerate(basis)}
    # one equation per pair and coordinate, emitted in the repr order of the
    # coordinate; any row order gives the same nullspace basis, which is read
    # off the unique reduced row echelon form
    rank = {p: r for r, p in enumerate(sorted(basis, key=repr))}
    comuls = [coalg.comul(p).labels() for p in basis]
    # per basis index: (coordinate rank, index of the other factor) per term
    left = [[(rank[p1], index[p2]) for p1, p2 in terms] for terms in comuls]
    right = [[(rank[q2], index[q1]) for q1, q2 in terms] for terms in comuls]
    rows: list[dict[int, int]] = []
    for i in range(n):
        for j in range(n):
            # one equation per coordinate appearing on either side
            per_coord: dict[int, dict[int, int]] = {}
            for r, k in left[i]:
                unknown = k * n + j
                row = per_coord.setdefault(r, {})
                row[unknown] = row.get(unknown, 0) + 1
            for r, k in right[j]:
                unknown = i * n + k
                row = per_coord.setdefault(r, {})
                row[unknown] = row.get(unknown, 0) - 1
            for r in sorted(per_coord):
                row = {k: v for k, v in per_coord[r].items() if v}
                if row:
                    rows.append(row)
    return [
        BilinearForm(
            coalg,
            {(basis[k // n], basis[k % n]): Cyc.rational(v) for k, v in vec.items()},
        )
        for vec in sparse_int_nullspace(rows, n * n)
    ]


@record
class PathFormParams:
    """The paths that parameterize balanced forms on a path subcoalgebra.

    A concatenation d = qp of basis paths belongs when, for every way of
    writing d as such a concatenation, basis arrows extending the right
    factor backwards (resp. the left factor forwards) are already part of d.
    """

    paths: tuple[Path, ...]
    witness: dict  # d -> one (q, p) decomposition

    @property
    def size(self) -> int:
        return len(self.paths)


def path_form_params(coalg: PathSubcoalgebra) -> PathFormParams:
    quiver = coalg.quiver
    basis = coalg.basis
    candidates: dict[Path, tuple[Path, Path]] = {}
    for q in coalg.basis_list:
        for p in coalg.basis_list:
            if q.target == p.source:
                d = quiver.concat(q, p)
                candidates.setdefault(d, (q, p))

    def admissible(d: Path) -> bool:
        for i in range(d.length + 1):
            qq, pp = quiver.split(d, i)
            if qq not in basis or pp not in basis:
                continue
            for aid in quiver.in_arrows(pp.source):
                extended = quiver.concat(quiver.arrow_path(aid), pp)
                if extended in basis and (not qq.arrows or qq.arrows[-1] != aid):
                    return False
            for bid in quiver.out_arrows(qq.target):
                extended = quiver.concat(qq, quiver.arrow_path(bid))
                if extended in basis and (not pp.arrows or pp.arrows[0] != bid):
                    return False
        return True

    chosen = sorted((d for d in candidates if admissible(d)), key=path_sort_key)
    return PathFormParams(
        paths=tuple(chosen), witness={d: candidates[d] for d in chosen}
    )


def form_from_path_params(
    coalg: PathSubcoalgebra, params: PathFormParams, alpha: dict
) -> BilinearForm:
    """beta(p, q) = alpha_d exactly when the composite qp is a parameter path d."""
    missing = [d for d in params.paths if d not in alpha]
    if missing:
        raise FormError(f"alpha missing values for {missing[:3]!r}...")
    param_set = set(params.paths)
    quiver = coalg.quiver
    entries = {}
    for q in coalg.basis_list:
        for p in coalg.basis_list:
            if q.target == p.source:
                d = quiver.concat(q, p)
                if d in param_set:
                    value = alpha[d]
                    if not value.is_zero():
                        entries[(p, q)] = value
    return BilinearForm(coalg, entries)


@record(frozen=True)
class MidpointClass:
    """One equivalence class of midpoints between a fixed pair of endpoints."""

    x: object
    y: object
    members: tuple
    marked: bool


@record
class IncidenceFormParams:
    """Midpoint classes per endpoint pair; the marked ones carry a free scalar."""

    classes: tuple[MidpointClass, ...]

    @property
    def marked(self) -> tuple[MidpointClass, ...]:
        return tuple(c for c in self.classes if c.marked)

    @property
    def size(self) -> int:
        return len(self.marked)


def incidence_form_params(coalg: IncidenceSubcoalgebra) -> IncidenceFormParams:
    poset = coalg.poset
    basis = coalg.basis
    order = {e: i for i, e in enumerate(poset.elements)}
    classes: list[MidpointClass] = []
    for x in poset.elements:
        for y in poset.elements:
            if not poset.leq(x, y):
                continue
            mids = [
                u
                for u in poset.interval(x, y)
                if (x, u) in basis and (u, y) in basis
            ]
            if not mids:
                continue
            # classes: transitive closure of sharing a common lower bound inside mids
            parent = {u: u for u in mids}

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for z in mids:
                ups = [u for u in mids if poset.leq(z, u)]
                root = find(ups[0])
                for u in ups[1:]:
                    parent[find(u)] = root
            groups: dict[object, list] = {}
            for u in mids:
                groups.setdefault(find(u), []).append(u)
            for group in sorted(groups.values(), key=lambda g: min(order[u] for u in g)):
                members = tuple(sorted(group, key=lambda u: order[u]))
                marked = True
                for u in members:
                    for v in poset.elements:
                        if poset.leq(v, u) and (v, y) in basis and not poset.leq(x, v):
                            marked = False
                        if poset.leq(u, v) and (x, v) in basis and not poset.leq(v, y):
                            marked = False
                    if not marked:
                        break
                classes.append(MidpointClass(x=x, y=y, members=members, marked=marked))
    return IncidenceFormParams(classes=tuple(classes))


def form_from_incidence_params(
    coalg: IncidenceSubcoalgebra, params: IncidenceFormParams, alpha: dict
) -> BilinearForm:
    """beta(e(t, y), e(x, z)) = alpha on the marked class of z = t between x and y."""
    entries = {}
    for cls in params.marked:
        key = (cls.x, cls.y, cls.members)
        if key not in alpha:
            raise FormError(f"alpha missing value for class {key!r}")
        value = alpha[key]
        if value.is_zero():
            continue
        for u in cls.members:
            entries[((u, cls.y), (cls.x, u))] = value
    return BilinearForm(coalg, entries)


def all_ones_alpha_path(params: PathFormParams) -> dict:
    return {d: Cyc.one() for d in params.paths}


def all_ones_alpha_incidence(params: IncidenceFormParams) -> dict:
    return {(c.x, c.y, c.members): Cyc.one() for c in params.marked}


def radicals(form: BilinearForm) -> tuple[list[LinComb], list[LinComb]]:
    """Left radical (kills the form from the left) and right radical bases."""
    basis = form.coalgebra.basis_list
    index = {p: i for i, p in enumerate(basis)}
    # the entries as sparse rows of the form's matrix and of its transpose
    by_row: dict[int, dict[int, Cyc]] = {}
    by_col: dict[int, dict[int, Cyc]] = {}
    for (p, q), c in form.entries.items():
        by_row.setdefault(index[p], {})[index[q]] = c
        by_col.setdefault(index[q], {})[index[p]] = c

    def radical(rows: dict) -> list[LinComb]:
        vectors = field_nullspace(list(rows.values()), len(basis))
        return [LinComb({basis[i]: c for i, c in vec.items()}) for vec in vectors]

    return radical(by_col), radical(by_row)
