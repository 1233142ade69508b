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


def require_within_bound(n: int, bound: int) -> None:
    """Refuse a basis of size n that the brute-force solver would not accept."""
    if n > bound:
        raise FormError(f"basis size {n} exceeds brute-force bound {bound}")


def balanced_space_bruteforce(coalg, bound: int = BRUTEFORCE_BOUND) -> list[BilinearForm]:
    """Exact nullspace basis of the balance constraints, treating every
    beta(p, q) as an unknown, found by `linalg.sparse_int_nullspace`.
    It reads only the basis and the comultiplication, and uses none of the
    closed-form parameterizations it is checked against.

    The unknown x(i, j) = beta(p_i, p_j) is column i * n + j. Every term of
    Delta p must have coefficient 1 and no factor may repeat on either side,
    as in the path and incidence subcoalgebras (a path's prefixes have
    distinct lengths, a segment's midpoints are distinct); otherwise
    FormError. Then, per basis index i, Delta p_i is two maps from a
    coordinate r (a basis element) to an index: left[i] sends the left
    factor r of a term r (x) p_k to k, right[i] sends the right factor r of
    a term p_k (x) r to k. The equation of the pair (i, j) at coordinate r is

        x(left[i][r], j) - x(i, right[j][r])

    with only the terms whose key r is present. When both are, it is a
    two-term row, or nothing if the two unknowns are one. When only one is,
    it forces an unknown to zero: x(k, j) is forced exactly when some r with
    left[i][r] = k for some i is no key of right[j], and x(i, k) exactly
    when some r with right[j][r] = k for some j is no key of left[i].

    The rows are one {u: 1} per forced unknown u, in ascending order, then
    the two-term rows. The equations of every pair and coordinate differ
    from these only by a sign on each one-term row and by repeats of it, so
    both systems have one row space, and with it one reduced row echelon
    form, from which `sparse_int_nullspace` reads the same vectors.
    """
    basis = coalg.basis_list
    n = len(basis)
    require_within_bound(n, bound)
    index = {p: i for i, p in enumerate(basis)}
    left: list[dict] = []
    right: list[dict] = []
    # per coordinate r: the indices i with r a key of left[i], resp. right[i]
    in_left: dict = {}
    in_right: dict = {}
    # per index k: the coordinates r with left[i][r] = k for some i, resp. right
    to_left: list[set] = [set() for _ in range(n)]
    to_right: list[set] = [set() for _ in range(n)]
    for i, p in enumerate(basis):
        terms = coalg.comul(p).items()
        by_left, by_right = {}, {}
        for (p1, p2), c in terms:
            if not c.is_one():
                raise FormError(f"Delta {p!r} has coefficient {c!r} on {p1!r} (x) {p2!r}")
            by_left[p1] = k = index[p2]
            in_left.setdefault(p1, set()).add(i)
            to_left[k].add(p1)
            by_right[p2] = k = index[p1]
            in_right.setdefault(p2, set()).add(i)
            to_right[k].add(p2)
        if len(by_left) < len(terms) or len(by_right) < len(terms):
            raise FormError(f"Delta {p!r} repeats a factor")
        left.append(by_left)
        right.append(by_right)
    everyone = set(range(n))
    empty: set = set()
    forced: set[int] = set()
    for k in range(n):
        # x(k, j) is free of one-term rows for the j whose right[j] has every
        # coordinate of to_left[k] as a key, and likewise x(i, k)
        if to_left[k]:
            kept = set.intersection(*(in_right.get(r, empty) for r in to_left[k]))
            forced.update(k * n + j for j in everyone - kept)
        if to_right[k]:
            kept = set.intersection(*(in_left.get(r, empty) for r in to_right[k]))
            forced.update(i * n + k for i in everyone - kept)
    rows: list[dict[int, int]] = [{u: 1} for u in sorted(forced)]
    for i in range(n):
        for r, k in left[i].items():
            for j in in_right.get(r, ()):
                u, v = k * n + j, i * n + right[j][r]
                if u != v:
                    rows.append({u: 1, v: -1})
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

    @property
    def size(self) -> int:
        return len(self.paths)


def path_form_params(coalg: PathSubcoalgebra) -> PathFormParams:
    quiver = coalg.quiver
    basis = coalg.basis
    candidates = {
        quiver.concat(q, p)
        for q in coalg.basis_list
        for p in coalg.basis_list
        if q.target == p.source
    }

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

    return PathFormParams(
        paths=tuple(sorted((d for d in candidates if admissible(d)), key=path_sort_key))
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
