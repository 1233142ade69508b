"""Exact nullspace and rank computations.

Two routines: a sparse integer elimination for the large homogeneous
systems coming from bilinear-form constraints, and a dense division-based
elimination generic over field scalars for small matrices (form radicals,
independence checks over cyclotomic fields).

The sparse routine finds the echelon form fraction-free, back-substitutes
to the reduced form over Q, and returns each nullspace vector as a sparse
{column: int}, so a vector costs time in its nonzeros, not in the number
of unknowns.

Pivoting is deterministic (first nonzero in row-major order) so nullspace
bases are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Cyc


def _row_gcd_normalize(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for k in row:
            row[k] //= g


def sparse_int_echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form; returns {pivot column: row}."""
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                _row_gcd_normalize(row)
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                break
            a, b = piv[lead], row[lead]
            new: dict[int, int] = {}
            for c, v in row.items():
                new[c] = a * v
            for c, v in piv.items():
                nv = new.get(c, 0) - b * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            row = new
            _row_gcd_normalize(row)
    return pivots


def sparse_int_nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer basis of the nullspace of a sparse integer matrix.

    The echelon form is found fraction-free; back-substitution to the
    reduced form is over Q. There is one vector per free column, in
    ascending column order. Each vector is a sparse {column: int} with its
    columns in ascending order, primitive (gcd 1) and with a positive
    leading (smallest-column) entry.
    """
    pivots = sparse_int_echelon(rows)
    pivot_cols = sorted(pivots)
    # back-substitute to reduced form over Q
    reduced: dict[int, dict[int, Fraction]] = {}
    for col in reversed(pivot_cols):
        row = pivots[col]
        lead = Fraction(row[col])
        frow = {c: Fraction(v) / lead for c, v in row.items()}
        for c in [c for c in frow if c != col and c in reduced]:
            factor = frow.pop(c)
            for cc, vv in reduced[c].items():
                if cc == c:
                    continue
                nv = frow.get(cc, Fraction(0)) - factor * vv
                if nv:
                    frow[cc] = nv
                else:
                    frow.pop(cc, None)
        reduced[col] = frow
    # column view: free column -> {pivot column: -coefficient}; a reduced
    # row holds only its own pivot and free columns to the right of it
    column_view: dict[int, dict[int, Fraction]] = {}
    for col, frow in reduced.items():
        for c, v in frow.items():
            if c != col:
                column_view.setdefault(c, {})[col] = -v
    basis: list[dict[int, int]] = []
    for f in range(ncols):
        if f in pivots:
            continue
        entries = column_view.get(f, {})
        den = lcm(*(x.denominator for x in entries.values()))
        vec = {c: x.numerator * (den // x.denominator) for c, x in sorted(entries.items())}
        vec[f] = den
        g = gcd(*vec.values())
        sign = -1 if next(iter(vec.values())) < 0 else 1
        if g > 1 or sign < 0:
            vec = {c: sign * v // g for c, v in vec.items()}
        basis.append(vec)
    return basis


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    return len(sparse_int_echelon(rows))


def field_echelon(matrix: list[list[Cyc]]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row echelon form over the exact scalar field; returns (rref, pivot cols)."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not m[i][col].is_zero():
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = m[r][col].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][col].is_zero():
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivot_cols


def field_nullspace(matrix: list[list[Cyc]]) -> list[list[Cyc]]:
    """Nullspace basis over the scalar field, one vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rref, pivot_cols = field_echelon(matrix)
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Cyc.zero()] * ncols
        vec[f] = Cyc.one()
        for r, col in enumerate(pivot_cols):
            c = rref[r][f]
            if not c.is_zero():
                vec[col] = -c
        basis.append(vec)
    return basis
