"""Exact nullspace and rank computations on sparse rows.

A matrix is a list of sparse rows {column: value}. Two eliminations reach
an echelon form: a fraction-free one over the integers, which keeps the
rows of the large bilinear-form systems small, and a division-based one
over `Cyc`, for form radicals. Both then share one back-substitution over
`Cyc` to the reduced form, which returns each nullspace vector as a sparse
{column: value}, so a vector costs time in its nonzeros, not in the
number of unknowns.

Pivoting is deterministic (first nonzero in row-major order) so nullspace
bases are reproducible.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Cyc

_ZERO = Cyc.zero()

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


def _subtract(row: dict[int, Cyc], factor: Cyc, other: dict[int, Cyc]) -> None:
    """row -= factor * other, in place, keeping no zero entries."""
    for c, v in other.items():
        nv = row.get(c, _ZERO) - factor * v
        if nv.is_zero():
            row.pop(c, None)
        else:
            row[c] = nv


def _back_substitute(pivots: dict[int, dict[int, Cyc]], ncols: int) -> list[dict[int, Cyc]]:
    """Nullspace basis from an echelon form {pivot column: row} whose rows
    have lead 1 and all other columns to the right of it.

    The rows are reduced in place, from the last pivot up. There is one
    vector per free column, in ascending column order: minus the free
    column's coefficient in each reduced row, then 1 at the free column.
    """
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[c], pivots[c])
    # a reduced row holds only its own pivot and free columns to its right
    column_view: dict[int, dict[int, Cyc]] = {}
    for col in sorted(pivots):
        for c, v in pivots[col].items():
            if c != col:
                column_view.setdefault(c, {})[col] = -v
    return [
        {**column_view.get(f, {}), f: Cyc.one()} for f in range(ncols) if f not in pivots
    ]


def sparse_int_nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer basis of the nullspace of a sparse integer matrix.

    The echelon form is found fraction-free; its rows become rational
    `Cyc` rows with lead 1 in place for the back-substitution. There is one
    vector per free column, in ascending column order. Each vector is a
    sparse {column: int} with its columns in ascending order, primitive
    (gcd 1) and with a positive leading (smallest-column) entry.
    """
    pivots = sparse_int_echelon(rows)
    for col, row in pivots.items():
        lead = row[col]  # positive, so v / lead is normalized by Cyc._make
        for c, v in row.items():
            row[c] = Cyc._make(1, lead, [v])
    basis: list[dict[int, int]] = []
    for vec in _back_substitute(pivots, ncols):
        # rational values: numerator c[0] over denominator d
        den = lcm(*(x.d for x in vec.values()))
        ints = {c: x.c[0] * (den // x.d) for c, x in vec.items()}
        g = gcd(*ints.values())
        if next(iter(ints.values())) < 0:
            g = -g
        basis.append({c: v // g for c, v in ints.items()})
    return basis


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    return len(sparse_int_echelon(rows))


def field_nullspace(rows: list[dict[int, Cyc]], ncols: int) -> list[dict[int, Cyc]]:
    """Nullspace basis over the scalar field, one vector per free column,
    each a sparse {column: Cyc}; the same vectors the reduced row echelon
    form gives, whatever the order of the rows."""
    pivots: dict[int, dict[int, Cyc]] = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if not v.is_zero()}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = row[lead].inv()
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            _subtract(row, row[lead], piv)
    return _back_substitute(pivots, ncols)
