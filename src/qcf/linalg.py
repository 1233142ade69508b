"""Exact nullspace and rank computations on sparse rows.

A matrix is a list of sparse rows {column: value}. Two eliminations reach
an echelon form: a fraction-free one over the integers, which keeps the
rows of the large bilinear-form systems small, and a division-based one
over `Cyc`, for form radicals. Both then share one back-substitution over
`Cyc` to the reduced form, which returns each nullspace vector as a sparse
{column: value}, so a vector costs time in its nonzeros, not in the
number of unknowns.

The integer elimination first resolves one-term rows, which say that a
column is zero. Such a column is struck from every row that uses it, a row
left with one term forces its own column in turn, and a row left with none
is dropped. Each forced column becomes a unit pivot row {column: 1}; only
the rows that are left go through the fraction-free loop. A struck row
differs from its original by multiples of unit rows, so the row space, and
with it the reduced form and the nullspace basis, is the same.

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


def _force_zeros(rows: list[dict[int, int]]) -> tuple[dict[int, dict[int, int]], list[dict[int, int]]]:
    """The one-term pass: {column: unit row} for every column forced to
    zero, and copies of the other rows with those columns struck out."""
    forced: dict[int, dict[int, int]] = {}
    rest: list[dict[int, int]] = []
    for raw in rows:
        # rest gets copies; a one-term row is not copied: the form systems
        # give one per forced unknown, and these are most of their rows
        row = raw if len(raw) < 2 else {c: v for c, v in raw.items() if v}
        if len(row) > 1:
            rest.append(row)
        elif row:
            ((col, v),) = row.items()
            if v and col not in forced:
                forced[col] = {col: 1}
    zeros = forced.keys()
    if all(zeros.isdisjoint(row) for row in rest):
        # nothing to strike; the index's many small lists would set off
        # collector passes over the caller's heap, which can be large
        return forced, rest
    uses: dict[int, list[int]] = {}  # column -> indices of the rows in rest using it
    for i, row in enumerate(rest):
        for c in row:
            uses.setdefault(c, []).append(i)
    stack = list(forced)
    while stack:
        col = stack.pop()
        for i in uses.get(col, ()):
            row = rest[i]
            del row[col]
            if len(row) == 1:  # it forces its last column in turn
                (last,) = row
                if last not in forced:
                    forced[last] = {last: 1}
                    stack.append(last)
    return forced, [row for row in rest if row]


def sparse_int_echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form; returns {pivot column: row}. A column
    that one-term rows force to zero has the unit row {column: 1}, and no
    other row uses it."""
    pivots, rest = _force_zeros(rows)
    for row in rest:
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


def _back_substitute(pivots: dict[int, dict[int, Cyc]], free: list[int]) -> list[dict[int, Cyc]]:
    """Nullspace basis from an echelon form {pivot column: row} whose rows
    have lead 1 and all other columns to the right of it.

    The rows are reduced in place, from the last pivot up. There is one
    vector per free column, in the order of `free`: minus the free
    column's coefficient in each reduced row, then 1 at the free column.
    A one-term row may be left out of `pivots`: it says only that its
    column is zero, and subtracting it changes no free column.
    """
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[c], pivots[c])
    # right of its pivot, a reduced row holds free columns and the columns
    # of rows left out, which no vector reads
    column_view: dict[int, dict[int, Cyc]] = {}
    for col in sorted(pivots):
        for c, v in pivots[col].items():
            if c != col:
                column_view.setdefault(c, {})[col] = -v
    return [{**column_view.get(f, {}), f: Cyc.one()} for f in free]


def sparse_int_nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer basis of the nullspace of a sparse integer matrix.

    The echelon form is found fraction-free; its rows of two or more
    terms become rational `Cyc` rows with lead 1 for the back-substitution.
    There is one vector per free column, in ascending column order. Each
    vector is a sparse {column: int} with its columns in ascending order,
    primitive (gcd 1) and with a positive leading (smallest-column) entry.
    """
    pivots = sparse_int_echelon(rows)
    # the lead is positive, so v / lead is normalized by Cyc._make
    rational = {
        col: {c: Cyc._make(1, row[col], [v]) for c, v in row.items()}
        for col, row in pivots.items()
        if len(row) > 1
    }
    free = [f for f in range(ncols) if f not in pivots]
    basis: list[dict[int, int]] = []
    for vec in _back_substitute(rational, free):
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
    return _back_substitute(pivots, [f for f in range(ncols) if f not in pivots])
