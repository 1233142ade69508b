"""Exact nullspace and rank computations on sparse rows.

A matrix is a list of sparse rows {column: value}. One division-based
elimination over `Cyc` reaches an echelon form with leads 1, and one
back-substitution takes it to the reduced form, from which each nullspace
vector is read as a sparse {column: value}: a vector costs time in its
nonzeros, not in the number of unknowns. An integer matrix is eliminated
over the rationals, and its vectors are cleared to primitive integers.

An integer matrix first goes through a one-term pass. A one-term row says
that a column is zero: the column is struck from every row that uses it, a
row left with one term forces its own column in turn, and a row left with
none is dropped. Only the rows that are left are eliminated. The pass stays
because the bilinear-form systems are mostly one-term rows, and striking a
column costs a dict deletion where eliminating it costs `Cyc` arithmetic.
A struck row differs from its original by multiples of rows {column: 1},
so the row space, and with it the reduced form and the nullspace basis, is
the same.

Pivoting is deterministic (first nonzero in row-major order) so nullspace
bases are reproducible.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, lcm

from .scalars import Cyc

_ZERO = Cyc.zero()
_ONE = Cyc.one()


def _force_zeros(rows: list[dict[int, int]]) -> tuple[set[int], list[dict[int, Cyc]]]:
    """The one-term pass: the columns forced to zero, and rational copies
    of the other rows with those columns struck out."""
    forced: set[int] = set()
    rest: list[dict[int, Cyc]] = []
    for row in rows:
        if len(row) > 1:
            # the form systems' rows hold only 1 and -1; every 1 is the one
            # shared Cyc, not a new one
            kept = {c: _ONE if v == 1 else Cyc(1, 1, (v,)) for c, v in row.items() if v}
            if len(kept) > 1:
                rest.append(kept)
                continue
        # a one-term row is not copied: the form systems give one per
        # forced unknown, and these are most of their rows
        for c, v in row.items():
            if v:
                forced.add(c)
    if all(forced.isdisjoint(row) for row in rest):
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
                    forced.add(last)
                    stack.append(last)
    return forced, [row for row in rest if row]


def _subtract(row: dict[int, Cyc], factor: Cyc, other: dict[int, Cyc]) -> None:
    """row -= factor * other, in place, keeping no zero entries."""
    unit = factor.is_one()
    for c, v in other.items():
        nv = row.get(c, _ZERO) - (v if unit else factor * v)
        if nv.is_zero():
            row.pop(c, None)
        else:
            row[c] = nv


def _echelon(rows: Iterable[dict[int, Cyc]]) -> dict[int, dict[int, Cyc]]:
    """Echelon form {pivot column: row with lead 1} of rows with no zero
    entries, which it reduces in place."""
    pivots: dict[int, dict[int, Cyc]] = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                if not row[lead].is_one():
                    inv = row[lead].inv()
                    for c, v in row.items():
                        row[c] = v * inv
                pivots[lead] = row
                break
            _subtract(row, row[lead], piv)
    return pivots


def _back_substitute(pivots: dict[int, dict[int, Cyc]], free: list[int]) -> list[dict[int, Cyc]]:
    """Nullspace basis from an echelon form {pivot column: row} whose rows
    have lead 1 and all other columns to the right of it.

    The rows are reduced in place, from the last pivot up. There is one
    vector per free column, in the order of `free`: minus the free
    column's coefficient in each reduced row, then 1 at the free column.
    """
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[c], pivots[c])
    # right of its pivot, a reduced row holds only free columns
    column_view: dict[int, dict[int, Cyc]] = {}
    for col in sorted(pivots):
        for c, v in pivots[col].items():
            if c != col:
                column_view.setdefault(c, {})[col] = -v
    return [{**column_view.get(f, {}), f: _ONE} for f in free]


def sparse_int_nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer basis of the nullspace of a sparse integer matrix.

    There is one vector per free column, in ascending column order. Each
    vector is a sparse {column: int} with its columns in ascending order,
    primitive (gcd 1) and with a positive leading (smallest-column) entry.
    """
    forced, rest = _force_zeros(rows)
    pivots = _echelon(rest)
    free = [f for f in range(ncols) if f not in pivots and f not in forced]
    basis: list[dict[int, int]] = []
    for vec in _back_substitute(pivots, free):
        # rational values: numerator c[0] over denominator d
        den = lcm(*(x.d for x in vec.values()))
        ints = {c: x.c[0] * (den // x.d) for c, x in vec.items()}
        g = gcd(*ints.values())
        if next(iter(ints.values())) < 0:
            g = -g
        basis.append({c: v // g for c, v in ints.items()})
    return basis


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    forced, rest = _force_zeros(rows)
    return len(forced) + len(_echelon(rest))


def field_nullspace(rows: list[dict[int, Cyc]], ncols: int) -> list[dict[int, Cyc]]:
    """Nullspace basis over the scalar field, one vector per free column,
    each a sparse {column: Cyc}; the same vectors the reduced row echelon
    form gives, whatever the order of the rows."""
    pivots = _echelon({c: v for c, v in raw.items() if not v.is_zero()} for raw in rows)
    return _back_substitute(pivots, [f for f in range(ncols) if f not in pivots])
