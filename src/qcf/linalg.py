"""Exact nullspace and rank computations on sparse rows.

A matrix is a list of sparse rows {column: value}. One division-based
elimination over `Cyc` reaches an echelon form with leads 1, and one
back-substitution takes it to the reduced form, from which each nullspace
vector is read as a sparse {column: value}: a vector costs time in its
nonzeros, not in the number of unknowns.

An integer system for `sparse_int_nullspace` is an equality graph: its rows
say only x_u = 0 or x_u = x_v, so its nullspace is read off the connected
components of the graph whose edges are the rows x_u = x_v, with no
elimination at all. Every general system, the integer rows of
`sparse_int_rank` over the rationals and the `Cyc` rows of
`field_nullspace`, goes through the one division echelon, which pivots on
a row's smallest column, so nullspace bases are reproducible.
"""

from __future__ import annotations

from collections.abc import Iterable

from .scalars import Cyc

_ZERO = Cyc.zero()
_ONE = Cyc.one()


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
    """Integer basis of the nullspace of an equality system.

    Each row is empty, {u: c}, which says x_u = 0, or {u: c, v: -c}, which
    says x_u = x_v, for a nonzero integer c; any other row raises
    ValueError. The rows x_u = x_v join the columns into the components of
    a graph, and x lies in the nullspace exactly when it is constant on
    each component and zero on each component with a forced column. So
    there is one basis vector per component with no forced column: 1 on
    each of its columns. These are the vectors of the reduced row echelon
    form: a component's largest column is its one free column, and the
    vectors come in ascending order of it, each with its columns in
    ascending order.
    """
    parent: dict[int, int] = {}  # a joined column -> a larger column of its component
    forced: list[int] = []

    def root(u: int) -> int:
        # the component's largest column, halving the path to it
        while u in parent:
            up = parent[u]
            if up not in parent:
                return up
            parent[u] = u = parent[up]
        return u

    for row in rows:
        size = len(row)
        if size == 1:
            ((u, a),) = row.items()
            if a:
                forced.append(u)
                continue
        elif size == 2:
            (u, a), (v, b) = row.items()
            if a and a + b == 0:
                ru, rv = root(u), root(v)
                if ru != rv:
                    parent[min(ru, rv)] = max(ru, rv)
                continue
        elif not size:
            continue
        raise ValueError(f"not an equality row: {row!r}")
    dead = {root(u) if u in parent else u for u in forced}
    open_parts: dict[int, list[int]] = {}  # root -> the columns walked so far
    basis: list[dict[int, int]] = []
    for c in range(ncols):
        r = root(c) if c in parent else c
        if r in dead:
            continue
        if r != c:
            open_parts.setdefault(r, []).append(c)
        else:
            part = open_parts.pop(c, [])
            part.append(c)
            basis.append(dict.fromkeys(part, 1))
    return basis


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    # embed's rows hold only 1s; every 1 is the one shared Cyc, not a new one
    return len(_echelon(
        {c: _ONE if v == 1 else Cyc(1, 1, (v,)) for c, v in row.items() if v} for row in rows
    ))


def field_nullspace(rows: list[dict[int, Cyc]], ncols: int) -> list[dict[int, Cyc]]:
    """Nullspace basis over the scalar field, one vector per free column,
    each a sparse {column: Cyc}; the same vectors the reduced row echelon
    form gives, whatever the order of the rows."""
    pivots = _echelon({c: v for c, v in raw.items() if not v.is_zero()} for raw in rows)
    return _back_substitute(pivots, [f for f in range(ncols) if f not in pivots])
