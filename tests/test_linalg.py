from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from qcf.linalg import sparse_int_nullspace

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# mostly zeros; the 2s and 3s give reduced forms with entries such as 1/2, 2/3
CELLS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 6, -4])


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 9))
    nrows = draw(st.integers(0, 9))
    dense = [draw(st.lists(CELLS, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if dense and draw(st.booleans()):
        dense.append(list(draw(st.sampled_from(dense))))  # a duplicate row
    return dense, ncols


def sparse_rows(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def sympy_basis(dense, ncols):
    """Nullspace from sympy's RREF, scaled to primitive integer vectors with
    a positive leading entry; returns (vectors as dicts, free columns)."""
    matrix = Matrix(dense) if dense else Matrix.zeros(1, ncols)
    _, pivots = matrix.rref()
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for vec in matrix.nullspace():
        den = lcm(*(int(x.q) for x in vec))
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        lead = next(v for v in ints if v)
        sign = 1 if lead > 0 else -1
        out.append({c: sign * v // g for c, v in enumerate(ints) if v})
    return out, free


def check_invariants(dense, basis, free):
    assert len(basis) == len(free)
    for vec, f in zip(basis, free):
        columns = list(vec)
        assert columns == sorted(columns)
        assert all(vec.values())
        # one vector per free column: only its own free column, pivots to its left
        assert max(columns) == f
        assert not set(columns[:-1]) & set(free)
        assert vec[columns[0]] > 0
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        assert g == 1
        for row in dense:
            assert sum(row[c] * v for c, v in vec.items()) == 0


@PROPERTY_SETTINGS
@given(sparse_matrices())
def test_nullspace_matches_sympy_rref(matrix):
    dense, ncols = matrix
    basis = sparse_int_nullspace(sparse_rows(dense), ncols)
    expected, free = sympy_basis(dense, ncols)
    check_invariants(dense, basis, free)
    assert basis == expected


def test_no_rows_leaves_every_column_free():
    assert sparse_int_nullspace([], 4) == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_full_column_rank_has_empty_basis():
    dense = [[2, 1, 0], [0, 3, -1], [1, 0, 1]]
    assert sparse_int_nullspace(sparse_rows(dense), 3) == []


def test_duplicate_rows_change_nothing():
    dense = [[2, 0, 1, 3], [0, 3, 0, -1]]
    once = sparse_int_nullspace(sparse_rows(dense), 4)
    twice = sparse_int_nullspace(sparse_rows(dense + dense[::-1]), 4)
    assert once == twice == [{0: 1, 2: -2}, {0: 9, 1: -2, 3: -6}]
    check_invariants(dense, once, [2, 3])


def test_rational_reduced_form_is_cleared_to_integers():
    # the RREF of [[2, 1, 0], [0, 3, 2]] is [[1, 0, -1/3], [0, 1, 2/3]]
    dense = [[2, 1, 0], [0, 3, 2]]
    assert sparse_int_nullspace(sparse_rows(dense), 3) == [{0: 1, 1: -2, 2: 3}]
