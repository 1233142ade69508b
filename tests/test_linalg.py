import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Matrix, Poly, cyclotomic_poly, symbols
from sympy.polys.agca.extensions import FiniteExtension
from sympy.polys.matrices import DomainMatrix

from qcf.forms import BilinearForm, radicals
from qcf.linalg import field_nullspace, sparse_int_nullspace, sparse_int_rank
from qcf.rand import random_path_subcoalgebra
from qcf.scalars import Cyc

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


def cleared(vectors):
    """Rational vectors as primitive integer ones with a positive leading
    (smallest-column) entry."""
    out = []
    for vec in vectors:
        # rational values: numerator c[0] over denominator d
        den = lcm(*(x.d for x in vec.values()))
        ints = {c: x.c[0] * (den // x.d) for c, x in vec.items()}
        g = gcd(*ints.values())
        if next(iter(ints.values())) < 0:
            g = -g
        out.append({c: v // g for c, v in ints.items()})
    return out


def rational_nullspace(dense, ncols):
    """`field_nullspace` of an integer matrix over the rationals, cleared."""
    rows = [{c: Cyc.rational(v) for c, v in enumerate(row) if v} for row in dense]
    return cleared(field_nullspace(rows, ncols))


@PROPERTY_SETTINGS
@given(sparse_matrices())
def test_nullspace_matches_sympy_rref(matrix):
    dense, ncols = matrix
    basis = rational_nullspace(dense, ncols)
    expected, free = sympy_basis(dense, ncols)
    check_invariants(dense, basis, free)
    assert basis == expected
    # leads such as 2, 3, 6 and -4 are scaled to 1 by the elimination
    rank = Matrix(dense).rank() if dense else 0
    assert sparse_int_rank(sparse_rows(dense)) == rank


def test_no_rows_leaves_every_column_free():
    assert sparse_int_nullspace([], 4) == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_full_column_rank_has_empty_basis():
    dense = [[2, 1, 0], [0, 3, -1], [1, 0, 1]]
    assert rational_nullspace(dense, 3) == []
    assert sparse_int_rank(sparse_rows(dense)) == 3


def test_duplicate_rows_change_nothing():
    dense = [[2, 0, 1, 3], [0, 3, 0, -1]]
    once = rational_nullspace(dense, 4)
    twice = rational_nullspace(dense + dense[::-1], 4)
    assert once == twice == [{0: 1, 2: -2}, {0: 9, 1: -2, 3: -6}]
    check_invariants(dense, once, [2, 3])
    assert sparse_int_rank(sparse_rows(dense)) == sparse_int_rank(sparse_rows(dense * 2)) == 2


def test_rational_reduced_form_is_cleared_to_integers():
    # the RREF of [[2, 1, 0], [0, 3, 2]] is [[1, 0, -1/3], [0, 1, 2/3]]
    dense = [[2, 1, 0], [0, 3, 2]]
    rows = [{c: Cyc.rational(v) for c, v in enumerate(row) if v} for row in dense]
    third = Cyc.rational(Fraction(1, 3))
    assert field_nullspace(rows, 3) == [{0: third, 1: -(third + third), 2: Cyc.one()}]
    assert rational_nullspace(dense, 3) == [{0: 1, 1: -2, 2: 3}]


@st.composite
def one_term_systems(draw):
    """Rows shaped like the balanced-form systems, mostly one-term rows and
    x - y rows, with equality chains x0 = x1 = ... that one one-term row
    closes, so that zeros spread over several rounds; and, for the rank
    alone, the same rows with a few general ones among them. Or the rows
    of embed's rank: pairwise-disjoint blocks of 1s, the one-term blocks
    among them also an equality system."""
    ncols = draw(st.integers(2, 10))
    column = st.integers(0, ncols - 1)
    dense = []
    general = []

    def add(entries, rows=dense):
        row = [0] * ncols
        for c, v in entries:
            row[c] += v
        rows.append(row)

    if draw(st.booleans()):
        columns = draw(st.permutations(range(ncols)))[:draw(st.integers(0, ncols))]
        while columns:
            size = draw(st.integers(1, min(3, len(columns))))
            block, columns = columns[:size], columns[size:]
            add([(c, 1) for c in block], dense if size == 1 else general)
        return draw(st.permutations(dense)), draw(st.permutations(dense + general)), ncols
    for _ in range(draw(st.integers(0, 3))):
        chain = draw(st.lists(column, min_size=2, max_size=5, unique=True))
        for x, y in zip(chain, chain[1:]):
            add([(x, 1), (y, -1)])
        add([(chain[-1], draw(st.sampled_from([1, -1, 2])))])
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["one", "one", "equal", "general"]))
        if kind == "one":
            add([(draw(column), draw(st.sampled_from([1, -1, 3])))])
        elif kind == "equal":
            add([(draw(column), 1), (draw(column), -1)])  # a zero row when x = y
        else:
            add([(draw(column), draw(CELLS)) for _ in range(3)], general)
    return draw(st.permutations(dense)), draw(st.permutations(dense + general)), ncols


@PROPERTY_SETTINGS
@given(one_term_systems())
def test_one_term_rows_match_sympy_rref(matrix):
    dense, everything, ncols = matrix
    rows = sparse_rows(dense)
    before = [dict(row) for row in rows]
    basis = sparse_int_nullspace(rows, ncols)
    expected, free = sympy_basis(dense, ncols)
    check_invariants(dense, basis, free)
    assert basis == expected
    assert sparse_int_rank(rows) == ncols - len(free)
    rank = Matrix(everything).rank() if everything else 0
    assert sparse_int_rank(sparse_rows(everything)) == rank
    assert rows == before  # the rows passed in are left as they were


@pytest.mark.parametrize(
    "row",
    [{0: 1, 1: -1, 2: 1}, {0: 1, 1: 1}, {0: 2, 1: -1}, {0: 0}],
    ids=["three-terms", "sum", "unequal-coefficients", "zero-coefficient"],
)
def test_rows_that_say_no_equality_are_refused(row):
    with pytest.raises(ValueError, match="not an equality row"):
        sparse_int_nullspace([{0: 1}, row], 3)


def test_chain_closed_by_one_term_row_forces_every_column_to_zero():
    # x0 = x1 = x2 = x3 = x4 and 2 x4 = 0, with a free column 5 beside it
    dense = [[1, -1, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0], [0, 0, 1, -1, 0, 0],
             [0, 0, 0, 1, -1, 0], [0, 0, 0, 0, 2, 0]]
    for order in (dense, dense[::-1]):
        assert sparse_int_nullspace(sparse_rows(order), 6) == [{5: 1}]
        assert sparse_int_rank(sparse_rows(order)) == 5

# --- field_nullspace over Q(zeta_24), which holds conductors 3, 4 and 8 ----

_x = symbols("x")
Q24 = FiniteExtension(Poly(cyclotomic_poly(24, _x), _x, domain=QQ))

# mostly zeros; conductors 1, 3, 4 and 8, and sums that mix them
FIELD_CELLS = st.sampled_from([
    Cyc.zero(), Cyc.zero(), Cyc.zero(), Cyc.zero(), Cyc.one(), Cyc.rational(-2),
    Cyc.root(3), Cyc.root(3, 2), Cyc.root(4), Cyc.root(8), Cyc.root(8, 3) + Cyc.rational(Fraction(1, 2)),
    Cyc.root(3) - Cyc.root(4), Cyc.root(8) * Cyc.root(3) + Cyc.one(),
])


def to_q24(value: Cyc):
    """A Cyc of conductor dividing 24 as an element of sympy's Q(zeta_24)."""
    step = 24 // value.m
    total = Q24.zero
    for i, coeff in enumerate(value.c):
        total += QQ(coeff, value.d) * Q24.generator ** (i * step)
    return total


@st.composite
def field_matrices(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 5))
    dense = [draw(st.lists(FIELD_CELLS, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        dense.append([Cyc.zero()] * ncols)  # a zero row
    if dense and draw(st.booleans()):
        dense.append(list(draw(st.sampled_from(dense))))  # a duplicate row
    return draw(st.permutations(dense)), ncols


def sympy_field_basis(dense, ncols):
    """Nullspace over Q(zeta_24) from sympy's RREF: (pivots, vectors)."""
    if not dense:
        return (), [{f: Q24.one} for f in range(ncols)]
    matrix = DomainMatrix([[to_q24(v) for v in row] for row in dense], (len(dense), ncols), Q24)
    rref, pivots = matrix.rref()
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = {col: -rref[r, f].element for r, col in enumerate(pivots) if rref[r, f].element}
            basis.append({**vec, f: Q24.one})
    return tuple(pivots), basis


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field_matrices())
def test_field_nullspace_matches_sympy_rref_over_mixed_conductors(matrix):
    dense, ncols = matrix
    # explicit zero entries are kept in the rows
    basis = field_nullspace([dict(enumerate(row)) for row in dense], ncols)
    pivots, expected = sympy_field_basis(dense, ncols)
    free = [list(vec)[-1] for vec in basis]
    assert tuple(c for c in range(ncols) if c not in free) == pivots
    assert [{c: to_q24(v) for c, v in vec.items()} for vec in basis] == expected
    for vec in basis:
        assert list(vec) == sorted(vec) and not any(v.is_zero() for v in vec.values())
        for row in dense:
            assert sum((row[c] * v for c, v in vec.items()), Cyc.zero()).is_zero()


def test_field_nullspace_ignores_row_order_and_duplicates():
    z3, z8 = Cyc.root(3), Cyc.root(8)
    rows = [{0: z3, 2: Cyc.one()}, {1: z8, 2: z3}, {}]
    once = field_nullspace(rows, 4)
    assert field_nullspace(rows[::-1] + rows, 4) == once
    # RREF [[1, 0, 1/z3, 0], [0, 1, z3/z8, 0]]
    assert once == [{0: -z3.inv(), 1: -(z3 / z8), 2: Cyc.one()}, {3: Cyc.one()}]


def test_radicals_kill_a_form_with_cyclotomic_values():
    rng = random.Random(8)
    values = [Cyc.root(3), Cyc.root(4, 3), Cyc.root(8) + Cyc.one(), Cyc.rational(Fraction(-1, 2))]
    checked = 0
    for _ in range(12):
        coalg = random_path_subcoalgebra(rng, max_basis=10)
        basis = coalg.basis_list
        entries = {
            (p, q): rng.choice(values) for p in basis for q in basis if rng.random() < 0.3
        }
        form = BilinearForm(coalg, entries)
        left, right = radicals(form)
        # the form's matrix is square: both radicals have dimension n - rank
        assert len(left) == len(right)
        for vec in left:
            for q in basis:
                assert sum((c * form.entry(p, q) for p, c in vec.items()), Cyc.zero()).is_zero()
        for vec in right:
            for p in basis:
                assert sum((form.entry(p, q) * c for q, c in vec.items()), Cyc.zero()).is_zero()
        checked += len(left) + len(right)
    assert checked
