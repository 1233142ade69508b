import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcf.lincomb import LinComb, linear, map_linear, pair_tensor
from qcf.hopf import (
    FiniteGroupData,
    _associativity,
    HopfError,
    LineProduct,
    algebra_generators,
    build_Hn,
    compute_antipode,
    cyclic_hopf_datum,
    cyclic_table,
    cyclic_x_c2_hopf_datum,
    dihedral_hopf_datum,
    dihedral_table,
    element_order,
    group_algebra,
    group_from_csv_rows,
    product_table,
    verify_coalgebra_iso_Cn,
    verify_hopf,
    with_antipode,
)
from qcf.scalars import Cyc, RootOfUnity
from test_acceptance import HOPF_GRID

ONE = RootOfUnity(1, 0)
MINUS_ONE = RootOfUnity(2, 1)
ZETA3 = RootOfUnity(3, 1)
ZETA4 = RootOfUnity(4, 1)


def test_line_product_grouplike_factor():
    prod = LineProduct(2, ZETA3, Cyc.rational(1))
    assert prod.product((2, 0), (5, 1)) == LinComb.basis((7, 1))
    assert prod.product((5, 1), (2, 0)) == LinComb.basis((7, 1), ZETA3.scalar() ** 2)


def test_line_product_overflow_branch():
    prod = LineProduct(1, MINUS_ONE, Cyc.rational(1))
    r = prod.product((0, 1), (0, 1))
    assert r == LinComb({(2, 0): Cyc.one(), (0, 0): Cyc.rational(-1)})
    zero_side = LineProduct(1, MINUS_ONE, Cyc.zero())
    assert zero_side.product((0, 1), (0, 1)).is_zero()


def test_line_product_first_branch_coefficient():
    prod = LineProduct(2, ZETA3, Cyc.zero())
    q = ZETA3.scalar()
    assert prod.product((0, 1), (1, 1)) == LinComb.basis((1, 2), q * (Cyc.one() + q))


def test_cycle_product_examples():
    prod = LineProduct(1, MINUS_ONE, Cyc.zero(), n=2)
    assert prod.product((0, 0), (1, 1)) == LinComb.basis((1, 1))
    assert prod.product((0, 1), (0, 1)).is_zero()
    prod4 = LineProduct(1, MINUS_ONE, Cyc.rational(1), n=4)
    r = prod4.product((0, 1), (0, 1))
    assert r == LinComb({(2, 0): Cyc.one(), (0, 0): Cyc.rational(-1)})


def test_cycle_product_requires_divisibility():
    with pytest.raises(HopfError):
        LineProduct(1, MINUS_ONE, Cyc.zero(), n=3)


@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("n, s", [(2, 1), (4, 1), (6, 2), (4, 3)])
def test_cycle_product_is_hopf(n, s, alpha):
    table = LineProduct(s, RootOfUnity(s + 1, 1), Cyc.rational(alpha), n).table()
    assert table.dimension == n * (s + 1)
    assert verify_hopf(with_antipode(table)).ok


def test_line_table_needs_labels():
    with pytest.raises(HopfError):
        LineProduct(1, MINUS_ONE, Cyc.zero()).table()


def test_line_product_translation_behavior():
    prod = LineProduct(2, ZETA3, Cyc.rational(1))
    for (i, u) in [(0, 1), (1, 2), (-2, 2)]:
        for (j, v) in [(0, 2), (2, 1), (-1, 2)]:
            base = prod.product((i, u), (j, v))
            for t in (-5, 3):
                # shifting the left factor shifts every output label, exactly
                shifted = prod.product((i + t, u), (j, v))
                assert shifted == LinComb({(l[0] + t, l[1]): c for l, c in base.items()})
                # shifting the right factor does the same when t is a multiple of s+1
                t3 = 3 * t
                shifted = prod.product((i, u), (j + t3, v))
                assert shifted == LinComb({(l[0] + t3, l[1]): c for l, c in base.items()})


def test_sweedler_table():
    datum = cyclic_hopf_datum(2, 1, MINUS_ONE)
    table = build_Hn(1, MINUS_ONE, datum, Cyc.zero())
    assert table.dimension == 4
    x, c, cx = (0, 1), (1, 0), (1, 1)
    assert table.product[(x, c)] == LinComb.basis(cx, Cyc.rational(-1))
    assert table.product[(c, x)] == LinComb.basis(cx)
    assert table.product[(x, x)].is_zero()
    assert table.coproduct[x] == LinComb(
        {((0, 0), x): Cyc.one(), (x, c): Cyc.one()}
    )
    table = with_antipode(table)
    assert verify_hopf(table).ok

    def apply(s_map, lin):
        return linear(
            (l2, coeff * c2) for l, coeff in lin.items() for l2, c2 in s_map[l].items()
        )

    s1 = table.antipode[x]
    s2 = apply(table.antipode, s1)
    s4 = apply(table.antipode, apply(table.antipode, s2))
    assert s2 == LinComb.basis(x, Cyc.rational(-1))
    assert s4 == LinComb.basis(x)


def test_build_dimension_formula():
    for n, s, q in [(2, 1, MINUS_ONE), (4, 1, MINUS_ONE), (3, 2, ZETA3)]:
        datum = cyclic_hopf_datum(n, s, q)
        table = build_Hn(s, q, datum, Cyc.zero())
        assert table.dimension == n * (s + 1)
        datum2 = cyclic_x_c2_hopf_datum(n, s, q)
        assert build_Hn(s, q, datum2, Cyc.zero()).dimension == 2 * n * (s + 1)


def test_alpha_allowed_when_character_power_trivial():
    names = tuple(f"c{k}" for k in range(4))
    datum = FiniteGroupData(
        cyclic_table(4), names, 0, 1, tuple(ZETA4.power(k) for k in range(4))
    )
    table = build_Hn(3, ZETA4, datum, Cyc.rational(1))  # chi^4 = 1, so alpha may be 1
    assert table.dimension == 16


def test_alpha_rejected_when_character_power_nontrivial():
    # G = C4 x C2 with chi nontrivial of order 4 on the first factor, s = 1
    elems = [(i, f) for i in range(4) for f in range(2)]
    index = {el: k for k, el in enumerate(elems)}
    table = tuple(
        tuple(index[((i + j) % 4, (f + t) % 2)] for (j, t) in elems) for (i, f) in elems
    )
    names = tuple(f"c{i}t{f}" for (i, f) in elems)
    g = index[(2, 0)]  # order 2 element, chi(g) = -1
    chi = tuple(ZETA4.power(i) for (i, f) in elems)
    datum = FiniteGroupData(table, names, index[(0, 0)], g, chi)
    with pytest.raises(HopfError):
        build_Hn(1, MINUS_ONE, datum, Cyc.rational(1))
    assert build_Hn(1, MINUS_ONE, datum, Cyc.zero()).dimension == 16


def test_group_validation_catches_bad_tables():
    names = ("e", "a")
    broken = ((0, 1), (1, 1))  # not a group
    with pytest.raises(HopfError):
        FiniteGroupData(broken, names, 0, 1, (RootOfUnity(1, 0), MINUS_ONE)).validate(
            1, MINUS_ONE, Cyc.zero()
        )
    noncentral = dihedral_hopf_datum(3, 1, MINUS_ONE)
    assert noncentral is None  # no central element of order 3


def test_group_algebra_antipode_is_inversion():
    table = with_antipode(group_algebra(cyclic_table(3), ("e", "c", "c2"), 0))
    assert verify_hopf(table).ok
    assert table.antipode[1] == LinComb.basis(2)
    assert table.antipode[0] == LinComb.basis(0)


def test_antipode_identity_on_unit():
    datum = cyclic_hopf_datum(4, 1, MINUS_ONE)
    table = with_antipode(build_Hn(1, MINUS_ONE, datum, Cyc.rational(1)))
    assert table.antipode[table.unit] == LinComb.basis(table.unit)


def test_verify_hopf_reports_an_antipode_that_fails_the_convolution_identity():
    # x times 1 made 2x: the recursion still solves for an antipode, and
    # verify_hopf, the one check of the convolution identities, finds it wrong
    table = build_Hn(1, MINUS_ONE, cyclic_hopf_datum(4, 1, MINUS_ONE), Cyc.zero())
    key = ((0, 1), (0, 0))
    table.product[key] = table.product[key].scale(Cyc.rational(2))
    table = with_antipode(table)
    report = assert_reduced_matches_oracle(table)
    assert not report.ok
    assert report.checks["antipode_identities"].failure == "left convolution at (3, 1)"


def test_compute_antipode_refuses_a_grouplike_without_inverse():
    table = group_algebra(cyclic_table(3), ("e", "c", "c2"), 0)
    table.product[(1, 2)] = LinComb.basis(1)
    with pytest.raises(HopfError) as info:
        compute_antipode(table)
    assert str(info.value) == "grouplike 1 is not invertible"


def test_compute_antipode_refuses_a_leading_term_without_grouplike_right_factor():
    table = build_Hn(1, MINUS_ONE, cyclic_hopf_datum(2, 1, MINUS_ONE), Cyc.zero())
    # x (x) g made x (x) gx
    table.coproduct[(0, 1)] = linear(
        ((((0, 1), (1, 1)), Cyc.one()), (((0, 0), (0, 1)), Cyc.one()))
    )
    with pytest.raises(HopfError) as info:
        compute_antipode(table)
    assert str(info.value) == (
        "coproduct of (0, 1) lacks a unique leading term with grouplike right factor"
    )


def test_compute_antipode_refuses_a_broken_filtration_order():
    table = build_Hn(1, MINUS_ONE, cyclic_hopf_datum(2, 1, MINUS_ONE), Cyc.zero())
    # the unit moved above x, whose coproduct holds 1 (x) x
    table.degree[(0, 0)] = 2
    with pytest.raises(HopfError) as info:
        compute_antipode(table)
    assert str(info.value) == "filtration order broken: (0, 0) needed before (0, 1)"


def test_verify_hopf_reports_a_missing_antipode_entry():
    table = with_antipode(
        build_Hn(1, MINUS_ONE, cyclic_hopf_datum(2, 1, MINUS_ONE), Cyc.zero())
    )
    del table.antipode[(1, 1)]
    report = assert_reduced_matches_oracle(table)
    assert [name for name, res in report.checks.items() if not res.ok] == ["antipode_identities"]
    check = report.checks["antipode_identities"]
    assert (check.failure, check.checked) == ("no antipode at (1, 1)", table.dimension)


@pytest.mark.parametrize(
    "structure, key, failing",
    [
        # check -> tuples visited, the one missing its entry included
        ("product", ((0, 0), (1, 1)), {"unit_laws": 7, "associativity": 6,
                                       "coproduct_multiplicative": 3, "counit_multiplicative": 6}),
        ("coproduct", (1, 1), {"coassociativity": 3, "counit_laws": 6,
                               "coproduct_multiplicative": 6, "antipode_identities": 6}),
        ("counit", (1, 1), {"counit_laws": 3, "counit_multiplicative": 6, "antipode_identities": 6}),
    ],
    ids=["product", "coproduct", "counit"],
)
def test_verify_hopf_reports_a_missing_table_entry(structure, key, failing):
    table = with_antipode(build_Hn(3, ZETA4, cyclic_hopf_datum(4, 3, ZETA4), Cyc.zero()))
    del getattr(table, structure)[key]
    # the counit is no input of the generators; a missing product or
    # coproduct leaves the labels spanning no subalgebra that they prove
    assert (algebra_generators(table) is None) == (structure != "counit")
    report = assert_reduced_matches_oracle(table)
    assert {name: res.checked for name, res in report.checks.items() if not res.ok} == failing
    assert {report.checks[name].failure for name in failing} == {f"no table entry at {key!r}"}


def test_missing_degree_takes_the_exhaustive_sweep():
    # the degree orders the generator candidates and is no axiom's input:
    # without it no generators are certified, and the reduced call gives
    # the exhaustive sweep's report in place of a KeyError
    table = with_antipode(build_Hn(3, ZETA4, cyclic_hopf_datum(4, 3, ZETA4), Cyc.zero()))
    del table.degree[(1, 1)]
    assert algebra_generators(table) is None
    report = verify_hopf(table)
    assert report == verify_hopf(table, exhaustive=True)
    assert report.ok


def test_verify_detects_corruption():
    datum = cyclic_hopf_datum(2, 1, MINUS_ONE)
    table = with_antipode(build_Hn(1, MINUS_ONE, datum, Cyc.zero()))
    table.product[((1, 0), (1, 0))] = LinComb.basis((1, 0))
    report = verify_hopf(table)
    assert not report.ok
    assert report.first_failure() is not None


@pytest.mark.parametrize("n", [2, 4, 6])
def test_product_table_puts_i_j_at_index_i_times_order_plus_j(n):
    t1, t2 = cyclic_table(n), cyclic_table(2)
    pairs = [(i, j) for i in range(n) for j in range(2)]
    table = product_table(t1, t2)
    for x, (i1, i2) in enumerate(pairs):
        for y, (j1, j2) in enumerate(pairs):
            assert pairs[table[x][y]] == (t1[i1][j1], t2[i2][j2])
    assert cyclic_x_c2_hopf_datum(n, 1, MINUS_ONE).table == table


def test_element_order_refuses_a_table_that_is_not_a_group():
    assert [element_order(cyclic_table(6), 0, a) for a in range(6)] == [1, 6, 3, 2, 3, 6]
    with pytest.raises(HopfError, match="not a group"):
        element_order(((0, 1), (1, 1)), 0, 1)


def test_group_from_csv_rows_finds_identity():
    table, names, identity = group_from_csv_rows([[1, 0], [0, 1]])
    assert identity == 1
    with pytest.raises(HopfError):
        group_from_csv_rows([[0, 1], [0, 1]])


def test_quantum_binomial_matches_tensor_square_powers():
    datum = cyclic_hopf_datum(4, 3, ZETA4)
    table = build_Hn(3, ZETA4, datum, Cyc.zero())
    dx = table.coproduct[(0, 1)]
    acc = LinComb.basis(((0, 0), (0, 0)))
    for u in range(1, 4):
        acc = table.mul_tensor2(acc, dx)
        assert acc == table.coproduct[(0, u)]


def test_counit_is_algebra_map_on_tables():
    datum = cyclic_x_c2_hopf_datum(2, 1, MINUS_ONE)
    table = build_Hn(1, MINUS_ONE, datum, Cyc.rational(1))
    for a in table.labels:
        for b in table.labels:
            total = Cyc.zero()
            for l, c in table.product[(a, b)].items():
                total = total + c * table.counit[l]
            assert total == table.counit[a] * table.counit[b]


def test_coalgebra_iso_examples():
    r = verify_coalgebra_iso_Cn(2, 1, MINUS_ONE, Cyc.zero())
    assert r.ok and r.checked_pairs == 16
    r = verify_coalgebra_iso_Cn(4, 1, MINUS_ONE, Cyc.rational(1))
    assert r.ok and r.checked_pairs == 64
    with pytest.raises(HopfError):
        verify_coalgebra_iso_Cn(3, 1, MINUS_ONE, Cyc.zero())


def test_line_coproduct_matches_window_comultiplication():
    from qcf.quiver import A_INF, WindowedFamily, build_family

    s = 2
    prod = LineProduct(s, ZETA3, Cyc.zero())
    fam = WindowedFamily.line(A_INF, {k: k + s for k in range(0, 7)})
    coalg = build_family(fam)

    def label_of(path):
        return (int(path.source), path.length)

    for p in coalg.basis_list:
        i, u = label_of(p)
        if i + u > 4:  # stay away from the window edge
            continue
        expected = linear(
            ((label_of(l), label_of(r)), c) for (l, r), c in coalg.comul(p).items()
        )
        assert prod.coproduct((i, u)) == expected


# ---------------------------------------------------------------------------
# generators (Light's test) against the exhaustive sweep


def verdicts(report):
    return {name: (res.ok, res.failure) for name, res in report.checks.items()}


def assert_reduced_matches_oracle(table):
    reduced = verify_hopf(table)
    oracle = verify_hopf(table, exhaustive=True)
    assert verdicts(reduced) == verdicts(oracle)
    assert all(res.method == "exhaustive" for res in oracle.checks.values())
    return reduced


def shuffled_hn(moduli, s, seed):
    """H over prod C_m with alpha = 1, its group indices permuted by the
    seed and read back through `group_from_csv_rows`, as the hopf-verify
    benchmark documents are: g generates the first factor and
    chi(i, ...) = q^i for q = zeta_(s+1)."""
    elements = list(product(*(range(m) for m in moduli)))
    perm = list(range(len(elements)))
    random.Random(seed).shuffle(perm)
    index = {e: perm[k] for k, e in enumerate(elements)}
    rows = [[0] * len(elements) for _ in elements]
    for a in elements:
        for b in elements:
            rows[index[a]][index[b]] = index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]
    table, names, identity = group_from_csv_rows(rows)
    q = RootOfUnity(s + 1, 1)
    chi = [None] * len(elements)
    for a in elements:
        chi[index[a]] = q.power(a[0])
    g = index[(1,) + (0,) * (len(moduli) - 1)]
    return build_Hn(s, q, FiniteGroupData(table, names, identity, g, tuple(chi)), Cyc.rational(1))


SMALL_TABLES = {
    "H(C4), s=1": lambda: build_Hn(
        1, MINUS_ONE, cyclic_hopf_datum(4, 1, MINUS_ONE), Cyc.rational(1)
    ),
    "H(C3), s=2": lambda: build_Hn(2, ZETA3, cyclic_hopf_datum(3, 2, ZETA3), Cyc.rational(1)),
    "H(C2 x C2), s=1": lambda: build_Hn(
        1, MINUS_ONE, cyclic_x_c2_hopf_datum(2, 1, MINUS_ONE), Cyc.zero()
    ),
    "k[S3]": lambda: group_algebra(*dihedral_table(3)[:2], 0),
    "k[C4]": lambda: group_algebra(cyclic_table(4), ("e", "c", "c2", "c3"), 0),
    "cycle n=4, s=1": lambda: LineProduct(1, MINUS_ONE, Cyc.rational(1), 4).table(),
    # the unit is (3, 0) and (0, 0) has order 2: in the labels' repr order
    # it would be certified, and three generators in all
    "H(C4), s=1, shuffled": lambda: shuffled_hn((4,), 1, 7),
}
DELTAS = [Cyc.one(), Cyc.rational(-1), Cyc.rational(2), ZETA3.scalar(), ZETA4.scalar()]


@st.composite
def mutants(draw):
    """A small Hopf table (antipode computed first) with one structure
    constant changed: a product or coproduct coefficient, an output label,
    a whole product entry, or a counit value."""
    name = draw(st.sampled_from(sorted(SMALL_TABLES)))
    table = with_antipode(SMALL_TABLES[name]())
    labels = table.labels
    pick = lambda: labels[draw(st.integers(0, len(labels) - 1))]  # noqa: E731
    delta = draw(st.sampled_from(DELTAS))
    kind = draw(st.sampled_from(["coefficient", "label", "entry", "coproduct", "counit"]))
    if kind == "counit":
        b = pick()
        table.counit[b] = table.counit[b] + delta
        return name, kind, table
    if kind == "coproduct":
        b = pick()
        terms = list(table.coproduct[b].items())
        i = draw(st.integers(0, len(terms) - 1))
        (x, y), c = terms[i]
        if draw(st.booleans()):
            terms[i] = ((x, y), c + delta)
        else:
            terms[i] = ((x, pick()), c)
        table.coproduct[b] = linear(terms)
        return name, kind, table
    key = (pick(), pick())
    terms = list(table.product[key].items())
    if kind == "entry" or not terms:
        table.product[key] = LinComb.basis(pick(), delta)
        return name, "entry", table
    i = draw(st.integers(0, len(terms) - 1))
    label, c = terms[i]
    terms[i] = (label, c + delta) if kind == "coefficient" else (pick(), c)
    table.product[key] = linear(terms)
    return name, kind, table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutants())
def test_generators_agree_with_exhaustive_sweep_on_mutants(mutant):
    name, kind, table = mutant
    assert_reduced_matches_oracle(table)


@pytest.mark.parametrize("n, s, q", HOPF_GRID)
def test_generators_agree_with_exhaustive_sweep_on_criterion_7_grid(n, s, q):
    groups = [cyclic_hopf_datum(n, s, q), cyclic_x_c2_hopf_datum(n, s, q)]
    dihedral = dihedral_hopf_datum(n, s, q)
    if dihedral is not None:
        groups.append(dihedral)
    for alpha in (Cyc.zero(), Cyc.rational(1)):
        for datum in groups:
            table = with_antipode(build_Hn(s, q, datum, alpha))
            report = assert_reduced_matches_oracle(table)
            assert report.ok
            gens = algebra_generators(table)
            assoc = report.checks["associativity"]
            assert assoc.method == "generators " + ", ".join(map(repr, gens))
            dim = table.dimension
            assert assoc.checked == len(gens) * dim * dim < dim**3


def test_algebra_generators_certify_the_sweedler_like_tables():
    table = build_Hn(1, MINUS_ONE, cyclic_hopf_datum(4, 1, MINUS_ONE), Cyc.rational(1))
    assert algebra_generators(table) == [(1, 0), (0, 1)]
    # a generator of the group is found even when the labels do not start
    # with one; the rotation 2 comes before the reflection 1, its orbit
    # (3 labels) being the longer
    assert algebra_generators(group_algebra(*dihedral_table(3)[:2], 0)) == [2, 1]
    assert algebra_generators(SMALL_TABLES["H(C4), s=1, shuffled"]()) == [(1, 0), (0, 1)]


@pytest.mark.parametrize(
    "moduli, s, count", [((8,), 7, 2), ((8, 2), 3, 3)], ids=["H(C8), s=7", "H(C8 x C2), s=3"]
)
def test_shuffled_benchmark_tables_get_the_fewest_generators(moduli, s, count):
    # the minimum: x and a generating set of the group; in (degree, repr)
    # order this labelling certified one generator more
    table = with_antipode(shuffled_hn(moduli, s, 0))
    assert len(algebra_generators(table)) == count
    report = assert_reduced_matches_oracle(table)
    assert report.ok
    dim = table.dimension
    assert report.checks["associativity"].checked == count * dim * dim


def test_one_term_products_match_the_general_sum():
    # g^2 = e in C2, so with s = 1 the two overflow terms of x * x cancel
    table = build_Hn(1, MINUS_ONE, cyclic_hopf_datum(2, 1, MINUS_ONE), Cyc.rational(1))
    x = (0, 1)
    assert table.product[(x, x)].is_zero()
    before = {key: dict(row.terms) for key, row in table.product.items()}

    def general(left, right):
        return map_linear(pair_tensor(left, right), table.product.__getitem__)

    for c in (Cyc.one(), Cyc.rational(-3), ZETA4.scalar()):
        for a in table.labels:
            for b in table.labels:
                assert table.mul_lin_basis(LinComb.basis(a, c), b) == general(
                    LinComb.basis(a, c), LinComb.basis(b)
                )
                assert table.mul_basis_lin(a, LinComb.basis(b, c)) == general(
                    LinComb.basis(a), LinComb.basis(b, c)
                )
        assert table.mul_lin_basis(LinComb.basis(x, c), x).is_zero()
        assert table.mul_basis_lin(x, LinComb.basis(x, c)).is_zero()
    assert {key: row.terms for key, row in table.product.items()} == before


def row_building_associativity(table):
    """Per triple, the verdict of building (ab)c and a(bc) in full."""
    pair = table.product
    return [
        table.mul_lin_basis(pair[(a, b)], c) == table.mul_basis_lin(a, pair[(b, c)])
        for a in table.labels
        for b in table.labels
        for c in table.labels
    ]


def assert_associativity_matches_row_building(table):
    outcomes = list(_associativity(table, table.labels))
    assert [o is None for o in outcomes] == row_building_associativity(table)
    triples = product(table.labels, repeat=3)
    for outcome, (a, b, c) in zip(outcomes, triples):
        assert outcome in (None, f"({a!r} {b!r} {c!r})")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutants())
def test_associativity_matches_row_building_on_mutants(mutant):
    name, kind, table = mutant
    assert_associativity_matches_row_building(table)


@pytest.mark.parametrize("s, q", [(1, MINUS_ONE), (2, ZETA3)])
def test_associativity_matches_row_building_on_a_line_window(s, q):
    # products leave the window, and overflow products have two terms
    window = [(i, u) for i in range(-2, 3) for u in range(s + 1)]
    table = LineProduct(s, q, Cyc.rational(1)).table(window)
    assert_associativity_matches_row_building(table)
    table.product[((0, 1), (0, 1))] = LinComb.basis((0, 0))
    assert_associativity_matches_row_building(table)
    assert not all(row_building_associativity(table))


def summed_products(s, q, G, alpha):
    """The products of H over G, each summed by `linear` from its formula."""
    width = s + 1
    chi = [r.scalar() for r in G.chi]
    g_top = G.identity
    for _ in range(width):
        g_top = G.mul(g_top, G.g)
    out = {}
    for h, u, k, v in product(range(G.order), range(width), range(G.order), range(width)):
        hk, coef = G.mul(h, k), chi[k] ** u
        if u + v <= s:
            terms = [((hk, u + v), coef)]
        else:
            w, c = u + v - width, coef * alpha
            terms = [((G.mul(hk, g_top), w), c), ((hk, w), -c)]
        out[((h, u), (k, v))] = linear(terms)
    return out


@pytest.mark.parametrize(
    "s, q, datum, alpha, lengths",
    [
        # g^(s+1) = e: the two overflow terms cancel
        (2, ZETA3, cyclic_hopf_datum(3, 2, ZETA3), 1, {0, 1}),
        (3, ZETA4, cyclic_x_c2_hopf_datum(8, 3, ZETA4), 0, {0, 1}),
        (3, ZETA4, cyclic_x_c2_hopf_datum(8, 3, ZETA4), 1, {1, 2}),
    ],
    ids=["C3, s=2, g^3 = e", "C8 x C2, s=3, alpha=0", "C8 x C2, s=3, alpha=1"],
)
def test_build_hn_products_match_the_summed_formula(s, q, datum, alpha, lengths):
    table = build_Hn(s, q, datum, Cyc.rational(alpha))
    expected = summed_products(s, q, datum, Cyc.rational(alpha))
    assert list(table.product) == list(expected)
    for key, row in table.product.items():
        assert list(row.items()) == list(expected[key].items()), key
    assert {row.support_size() for row in table.product.values()} == lengths


def test_window_tables_get_no_generators():
    # a finite window of the line is not closed under the product
    window = [(i, u) for i in range(-3, 4) for u in range(2)]
    table = LineProduct(1, MINUS_ONE, Cyc.rational(1)).table(window)
    assert algebra_generators(table) is None
    report = verify_hopf(table)
    assert all(res.method == "exhaustive" for res in report.checks.values())


def test_broken_unit_law_takes_the_exhaustive_path():
    table = with_antipode(
        build_Hn(1, MINUS_ONE, cyclic_hopf_datum(4, 1, MINUS_ONE), Cyc.rational(1))
    )
    table.product[(table.unit, (2, 1))] = LinComb.basis((2, 1), Cyc.rational(2))
    report = assert_reduced_matches_oracle(table)
    assert report.checks["unit_laws"].failure == "1 * (2, 1)"
    assert not report.checks["associativity"].ok
    assert all(res.method == "exhaustive" for res in report.checks.values())


def test_failing_reduced_check_is_rerun_exhaustively():
    table = with_antipode(build_Hn(1, MINUS_ONE, cyclic_hopf_datum(2, 1, MINUS_ONE), Cyc.zero()))
    table.product[((1, 0), (1, 0))] = LinComb.basis((1, 0))
    report = assert_reduced_matches_oracle(table)
    assoc = report.checks["associativity"]
    assert not assoc.ok and assoc.method == "exhaustive"
    # the unit laws still hold, so the generators were tried first
    assert report.checks["unit_laws"].ok
    assert report.checks["coassociativity"].checked == table.dimension


def test_check_counts_on_a_passing_table():
    table = with_antipode(build_Hn(1, MINUS_ONE, cyclic_hopf_datum(4, 1, MINUS_ONE), Cyc.one()))
    checks = verify_hopf(table).checks
    dim = table.dimension
    method = "generators (1, 0), (0, 1)"
    assert {name: (res.checked, res.method) for name, res in checks.items()} == {
        "unit_laws": (1 + dim, "exhaustive"),
        "associativity": (2 * dim * dim, method),
        "coassociativity": (dim, "exhaustive"),
        "counit_laws": (dim, "exhaustive"),
        "coproduct_multiplicative": (2 * dim, method),
        "counit_multiplicative": (2 * dim, method),
        "antipode_identities": (dim, "exhaustive"),
    }
    oracle = verify_hopf(table, exhaustive=True).checks
    assert oracle["associativity"].checked == dim**3


def reduced_latin_squares(n):
    """Every n x n Latin square whose row and column 0 are 0, 1, ..., n-1:
    the multiplication tables of the loops on {0, ..., n-1} with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(cell + 1)
        rows[i][j] = None

    return fill(0)


def test_group_associativity_check_names_the_first_failing_triple():
    verdicts_seen = set()
    for table in reduced_latin_squares(5):
        names = tuple(f"g{i}" for i in range(5))
        chi = (ONE,) * 5
        datum = FiniteGroupData(table, names, 0, 0, chi)
        first = next(
            (
                (a, b, c)
                for a in range(5)
                for b in range(5)
                for c in range(5)
                if table[table[a][b]][c] != table[a][table[b][c]]
            ),
            None,
        )
        with pytest.raises(HopfError) as exc:
            datum.validate(1, MINUS_ONE, Cyc.zero())
        if first is None:
            assert "associativity" not in str(exc.value)
        else:
            a, b, c = first
            assert str(exc.value) == f"associativity fails at (g{a}, g{b}, g{c})"
        verdicts_seen.add(first is None)
    assert verdicts_seen == {True, False}


@pytest.mark.parametrize(
    "table, names",
    [
        (cyclic_table(4), tuple(f"c{k}" for k in range(4))),
        (cyclic_table(6), tuple(f"c{k}" for k in range(6))),
        dihedral_table(3)[:2],
        dihedral_table(4)[:2],
    ],
    ids=["C4", "C6", "D3", "D4"],
)
def test_character_check_names_the_first_non_multiplicative_pair(table, names):
    # every +-1 valued function on the group, chi(e) = -1 included; the
    # check on generators must reject exactly the non-characters, and name
    # the pair the full order^2 loop finds first
    n = len(table)
    verdicts_seen = set()
    for signs in range(1 << n):
        chi = tuple(MINUS_ONE if signs >> k & 1 else ONE for k in range(n))
        value = [-1 if signs >> k & 1 else 1 for k in range(n)]
        first = next(
            (
                (a, b)
                for a in range(n)
                for b in range(n)
                if value[table[a][b]] != value[a] * value[b]
            ),
            None,
        )
        datum = FiniteGroupData(table, names, 0, 0, chi)
        try:
            datum.validate(1, MINUS_ONE, Cyc.zero())
            message = None
        except HopfError as exc:
            message = str(exc)
        if first is None:
            assert message is None or "multiplicative" not in message
        else:
            a, b = first
            assert message == f"character is not multiplicative at ({names[a]}, {names[b]})"
        verdicts_seen.add(first is None)
    assert verdicts_seen == {True, False}
