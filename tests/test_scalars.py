import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcf.scalars import (
    Cyc,
    RootOfUnity,
    ScalarError,
    cyclotomic_polynomial,
    euler_phi,
    q_binomial,
    q_factorial,
    q_int,
    scalar_to_str,
)


def test_cyclotomic_polynomials_against_sympy():
    from sympy import Poly, cyclotomic_poly
    from sympy.abc import x

    for m in range(1, 37):
        mine = cyclotomic_polynomial(m)
        ref = tuple(reversed(Poly(cyclotomic_poly(m, x), x).all_coeffs()))
        assert mine == ref
        assert len(mine) == euler_phi(m) + 1


def test_root_reduction_examples():
    z4 = Cyc.root(4)
    assert z4 * z4 == Cyc.rational(-1)
    z3 = Cyc.root(3)
    assert z3 + z3 * z3 == Cyc.rational(-1)
    a = z3 + Cyc.rational(5)
    assert a + Cyc.zero() == a


def test_mixed_conductor_arithmetic():
    assert Cyc.root(2) == Cyc.rational(-1)
    assert Cyc.root(6) ** 3 == Cyc.rational(-1)
    assert Cyc.root(4) * Cyc.root(3) == Cyc.root(12, 7)
    assert (Cyc.root(3) + Cyc.root(4)) - Cyc.root(4) == Cyc.root(3)


def test_division_and_errors():
    b = Cyc.root(12, 5) + Cyc.rational(Fraction(2, 3))
    assert (b / b).is_one()
    assert (b * b.inv()).is_one()
    with pytest.raises(ScalarError):
        Cyc.zero().inv()
    with pytest.raises(ScalarError):
        b / Cyc.zero()


def _from_coeffs(m, coeffs):
    return sum((Cyc.rational(c) * Cyc.root(m, i) for i, c in enumerate(coeffs)), Cyc.zero())


def test_inverse_against_sympy():
    from sympy import Poly, Rational, cyclotomic_poly, invert
    from sympy.abc import x

    rng = random.Random(11)
    for m in (5, 7, 8, 9, 15, 16, 20, 24):
        for _ in range(6):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(euler_phi(m))]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            poly = sum(Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
            ref = Poly(invert(poly, cyclotomic_poly(m, x), x), x).all_coeffs()[::-1]
            expected = _from_coeffs(m, [Fraction(int(c.p), int(c.q)) for c in ref])
            assert _from_coeffs(m, coeffs).inv() == expected


def _random_scalar(rng):
    m = rng.choice([1, 1, 2, 3, 4, 6, 12])
    phi = euler_phi(m)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi)]
    total = Cyc.zero()
    for k, c in enumerate(coeffs):
        total = total + Cyc.root(m, k) * Cyc.rational(c)
    return total


def test_field_axioms_on_random_triples():
    rng = random.Random(42)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert (a * a.inv()).is_one()
        assert (a - a).is_zero()


def test_q_integer_values():
    q = Cyc.root(3)
    assert q_int(0, q).is_zero()
    assert q_int(1, q).is_one()
    assert q_int(2, Cyc.rational(-1)).is_zero()
    assert q_int(3, Cyc.one()) == Cyc.rational(3)


def test_q_binomial_edge_cases():
    q = Cyc.root(5)
    for n in range(7):
        assert q_binomial(n, 0, q).is_one()
        assert q_binomial(n, n, q).is_one()
    assert q_binomial(2, 1, q) == Cyc.one() + q
    with pytest.raises(ScalarError):
        q_binomial(2, 3, q)


def test_q_binomial_at_one_is_binomial():
    one = Cyc.one()
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k, one) == Cyc.rational(math.comb(n, k))


def test_pascal_recurrence_random_q():
    rng = random.Random(7)
    for _ in range(8):
        q = _random_scalar(rng)
        for n in range(1, 13):
            for k in range(1, n):
                lhs = q_binomial(n, k, q)
                rhs = q_binomial(n - 1, k - 1, q) + (q ** k) * q_binomial(n - 1, k, q)
                assert lhs == rhs


def test_q_binomial_vanishes_at_primitive_roots():
    # oracle: evaluate the recurrence exactly at each primitive root
    for order in (2, 3, 4, 5, 6):
        q = Cyc.root(order)
        for k in range(1, order):
            assert q_binomial(order, k, q).is_zero()
        assert q_binomial(order, 0, q).is_one()


def test_q_factorial_products():
    q = Cyc.root(4)
    assert q_factorial(0, q).is_one()
    assert q_factorial(3, q) == q_int(1, q) * q_int(2, q) * q_int(3, q)


def test_root_of_unity_normalization():
    r = RootOfUnity(4, 1)
    assert r.power(2) == RootOfUnity(2, 1)
    assert r.power(4) == RootOfUnity(1, 0)
    assert r.inverse() == RootOfUnity(4, 3)
    assert r.scalar() == Cyc.root(4)
    with pytest.raises(ScalarError):
        RootOfUnity(4, 2)


def test_serialization_strings():
    assert scalar_to_str(Cyc.rational(Fraction(3, 4))) == "3/4"
    assert scalar_to_str(Cyc.rational(-2)) == "-2"
    assert scalar_to_str(Cyc.root(3)) == "cyc(3)[0,1]"
    assert scalar_to_str(Cyc.root(4) * Cyc.root(4)) == "-1"
    z4, z8, F = Cyc.root(4), Cyc.root(8), Fraction
    pinned = [  # shared and unshared denominators, negatives, conductors 1, 4, 8
        (Cyc.rational(F(-7, 3)), "-7/3"),
        (Cyc.rational(0), "0"),
        (Cyc.rational(12), "12"),
        (z4 * F(-3, 2) + F(1, 2), "cyc(4)[1/2,-3/2]"),
        (z4 * F(2, 3) + F(-1, 5), "cyc(4)[-1/5,2/3]"),
        (z8 + Cyc.root(8, 3) * F(-5, 6), "cyc(8)[0,1,0,-5/6]"),
        (Cyc.root(8, 2) * F(1, 4) + F(3, 4) + Cyc.root(8, 3) * F(-1, 2), "cyc(8)[3/4,0,1/4,-1/2]"),
        ((z8 + Cyc.root(8, 7)) * (z8 + Cyc.root(8, 7)), "2"),
        (z8 * z4, "cyc(8)[0,0,0,1]"),
        (z4 * 6 / 4, "cyc(4)[0,3/2]"),
        (Cyc.root(8, 5) - F(7, 2), "cyc(8)[-7/2,-1,0,0]"),
        (z4 + z8 * F(-1, 9), "cyc(8)[0,-1/9,1,0]"),
        ((z4 * F(2, 3) + F(-1, 5)).inv(), "cyc(4)[-45/109,-150/109]"),
    ]
    for value, text in pinned:
        assert scalar_to_str(value) == text


# --- differential and property tests across mixed conductors ---------------

CONDUCTORS = (1, 2, 3, 4, 5, 8, 9, 12, 24)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def drawn_scalars(draw):
    """(conductor, coefficients in the power basis of zeta_m, value)."""
    m = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=7),
            min_size=euler_phi(m),
            max_size=euler_phi(m),
        )
    )
    return m, coeffs, _from_coeffs(m, coeffs)


def _sympy_poly(m, coeffs, big):
    """sum c_i zeta_m^i as a polynomial in zeta_big, over QQ."""
    from sympy import QQ, Poly, Rational
    from sympy.abc import x

    terms = (Rational(c.numerator, c.denominator) * x ** (i * (big // m)) for i, c in enumerate(coeffs))
    return Poly(sum(terms, Rational(0)), x, domain=QQ)


def _from_sympy(big, poly):
    return _from_coeffs(big, [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def _cyclotomic(big):
    from sympy import QQ, Poly, cyclotomic_poly
    from sympy.abc import x

    return Poly(cyclotomic_poly(big, x), x, domain=QQ)


@PROPERTY_SETTINGS
@given(drawn_scalars(), drawn_scalars())
def test_arithmetic_against_sympy(a, b):
    (ma, ca, x), (mb, cb, y) = a, b
    big = math.lcm(ma, mb)
    pa, pb, phi = _sympy_poly(ma, ca, big), _sympy_poly(mb, cb, big), _cyclotomic(big)
    assert x + y == _from_sympy(big, (pa + pb).rem(phi))
    assert x - y == _from_sympy(big, (pa - pb).rem(phi))
    assert x * y == _from_sympy(big, (pa * pb).rem(phi))
    assert (x == y) == (pa - pb).rem(phi).is_zero
    if not pa.rem(phi).is_zero:
        assert x.inv() == _from_sympy(big, pa.invert(phi))


@PROPERTY_SETTINGS
@given(drawn_scalars(), st.sampled_from(CONDUCTORS))
def test_equal_values_built_at_different_conductors(a, k):
    m, coeffs, x = a
    big = math.lcm(m, k)
    y = sum(
        (Cyc.rational(c) * Cyc.root(big, i * (big // m)) for i, c in enumerate(coeffs)),
        Cyc.zero(),
    )
    assert x == y and y == x
    assert (x - y).is_zero()
    assert x + Cyc.rational(Fraction(1, 7)) != x
    assert y + Fraction(1, 7) != x
    # same numerators over another denominator, at one and at mixed conductors
    assert (x * Fraction(1, 2) == x) == x.is_zero()
    assert (y * Fraction(1, 2) == x) == x.is_zero()


@PROPERTY_SETTINGS
@given(drawn_scalars(), drawn_scalars())
def test_normal_form_invariant(a, b):
    x, y = a[2], b[2]
    results = [x, y, x + y, x - y, x * y, -x]
    if not x.is_zero():
        results.append(x.inv())
    for z in results:
        assert z.d > 0
        assert math.gcd(z.d, *z.c) == 1
        assert all(type(n) is int for n in z.c)
        if z.is_zero():
            assert (z.m, z.d, z.c) == (1, 1, (0,))
