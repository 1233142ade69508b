import math
import random
from fractions import Fraction

import pytest

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
