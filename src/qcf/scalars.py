"""Exact scalars: rationals, cyclotomic field elements, roots of unity, q-combinatorics.

Every computation in the library runs over Q(zeta_m) for some conductor m.
An element is stored as phi(m) integer numerators over one positive common
denominator, in lowest terms and reduced modulo the m-th cyclotomic
polynomial, so equality is decidable by comparing integer vectors over a
common conductor. Fractions appear only where values enter and leave.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class ScalarError(ArithmeticError):
    """Raised on invalid scalar operations (division by zero, bad root data)."""


def euler_phi(m: int) -> int:
    if m < 1:
        raise ScalarError(f"conductor must be positive, got {m}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials with monic divisor.
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ScalarError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


# zeta_m^k reduced mod Phi_m, grown on demand per conductor
_POWER_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _zeta_power(m: int, k: int) -> tuple[int, ...]:
    phi = euler_phi(m)
    powers = _POWER_CACHE.setdefault(m, [])
    if not powers:
        powers.append((1,) + (0,) * (phi - 1))
    phim = cyclotomic_polynomial(m)
    while len(powers) <= k:
        prev = powers[-1]
        nxt = [0] + list(prev)
        lead = nxt.pop()  # coefficient of x^phi
        if lead:
            for j in range(phi):
                nxt[j] -= lead * phim[j]
        powers.append(tuple(nxt))
    return powers[k]


def _reduce_mod(m: int, coeffs: list[int]) -> list[int]:
    phi = euler_phi(m)
    out = list(coeffs[:phi]) + [0] * max(0, phi - len(coeffs))
    for k in range(phi, len(coeffs)):
        c = coeffs[k]
        if c:
            pw = _zeta_power(m, k)
            for j in range(phi):
                if pw[j]:
                    out[j] += c * pw[j]
    return out


class Cyc:
    """An element of Q(zeta_m), reduced mod the m-th cyclotomic polynomial.

    The value is sum(c[i] * zeta_m^i) / d with integer numerators c, d > 0
    and gcd(d, *c) == 1, so at one conductor the stored form is unique; zero
    is (1, 1, (0,)). Mixed-conductor arithmetic lifts both operands to the
    lcm conductor. Values whose higher coefficients vanish normalize to
    conductor 1, so rationals always compare on the fast path.
    """

    __slots__ = ("m", "d", "c")

    def __init__(self, m: int, d: int, c: tuple[int, ...]):
        self.m = m
        self.d = d
        self.c = c

    @staticmethod
    def _make(m: int, d: int, coeffs: list[int]) -> "Cyc":
        g = gcd(d, *coeffs)
        if g != 1:
            d //= g
            coeffs = [x // g for x in coeffs]
        if m > 1 and not any(coeffs[1:]):
            return Cyc(1, d, (coeffs[0],))
        return Cyc(m, d, tuple(coeffs))

    @staticmethod
    def rational(x) -> "Cyc":
        x = Fraction(x)
        return Cyc(1, x.denominator, (x.numerator,))

    @staticmethod
    def zero() -> "Cyc":
        return _CYC_ZERO

    @staticmethod
    def one() -> "Cyc":
        return _CYC_ONE

    @staticmethod
    def root(m: int, k: int = 1) -> "Cyc":
        """zeta_m^k as an exact scalar."""
        if m < 1:
            raise ScalarError(f"root order must be positive, got {m}")
        return Cyc._make(m, 1, list(_zeta_power(m, k % m)))

    def _subst(self, big: int, e: int) -> list[int]:
        """Numerators of sum_i c_i zeta_big^(i e), reduced mod Phi_big.

        With e = big / m this lifts the value to conductor big; with big = m
        and e coprime to m it is the Galois conjugate zeta_m -> zeta_m^e.
        """
        if e == 1:
            return list(self.c)
        phi = euler_phi(big)
        out = [0] * phi
        for i, ci in enumerate(self.c):
            if ci:
                pw = _zeta_power(big, i * e % big)
                for j in range(phi):
                    if pw[j]:
                        out[j] += ci * pw[j]
        return out

    @staticmethod
    def _coerce(x) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc.rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyc")

    def __add__(self, other) -> "Cyc":
        other = Cyc._coerce(other)
        if self.m == other.m:
            m, a, b = self.m, self.c, other.c
        else:
            m = self.m * other.m // gcd(self.m, other.m)
            a, b = self._subst(m, m // self.m), other._subst(m, m // other.m)
        da, db = self.d, other.d
        if da == db:
            return Cyc._make(m, da, [x + y for x, y in zip(a, b)])
        return Cyc._make(m, da * db, [x * db + y * da for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.m, self.d, tuple(-x for x in self.c))

    def __sub__(self, other) -> "Cyc":
        return self + (-Cyc._coerce(other))

    def __mul__(self, other) -> "Cyc":
        other = Cyc._coerce(other)
        if self.m == other.m:
            m = self.m
            a, b = self.c, other.c
        else:
            m = self.m * other.m // gcd(self.m, other.m)
            a, b = self._subst(m, m // self.m), other._subst(m, m // other.m)
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return Cyc._make(m, self.d * other.d, _reduce_mod(m, conv))

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """Multiplicative inverse; exists for every nonzero scalar."""
        if self.is_zero():
            raise ScalarError("division by zero")
        m = self.m
        if m == 1:
            return Cyc.rational(Fraction(self.d, self.c[0]))
        # x times its other Galois conjugates is the norm of x, a nonzero rational
        others = Cyc.one()
        for k in range(2, m):
            if gcd(k, m) == 1:
                others = others * Cyc._make(m, self.d, self._subst(m, k))
        return others * Cyc.rational(1 / (self * others).rational_value())

    def __truediv__(self, other) -> "Cyc":
        return self * Cyc._coerce(other).inv()

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inv() ** (-n)
        result = Cyc.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.rational(other)
        if self.m == other.m:
            return self.d == other.d and self.c == other.c
        big = self.m * other.m // gcd(self.m, other.m)
        a, b = self._subst(big, big // self.m), other._subst(big, big // other.m)
        return [x * other.d for x in a] == [y * self.d for y in b]

    __hash__ = None  # values with different conductors may be equal

    def is_zero(self) -> bool:
        return self.m == 1 and not self.c[0]  # zero is always (1, 1, (0,))

    def is_one(self) -> bool:
        return self.m == 1 and self.d == 1 and self.c[0] == 1

    def rational_value(self) -> Fraction:
        if self.m != 1:
            raise ScalarError("not a rational scalar")
        return Fraction(self.c[0], self.d)

    def __repr__(self) -> str:
        return scalar_to_str(self)


_CYC_ZERO = Cyc(1, 1, (0,))
_CYC_ONE = Cyc(1, 1, (1,))


_MUL_CACHE: dict[tuple, Cyc] = {}


def cached_mul(a: Cyc, b: Cyc) -> Cyc:
    """Memoized product for hot verification loops (few distinct operands)."""
    key = (a.m, a.d, a.c, b.m, b.d, b.c)
    hit = _MUL_CACHE.get(key)
    if hit is None:
        hit = a * b
        _MUL_CACHE[key] = hit
    return hit


class RootOfUnity:
    """zeta_m^k with gcd(k, m) = 1: a primitive m-th root of unity."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int = 1):
        if order < 1:
            raise ScalarError(f"root order must be positive, got {order}")
        exponent %= order
        if gcd(exponent, order) != 1:
            raise ScalarError(
                f"exponent {exponent} not coprime to order {order}: root is not primitive"
            )
        self.order = order
        self.exponent = exponent

    def scalar(self) -> Cyc:
        return Cyc.root(self.order, self.exponent)

    def power(self, t: int) -> "RootOfUnity":
        """zeta^t, renormalized to a primitive root of its own order."""
        e = (self.exponent * t) % self.order
        d = gcd(e, self.order)
        return RootOfUnity(self.order // d, e // d)

    def inverse(self) -> "RootOfUnity":
        return self.power(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.order == other.order and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.order, self.exponent))

    def __repr__(self) -> str:
        return f"RootOfUnity({self.order}, {self.exponent})"


ONE_ROOT = RootOfUnity(1, 0)
MINUS_ONE = RootOfUnity(2, 1)


def q_int(n: int, q: Cyc) -> Cyc:
    """1 + q + ... + q^(n-1); empty sum for n = 0."""
    if n < 0:
        raise ScalarError(f"q-integer needs n >= 0, got {n}")
    total = Cyc.zero()
    power = Cyc.one()
    for _ in range(n):
        total = total + power
        power = power * q
    return total


def q_factorial(n: int, q: Cyc) -> Cyc:
    if n < 0:
        raise ScalarError(f"q-factorial needs n >= 0, got {n}")
    out = Cyc.one()
    for k in range(1, n + 1):
        out = out * q_int(k, q)
    return out


def q_binomial(n: int, k: int, q: Cyc) -> Cyc:
    """Gaussian binomial via the Pascal recurrence; never divides by a q-integer."""
    if k < 0 or n < 0:
        raise ScalarError(f"q-binomial needs nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ScalarError(f"q-binomial undefined for k > n: ({n}, {k})")
    qpow = [Cyc.one()]
    for _ in range(k):
        qpow.append(qpow[-1] * q)
    memo: dict[tuple[int, int], Cyc] = {}

    def rec(a: int, b: int) -> Cyc:
        if b == 0 or b == a:
            return Cyc.one()
        got = memo.get((a, b))
        if got is None:
            got = rec(a - 1, b - 1) + qpow[b] * rec(a - 1, b)
            memo[(a, b)] = got
        return got

    return rec(n, k)


def _frac_str(n: int, d: int) -> str:
    # n/d in lowest terms
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def scalar_to_str(c: Cyc) -> str:
    """Serialization used in JSON reports: "p/q" or "cyc(m)[c0,c1,...]"."""
    if c.m == 1:
        return _frac_str(c.c[0], c.d)
    return f"cyc({c.m})[" + ",".join(_frac_str(x, c.d) for x in c.c) + "]"
