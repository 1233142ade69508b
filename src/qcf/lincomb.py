"""Formal linear combinations of basis labels with exact scalar coefficients.

A `LinComb` is an immutable value. New ones are summed up term by term in an
`Accumulator`, or all at once by `linear`.
"""

from __future__ import annotations

from itertools import chain

from .scalars import Cyc, cached_mul


class LinComb:
    """Sparse map label -> Cyc with no stored zero coefficients; never
    changed after it is built."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    @staticmethod
    def basis(label, coeff: Cyc | None = None) -> "LinComb":
        c = Cyc.one() if coeff is None else coeff
        if c.is_zero():
            return LinComb()
        return _wrap({label: c})

    def __add__(self, other: "LinComb") -> "LinComb":
        return linear(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(Cyc.rational(-1))

    def __neg__(self) -> "LinComb":
        return self.scale(Cyc.rational(-1))

    def scale(self, c: Cyc) -> "LinComb":
        if c.is_zero():
            return LinComb()
        if c.is_one():
            return self
        return _wrap({k: cached_mul(v, c) for k, v in self.terms.items()})

    def items(self):
        return self.terms.items()

    def labels(self):
        return self.terms.keys()

    def is_zero(self) -> bool:
        return not self.terms

    def support_size(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({v!r})*{k!r}" for k, v in self.terms.items())


def _wrap(terms: dict) -> LinComb:
    # terms must hold no zero coefficient and must not be changed afterwards
    out = LinComb.__new__(LinComb)
    out.terms = terms
    return out


class Accumulator:
    """Sums terms into a new LinComb: a coefficient is added to the label's
    current one, and a label whose sum is zero is dropped."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    def add(self, label, c: Cyc) -> None:
        terms = self.terms
        cur = terms.get(label)
        s = c if cur is None else cur + c
        if s.is_zero():
            terms.pop(label, None)
        else:
            terms[label] = s

    def result(self) -> LinComb:
        """The sum so far; the accumulator starts again from zero."""
        out = LinComb.__new__(LinComb)  # _wrap inlined: this runs once per kernel call
        out.terms = self.terms
        self.terms = {}
        return out


def linear(pairs) -> LinComb:
    """The sum of an iterable of (label, coefficient) pairs."""
    acc = Accumulator()
    add = acc.add
    for label, c in pairs:
        add(label, c)
    return acc.result()


def pair_tensor(x: LinComb, y: LinComb) -> LinComb:
    """Tensor of two elements; labels become (a, b) pairs."""
    acc = Accumulator()
    add = acc.add
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            add((a, b), cached_mul(ca, cb))
    return acc.result()


def expand_slot(x: LinComb, slot: int, f) -> LinComb:
    """Apply a label -> LinComb-of-pairs map to one slot of tuple labels.

    Used to form (delta (x) id) and (id (x) delta) style compositions with
    flat tuple labels, so coassociativity compares like with like.
    """
    acc = Accumulator()
    add = acc.add
    for label, c in x.terms.items():
        image = f(label[slot])
        for (u, v), d in image.terms.items():
            add(label[:slot] + (u, v) + label[slot + 1:], cached_mul(c, d))
    return acc.result()


def map_linear(x: LinComb, f) -> LinComb:
    """Push forward along a label -> LinComb map, extended linearly."""
    acc = Accumulator()
    add = acc.add
    for label, c in x.terms.items():
        for lb, d in f(label).terms.items():
            add(lb, cached_mul(c, d))
    return acc.result()
