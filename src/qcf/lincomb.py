"""Formal linear combinations of basis labels with exact scalar coefficients."""

from __future__ import annotations

from .scalars import Cyc, cached_mul


class LinComb:
    """Sparse map label -> Cyc with no stored zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def basis(label, coeff: Cyc | None = None) -> "LinComb":
        c = Cyc.one() if coeff is None else coeff
        if c.is_zero():
            return LinComb()
        out = LinComb()
        out.terms[label] = c
        return out

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            if cur is None:
                out[k] = v
            else:
                s = cur + v
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        res = LinComb()
        res.terms = out
        return res

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(Cyc.rational(-1))

    def __neg__(self) -> "LinComb":
        return self.scale(Cyc.rational(-1))

    def scale(self, c: Cyc) -> "LinComb":
        if c.is_zero():
            return LinComb()
        out = LinComb()
        if c.is_one():
            out.terms = dict(self.terms)  # a copy: add_term on it must not reach self
        else:
            out.terms = {k: cached_mul(v, c) for k, v in self.terms.items()}
        return out

    def add_term(self, label, coeff: Cyc) -> None:
        # in-place accumulation during element assembly
        cur = self.terms.get(label)
        s = coeff if cur is None else cur + coeff
        if s.is_zero():
            self.terms.pop(label, None)
        else:
            self.terms[label] = s

    def coeff(self, label) -> Cyc:
        return self.terms.get(label, Cyc.zero())

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


def pair_tensor(x: LinComb, y: LinComb) -> LinComb:
    """Tensor of two elements; labels become (a, b) pairs."""
    out = LinComb()
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            out.add_term((a, b), cached_mul(ca, cb))
    return out


def expand_slot(x: LinComb, slot: int, f) -> LinComb:
    """Apply a label -> LinComb-of-pairs map to one slot of tuple labels.

    Used to form (delta (x) id) and (id (x) delta) style compositions with
    flat tuple labels, so coassociativity compares like with like.
    """
    out = LinComb()
    for label, c in x.terms.items():
        image = f(label[slot])
        for (u, v), d in image.terms.items():
            new_label = label[:slot] + (u, v) + label[slot + 1:]
            out.add_term(new_label, cached_mul(c, d))
    return out


def map_linear(x: LinComb, f) -> LinComb:
    """Push forward along a label -> LinComb map, extended linearly."""
    out = LinComb()
    for label, c in x.terms.items():
        for lb, d in f(label).terms.items():
            out.add_term(lb, cached_mul(c, d))
    return out
