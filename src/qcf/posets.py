"""Finite posets, incidence subcoalgebras, Hasse quivers, and the path-coalgebra embedding.

Segments e(x, y) for x <= y form the basis of an incidence coalgebra;
comultiplication sums over the interval between the endpoints. A
subcoalgebra basis must be closed under subintervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lincomb import LinComb, linear, map_linear, pair_tensor
from .linalg import sparse_int_rank
from .quiver import Path, Quiver
from .scalars import Cyc


class PosetError(ValueError):
    pass


Segment = tuple  # (lo, hi) with lo <= hi in the ambient poset


class Poset:
    """Finite partially ordered set; the relation is stored as a full matrix."""

    def __init__(self, elements, leq_pairs):
        """leq_pairs: iterable of (a, b) meaning a <= b; reflexivity is added."""
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate element")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self._leq = [[False] * n for _ in range(n)]
        for i in range(n):
            self._leq[i][i] = True
        for a, b in leq_pairs:
            self._leq[self._idx(a)][self._idx(b)] = True
        self._validate()

    def _idx(self, e) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise PosetError(f"unknown element {e!r}") from None

    def _validate(self) -> None:
        n = len(self.elements)
        leq = self._leq
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    if i != j and leq[j][i]:
                        raise PosetError(
                            f"antisymmetry fails between {self.elements[i]!r} and {self.elements[j]!r}"
                        )
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            raise PosetError(
                                f"transitivity fails at ({self.elements[i]!r}, "
                                f"{self.elements[j]!r}, {self.elements[k]!r})"
                            )

    @staticmethod
    def from_covers(elements, covers) -> "Poset":
        """Build from cover pairs (a, b) meaning a < b with nothing between;
        the order is the reflexive-transitive closure."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        adj = [[False] * n for _ in range(n)]
        for a, b in covers:
            if a not in index or b not in index:
                raise PosetError(f"cover ({a!r}, {b!r}) uses an unknown element")
            if a == b:
                raise PosetError(f"cover ({a!r}, {b!r}) relates an element to itself")
            adj[index[a]][index[b]] = True
        reach = [row[:] for row in adj]
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    rk = reach[k]
                    ri = reach[i]
                    for j in range(n):
                        if rk[j]:
                            ri[j] = True
        pairs = [
            (elements[i], elements[j])
            for i in range(n)
            for j in range(n)
            if reach[i][j]
        ]
        return Poset(elements, pairs)

    def leq(self, a, b) -> bool:
        return self._leq[self._idx(a)][self._idx(b)]

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def interval(self, x, y) -> list:
        return [z for z in self.elements if self.leq(x, z) and self.leq(z, y)]

    def all_segments(self) -> list[Segment]:
        return [
            (a, b)
            for a in self.elements
            for b in self.elements
            if self.leq(a, b)
        ]

    def covers(self) -> list[tuple]:
        out = []
        for a in self.elements:
            for b in self.elements:
                if self.lt(a, b) and not any(
                    self.lt(a, z) and self.lt(z, b) for z in self.elements
                ):
                    out.append((a, b))
        return out

    def is_equality_order(self) -> bool:
        return not any(self.lt(a, b) for a in self.elements for b in self.elements)

    def product(self, other: "Poset") -> "Poset":
        """Componentwise order on pairs."""
        elements = [(a, b) for a in self.elements for b in other.elements]
        pairs = [
            ((a, b), (c, d))
            for (a, b) in elements
            for (c, d) in elements
            if self.leq(a, c) and other.leq(b, d)
        ]
        return Poset(elements, pairs)


def _segment_sort_key(poset: Poset, seg: Segment):
    return (len(poset.interval(*seg)), str(seg[0]), str(seg[1]))


class IncidenceSubcoalgebra:
    """A poset with a set of segments closed under subintervals."""

    def __init__(self, poset: Poset, basis):
        self.poset = poset
        self.basis = frozenset(tuple(s) for s in basis)
        for lo, hi in self.basis:
            if not poset.leq(lo, hi):
                raise PosetError(f"segment ({lo!r}, {hi!r}) has lo > hi")
        self.basis_list: tuple[Segment, ...] = tuple(
            sorted(self.basis, key=lambda s: _segment_sort_key(poset, s))
        )

    @property
    def dimension(self) -> int:
        return len(self.basis_list)

    def elements_in(self) -> list:
        return [e for e in self.poset.elements if (e, e) in self.basis]

    def validate(self) -> list[str]:
        """Every subinterval-closure violation."""
        violations = []
        for lo, hi in self.basis_list:
            for a in self.poset.interval(lo, hi):
                for b in self.poset.interval(a, hi):
                    if (a, b) not in self.basis:
                        violations.append(
                            f"segment ({a!r}, {b!r}) lies inside ({lo!r}, {hi!r}) but is missing"
                        )
        return sorted(set(violations))

    def _require_member(self, seg: Segment) -> None:
        if tuple(seg) not in self.basis:
            raise PosetError(f"{seg!r} is not a basis segment")

    def comul(self, seg: Segment) -> LinComb:
        self._require_member(seg)
        lo, hi = seg
        return linear((((lo, z), (z, hi)), Cyc.one()) for z in self.poset.interval(lo, hi))

    def counit(self, seg: Segment) -> Cyc:
        self._require_member(seg)
        lo, hi = seg
        return Cyc.one() if lo == hi else Cyc.zero()


def full_incidence_coalgebra(poset: Poset) -> IncidenceSubcoalgebra:
    return IncidenceSubcoalgebra(poset, poset.all_segments())


def _hasse_with_names(poset: Poset) -> tuple[Quiver, dict]:
    names = {e: str(e) for e in poset.elements}
    if len(set(names.values())) != len(names):
        names = {e: f"v{i}" for i, e in enumerate(poset.elements)}
    arrows = [
        (f"{names[a]}<{names[b]}", names[a], names[b]) for a, b in poset.covers()
    ]
    return Quiver([names[e] for e in poset.elements], arrows), names


def hasse_quiver(poset: Poset) -> Quiver:
    """Vertices are the elements, arrows the covering pairs."""
    return _hasse_with_names(poset)[0]


@dataclass
class EmbeddingResult:
    """The sum-over-paths map into the Hasse path coalgebra, with its verification."""

    quiver: Quiver
    phi: dict[Segment, LinComb]  # values are combinations of Hasse paths
    morphism_ok: bool
    injective: bool
    image_dimension: int
    single_path_image: bool  # true iff every segment maps to one path
    failure: str | None = None


def _paths_between(quiver: Quiver, names: dict, poset: Poset, x, y) -> list[Path]:
    # exhaustive DFS inside the (finite) interval [x, y]
    allowed = {names[z] for z in poset.interval(x, y)}
    target = names[y]
    start = names[x]
    results: list[Path] = []

    def walk(v: str, seq: tuple[str, ...]):
        if v == target:
            results.append(quiver.vertex_path(start) if not seq else quiver.make_path(seq))
        for aid in quiver.out_arrows(v):
            w = quiver.target(aid)
            if w in allowed:
                walk(w, seq + (aid,))

    walk(start, ())
    return results


def embed(coalg: IncidenceSubcoalgebra) -> EmbeddingResult:
    """Map every basis segment to the sum of all Hasse-quiver paths between
    its endpoints, then verify the map is a coalgebra morphism and injective."""
    poset = coalg.poset
    quiver, names = _hasse_with_names(poset)
    phi: dict[Segment, LinComb] = {
        seg: linear((p, Cyc.one()) for p in _paths_between(quiver, names, poset, *seg))
        for seg in coalg.basis_list
    }

    failure = None
    morphism_ok = True
    for seg in coalg.basis_list:
        lhs = linear(
            ((left, right), c) for p, c in phi[seg].items() for left, right in quiver.splits(p)
        )
        rhs = map_linear(
            coalg.comul(seg),
            lambda pair: pair_tensor(phi[pair[0]], phi[pair[1]]),
        )
        if lhs != rhs:
            morphism_ok = False
            failure = f"comultiplication does not commute at segment {seg!r}"
            break
        eps_c = coalg.counit(seg)
        eps_g = Cyc.zero()
        for p, c in phi[seg].items():
            if p.is_vertex():
                eps_g = eps_g + c
        if not (eps_c - eps_g).is_zero():
            morphism_ok = False
            failure = f"counit does not commute at segment {seg!r}"
            break

    all_paths = sorted({p for v in phi.values() for p in v.labels()}, key=lambda p: (p.length, p.source, p.arrows))
    col = {p: i for i, p in enumerate(all_paths)}
    rows = []
    for seg in coalg.basis_list:
        rows.append({col[p]: int(c.rational_value()) for p, c in phi[seg].items()})
    rank = sparse_int_rank(rows)
    injective = rank == coalg.dimension
    single = all(v.support_size() == 1 for v in phi.values())
    return EmbeddingResult(
        quiver=quiver,
        phi=phi,
        morphism_ok=morphism_ok,
        injective=injective,
        image_dimension=rank,
        single_path_image=single,
        failure=failure,
    )


@dataclass
class TensorIsoResult:
    """Verification that segments of a product poset factor as segment pairs."""

    ok: bool
    product_elements: int
    checked_segments: int
    failure: str | None = None


def tensor_iso_check(x_poset: Poset, y_poset: Poset) -> TensorIsoResult:
    """Check that (lo, hi) -> e(lo1, hi1) (x) e(lo2, hi2) intertwines both
    comultiplications and counits on the full incidence coalgebra of the
    componentwise-ordered product."""
    prod = x_poset.product(y_poset)
    cx = full_incidence_coalgebra(x_poset)
    cy = full_incidence_coalgebra(y_poset)
    cp = full_incidence_coalgebra(prod)

    def iso(seg: Segment) -> tuple[Segment, Segment]:
        (a, b), (c, d) = seg
        return ((a, c), (b, d))

    checked = 0
    for seg in cp.basis_list:
        sx, sy = iso(seg)
        lhs = map_linear(
            cp.comul(seg),
            lambda pair: LinComb.basis((iso(pair[0]), iso(pair[1]))),
        )
        dy = cy.comul(sy).items()
        rhs = linear(
            (((x1, y1), (x2, y2)), c1 * c2)
            for (x1, x2), c1 in cx.comul(sx).items()
            for (y1, y2), c2 in dy
        )
        if lhs != rhs:
            return TensorIsoResult(
                ok=False,
                product_elements=len(prod.elements),
                checked_segments=checked,
                failure=f"comultiplication mismatch at {seg!r}",
            )
        if not (cp.counit(seg) - cx.counit(sx) * cy.counit(sy)).is_zero():
            return TensorIsoResult(
                ok=False,
                product_elements=len(prod.elements),
                checked_segments=checked,
                failure=f"counit mismatch at {seg!r}",
            )
        checked += 1
    return TensorIsoResult(
        ok=True, product_elements=len(prod.elements), checked_segments=checked
    )
