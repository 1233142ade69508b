"""Finite posets, incidence subcoalgebras, Hasse quivers, and the path-coalgebra embedding.

Segments e(x, y) for x <= y form the basis of an incidence coalgebra;
comultiplication sums over the interval between the endpoints. A
subcoalgebra basis must be closed under subintervals.
"""

from __future__ import annotations

from ._record import record
from .lincomb import LinComb, linear, map_linear, pair_tensor
from .linalg import sparse_int_rank
from .quiver import Path, Quiver
from .scalars import Cyc


class PosetError(ValueError):
    pass


Segment = tuple  # (lo, hi) with lo <= hi in the ambient poset


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Finite partially ordered set. The order is stored as bitmasks over
    element indices: `_up[i]` holds every j with i <= j, `_down[i]` every j
    with j <= i."""

    def __init__(self, elements, leq_pairs):
        """leq_pairs: iterable of (a, b) meaning a <= b; reflexivity is added."""
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate element")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        up = [1 << i for i in range(n)]
        for a, b in leq_pairs:
            up[self._idx(a)] |= 1 << self._idx(b)
        down = [1 << j for j in range(n)]
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self._up = up
        self._down = down
        self._validate()

    def _idx(self, e) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise PosetError(f"unknown element {e!r}") from None

    def _validate(self) -> None:
        # the first failing (i, j) in row-major order, as the full matrix scan found it
        up = self._up
        for i in range(len(self.elements)):
            for j in _bits(up[i]):
                if i != j and up[j] >> i & 1:
                    raise PosetError(
                        f"antisymmetry fails between {self.elements[i]!r} and {self.elements[j]!r}"
                    )
                missing = up[j] & ~up[i]
                if missing:
                    k = next(_bits(missing))
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
        reach = [0] * n
        for a, b in covers:
            if a not in index or b not in index:
                raise PosetError(f"cover ({a!r}, {b!r}) uses an unknown element")
            if a == b:
                raise PosetError(f"cover ({a!r}, {b!r}) relates an element to itself")
            reach[index[a]] |= 1 << index[b]
        for k in range(n):
            bit, rk = 1 << k, reach[k]
            for i in range(n):
                if reach[i] & bit:
                    reach[i] |= rk
        return Poset(
            elements, ((elements[i], elements[j]) for i in range(n) for j in _bits(reach[i]))
        )

    def leq(self, a, b) -> bool:
        return bool(self._up[self._idx(a)] >> self._idx(b) & 1)

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def _interval_mask(self, x, y) -> int:
        return self._up[self._idx(x)] & self._down[self._idx(y)]

    def interval(self, x, y) -> list:
        """The elements z with x <= z <= y, in the order of `elements`."""
        elements = self.elements
        return [elements[k] for k in _bits(self._interval_mask(x, y))]

    def all_segments(self) -> list[Segment]:
        elements = self.elements
        return [(a, elements[j]) for a, row in zip(elements, self._up) for j in _bits(row)]

    def _upper_covers(self) -> list[int]:
        """Per element, the mask of the elements covering it: the j whose
        interval with it holds exactly two elements."""
        down = self._down
        return [
            sum(1 << j for j in _bits(row) if (row & down[j]).bit_count() == 2)
            for row in self._up
        ]

    def covers(self) -> list[tuple]:
        elements = self.elements
        return [
            (a, elements[j])
            for a, row in zip(elements, self._upper_covers())
            for j in _bits(row)
        ]

    def is_equality_order(self) -> bool:
        return all(row == 1 << i for i, row in enumerate(self._up))

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
    return (poset._interval_mask(*seg).bit_count(), str(seg[0]), str(seg[1]))


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

    def vertices(self) -> list:
        return [e for e in self.poset.elements if (e, e) in self.basis]

    def _member_masks(self) -> list[int]:
        """Per element index i, the mask of the j with (i, j) a basis segment."""
        idx = self.poset._idx
        masks = [0] * len(self.poset.elements)
        for lo, hi in self.basis:
            masks[idx(lo)] |= 1 << idx(hi)
        return masks

    def validate(self) -> list[str]:
        """Every subinterval-closure violation."""
        poset = self.poset
        elements, up, idx = poset.elements, poset._up, poset._idx
        members = self._member_masks()
        violations = []
        for lo, hi in self.basis_list:
            below_hi = poset._down[idx(hi)]
            for a in _bits(up[idx(lo)] & below_hi):
                for b in _bits(up[a] & below_hi & ~members[a]):
                    violations.append(
                        f"segment ({elements[a]!r}, {elements[b]!r}) lies inside ({lo!r}, {hi!r}) but is missing"
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


@record
class EmbeddingResult:
    """The sum-over-paths map into the Hasse path coalgebra, with its verification."""

    quiver: Quiver
    phi: dict[Segment, LinComb]  # values are combinations of Hasse paths
    morphism_ok: bool
    injective: bool
    image_dimension: int
    single_path_image: bool  # true iff every segment maps to one path
    failure: str | None = None


def _source_regions(coalg: IncidenceSubcoalgebra) -> dict[int, tuple[int, int]]:
    """Per lower end i of a basis segment: the mask of its upper ends, and
    the union of the intervals from i to them, which holds every Hasse path
    from i to an upper end."""
    poset = coalg.poset
    regions = {}
    for i, tops in enumerate(coalg._member_masks()):
        if tops:
            below = 0
            for j in _bits(tops):
                below |= poset._down[j]
            regions[i] = (tops, poset._up[i] & below)
    return regions


def hasse_path_count(coalg: IncidenceSubcoalgebra) -> int:
    """How many Hasse-quiver paths `embed` maps the basis to: the saturated
    chains between the ends of every basis segment, counted by a dynamic
    program over the order masks without listing one."""
    poset = coalg.poset
    lower = [0] * len(poset.elements)
    for i, row in enumerate(poset._upper_covers()):
        for j in _bits(row):
            lower[j] |= 1 << i
    height = [row.bit_count() for row in poset._down]  # increases along the order
    total = 0
    for i, (tops, region) in _source_regions(coalg).items():
        chains: dict[int, int] = {}
        for v in sorted(_bits(region), key=height.__getitem__):
            chains[v] = 1 if v == i else sum(chains[u] for u in _bits(lower[v] & region))
        total += sum(chains[j] for j in _bits(tops))
    return total


def _image_paths(
    coalg: IncidenceSubcoalgebra, quiver: Quiver, names: dict
) -> dict[Segment, list[Path]]:
    """Every Hasse path between the ends of each basis segment, in the
    depth-first order of the quiver's arrows: one walk per lower end, kept
    inside its region of `_source_regions`."""
    elements = coalg.poset.elements
    vertex = [names[e] for e in elements]
    at = {v: i for i, v in enumerate(vertex)}
    # reversed, so that popping the stack takes the arrows in order
    steps = [[(at[quiver.target(a)], a) for a in reversed(quiver.out_arrows(v))] for v in vertex]
    paths: dict[Segment, list[Path]] = {}
    for i, (tops, region) in _source_regions(coalg).items():
        start = vertex[i]
        found: dict[int, list[Path]] = {j: [] for j in _bits(tops)}
        stack = [(i, ())]
        while stack:
            v, seq = stack.pop()
            if tops >> v & 1:
                found[v].append(Path(start, vertex[v], seq))
            for w, a in steps[v]:
                if region >> w & 1:
                    stack.append((w, seq + (a,)))
        for j, found_paths in found.items():
            paths[(elements[i], elements[j])] = found_paths
    return paths


def _rational(c: Cyc):
    """A rational scalar as an int, or as a Fraction when it is not integral."""
    if c.is_one():
        return 1
    value = c.rational_value()
    return value.numerator if value.denominator == 1 else value


def _number_paths(phi: dict[Segment, LinComb]) -> tuple[dict, dict]:
    """Number the paths in the images: ({(source, arrows): id}, and per
    segment its image as a row {id: coefficient})."""
    index: dict[tuple, int] = {}
    rows = {
        seg: {
            index.setdefault((p.source, p.arrows), len(index)): _rational(c)
            for p, c in image.items()
        }
        for seg, image in phi.items()
    }
    return index, rows


def _morphism_failure(
    coalg: IncidenceSubcoalgebra, quiver: Quiver, phi: dict[Segment, LinComb], numbering=None
) -> str | None:
    """Check that phi (rational coefficients) commutes with the
    comultiplications and the counits, segment by segment in basis order;
    the failure message for the first segment where it does not, else None.

    Both sides of (phi (x) phi) Delta = Delta phi are sums over pairs of
    path ids of `_number_paths` (its result may be passed in as
    `numbering`). The left side splits every image path at each vertex and
    looks the two parts up by (source, arrows); a part that is no image
    path keeps that tuple as its label."""
    index, rows = numbering if numbering is not None else _number_paths(phi)
    number = index.get
    target = quiver.target
    for seg in coalg.basis_list:
        lhs: dict = {}
        for p, c in phi[seg].items():
            c = _rational(c)
            source, arrows = p.source, p.arrows
            for i, mid in enumerate((source, *map(target, arrows))):
                left, right = (source, arrows[:i]), (mid, arrows[i:])
                key = (number(left, left), number(right, right))
                lhs[key] = lhs.get(key, 0) + c
        rhs: dict = {}
        for (first, second), c in coalg.comul(seg).items():
            c = _rational(c)
            try:
                first_row, second_row = rows[first].items(), rows[second].items()
            except KeyError as err:  # the basis is not closed under subintervals
                raise PosetError(f"segment {err.args[0]!r} lies inside {seg!r} but is missing") from None
            for a, ca in first_row:
                ca *= c
                for b, cb in second_row:
                    key = (a, b)
                    rhs[key] = rhs.get(key, 0) + ca * cb
        if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
            return f"comultiplication does not commute at segment {seg!r}"
        vertex_sum = sum(_rational(c) for p, c in phi[seg].items() if p.is_vertex())
        if _rational(coalg.counit(seg)) != vertex_sum:
            return f"counit does not commute at segment {seg!r}"
    return None


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def embed(coalg: IncidenceSubcoalgebra) -> EmbeddingResult:
    """Map every basis segment to the sum of all Hasse-quiver paths between
    its endpoints, then verify the map is a coalgebra morphism and injective."""
    quiver, names = _hasse_with_names(coalg.poset)
    paths = _image_paths(coalg, quiver, names)
    one = Cyc.one()
    phi: dict[Segment, LinComb] = {
        seg: linear((p, one) for p in paths.pop(seg)) for seg in coalg.basis_list
    }
    numbering = _number_paths(phi)
    failure = _morphism_failure(coalg, quiver, phi, numbering)
    rank = sparse_int_rank([numbering[1][seg] for seg in coalg.basis_list])
    return EmbeddingResult(
        quiver=quiver,
        phi=phi,
        morphism_ok=failure is None,
        injective=rank == coalg.dimension,
        image_dimension=rank,
        single_path_image=all(v.support_size() == 1 for v in phi.values()),
        failure=failure,
    )


@record
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
        # both sides labelled ((x-segment, x-segment), (y-segment, y-segment))
        lhs = map_linear(
            cp.comul(seg),
            lambda pair: LinComb.basis(tuple(zip(iso(pair[0]), iso(pair[1])))),
        )
        rhs = pair_tensor(cx.comul(sx), cy.comul(sy))
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
