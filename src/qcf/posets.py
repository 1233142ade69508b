"""Finite posets, incidence subcoalgebras, Hasse quivers, and the path-coalgebra embedding.

Segments e(x, y) for x <= y form the basis of an incidence coalgebra;
comultiplication sums over the interval between the endpoints. A
subcoalgebra basis must be closed under subintervals.
"""

from __future__ import annotations

from ._record import record
from .lincomb import LinComb, linear, map_linear, pair_tensor
from .linalg import sparse_int_rank
from .quiver import Path, PathRun, Quiver
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

    def __init__(self, elements, up):
        """up: the `_up` masks of a reflexive, transitive relation; it must be antisymmetric."""
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate element")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._up = up
        down = [0] * len(up)
        # the first failing (i, j) in row-major order, as the full matrix scan found it
        for i, row in enumerate(up):
            bit = 1 << i
            for j in _bits(row):
                if up[j] & bit and i != j:
                    raise PosetError(
                        f"antisymmetry fails between {self.elements[i]!r} and {self.elements[j]!r}"
                    )
                down[j] |= bit
        self._down = down

    def _idx(self, e) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise PosetError(f"unknown element {e!r}") from None

    @staticmethod
    def from_covers(elements, covers) -> "Poset":
        """Build from cover pairs (a, b) meaning a < b with nothing between;
        the order is the reflexive-transitive closure."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        reach = [1 << i for i in range(n)]
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
        return Poset(elements, reach)

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

    def segment_count(self) -> int:
        return sum(row.bit_count() for row in self._up)

    def interval_size_sum(self) -> int:
        """The number of terms of the full incidence comultiplication."""
        down = self._down
        return sum((row & down[j]).bit_count() for row in self._up for j in _bits(row))

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
        """Componentwise order on pairs; (a_i, b_j) has index i |other| + j."""
        width = len(other.elements)
        up = [sum(y << k * width for k in _bits(x)) for x in self._up for y in other._up]
        return Poset([(a, b) for a in self.elements for b in other.elements], up)


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


@record
class EmbeddingResult:
    """The sum-over-paths map into the Hasse path coalgebra, with its
    verification. `runs` holds each segment's Hasse paths as the walk found
    them, their arrow tuples in report order; `images` and `phi` build
    `Path`s from them on demand."""

    quiver: Quiver
    runs: dict[Segment, PathRun]  # per segment its Hasse paths, in report order
    morphism_ok: bool
    injective: bool
    image_dimension: int
    single_path_image: bool  # true iff every segment maps to one path
    failure: str | None = None

    @property
    def images(self) -> dict[Segment, list[Path]]:
        """Per segment its image paths, in report order."""
        return {seg: run.paths() for seg, run in self.runs.items()}

    @property
    def phi(self) -> dict[Segment, LinComb]:
        """The map itself: per segment the sum of its image paths."""
        one = Cyc.one()
        return {seg: linear((p, one) for p in paths) for seg, paths in self.images.items()}


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


def _walk_images(
    coalg: IncidenceSubcoalgebra, quiver: Quiver, names: dict
) -> tuple[dict[Segment, PathRun], tuple[dict, dict]]:
    """Every Hasse path between the ends of each basis segment, numbered as
    it is found: one depth-first walk per lower end, kept inside its region
    of `_source_regions`, that takes each vertex's out-arrows in name order
    and so meets the paths to one upper end in the order of their arrow
    tuples. A stable sort by length puts them in report order, (length,
    source, arrows), with one source per segment.

    Returns per segment its paths in that order as a `PathRun`, whose arrow
    tuples are the index's keys themselves (no `Path` is built), and the
    numbering `_morphism_failure` reads: ({key: id}, per segment its row
    {id: 1}), the ids handed out in report order. A path's key is its arrow
    tuple, or its source for a vertex: a path of one quiver is fixed by its
    arrows, and a vertex name, a str, never equals a tuple."""
    elements = coalg.poset.elements
    vertex = [names[e] for e in elements]
    at = {v: i for i, v in enumerate(vertex)}
    # reversed, so that popping the stack takes the arrows in name order
    steps = [
        [(at[quiver.target(a)], a) for a in sorted(quiver.out_arrows(v), reverse=True)]
        for v in vertex
    ]
    runs: dict[Segment, PathRun] = {}
    index: dict = {}
    rows: dict[Segment, dict[int, int]] = {}
    for i, (tops, region) in _source_regions(coalg).items():
        start = vertex[i]
        found: dict[int, list[tuple]] = {j: [] for j in _bits(tops)}
        stack = [(i, ())]
        while stack:
            v, seq = stack.pop()
            if tops >> v & 1:
                found[v].append(seq)
            for w, a in steps[v]:
                if region >> w & 1:
                    stack.append((w, seq + (a,)))
        for j, seqs in found.items():
            seqs.sort(key=len)
            seg = (elements[i], elements[j])
            runs[seg] = PathRun(start, vertex[j], seqs)
            # a list, so that the index and the row share one int per id
            ids = list(range(len(index), len(index) + len(seqs)))
            if j == i:  # the vertex path alone, keyed by its source
                index[start] = ids[0]
            else:
                index.update(zip(seqs, ids))
            rows[seg] = dict.fromkeys(ids, 1)
    return runs, (index, rows)


def _morphism_failure(coalg: IncidenceSubcoalgebra, quiver: Quiver, numbering) -> str | None:
    """Check that the map sending each segment to the sum of its image paths
    commutes with the comultiplications and the counits, segment by segment
    in basis order; the failure message for the first segment where it does
    not, else None. A missing subinterval raises PosetError before a failure
    at its segment is returned, and images that share a path raise
    ValueError: `embed`'s never do, since distinct segments have distinct
    endpoints.

    The map is given by path ids alone: `numbering` is ({key: id}, per
    segment its row of ids), keyed as `_walk_images` keys it, the ids 0 to
    n - 1, every id one Hasse path with coefficient 1; it is neither copied
    nor changed. Two links per id a, `init[a]` and `tail[a]`, give the ids
    of a without its last and without its first arrow, or -2 when that part
    is no image path; a vertex's id has -1 in both, so walking them lists
    every prefix and every suffix of a and stops at -1. Each id a lies in
    one row, of the segment home[a].

    Most rows are cleared whole, not split by split. One pass over the
    ids, shortest keys first, calls an id a whose key has k arrows sound,
    and sets splits[a] = k + 1, its number of splits (else 0), when
    - k = 0 and home[a] is some (e, e); or
    - k >= 1, a lies in a row, init[a] and tail[a] are sound, home[init[a]]
      has a's lower end and home[tail[a]] its upper end, and tail[init[a]]
      = init[tail[a]], the middle, then sound as a tail of a sound id. For
      k = 1 both are -1, and for k >= 3 both are the id of the key without
      its end arrows, so this asks only that two arrows compose.
    This is exact. By induction on k, dropping the last m and the first j
    arrows of a sound a, m + j <= k, gives one sound id init^m tail^j a =
    tail^j init^m a: for m, j >= 1 both are tail^(j-1) init^(m-1) of the
    middle, by the induction on tail[a] and on init[a]. The prefixes
    init^m a keep a's lower end and the suffixes tail^j a its upper end,
    and the split into init^m a and tail^(k-m) a meets at the vertex
    init^m tail^(k-m) a, whose home (e, e) couples the upper end of the
    prefix to the lower end of the suffix. So every split of a sound id in
    its own row passes `_commutes`' test, and a row of sound ids commutes
    exactly when its count equals the sum of their splits. A row that
    holds an unsound id goes through `_commutes`, so every numbering gets
    the verdict, or the exception, that splitting every row gives."""
    index, rows = numbering
    number, source, target, n = index.get, quiver.source, quiver.target, len(index)
    init = [-1] * n
    tail = [-1] * n
    by_length: dict[int, list[int]] = {}  # the ids, bucketed by key length
    for key, a in index.items():
        if isinstance(key, tuple):  # a vertex's key is its name; its links stay -1
            init[a] = number(key[:-1] or source(key[0]), -2)
            tail[a] = number(key[1:] or target(key[-1]), -2)
            k = len(key)
        else:
            k = 0
        by_length.setdefault(k, []).append(a)
    home = [None] * n
    for seg, row in rows.items():
        for a in row:
            if home[a] is not None:
                raise ValueError(f"the images of {home[a]!r} and {seg!r} share a path")
            home[a] = seg
    splits = memoryview(bytearray(2 * n)).cast("H")
    for a in by_length.pop(0, ()):
        seg = home[a]
        if seg is not None and seg[0] == seg[1]:
            splits[a] = 1
    for k in sorted(by_length):
        if k > 65534:  # k + 1 would not fit in splits: these ids stay unsound
            break
        for a in by_length[k]:
            i, t, seg = init[a], tail[a], home[a]
            if (
                i >= 0 and t >= 0 and splits[i] and splits[t] and seg is not None
                and tail[i] == init[t] and home[i][0] == seg[0] and home[t][1] == seg[1]
            ):
                splits[a] = k + 1
    interval = coalg.poset.interval
    for seg in coalg.basis_list:
        lo, hi = seg
        try:
            count = sum(len(rows[lo, w]) * len(rows[w, hi]) for w in interval(lo, hi))
        except KeyError as err:  # the basis is not closed under subintervals
            raise PosetError(f"segment {err.args[0]!r} lies inside {seg!r} but is missing") from None
        row = rows[seg]
        parts = list(map(splits.__getitem__, row))
        if 0 in parts:
            commutes = _commutes(seg, row, count, init, tail, home)
            vertices = sum(init[a] == -1 for a in row)
        else:
            commutes = count == sum(parts)
            vertices = parts.count(1)  # a sound id has one split exactly when it is a vertex
        if not commutes:
            return f"comultiplication does not commute at segment {seg!r}"
        if coalg.counit(seg) != Cyc.rational(vertices):
            return f"counit does not commute at segment {seg!r}"
    return None


def _commutes(seg: Segment, row, count: int, init, tail, home) -> bool:
    """Whether Delta phi and (phi (x) phi) Delta agree at seg = (lo, hi),
    whose image is the sum of the paths of `row`; `count` is N = sum over w
    in [lo, hi] of |row(lo, w)| |row(w, hi)|.

    Delta phi(seg) is the sum, over the paths p of `row` and over the splits
    (a, b) of p, of a (x) b; the splits of distinct paths are distinct
    pairs, since a prefix and its suffix give back the path. An id a lies in
    row(lo, w) for w = the upper end of home[a] alone, so a term a (x) b of
    (phi (x) phi) Delta(seg) comes from that one w: that side is a sum of
    exactly N distinct terms, each with coefficient 1. A split (a, b) is one
    of them exactly when home[a] = (lo, w) and home[b] = (w, hi) for one w (a
    key of the rows is a segment, so w lies in [lo, hi]); a split with a
    part that is no image path matches none. So the two sides are equal
    exactly when every split passes that test and there are N of them."""
    lo, hi = seg
    for p in row:
        suffixes = [p]
        b = tail[p]
        while b >= 0:
            suffixes.append(b)
            b = tail[b]
        if b == -2:
            return False
        count -= len(suffixes)
        a = p  # the prefixes, longest first, pair with the suffixes, shortest first
        for b in reversed(suffixes):
            if a < 0:  # -2: this prefix is no image path
                return False
            (x, w), (v, y) = home[a], home[b]
            if x != lo or w != v or y != hi:
                return False
            a = init[a]
    return count == 0


def embed(coalg: IncidenceSubcoalgebra) -> EmbeddingResult:
    """Map every basis segment to the sum of all Hasse-quiver paths between
    its endpoints, then verify the map is a coalgebra morphism and injective."""
    quiver, names = _hasse_with_names(coalg.poset)
    found, (index, rows) = _walk_images(coalg, quiver, names)
    runs = {seg: found[seg] for seg in coalg.basis_list}
    failure = _morphism_failure(coalg, quiver, (index, rows))
    del index  # the rank's copies of the rows take the path index's place
    rank = sparse_int_rank([rows[seg] for seg in coalg.basis_list])
    return EmbeddingResult(
        quiver=quiver,
        runs=runs,
        morphism_ok=failure is None,
        injective=rank == coalg.dimension,
        image_dimension=rank,
        single_path_image=all(len(run.seqs) == 1 for run in runs.values()),
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

    checked, failure = 0, None
    for seg in cp.basis_list:
        sx, sy = iso(seg)
        # both sides labelled ((x-segment, x-segment), (y-segment, y-segment))
        lhs = map_linear(
            cp.comul(seg),
            lambda pair: LinComb.basis(tuple(zip(iso(pair[0]), iso(pair[1])))),
        )
        if lhs != pair_tensor(cx.comul(sx), cy.comul(sy)):
            failure = f"comultiplication mismatch at {seg!r}"
        elif not (cp.counit(seg) - cx.counit(sx) * cy.counit(sy)).is_zero():
            failure = f"counit mismatch at {seg!r}"
        if failure is not None:
            break
        checked += 1
    return TensorIsoResult(
        ok=failure is None,
        product_elements=len(prod.elements),
        checked_segments=checked,
        failure=failure,
    )
