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
    verification. `runs` holds each segment's Hasse paths as the walk built
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
    for i, tops in enumerate(coalg._member_masks()):
        # the union of the intervals from i to its upper ends holds every
        # Hasse path from i to one of them
        below = 0
        for j in _bits(tops):
            below |= poset._down[j]
        region = poset._up[i] & below
        chains: dict[int, int] = {}
        for v in sorted(_bits(region), key=height.__getitem__):
            chains[v] = 1 if v == i else sum(chains[u] for u in _bits(lower[v] & region))
        total += sum(chains[j] for j in _bits(tops))
    return total


def _walk_images(
    coalg: IncidenceSubcoalgebra, quiver: Quiver, names: dict
) -> tuple[dict[Segment, PathRun], tuple]:
    """Every Hasse path between the ends of each basis segment, built from
    the segments above it. The lower ends are taken by decreasing height,
    and the upper ends of each by increasing height. The paths of (i, j)
    are, for each out-arrow a: i -> c in name order with (c, j) a basis
    segment, the block (a,) + q for each path q of (c, j), in that
    segment's order; so they come in the order of their arrow tuples, and a
    stable sort by length puts them in report order, (length, source,
    arrows), with one source per segment. A block whose (c, j) is no basis
    segment, or has no paths, is skipped: the basis is then not closed
    under subintervals, which the morphism check reports.

    Returns per segment its paths in report order as a `PathRun` (no `Path`
    is built), and the numbering `_morphism_failure` reads: (per segment
    its row {id: 1} in report order, init, tail, length), every id one int
    object shared by the rows and the links. The ids of one lower end are
    consecutive, and so are those of one segment, in arrow-tuple order. The
    links cost no lookup of a path: tail[(a,) + q] is the id of q, and
    init[(a,) + q] is the id of (a,) + init[q], which lies in a segment
    (i, w) with w below j, built before (i, j), and is read from the table
    of arrow a that maps the ids of c's paths to the ids of their blocks."""
    poset = coalg.poset
    elements = poset.elements
    vertex = [names[e] for e in elements]
    at = {v: i for i, v in enumerate(vertex)}
    height = [row.bit_count() for row in poset._down]  # increases along the order
    tops = coalg._member_masks()
    runs: dict[Segment, PathRun] = {}
    rows: dict[Segment, dict[int, int]] = {}
    init: list[int] = []
    tail: list[int] = []
    length: list[int] = []
    # per lower end c: its first id, its end and per upper end j the ids and
    # arrow tuples of (c, j) in arrow-tuple order
    built: dict[int, tuple[int, int, dict]] = {}
    for i in sorted((i for i, m in enumerate(tops) if m), key=height.__getitem__, reverse=True):
        first = len(init)
        blocks = []  # per out-arrow a: i -> c: (a,), c's paths, c's first id, a's table
        for a in sorted(quiver.out_arrows(vertex[i])):
            c = at[quiver.target(a)]
            if c in built:
                start, end, below = built[c]
                blocks.append(((a,), below, start, [-2] * (end - start)))
        paths: dict[int, tuple[list, list]] = {}
        for j in sorted(_bits(tops[i]), key=height.__getitem__):
            begin = len(init)
            if j == i:
                ids, seqs = [begin], [()]
                init.append(-1)
                tail.append(-1)
                length.append(0)
            else:
                ids, seqs = [], []
                for head, below, start, table in blocks:
                    found = below.get(j)
                    if found is None:
                        continue
                    qids, qseqs = found
                    q0, n = qids[0], len(qids)
                    new = list(range(len(init), len(init) + n))
                    if qseqs[0]:
                        init += [table[r - start] if r >= 0 else -2 for r in init[q0:q0 + n]]
                    else:  # the arrow itself: its prefix is the vertex i
                        init.append(paths[i][0][0] if i in paths else -2)
                    tail += qids
                    length += map((1).__add__, length[q0:q0 + n])
                    table[q0 - start:q0 - start + n] = new
                    ids += new
                    seqs += map(head.__add__, qseqs)
            if ids:
                paths[j] = ids, seqs
            lengths = length[begin:]
            if lengths and min(lengths) < max(lengths):
                order = sorted(range(len(ids)), key=lengths.__getitem__)
                ids = [ids[k] for k in order]
                seqs = [seqs[k] for k in order]
            seg = (elements[i], elements[j])
            runs[seg] = PathRun(vertex[i], vertex[j], seqs)
            rows[seg] = dict.fromkeys(ids, 1)
        built[i] = first, len(init), paths
    return runs, (rows, init, tail, length)


def _morphism_failure(coalg: IncidenceSubcoalgebra, numbering) -> str | None:
    """Check that the map sending each segment to the sum of its image paths
    commutes with the comultiplications and the counits, segment by segment
    in basis order; the failure message for the first segment where it does
    not, else None. A missing subinterval raises PosetError before a failure
    at its segment is returned, and images that share a path raise
    ValueError: `embed`'s never do, since distinct segments have distinct
    endpoints. Nothing else is raised.

    The map is given by path ids alone: `numbering` is (per basis segment
    its row of ids, init, tail, length), as `_walk_images` hands it over,
    and is neither copied nor changed. The ids 0 to n - 1 stand for
    distinct paths, each with coefficient 1; per id a, length[a] is its
    number of arrows, and init[a] and tail[a] are the ids of a without its
    last and without its first arrow, -2 when that part is no id, and -1 for
    a vertex. Each id lies in one row at most, of the segment home[a].

    One pass over the ids of the rows, shortest first, calls an id a of k
    arrows sound, and sets splits[a] = k + 1, its number of splits (else
    0), when
    - k = 0 and home[a] is some (e, e); or
    - k >= 1, init[a] and tail[a] are sound, home[init[a]] has a's lower end
      and home[tail[a]] its upper end, and tail[init[a]] = init[tail[a]],
      the middle, then sound as a tail of a sound id. For k = 1 both are
      -1, and for k >= 3 both are the id of a without its end arrows, so
      this asks only that two arrows compose.
    By induction on k, dropping the last m and the first j arrows of a
    sound a, m + j <= k, gives one sound id init^m tail^j a = tail^j init^m
    a: for m, j >= 1 both are tail^(j-1) init^(m-1) of the middle, by the
    induction on tail[a] and on init[a]. The prefixes init^m a keep a's
    lower end and the suffixes tail^j a its upper end, and the split into
    init^m a and tail^(k-m) a meets at the vertex init^m tail^(k-m) a, whose
    home (e, e) couples the upper end of the prefix to the lower end of the
    suffix. So each split (x, y) of a sound id of the row of (lo, hi) has
    home[x] = (lo, w) and home[y] = (w, hi) for one w.

    A row of sound ids then commutes exactly when its count N, the sum over
    w in [lo, hi] of |row(lo, w)| |row(w, hi)|, equals the sum of their
    splits, and its counit is the number of its vertices, the 1s among
    them. Delta phi(lo, hi) is the sum of those splits as terms x (x) y,
    distinct, since a prefix and its suffix give back the path.
    (phi (x) phi) Delta(lo, hi) is a sum of N distinct terms, each with
    coefficient 1, since an id lies in row(lo, w) for w = the upper end of
    its home alone; a split (x, y) is one of them exactly when home[x] =
    (lo, w) and home[y] = (w, hi).

    A row that holds an unsound id fails at once. Checking every split of
    every path of every row, in basis order, fails first at the same
    segment, since every id of a row it passes, after passing each row
    before, is sound; by induction over the basis order and then the
    arrow count k of an id p of the row of (lo, hi). For k = 0, the split
    (p, p) needs home[p] = (lo, w) = (w, hi). For k >= 1, the splits at
    one arrow from either end put init p in a row (lo, w) and tail p in a
    row (w', hi) with w, w' in [lo, hi]: the segment itself, where the ids
    are shorter, or a strict subinterval, which is smaller and so comes
    first in the basis. For k = 2 the middles are vertices of the row
    (w, w), w = w' by the split (init p, tail p), which comes first or is
    the segment, and that row passes only if it holds one vertex at most:
    its N = |row|^2 terms would include the pair (u, v) of two of its
    vertices, which is no split. Where splitting meets a part that lies in
    no row, which it cannot check, the path is unsound, since every part
    of a sound id is a sound id in a row: the check fails that segment."""
    rows, init, tail, length = numbering
    home = [None] * len(init)
    by_length = [[] for _ in range(min(max(length, default=0), 65534) + 1)]
    for seg, row in rows.items():
        for a in row:
            if home[a] is not None:
                raise ValueError(f"the images of {home[a]!r} and {seg!r} share a path")
            home[a] = seg
            k = length[a]
            if k <= 65534:  # k + 1 must fit in splits: longer ids stay unsound
                by_length[k].append(a)
    splits = memoryview(bytearray(2 * len(init))).cast("H")
    for a in by_length[0]:
        lo, hi = home[a]
        if lo == hi:
            splits[a] = 1
    for k in range(1, len(by_length)):
        for a in by_length[k]:
            i, t, seg = init[a], tail[a], home[a]
            if (
                i >= 0 and t >= 0 and splits[i] and splits[t] and tail[i] == init[t]
                and home[i][0] == seg[0] and home[t][1] == seg[1]
            ):
                splits[a] = k + 1
    poset = coalg.poset
    elements, index, up, down = poset.elements, poset._index, poset._up, poset._down
    n = len(elements)
    sizes: list[dict[int, int]] = [{} for _ in range(n)]  # per lower end x: {y: |row(x, y)|}
    starts, stops = [0] * n, [0] * n  # per element, the masks of the other ends of its rows
    for (lo, hi), row in rows.items():
        x, y = index[lo], index[hi]
        sizes[x][y] = len(row)
        starts[x] |= 1 << y
        stops[y] |= 1 << x
    terms = []  # per row (x, y), the sum over the rows (x, w) and (w, y) of their length products
    for left in sizes:
        count = dict.fromkeys(left, 0)
        for w, k in left.items():
            for y, m in sizes[w].items():
                if y in count:
                    count[y] += k * m
        terms.append(count)
    for seg in coalg.basis_list:
        lo, hi = seg
        x, y = index[lo], index[hi]
        gaps = up[x] & down[y] & ~(starts[x] & stops[y])
        if gaps:  # the basis is not closed under subintervals: name the first gap
            w = (gaps & -gaps).bit_length() - 1
            missing = (lo, elements[w]) if not starts[x] >> w & 1 else (elements[w], hi)
            raise PosetError(f"segment {missing!r} lies inside {seg!r} but is missing")
        parts = list(map(splits.__getitem__, rows[seg]))
        if 0 in parts or terms[x][y] != sum(parts):
            return f"comultiplication does not commute at segment {seg!r}"
        if parts.count(1) != (lo == hi):  # the counit of (lo, hi) is 1 or 0
            return f"counit does not commute at segment {seg!r}"
    return None


def embed(coalg: IncidenceSubcoalgebra) -> EmbeddingResult:
    """Map every basis segment to the sum of all Hasse-quiver paths between
    its endpoints, then verify the map is a coalgebra morphism and injective."""
    quiver, names = _hasse_with_names(coalg.poset)
    found, numbering = _walk_images(coalg, quiver, names)
    runs = {seg: found[seg] for seg in coalg.basis_list}
    failure = _morphism_failure(coalg, numbering)
    rows = numbering[0]
    del numbering  # the rank's copies of the rows take the links' place
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
