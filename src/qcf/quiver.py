"""Quivers, paths, and path subcoalgebras.

A path subcoalgebra is a set of paths closed under taking contiguous
subpaths (vertices count as length-0 paths). Comultiplication splits a
path at every intermediate vertex; the counit is 1 exactly on vertices.
"""

from __future__ import annotations

from ._record import record
from .lincomb import LinComb, linear
from .scalars import Cyc


class QuiverError(ValueError):
    pass


@record(frozen=True, order=True)
class Path:
    """A vertex (empty arrow sequence) or a composable sequence of arrow ids."""

    __slots__ = ("source", "target", "arrows")
    source: str
    target: str
    arrows: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_vertex(self) -> bool:
        return not self.arrows

    def __repr__(self) -> str:
        if not self.arrows:
            return f"<{self.source}>"
        return "<" + " ".join(self.arrows) + ">"


@record
class PathRun:
    """Paths with one source and one target, held as their arrow tuples (the
    vertex path as ()): the report writes a run as the list of its paths,
    and `paths()` builds them."""

    source: str
    target: str
    seqs: list[tuple[str, ...]]

    def paths(self) -> list[Path]:
        return [Path(self.source, self.target, seq) for seq in self.seqs]


class Quiver:
    """Finite directed multigraph; loops and parallel arrows are allowed."""

    def __init__(self, vertices, arrows):
        """arrows: iterable of (arrow id, source vertex, target vertex)."""
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise QuiverError("duplicate vertex id")
        self.arrow_ids: tuple[str, ...] = ()
        self._ends: dict[str, tuple[str, str]] = {}
        ids = []
        for aid, src, tgt in arrows:
            if aid in self._ends or aid in vset:
                raise QuiverError(f"duplicate id {aid!r}")
            if src not in vset:
                raise QuiverError(f"arrow {aid!r}: unknown source {src!r}")
            if tgt not in vset:
                raise QuiverError(f"arrow {aid!r}: unknown target {tgt!r}")
            self._ends[aid] = (src, tgt)
            ids.append(aid)
        self.arrow_ids = tuple(ids)
        self._out: dict[str, list[str]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[str]] = {v: [] for v in self.vertices}
        for aid in self.arrow_ids:
            s, t = self._ends[aid]
            self._out[s].append(aid)
            self._in[t].append(aid)

    def source(self, aid: str) -> str:
        return self._ends[aid][0]

    def target(self, aid: str) -> str:
        return self._ends[aid][1]

    def out_arrows(self, v: str) -> list[str]:
        return self._out[v]

    def in_arrows(self, v: str) -> list[str]:
        return self._in[v]

    def vertex_path(self, v: str) -> Path:
        if v not in self._out:
            raise QuiverError(f"unknown vertex {v!r}")
        return Path(v, v, ())

    def arrow_path(self, aid: str) -> Path:
        s, t = self._ends[aid]
        return Path(s, t, (aid,))

    def make_path(self, arrow_ids) -> Path:
        ids = tuple(arrow_ids)
        if not ids:
            raise QuiverError("empty arrow sequence; use vertex_path")
        for a, b in zip(ids, ids[1:]):
            if self.target(a) != self.source(b):
                raise QuiverError(f"arrows {a!r} and {b!r} do not compose")
        return Path(self.source(ids[0]), self.target(ids[-1]), ids)

    def concat(self, first: Path, second: Path) -> Path:
        if first.target != second.source:
            raise QuiverError("paths do not compose")
        if not first.arrows and not second.arrows:
            return first
        return Path(first.source, second.target, first.arrows + second.arrows)

    def split(self, p: Path, i: int) -> tuple[Path, Path]:
        """The i-th way of writing p as a composition (0 <= i <= length)."""
        if not p.arrows:
            return p, p
        left, right = p.arrows[:i], p.arrows[i:]
        mid = p.source if i == 0 else self.target(p.arrows[i - 1])
        return (
            Path(p.source, mid, left),
            Path(mid, p.target, right),
        )

    def splits(self, p: Path) -> list[tuple[Path, Path]]:
        return [self.split(p, i) for i in range(p.length + 1)]

    def subpaths(self, p: Path) -> set[Path]:
        """All contiguous subpaths, including every vertex the path visits."""
        out: set[Path] = set()
        verts = [p.source] + [self.target(a) for a in p.arrows]
        for i, v in enumerate(verts):
            out.add(Path(v, v, ()))
            for j in range(i + 1, len(verts)):
                out.add(Path(v, verts[j], p.arrows[i:j]))
        return out

    def is_acyclic(self) -> bool:
        """Peels off vertices that no unpeeled arrow enters (Kahn's order),
        without recursion: acyclic exactly when every vertex is peeled."""
        entering = {v: len(self._in[v]) for v in self.vertices}
        peeled = [v for v in self.vertices if not entering[v]]
        for v in peeled:  # grows while it is walked
            for aid in self._out[v]:
                w = self.target(aid)
                entering[w] -= 1
                if not entering[w]:
                    peeled.append(w)
        return len(peeled) == len(self.vertices)

    def paths_from(self, v: str, maxlen: int) -> list[Path]:
        out = [self.vertex_path(v)]
        frontier = [()]
        for _ in range(maxlen):
            nxt = []
            for seq in frontier:
                end = v if not seq else self.target(seq[-1])
                for aid in self._out[end]:
                    nxt.append(seq + (aid,))
            if not nxt:
                break
            out.extend(self.make_path(seq) for seq in nxt)
            frontier = nxt
        return out

    def all_paths(self, maxlen: int | None = None) -> list[Path]:
        """Every path up to maxlen; unbounded only for acyclic quivers."""
        if maxlen is None:
            if not self.is_acyclic():
                raise QuiverError("unbounded path enumeration needs an acyclic quiver")
            maxlen = max(1, len(self.vertices))
        out: list[Path] = []
        for v in self.vertices:
            out.extend(self.paths_from(v, maxlen))
        return out


def path_sort_key(p: Path):
    return (p.length, p.source, p.arrows, p.target)


class PathSubcoalgebra:
    """A quiver together with a basis of paths closed under subpaths."""

    def __init__(self, quiver: Quiver, basis):
        self.quiver = quiver
        self.basis = frozenset(basis)
        self.basis_list: tuple[Path, ...] = tuple(sorted(self.basis, key=path_sort_key))

    @property
    def dimension(self) -> int:
        return len(self.basis_list)

    def vertices(self) -> list[str]:
        return sorted(p.source for p in self.basis if p.is_vertex())

    def validate(self) -> list[str]:
        """Every subpath-closure violation, as human-readable records."""
        violations = []
        for p in self.basis_list:
            for sub in sorted(self.quiver.subpaths(p), key=path_sort_key):
                if sub not in self.basis:
                    violations.append(f"{sub!r} is a subpath of {p!r} but missing from the basis")
        return violations

    def _require_member(self, p: Path) -> None:
        if p not in self.basis:
            raise QuiverError(f"{p!r} is not a basis path")

    def comul(self, p: Path) -> LinComb:
        """Sum of left-factor (x) right-factor over all splittings of p."""
        self._require_member(p)
        return linear(((left, right), Cyc.one()) for left, right in self.quiver.splits(p))

    def counit(self, p: Path) -> Cyc:
        self._require_member(p)
        return Cyc.one() if p.is_vertex() else Cyc.zero()


def full_path_coalgebra(quiver: Quiver) -> PathSubcoalgebra:
    """All paths of a finite acyclic quiver."""
    if not quiver.is_acyclic():
        raise QuiverError("full path coalgebra of a cyclic quiver is infinite dimensional")
    return PathSubcoalgebra(quiver, quiver.all_paths())


def bounded_path_coalgebra(quiver: Quiver, maxlen: int) -> PathSubcoalgebra:
    """All paths of length at most maxlen (subpath closed by construction)."""
    if maxlen < 0:
        raise QuiverError("maxlen must be nonnegative")
    return PathSubcoalgebra(quiver, quiver.all_paths(maxlen))


A_INF = "Ainf"
A_0INF = "A0inf"
C_N = "Cn"


@record(frozen=True)
class WindowedFamily:
    """A canonical family: a line window with its reach table, or a cycle.

    For the line families the tag fixes the intent (two-sided or half line);
    only the window [lo, hi] is materialized. For the cycle family the data
    is (n, s) and the construction is exact.
    """

    tag: str
    lo: int = 0
    hi: int = 0
    r: tuple[tuple[int, int], ...] = ()  # sorted (vertex, reach) pairs on the window
    n: int = 0
    s: int = 0

    @staticmethod
    def line(tag: str, r: dict[int, int]) -> "WindowedFamily":
        if not r:
            raise QuiverError("empty window")
        lo, hi = min(r), max(r)
        return WindowedFamily(tag=tag, lo=lo, hi=hi, r=tuple(sorted(r.items())))

    @staticmethod
    def cycle(n: int, s: int) -> "WindowedFamily":
        return WindowedFamily(tag=C_N, n=n, s=s)

    def size(self) -> tuple[int, int]:
        """(dimension, arrows in all basis paths) of build_family(self),
        counted without building it: with t_k = min(r(k), hi) - k, a line
        window has sum (t_k + 1) and sum t_k (t_k + 1)/2; a cycle n(s + 1)
        and n s(s + 1)/2."""
        if self.tag == C_N:
            return self.n * (self.s + 1), self.n * self.s * (self.s + 1) // 2
        ts = [min(rk, self.hi) - k for k, rk in self.r]
        return sum(ts) + len(ts), sum(t * (t + 1) // 2 for t in ts)

    def validate(self) -> list[str]:
        errs = []
        if self.tag in (A_INF, A_0INF):
            # every reader walks r in order: each window vertex once, ascending
            if [v for v, _ in self.r] != list(range(self.lo, self.hi + 1)):
                errs.append("reach table must cover every vertex of the window")
            if self.tag == A_0INF and self.lo != 0:
                errs.append("half-line window must start at 0")
            prev = None
            for v, rv in self.r:
                if rv <= v:
                    errs.append(f"reach must exceed the vertex: r({v}) = {rv}")
                if prev is not None and rv <= prev:
                    errs.append(f"reach must be strictly increasing at {v}")
                prev = rv
        elif self.tag == C_N:
            if self.n < 1:
                errs.append(f"cycle length must be >= 1, got {self.n}")
            if self.s < 1:
                errs.append(f"maximal path length must be >= 1, got {self.s}")
        else:
            errs.append(f"unknown family tag {self.tag!r}")
        return errs


def line_quiver(lo: int, hi: int) -> Quiver:
    vertices = [str(k) for k in range(lo, hi + 1)]
    arrows = [(f"a{k}", str(k), str(k + 1)) for k in range(lo, hi)]
    return Quiver(vertices, arrows)


def cycle_quiver(n: int) -> Quiver:
    vertices = [str(k) for k in range(n)]
    arrows = [(f"a{k}", str(k), str((k + 1) % n)) for k in range(n)]
    return Quiver(vertices, arrows)


def build_family(fam: WindowedFamily) -> PathSubcoalgebra:
    """Materialize a canonical family (line families truncated to the window)."""
    errs = fam.validate()
    if errs:
        raise QuiverError("; ".join(errs))
    if fam.tag == C_N:
        q = cycle_quiver(fam.n)
        basis = []
        for k in range(fam.n):
            basis.append(q.vertex_path(str(k)))
            for length in range(1, fam.s + 1):
                ids = tuple(f"a{(k + i) % fam.n}" for i in range(length))
                basis.append(q.make_path(ids))
        return PathSubcoalgebra(q, basis)
    q = line_quiver(fam.lo, fam.hi)
    basis = []
    for k, rk in fam.r:
        top = min(rk, fam.hi)
        for l in range(k, top + 1):
            if l == k:
                basis.append(q.vertex_path(str(k)))
            else:
                basis.append(q.make_path(tuple(f"a{i}" for i in range(k, l))))
    return PathSubcoalgebra(q, basis)


def direct_sum(parts: list):
    """Disjoint union of path summands, or of incidence summands, on renamed
    copies: summand i's vertices, arrows and poset elements get the prefix
    's{i}.'. An incidence sum's order is the summands' orders side by side."""
    if not all(isinstance(part, PathSubcoalgebra) for part in parts):
        from .posets import IncidenceSubcoalgebra, Poset  # posets imports this module

        if not all(isinstance(part, IncidenceSubcoalgebra) for part in parts):
            raise QuiverError("cannot mix incidence and path summands")
        elements, up, segments = [], [], []
        for i, part in enumerate(parts):
            pref, shift = f"s{i}.", len(elements)
            elements.extend(f"{pref}{x}" for x in part.poset.elements)
            up.extend(row << shift for row in part.poset._up)
            segments.extend((f"{pref}{a}", f"{pref}{b}") for a, b in part.basis_list)
        return IncidenceSubcoalgebra(Poset(elements, up), segments)
    vertices, arrows, basis = [], [], []
    for i, part in enumerate(parts):
        pref, q = f"s{i}.", part.quiver
        vertices.extend(pref + v for v in q.vertices)
        arrows.extend((pref + a, pref + q.source(a), pref + q.target(a)) for a in q.arrow_ids)
        basis.extend(
            Path(pref + p.source, pref + p.target, tuple(pref + a for a in p.arrows))
            for p in part.basis_list
        )
    return PathSubcoalgebra(Quiver(vertices, arrows), basis)
