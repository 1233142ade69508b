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
        state: dict[str, int] = {}

        def visit(v: str) -> bool:
            state[v] = 1
            for aid in self._out[v]:
                w = self.target(aid)
                s = state.get(w, 0)
                if s == 1:
                    return False
                if s == 0 and not visit(w):
                    return False
            state[v] = 2
            return True

        return all(visit(v) for v in self.vertices if state.get(v, 0) == 0)

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

    def contains_vertex(self, v: str) -> bool:
        return Path(v, v, ()) in self.basis

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

    def coradical_degree(self, p: Path) -> int:
        return p.length

    def grouplikes(self) -> list[str]:
        return self.vertices()

    def skew_primitive_count(self, v: str, w: str) -> int:
        """Number of basis arrows from v to w."""
        return sum(
            1
            for p in self.basis
            if p.length == 1 and p.source == v and p.target == w
        )

    def injective_envelope(self, v: str, side: str) -> list[Path]:
        """Basis of the injective envelope of the simple at v: paths ending
        (left) or starting (right) at v."""
        if not self.contains_vertex(v):
            raise QuiverError(f"vertex {v!r} is not in the coalgebra")
        if side == "left":
            sel = [p for p in self.basis_list if p.target == v]
        elif side == "right":
            sel = [p for p in self.basis_list if p.source == v]
        else:
            raise QuiverError(f"side must be 'left' or 'right', got {side!r}")
        return sel


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

    def r_map(self) -> dict[int, int]:
        return dict(self.r)

    def validate(self) -> list[str]:
        errs = []
        if self.tag in (A_INF, A_0INF):
            rm = self.r_map()
            if sorted(rm) != list(range(self.lo, self.hi + 1)):
                errs.append("reach table must cover every vertex of the window")
            if self.tag == A_0INF and self.lo != 0:
                errs.append("half-line window must start at 0")
            prev = None
            for v in range(self.lo, self.hi + 1):
                rv = rm.get(v)
                if rv is None:
                    continue
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
    rm = fam.r_map()
    basis = []
    for k in range(fam.lo, fam.hi + 1):
        top = min(rm[k], fam.hi)
        for l in range(k, top + 1):
            if l == k:
                basis.append(q.vertex_path(str(k)))
            else:
                basis.append(q.make_path(tuple(f"a{i}" for i in range(k, l))))
    return PathSubcoalgebra(q, basis)


def relabel(coalg: PathSubcoalgebra, prefix: str) -> PathSubcoalgebra:
    q = coalg.quiver
    new_q = Quiver(
        [prefix + v for v in q.vertices],
        [(prefix + a, prefix + q.source(a), prefix + q.target(a)) for a in q.arrow_ids],
    )
    new_basis = [
        Path(prefix + p.source, prefix + p.target, tuple(prefix + a for a in p.arrows))
        for p in coalg.basis_list
    ]
    return PathSubcoalgebra(new_q, new_basis)


def direct_sum(parts: list[PathSubcoalgebra]) -> PathSubcoalgebra:
    """Disjoint union on relabeled copies; summand i gets prefix 's{i}.'."""
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    basis: list[Path] = []
    for i, part in enumerate(parts):
        pref = f"s{i}."
        rel = relabel(part, pref)
        vertices.extend(rel.quiver.vertices)
        arrows.extend(
            (a, rel.quiver.source(a), rel.quiver.target(a)) for a in rel.quiver.arrow_ids
        )
        basis.extend(rel.basis_list)
    return PathSubcoalgebra(Quiver(vertices, arrows), basis)
