"""Seeded random instance generators for the oracle and equivalence sweeps.

Generators mix unconstrained random instances with canonical families so
both verdicts of every decision procedure get exercised.
"""

from __future__ import annotations

import random

from .posets import IncidenceSubcoalgebra, Poset, full_incidence_coalgebra
from .quiver import (
    A_0INF,
    A_INF,
    C_N,
    PathSubcoalgebra,
    Quiver,
    WindowedFamily,
    build_family,
    direct_sum,
    full_path_coalgebra,
)


def random_quiver(rng: random.Random, max_vertices: int = 6, max_arrows: int = 8) -> Quiver:
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    na = rng.randint(0, max_arrows)
    arrows = []
    for k in range(na):
        arrows.append((f"a{k}", rng.choice(vertices), rng.choice(vertices)))
    return Quiver(vertices, arrows)


def random_acyclic_quiver(rng: random.Random, max_vertices: int = 6, max_arrows: int = 8) -> Quiver:
    nv = rng.randint(1, max_vertices)
    order = list(range(nv))
    rng.shuffle(order)
    vertices = [f"v{i}" for i in range(nv)]
    arrows = []
    if nv > 1 and rng.random() > 0.25:
        na = rng.randint(0, max_arrows)
        for k in range(na):
            i, j = sorted(rng.sample(range(nv), 2))
            arrows.append((f"a{k}", vertices[order[i]], vertices[order[j]]))
    return Quiver(vertices, arrows)


def _close_under_subpaths(quiver: Quiver, generators) -> set:
    closed = set()
    for p in generators:
        closed.update(quiver.subpaths(p))
    return closed


def random_path_subcoalgebra(
    rng: random.Random,
    max_vertices: int = 6,
    max_arrows: int = 8,
    max_basis: int = 25,
) -> PathSubcoalgebra:
    if rng.random() < 0.25:
        # canonical summands keep the positive verdicts in the sample
        parts = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                parts.append(full_path_coalgebra(Quiver(["p"], [])))
            else:
                n = rng.randint(1, 4)
                s = rng.randint(1, 2)
                parts.append(build_family(WindowedFamily.cycle(n, s)))
        coalg = direct_sum(parts)
        if coalg.dimension <= max_basis:
            return coalg
    quiver = random_quiver(rng, max_vertices, max_arrows)
    pool = []
    for v in quiver.vertices:
        pool.extend(quiver.paths_from(v, rng.randint(1, 4)))
        if len(pool) > 400:
            break
    rng.shuffle(pool)
    basis: set = set()
    for p in pool[: rng.randint(1, 6)]:
        extended = basis | _close_under_subpaths(quiver, [p])
        if len(extended) <= max_basis:
            basis = extended
    if not basis:
        basis = {quiver.vertex_path(rng.choice(quiver.vertices))}
    return PathSubcoalgebra(quiver, basis)


def random_poset(rng: random.Random, max_elements: int = 10) -> Poset:
    n = rng.randint(1, max_elements)
    elements = [f"e{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    p = rng.uniform(0.0, 0.5)
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                covers.append((elements[order[i]], elements[order[j]]))
    return Poset.from_covers(elements, covers)


def random_incidence_subcoalgebra(
    rng: random.Random, max_elements: int = 10, max_basis: int = 28
) -> IncidenceSubcoalgebra:
    poset = random_poset(rng, max_elements)
    segments = poset.all_segments()
    if len(segments) <= max_basis and rng.random() < 0.3:
        return full_incidence_coalgebra(poset)
    rng.shuffle(segments)
    basis: set = set()
    for lo, hi in segments[: rng.randint(1, 8)]:
        closure = {
            (a, b)
            for a in poset.interval(lo, hi)
            for b in poset.interval(a, hi)
        }
        if len(basis | closure) <= max_basis:
            basis |= closure
    if not basis:
        e = rng.choice(poset.elements)
        basis = {(e, e)}
    return IncidenceSubcoalgebra(poset, basis)


def random_line_family(rng: random.Random, tag: str) -> WindowedFamily:
    lo = 0 if tag == A_0INF else rng.randint(-3, 0)
    width = rng.randint(3, 6)
    if rng.random() < 0.5:
        s = rng.randint(1, 3)
        r = {v: v + s for v in range(lo, lo + width)}
    else:
        r = {}
        prev = None
        for v in range(lo, lo + width):
            low = max(v + 1, (prev + 1) if prev is not None else v + 1)
            r[v] = rng.randint(low, low + 2)
            prev = r[v]
    return WindowedFamily.line(tag, r)


def random_descriptor_multiset(rng: random.Random):
    """A random multiset of canonical summand descriptors: points, cycles, and
    line windows. Returns (finite summand list, family list, expected key)."""
    finite_parts = []
    families = []
    expected = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.3:
            finite_parts.append(full_path_coalgebra(Quiver(["p"], [])))
            expected.append(("point",))
        elif roll < 0.8:
            n = rng.randint(1, 6)
            s = rng.randint(1, 3)
            finite_parts.append(build_family(WindowedFamily.cycle(n, s)))
            expected.append((C_N, n, s))
        else:
            tag = A_INF if rng.random() < 0.5 else A_0INF
            fam = random_line_family(rng, tag)
            families.append(fam)
            expected.append((tag, tuple(rv - v for v, rv in fam.r)))
    rng.shuffle(finite_parts)
    return finite_parts, families, tuple(sorted(expected))
