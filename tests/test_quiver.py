import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcf.lincomb import LinComb, expand_slot, linear
from qcf.quiver import (
    A_0INF,
    A_INF,
    Path,
    PathSubcoalgebra,
    Quiver,
    QuiverError,
    WindowedFamily,
    build_family,
    bounded_path_coalgebra,
    cycle_quiver,
    direct_sum,
    full_path_coalgebra,
    line_quiver,
)
from qcf.posets import Poset, full_incidence_coalgebra
from qcf.rand import random_incidence_subcoalgebra, random_line_family, random_path_subcoalgebra
from qcf.scalars import Cyc


@pytest.fixture
def arrow_quiver():
    return Quiver(["u", "v"], [("a", "u", "v")])


def test_validate_accepts_closed_basis(arrow_quiver):
    coalg = full_path_coalgebra(arrow_quiver)
    assert coalg.validate() == []


def test_validate_reports_missing_endpoints(arrow_quiver):
    coalg = PathSubcoalgebra(arrow_quiver, [arrow_quiver.arrow_path("a")])
    violations = coalg.validate()
    assert len(violations) == 2  # both endpoint vertices missing


def test_validate_bounded_cycles():
    for n in (1, 2, 3):
        for s in (1, 2, 3):
            coalg = bounded_path_coalgebra(cycle_quiver(n), s)
            assert coalg.validate() == []


def test_comul_on_vertex_and_arrow(arrow_quiver):
    coalg = full_path_coalgebra(arrow_quiver)
    u = arrow_quiver.vertex_path("u")
    v = arrow_quiver.vertex_path("v")
    a = arrow_quiver.arrow_path("a")
    assert coalg.comul(u) == LinComb.basis((u, u))
    assert coalg.comul(a) == LinComb({(u, a): Cyc.one(), (a, v): Cyc.one()})
    assert coalg.counit(u).is_one()
    assert coalg.counit(a).is_zero()
    with pytest.raises(QuiverError):
        coalg.comul(Path("u", "u", ("a", "a")))


def test_comul_splits_line_paths_at_every_vertex():
    fam = WindowedFamily.line(A_INF, {k: k + 3 for k in range(0, 6)})
    coalg = build_family(fam)
    q = coalg.quiver
    p = q.make_path(("a1", "a2", "a3"))  # the path 1 -> 4
    d = coalg.comul(p)
    assert d.support_size() == 4
    for (left, right), c in d.items():
        assert c.is_one()
        assert left.target == right.source
        assert left.arrows + right.arrows == p.arrows


def test_cycle_family_dimensions():
    for n in range(1, 9):
        for s in range(1, 5):
            coalg = build_family(WindowedFamily.cycle(n, s))
            assert coalg.dimension == n * (s + 1)
            assert coalg.validate() == []


def test_line_family_window_enumeration():
    fam = WindowedFamily.line(A_INF, {k: k + 2 for k in range(0, 5)})
    coalg = build_family(fam)
    assert coalg.dimension == 12
    assert coalg.validate() == []


def test_family_invariant_violations():
    with pytest.raises(QuiverError):
        build_family(WindowedFamily.line(A_INF, {0: 0, 1: 3}))  # r(0) <= 0
    with pytest.raises(QuiverError):
        build_family(WindowedFamily.line(A_INF, {0: 3, 1: 2}))  # not increasing
    with pytest.raises(QuiverError):
        build_family(WindowedFamily.line(A_0INF, {1: 2, 2: 3}))  # must start at 0
    with pytest.raises(QuiverError):
        build_family(WindowedFamily.cycle(3, 0))
    # the table is read in order: each window vertex once, ascending
    for r in (((1, 3), (0, 2)), ((0, 2), (0, 2), (1, 3))):
        errs = WindowedFamily(tag=A_INF, lo=0, hi=1, r=r).validate()
        assert errs[0] == "reach table must cover every vertex of the window"


def _check_coalgebra_axioms(coalg):
    for p in coalg.basis_list:
        d = coalg.comul(p)
        assert expand_slot(d, 0, coalg.comul) == expand_slot(d, 1, coalg.comul)
        left = linear((y, c * coalg.counit(x)) for (x, y), c in d.items())
        right = linear((x, c * coalg.counit(y)) for (x, y), c in d.items())
        assert left == LinComb.basis(p)
        assert right == LinComb.basis(p)


def test_coassociativity_and_counit_axioms():
    rng = random.Random(11)
    cases = [
        build_family(WindowedFamily.cycle(3, 2)),
        build_family(WindowedFamily.line(A_0INF, {k: k + 2 for k in range(0, 5)})),
        full_path_coalgebra(Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])),
    ]
    cases.extend(random_path_subcoalgebra(rng, max_basis=15) for _ in range(10))
    for coalg in cases:
        _check_coalgebra_axioms(coalg)


def test_direct_sum_relabels_disjointly():
    k21 = build_family(WindowedFamily.cycle(2, 1))
    total = direct_sum([k21, k21])
    assert total.dimension == 8
    assert total.validate() == []
    assert len(total.quiver.vertices) == 4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), incidence=st.booleans(), count=st.integers(1, 3))
def test_direct_sum_validates_exactly_when_every_part_does(seed, incidence, count):
    rng = random.Random(seed)
    parts = []
    for _ in range(count):
        if incidence:
            part = random_incidence_subcoalgebra(rng, max_elements=6, max_basis=15)
            ambient = part.poset
        else:
            part = random_path_subcoalgebra(rng, max_basis=15)
            ambient = part.quiver
        if rng.random() < 0.4:
            # dropping a basis element leaves a summand that may fail validation
            part = type(part)(ambient, part.basis - {rng.choice(part.basis_list)})
        parts.append(part)
    total = direct_sum(parts)
    assert type(total) is type(parts[0])
    assert (total.validate() == []) == all(part.validate() == [] for part in parts)
    assert len(total.validate()) == sum(len(part.validate()) for part in parts)
    assert total.dimension == sum(part.dimension for part in parts)


def test_direct_sum_of_incidence_summands_orders_each_copy_by_its_covers():
    chain = full_incidence_coalgebra(Poset.from_covers("xyz", [("x", "y"), ("y", "z")]))
    total = direct_sum([chain, chain])
    assert total.poset.covers() == [
        ("s0.x", "s0.y"), ("s0.y", "s0.z"), ("s1.x", "s1.y"), ("s1.y", "s1.z")
    ]
    assert total.poset.leq("s1.x", "s1.z") and not total.poset.leq("s0.x", "s1.z")
    assert total.dimension == 12 and total.validate() == []


def test_incidence_sum_order_is_the_closure_of_the_prefixed_covers():
    rng = random.Random(0)
    for _ in range(60):
        parts = [random_incidence_subcoalgebra(rng, max_elements=6, max_basis=15)
                 for _ in range(rng.randint(1, 3))]
        parts.append(direct_sum(parts))  # a sum taken as a summand
        rng.shuffle(parts)
        elements, covers = [], []
        for i, part in enumerate(parts):
            pref = f"s{i}."
            elements.extend(pref + x for x in part.poset.elements)
            covers.extend((pref + a, pref + b) for a, b in part.poset.covers())
        expected = Poset.from_covers(elements, covers)
        poset = direct_sum(parts).poset
        assert poset.elements == expected.elements
        assert poset._up == expected._up
        assert poset.covers() == expected.covers()
        assert poset.all_segments() == expected.all_segments()


def test_direct_sum_refuses_mixed_summands():
    point = full_path_coalgebra(Quiver(["p"], []))
    chain = full_incidence_coalgebra(Poset.from_covers("xy", [("x", "y")]))
    with pytest.raises(QuiverError, match="cannot mix incidence and path summands"):
        direct_sum([chain, point])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), tag=st.sampled_from([A_INF, A_0INF]))
def test_family_size_counts_the_built_basis(seed, tag):
    rng = random.Random(seed)
    for fam in (random_line_family(rng, tag), WindowedFamily.cycle(rng.randint(1, 6), rng.randint(1, 4))):
        built = build_family(fam)
        assert fam.size() == (built.dimension, sum(p.length for p in built.basis_list))


def test_line_and_cycle_quiver_shapes():
    line = line_quiver(-2, 3)
    assert len(line.vertices) == 6 and len(line.arrow_ids) == 5
    cyc = cycle_quiver(4)
    assert all(cyc.target(f"a{k}") == str((k + 1) % 4) for k in range(4))


def test_full_path_coalgebra_requires_acyclic():
    with pytest.raises(QuiverError):
        full_path_coalgebra(cycle_quiver(2))


def test_is_acyclic_agrees_with_a_path_of_every_vertex_count():
    # a quiver on n vertices is cyclic exactly when it has a path of length n
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        vertices = [f"v{i}" for i in range(n)]
        arrows = [(f"a{k}", rng.choice(vertices), rng.choice(vertices))
                  for k in range(rng.randint(0, 2 * n))]
        quiver = Quiver(vertices, arrows)
        longest = max(p.length for v in vertices for p in quiver.paths_from(v, n))
        assert quiver.is_acyclic() == (longest < n)
    chain = line_quiver(0, 4999)
    assert chain.is_acyclic() and not cycle_quiver(5000).is_acyclic()
