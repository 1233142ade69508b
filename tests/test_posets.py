import copy
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import qcf.cli
import qcf.dsl
import qcf.lincomb
import qcf.posets
import qcf.quiver
import qcf.rand
from qcf.posets import (
    IncidenceSubcoalgebra,
    Poset,
    PosetError,
    _hasse_with_names,
    _morphism_failure,
    _walk_images,
    embed,
    full_incidence_coalgebra,
    hasse_path_count,
    tensor_iso_check,
)
from qcf.lincomb import LinComb, expand_slot, linear, map_linear, pair_tensor
from qcf.rand import random_incidence_subcoalgebra, random_poset
from qcf.scalars import Cyc

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def chain3():
    return Poset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])


@pytest.fixture
def diamond():
    return Poset.from_covers(
        ["b", "m1", "m2", "t"], [("b", "m1"), ("b", "m2"), ("m1", "t"), ("m2", "t")]
    )


def test_partial_order_validation():
    # up masks: bit j of row i is set when elements[i] <= elements[j]
    with pytest.raises(PosetError):
        Poset(["x", "y"], [0b11, 0b11])
    chain = Poset(["x", "y", "z"], [0b111, 0b110, 0b100])
    assert chain._down == [0b001, 0b011, 0b111]
    assert chain.covers() == [("x", "y"), ("y", "z")]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Poset.from_covers(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")]),
         "antisymmetry fails between 'x' and 'y'"),
        (lambda: Poset.from_covers(["a", "b"], []).leq("a", "c"), "unknown element 'c'"),
        (lambda: Poset.from_covers(["a", "b"], [("a", "a")]),
         "cover ('a', 'a') relates an element to itself"),
        (lambda: Poset.from_covers(["a", "a"], []), "duplicate element"),
    ],
    ids=["cycle", "unknown-element", "self-cover", "duplicate"],
)
def test_poset_error_messages(build, message):
    with pytest.raises(PosetError) as exc:
        build()
    assert str(exc.value) == message


def _closure(elements, covers):
    # the reflexive-transitive closure as a set of pairs, by repeated composition
    leq = {(a, a) for a in elements} | set(covers)
    while True:
        longer = {(a, d) for (a, b) in leq for (c, d) in leq if b == c} - leq
        if not longer:
            return leq
        leq |= longer


def _assert_matches_pairs(poset, leq_pairs):
    # leq, interval, covers and all_segments against their definitions
    elements = poset.elements
    for a in elements:
        for b in elements:
            assert poset.leq(a, b) == ((a, b) in leq_pairs)
            assert poset.interval(a, b) == [
                z for z in elements if (a, z) in leq_pairs and (z, b) in leq_pairs
            ]
    assert poset.covers() == [
        (a, b)
        for a in elements
        for b in elements
        if a != b
        and (a, b) in leq_pairs
        and not any(z not in (a, b) and (a, z) in leq_pairs and (z, b) in leq_pairs for z in elements)
    ]
    assert poset.all_segments() == [(a, b) for a in elements for b in elements if (a, b) in leq_pairs]
    assert poset.is_equality_order() == all(a == b for a, b in leq_pairs)


def test_mask_poset_matches_brute_force_definitions(monkeypatch):
    built = []

    class Recorder:
        @staticmethod
        def from_covers(elements, covers):
            built.append((list(elements), list(covers)))
            return Poset.from_covers(elements, covers)

    monkeypatch.setattr(qcf.rand, "Poset", Recorder)
    posets = []
    for seed in range(240):
        poset = random_poset(random.Random(seed))
        elements, covers = built[-1]
        leq_pairs = _closure(elements, covers)
        _assert_matches_pairs(poset, leq_pairs)
        random.Random(seed).shuffle(elements)  # element order is not name order
        _assert_matches_pairs(Poset.from_covers(elements, covers), leq_pairs)
        posets.append((poset, leq_pairs))
    for (x, x_pairs), (y, y_pairs) in zip(posets[:40], posets[40:80]):
        if len(x.elements) * len(y.elements) > 36:
            continue
        product_pairs = {
            ((a, b), (c, d))
            for (a, c) in x_pairs
            for (b, d) in y_pairs
        }
        _assert_matches_pairs(x.product(y), product_pairs)


def test_validate_matches_brute_force_on_random_segment_sets():
    rng = random.Random(5)
    for _ in range(100):
        poset = random_poset(rng, max_elements=7)
        segments = poset.all_segments()
        basis = set(rng.sample(segments, rng.randint(1, len(segments))))
        expected = sorted({
            f"segment ({a!r}, {b!r}) lies inside ({lo!r}, {hi!r}) but is missing"
            for lo, hi in basis
            for a in poset.elements
            for b in poset.elements
            if poset.leq(lo, a) and poset.leq(a, b) and poset.leq(b, hi) and (a, b) not in basis
        })
        assert IncidenceSubcoalgebra(poset, basis).validate() == expected


def test_validate_full_chain_is_closed(chain3):
    assert full_incidence_coalgebra(chain3).validate() == []


def test_validate_reports_missing_subintervals(chain3):
    coalg = IncidenceSubcoalgebra(chain3, [("0", "0"), ("2", "2"), ("0", "2")])
    violations = coalg.validate()
    assert len(violations) == 3  # (0,1), (1,1), (1,2)


def test_comul_and_counit(chain3):
    coalg = full_incidence_coalgebra(chain3)
    assert coalg.comul(("0", "0")) == LinComb.basis((("0", "0"), ("0", "0")))
    two = coalg.comul(("0", "1"))
    assert two == LinComb(
        {
            (("0", "0"), ("0", "1")): Cyc.one(),
            (("0", "1"), ("1", "1")): Cyc.one(),
        }
    )
    assert coalg.comul(("0", "2")).support_size() == 3
    assert coalg.counit(("1", "1")).is_one()
    assert coalg.counit(("0", "2")).is_zero()
    with pytest.raises(PosetError):
        coalg.comul(("2", "0"))


def test_coalgebra_axioms_exhaustive(chain3, diamond):
    rng = random.Random(3)
    cases = [full_incidence_coalgebra(chain3), full_incidence_coalgebra(diamond)]
    cases.extend(random_incidence_subcoalgebra(rng, max_elements=7) for _ in range(10))
    for coalg in cases:
        for seg in coalg.basis_list:
            d = coalg.comul(seg)
            assert expand_slot(d, 0, coalg.comul) == expand_slot(d, 1, coalg.comul)
            left = linear((y, c * coalg.counit(x)) for (x, y), c in d.items())
            right = linear((x, c * coalg.counit(y)) for (x, y), c in d.items())
            assert left == LinComb.basis(seg) == right


def test_hasse_quiver_shapes(chain3, diamond):
    def hasse(poset):
        return embed(full_incidence_coalgebra(poset)).quiver

    assert hasse(Poset.from_covers(["a", "b", "c"], [])).arrow_ids == ()
    assert len(hasse(chain3).arrow_ids) == 2  # 0 < 2 is not a cover
    assert len(hasse(diamond).arrow_ids) == 4


def test_embed_chain_gives_single_paths(chain3):
    result = embed(full_incidence_coalgebra(chain3))
    assert result.morphism_ok and result.injective
    assert result.single_path_image
    assert result.phi[("0", "2")].support_size() == 1
    (path, coeff), = result.phi[("0", "2")].items()
    assert path.length == 2 and coeff.is_one()


def test_embed_diamond_needs_path_sums(diamond):
    result = embed(full_incidence_coalgebra(diamond))
    assert result.morphism_ok and result.injective
    assert result.phi[("b", "t")].support_size() == 2
    assert not result.single_path_image
    for seg in (("b", "b"), ("m1", "m1")):
        (path, coeff), = result.phi[seg].items()
        assert path.is_vertex() and coeff.is_one()


def test_embed_rejects_basis_not_closed_under_subintervals():
    chain = Poset.from_covers("abc", [("a", "b"), ("b", "c")])
    coalg = IncidenceSubcoalgebra(chain, [("a", "c"), ("a", "a"), ("c", "c")])
    with pytest.raises(PosetError, match=r"segment \('a', 'b'\) lies inside \('a', 'c'\)"):
        embed(coalg)


def test_embed_names_the_first_missing_subinterval():
    # on a basis not closed under subintervals, embed raises the PosetError
    # of the first segment in basis order with a missing subinterval, naming
    # the first missing one, and fails no segment before it
    rng = random.Random(67)
    refused = 0
    for _ in range(300):
        poset = random_poset(rng, max_elements=8)
        segments = poset.all_segments()
        coalg = IncidenceSubcoalgebra(poset, rng.sample(segments, rng.randint(1, len(segments))))
        expected = next(
            (
                f"segment {missing!r} lies inside {seg!r} but is missing"
                for seg in coalg.basis_list
                for w in poset.interval(*seg)
                for missing in ((seg[0], w), (w, seg[1]))
                if missing not in coalg.basis
            ),
            None,
        )
        if expected is None:
            assert embed(coalg).morphism_ok
            continue
        with pytest.raises(PosetError) as err:
            embed(coalg)
        assert str(err.value) == expected
        refused += 1
    assert refused > 100


def _saturated_chain_count(poset, x, y):
    # chains x = z0 < z1 < ... < y where each step is a covering pair
    if x == y:
        return 1
    total = 0
    for z in poset.elements:
        if (
            x != z
            and poset.leq(x, z)
            and poset.leq(z, y)
            and not any(x != w != z and poset.leq(x, w) and poset.leq(w, z) for w in poset.elements)
        ):
            total += _saturated_chain_count(poset, z, y)
    return total


def test_embed_random_posets_image_sizes_count_saturated_chains():
    rng = random.Random(21)
    for _ in range(15):
        coalg = random_incidence_subcoalgebra(rng, max_elements=7)
        result = embed(coalg)
        assert result.morphism_ok, result.failure
        assert result.injective
        for seg in coalg.basis_list:
            expected = _saturated_chain_count(coalg.poset, *seg)
            assert result.phi[seg].support_size() == expected
        assert result.single_path_image == all(
            _saturated_chain_count(coalg.poset, *seg) == 1 for seg in coalg.basis_list
        )


def test_product_poset_is_componentwise(chain3):
    two = Poset.from_covers(["0", "1"], [("0", "1")])
    prod = two.product(two)
    assert len(prod.elements) == 4
    assert prod.leq(("0", "0"), ("1", "1"))
    assert not prod.leq(("0", "1"), ("1", "0"))
    grid = chain3.product(two)
    assert len(grid.elements) == 6


def test_tensor_iso_check_examples(chain3):
    point = Poset.from_covers(["*"], [])
    assert tensor_iso_check(point, point).ok
    two = Poset.from_covers(["0", "1"], [("0", "1")])
    r = tensor_iso_check(two, two)
    assert r.ok and r.product_elements == 4
    r = tensor_iso_check(chain3, two)
    assert r.ok and r.product_elements == 6


def test_tensor_iso_check_comultiplies_each_segment_once(monkeypatch):
    calls = 0
    comul = IncidenceSubcoalgebra.comul

    def counted(self, seg):
        nonlocal calls
        calls += 1
        return comul(self, seg)

    monkeypatch.setattr(IncidenceSubcoalgebra, "comul", counted)
    chain4 = Poset.from_covers(["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")])
    r = tensor_iso_check(chain4, chain4)
    assert r.ok and r.checked_segments == 100
    assert calls == 300  # one comultiplication per segment in each of the three coalgebras


def test_tensor_iso_check_reports_the_first_mismatch(monkeypatch, chain3):
    # broken on the product's segments only, whose ends are pairs
    two = Poset.from_covers(["0", "1"], [("0", "1")])
    comul, counit = IncidenceSubcoalgebra.comul, IncidenceSubcoalgebra.counit
    monkeypatch.setattr(
        IncidenceSubcoalgebra, "comul",
        lambda self, seg: LinComb() if isinstance(seg[0], tuple) and seg[0] != seg[1] else comul(self, seg),
    )
    r = tensor_iso_check(chain3, two)
    assert (r.ok, r.product_elements, r.checked_segments) == (False, 6, 6)  # the vertices pass
    assert r.failure.startswith("comultiplication mismatch at ")
    monkeypatch.setattr(
        IncidenceSubcoalgebra, "counit",
        lambda self, seg: Cyc.zero() if isinstance(seg[0], tuple) else counit(self, seg),
    )
    r = tensor_iso_check(chain3, two)
    assert (r.ok, r.checked_segments) == (False, 0)
    assert r.failure == "counit mismatch at (('0', '0'), ('0', '0'))"


def test_tensor_iso_check_random_pairs():
    rng = random.Random(99)
    done = 0
    while done < 6:
        x = random_poset(rng, max_elements=5)
        y = random_poset(rng, max_elements=5)
        if len(x.elements) * len(y.elements) > 30:
            continue
        assert tensor_iso_check(x, y).ok
        done += 1


def test_hasse_path_count_matches_the_images():
    rng = random.Random(8)
    for _ in range(30):
        coalg = random_incidence_subcoalgebra(rng, max_elements=7)
        images = embed(coalg).phi.values()
        assert hasse_path_count(coalg) == sum(v.support_size() for v in images)
        assert hasse_path_count(coalg) == sum(
            _saturated_chain_count(coalg.poset, *seg) for seg in coalg.basis_list
        )


def _lincomb_morphism_failure(coalg, quiver, phi):
    # the check as it was first written, on LinCombs of Paths: the oracle
    for seg in coalg.basis_list:
        lhs = linear(
            ((left, right), c) for p, c in phi[seg].items() for left, right in quiver.splits(p)
        )
        rhs = map_linear(
            coalg.comul(seg),
            lambda pair: pair_tensor(phi[pair[0]], phi[pair[1]]),
        )
        if lhs != rhs:
            return f"comultiplication does not commute at segment {seg!r}"
        eps_g = Cyc.zero()
        for p, c in phi[seg].items():
            if p.is_vertex():
                eps_g = eps_g + c
        if not (coalg.counit(seg) - eps_g).is_zero():
            return f"counit does not commute at segment {seg!r}"
    return None


def _numbering(phi):
    # hand-built images numbered by key, a path's arrow tuple or, for a
    # vertex, its source, the ids handed out in order of first appearance,
    # every path with coefficient 1: ({key: id}, per segment its row)
    index = {}
    rows = {}
    for seg, image in phi.items():
        assert all(c.is_one() for _, c in image.items())
        rows[seg] = {index.setdefault(p.arrows or p.source, len(index)): 1 for p in image.labels()}
    return index, rows


def _key_links(index, rows, quiver):
    # the numbering the morphism check reads, (rows, init, tail, length),
    # with each id's links derived from its key by slicing: the ids of the
    # key without its last and without its first arrow, -2 when that is no
    # key, and -1 for a vertex; a vertex's key is its name, never a tuple
    n = len(index)
    init, tail, length = [-1] * n, [-1] * n, [0] * n
    for key, a in index.items():
        if isinstance(key, tuple):
            init[a] = index.get(key[:-1] or quiver.source(key[0]), -2)
            tail[a] = index.get(key[1:] or quiver.target(key[-1]), -2)
            length[a] = len(key)
    return rows, init, tail, length


def _linked(phi, quiver):
    return _key_links(*_numbering(phi), quiver)


def _walk_index(runs, rows):
    # the walk's ids keyed as _numbering keys them, read off its runs
    return {
        seq or run.source: a
        for seg, run in runs.items()
        for a, seq in zip(rows[seg], run.seqs)
    }


def _corruptions(phi, rng, quiver):
    """(kind, phi with one segment's image changed): a path dropped, a path
    of another segment's image added ("extra"), the image replaced by
    another segment's image ("replace"), or, for a segment whose image is
    one arrow that lies on a longer image path, that arrow dropped. The last
    passes its own segment, so the longer paths meet a prefix or suffix that
    is no image path. Also "swap", with two images changed: the path
    exchanged with one of the same length from the next segment's image that
    has one, so the rows keep disjoint supports and their lengths; and, when
    a vertex of the quiver lies in no image, "vertex_moved" for a segment
    whose image is one arrow and each of its ends: the image replaced by
    that end's vertex, and the end's own image by the spare vertex, which
    passes at the end, so only the split of a path at that vertex, in some
    longer segment, shows it lies in the wrong image. "swap" and
    "vertex_moved" draw nothing from rng. "extra" and "replace" give two
    images a shared path, which the morphism check refuses with ValueError;
    every other kind keeps the images disjoint. Every coefficient stays 1."""
    segments = list(phi)
    long_arrows = {a for v in phi.values() for p in v.labels() if p.length > 1 for a in p.arrows}
    used = {p.source for v in phi.values() for p in v.labels()}
    spare = [LinComb.basis(quiver.vertex_path(v)) for v in quiver.vertices if v not in used]
    for i, seg in enumerate(segments):
        terms = dict(phi[seg].items())
        path = rng.choice(sorted(terms))
        yield "drop", {**phi, seg: LinComb({p: c for p, c in terms.items() if p != path})}
        others = [s for s in segments if s != seg]
        if others:
            other = rng.choice(others)
            extra = rng.choice(sorted(phi[other].labels()))
            yield "extra", {**phi, seg: LinComb({**terms, extra: Cyc.one()})}
            yield "replace", {**phi, seg: phi[other]}
        if len(terms) == 1 and path.length == 1 and path.arrows[0] in long_arrows:
            yield "drop_inner_arrow", {**phi, seg: LinComb()}
        if len(terms) == 1 and path.length == 1 and spare:
            for end in seg:
                yield "vertex_moved", {**phi, seg: phi[end, end], (end, end): spare[0]}
        swap = next(
            (
                (other, q)
                for other in segments[i + 1:] + segments[:i]
                for q in sorted(phi[other].labels())
                if q.length == path.length
            ),
            None,
        )
        if swap is not None:
            other, q = swap
            yield "swap", {
                **phi,
                seg: LinComb({q if p == path else p: c for p, c in terms.items()}),
                other: LinComb({path if p == q else p: c for p, c in phi[other].items()}),
            }


# the corruptions that put one path into two images
SHARED = {"extra", "replace"}


def _boolean_lattice3():
    return Poset.from_covers(
        range(8), [(i, i | 1 << b) for i in range(8) for b in range(3) if not i >> b & 1]
    )


def _spare_vertex_case():
    # the vertex q lies in no basis segment, and the covers are named so
    # that moving a vertex into the cover (a, c), (c, d) or (z, b) is found
    # first at another cover, one that sorts before it and meets that
    # vertex at the other end of a split
    poset = Poset.from_covers("abcdqz", [("a", "c"), ("b", "c"), ("c", "d"), ("z", "b")])
    return IncidenceSubcoalgebra(poset, [s for s in poset.all_segments() if "q" not in s])


def test_morphism_check_agrees_with_the_lincomb_oracle(diamond):
    rng = random.Random(13)
    cases = [full_incidence_coalgebra(diamond), full_incidence_coalgebra(_boolean_lattice3())]
    cases.extend(random_incidence_subcoalgebra(rng, max_elements=6) for _ in range(12))
    cases.append(_spare_vertex_case())
    verdicts = Counter()
    failing_kinds = Counter()
    refused = Counter()
    for coalg in cases:
        result = embed(coalg)
        quiver, phi = result.quiver, result.phi
        assert _morphism_failure(coalg, _linked(phi, quiver)) is None
        assert _lincomb_morphism_failure(coalg, quiver, phi) is None
        for kind, bad in _corruptions(phi, rng, quiver):
            if kind in SHARED:
                with pytest.raises(ValueError, match="share a path"):
                    _morphism_failure(coalg, _linked(bad, quiver))
                refused[kind] += 1
                continue
            failure = _morphism_failure(coalg, _linked(bad, quiver))
            assert failure == _lincomb_morphism_failure(coalg, quiver, bad)
            verdicts[failure.split(" does")[0] if failure else None] += 1
            if failure is not None:
                failing_kinds[kind] += 1
                if kind == "drop_inner_arrow":
                    # found at a longer segment, whose image path has no image prefix or suffix
                    (seg,) = [s for s in bad if bad[s] != phi[s]]
                    assert not failure.endswith(f"at segment {seg!r}")
    # a morphism is left by emptying the image of a cover inside no other
    # basis segment, as both sides at it are 0, and by swapping the images
    # of two vertices that lie in no longer basis segment
    assert verdicts["comultiplication"] > 100
    assert verdicts["counit"] > 10
    assert verdicts[None] > 0
    assert set(failing_kinds) == {"drop", "drop_inner_arrow", "swap", "vertex_moved"}
    assert set(refused) == SHARED


def _morphism_cases(rng, count):
    yield full_incidence_coalgebra(_boolean_lattice3())
    for _ in range(count):
        yield random_incidence_subcoalgebra(rng, max_elements=6)


def test_morphism_check_leaves_the_numbering_unchanged():
    rng = random.Random(23)
    for coalg in _morphism_cases(rng, 4):
        quiver, names = _hasse_with_names(coalg.poset)
        numbering = _walk_images(coalg, quiver, names)[1]
        before = copy.deepcopy(numbering)
        assert _morphism_failure(coalg, numbering) is None
        assert numbering == before
        phi = embed(coalg).phi
        for kind, bad in _corruptions(phi, rng, quiver):
            numbering = _linked(bad, quiver)
            before = copy.deepcopy(numbering)
            if kind in SHARED:
                with pytest.raises(ValueError):
                    _morphism_failure(coalg, numbering)
            else:
                failure = _morphism_failure(coalg, numbering)
                assert failure == _lincomb_morphism_failure(coalg, quiver, bad)
            assert numbering == before


def test_morphism_check_fails_at_a_suffix_that_is_no_image_path():
    # the image of (0, 0) is the arrow a: u -> v, whose suffix v is no image
    # path, so its tail link is -2 and the split (a, v) matches no term of
    # (phi (x) phi) Delta
    point = full_incidence_coalgebra(Poset.from_covers(["0"], []))
    quiver = qcf.quiver.Quiver(["u", "v"], [("a", "u", "v")])
    numbering = _key_links({("a",): 0}, {("0", "0"): {0: 1}}, quiver)
    assert numbering[1:] == ([-2], [-2], [1])
    assert _morphism_failure(point, numbering) == (
        "comultiplication does not commute at segment ('0', '0')"
    )


def test_morphism_check_fails_at_a_prefix_that_is_no_image_path():
    # on the chain 0 < 1, (0, 1) maps to the arrow a: u -> v and (0, 0),
    # (1, 1) to the vertices w, v. The prefix u of a is no image path, so
    # its init link is -2; read as an index, -2 would be the id of w, whose
    # home (0, 0) is just what the split (u, a) needs
    chain = full_incidence_coalgebra(Poset.from_covers(["0", "1"], [("0", "1")]))
    quiver = qcf.quiver.Quiver(["u", "w", "v"], [("a", "u", "v")])
    numbering = _key_links(
        {("a",): 0, "w": 1, "v": 2},
        {("0", "0"): {1: 1}, ("0", "1"): {0: 1}, ("1", "1"): {2: 1}},
        quiver,
    )
    assert numbering[1][0] == -2
    assert _morphism_failure(chain, numbering) == (
        "comultiplication does not commute at segment ('0', '1')"
    )


def test_morphism_check_fails_at_a_path_that_is_not_composable(diamond):
    # the image of (b, t) is b<m1 m1<t and the arrow tuple b<m1 m2<t, which
    # is no path: its prefix, suffix and ends lie in the right rows and the
    # term count agrees, so only the split between its arrows, where m1 is
    # not m2, tells it from b<m2 m2<t. Of the soundness tests, only
    # tail(init) = init(tail) fails it
    coalg = full_incidence_coalgebra(diamond)
    quiver, names = _hasse_with_names(diamond)
    runs, (rows, *_) = _walk_images(coalg, quiver, names)
    index = _walk_index(runs, rows)
    index[("b<m1", "m2<t")] = index.pop(("b<m2", "m2<t"))
    assert _morphism_failure(coalg, _key_links(index, rows, quiver)) == (
        "comultiplication does not commute at segment ('b', 't')"
    )


def test_morphism_check_fails_where_a_prefix_lies_in_no_row():
    # on full of the chain a < b < c, with the id of (a<b,) taken out of its
    # row, the prefix of a<b b<c has no home: splitting that path fails to
    # unpack it, a TypeError, while the check calls a<b b<c unsound and
    # fails its row. The empty row of (a, b) itself passes, as both sides
    # at it are 0
    coalg = full_incidence_coalgebra(Poset.from_covers("abc", [("a", "b"), ("b", "c")]))
    quiver, names = _hasse_with_names(coalg.poset)
    rows, init, tail, length = _walk_images(coalg, quiver, names)[1]
    rows = {**rows, ("a", "b"): {}}
    with pytest.raises(TypeError):
        _per_split_morphism_failure(coalg, (rows, init, tail, length))
    assert _morphism_failure(coalg, (rows, init, tail, length)) == (
        "comultiplication does not commute at segment ('a', 'c')"
    )


def test_path_numbering_keeps_its_ids():
    # the walk hands out the ids of each lower end consecutively, and of
    # each segment too, in the order of its arrow tuples, every id in one
    # row; _numbering of each corruption gives one id per distinct path, in
    # order of first appearance
    def reference(phi):
        index = {}
        return {
            seg: {
                index.setdefault((p.source, p.arrows), len(index)): c.rational_value()
                for p, c in image.items()
            }
            for seg, image in phi.items()
        }

    def consecutive(ids):
        ids = sorted(ids)
        return ids == list(range(ids[0], ids[0] + len(ids)))

    rng = random.Random(29)
    for coalg in _morphism_cases(rng, 6):
        quiver, names = _hasse_with_names(coalg.poset)
        runs, (rows, init, tail, length) = _walk_images(coalg, quiver, names)
        assert sorted(a for row in rows.values() for a in row) == list(range(len(init)))
        by_lower = {}
        for seg, row in rows.items():
            assert consecutive(row)
            seq = dict(zip(row, runs[seg].seqs))
            assert [seq[a] for a in sorted(row)] == sorted(runs[seg].seqs)
            by_lower.setdefault(seg[0], []).extend(row)
        assert all(consecutive(ids) for ids in by_lower.values())
        phi = embed(coalg).phi
        for _, bad in _corruptions(phi, rng, quiver):
            index, rows = _numbering(bad)
            assert rows == reference(bad)
            assert len(index) == len({p for image in bad.values() for p in image.labels()})


def test_morphism_check_makes_no_comultiplication(monkeypatch):
    # the check counts the terms of (phi (x) phi) Delta from the rows over
    # each interval, and never builds Delta(seg) itself
    def refused(self, seg):
        raise AssertionError("IncidenceSubcoalgebra.comul called")

    monkeypatch.setattr(IncidenceSubcoalgebra, "comul", refused)
    rng = random.Random(31)
    verdicts = Counter()
    for coalg in _morphism_cases(rng, 6):
        result = embed(coalg)
        assert result.morphism_ok, result.failure
        for kind, bad in _corruptions(result.phi, rng, result.quiver):
            if kind not in SHARED:
                failure = _morphism_failure(coalg, _linked(bad, result.quiver))
                verdicts[failure is None] += 1
    assert verdicts[False] > 50


def _pentagon():
    # N5 with names against the cover order: the chain e < b < c < a of
    # length 3 comes first by name, the chain e < d < a of length 2 by length
    return Poset.from_covers("edcba", [("e", "b"), ("b", "c"), ("c", "a"), ("e", "d"), ("d", "a")])


def _walk_cases(rng, count):
    yield full_incidence_coalgebra(_pentagon())
    yield full_incidence_coalgebra(_pentagon().product(_pentagon()))
    yield full_incidence_coalgebra(_boolean_lattice3())
    for _ in range(count):
        yield random_incidence_subcoalgebra(rng, max_elements=7)


def _report_order(paths):
    return sorted(paths, key=lambda p: (len(p.arrows), p.source, p.arrows))


def test_walk_gives_the_images_in_report_order():
    rng = random.Random(37)
    mixed = Counter()
    for coalg in _walk_cases(rng, 40):
        result = embed(coalg)
        names = _hasse_with_names(coalg.poset)[1]
        assert list(result.images) == list(coalg.basis_list)
        for (lo, hi), paths in result.images.items():
            assert paths == _report_order(paths)
            assert {(p.source, p.target) for p in paths} == {(names[lo], names[hi])}
            if len({p.length for p in paths}) > 1:
                mixed["lengths"] += 1
                mixed["name order differs"] += sorted(paths, key=lambda p: p.arrows) != paths
        one = Cyc.one()
        assert result.phi == {
            seg: linear((p, one) for p in paths) for seg, paths in result.images.items()
        }
    # segments whose saturated chains differ in length, in some of which
    # sorting by arrow names alone would give another order
    assert mixed["lengths"] > 20
    assert mixed["name order differs"] > 10


def test_pentagon_images_put_the_shorter_chain_first():
    result = embed(full_incidence_coalgebra(_pentagon()))
    assert [p.arrows for p in result.images[("e", "a")]] == [
        ("e<d", "d<a"),
        ("e<b", "b<c", "c<a"),
    ]
    assert not result.single_path_image and result.morphism_ok and result.injective


def test_walk_numbers_the_paths_as_number_paths_keys_them():
    # the walk's numbering, keyed by its runs' arrow tuples, names the same
    # paths per segment as numbering phi with _numbering does, and the
    # morphism check passes on either
    rng = random.Random(41)
    for coalg in _walk_cases(rng, 30):
        quiver, names = _hasse_with_names(coalg.poset)
        runs, numbering = _walk_images(coalg, quiver, names)
        rows, init, tail, length = numbering
        index = _walk_index(runs, rows)
        phi = embed(coalg).phi
        ref_index, ref_rows = _numbering(phi)
        assert len(index) == len(init) == len(tail) == len(length)
        assert sorted(index.values()) == list(range(len(index)))
        assert index.keys() == ref_index.keys()
        key = {a: k for k, a in index.items()}
        ref_key = {a: k for k, a in ref_index.items()}
        assert rows.keys() == ref_rows.keys() == runs.keys()
        for seg, row in rows.items():
            # one id per image path, all with coefficient 1
            assert len(row) == len(runs[seg].seqs)
            assert set(row.values()) == {1}
            assert {key[a] for a in row} == {ref_key[a] for a in ref_rows[seg]}
        assert _morphism_failure(coalg, numbering) is None
        assert _morphism_failure(coalg, _key_links(ref_index, ref_rows, quiver)) is None


def _pentagon_golden_coalgebras():
    # Pentagon, Kite and Lower: saturated chains of lengths 2 and 3
    doc = qcf.dsl.parse((GOLDEN / "pentagon.qcf").read_text())[0]
    return [value.finite for value in qcf.cli.resolve(doc, GOLDEN)[0].coalgebras.values()]


def test_walk_hands_over_the_links_of_its_keys():
    # the walk's init, tail and length are what slicing its own arrow
    # tuples gives, every link the very int object of its id, and each run
    # comes in (length, arrows) order
    rng = random.Random(61)
    b4 = Poset.from_covers(
        range(16), [(i, i | 1 << b) for i in range(16) for b in range(4) if not i >> b & 1]
    )
    cases = [*_walk_cases(rng, 10), full_incidence_coalgebra(b4), *_pentagon_golden_coalgebras()]
    cases += [full_incidence_coalgebra(random_poset(rng, max_elements=12)) for _ in range(300)]
    mixed = ids_checked = 0
    for coalg in cases:
        quiver, names = _hasse_with_names(coalg.poset)
        runs, numbering = _walk_images(coalg, quiver, names)
        rows, init, tail, _ = numbering
        assert numbering == _key_links(_walk_index(runs, rows), rows, quiver)
        ids = {a: a for row in rows.values() for a in row}
        assert all(a is ids[a] for a in init + tail if a >= 0)
        ids_checked += len(ids)
        for run in runs.values():
            assert run.seqs == sorted(run.seqs, key=lambda seq: (len(seq), seq))
            mixed += len({len(seq) for seq in run.seqs}) > 1
    assert mixed > 20
    assert ids_checked > 5000


def test_embed_builds_no_lincomb_and_numbers_no_phi():
    # a traced count: while embed runs, no function of qcf.lincomb is
    # called and no Path is built, but the morphism check and the rank run
    # once each
    lincomb_file = qcf.lincomb.__file__
    watched = {
        qcf.quiver.Path.__init__.__code__: "Path",
        qcf.posets._morphism_failure.__code__: "_morphism_failure",
        qcf.posets.sparse_int_rank.__code__: "sparse_int_rank",
    }
    rng = random.Random(47)
    for coalg in _walk_cases(rng, 10):
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code.co_filename == lincomb_file:
                    calls["lincomb"] += 1
                elif code in watched:
                    calls[watched[code]] += 1

        sys.setprofile(profile)
        try:
            result = embed(coalg)
        finally:
            sys.setprofile(None)
        assert calls["Path"] == 0
        assert calls == {"_morphism_failure": 1, "sparse_int_rank": 1}
        sys.setprofile(profile)
        try:
            result.phi  # the property builds the Paths and LinCombs when asked
        finally:
            sys.setprofile(None)
        assert calls["lincomb"] >= len(coalg.basis_list)
        assert calls["Path"] == sum(len(run.seqs) for run in result.runs.values())


def _commutes(seg, row, count, init, tail, home):
    # whether Delta phi and (phi (x) phi) Delta agree at seg = (lo, hi),
    # whose image is the sum of the paths of row, by walking every split of
    # every path; count is N = sum over w in [lo, hi] of |row(lo, w)|
    # |row(w, hi)|. A split part in no row has home None, which it fails to
    # unpack, a TypeError
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


def _per_split_morphism_failure(coalg, numbering):
    # the check as it was before whole paths were cleared: every split of
    # every segment's row is walked, vertices are counted by init == -1, and
    # the TypeError of a split part in no row names its segment. The
    # reference for the per-path check
    rows, init, tail, _ = numbering
    home = [None] * len(init)
    for seg, row in rows.items():
        for a in row:
            if home[a] is not None:
                raise ValueError(f"the images of {home[a]!r} and {seg!r} share a path")
            home[a] = seg
    interval = coalg.poset.interval
    for seg in coalg.basis_list:
        lo, hi = seg
        try:
            count = sum(len(rows[lo, w]) * len(rows[w, hi]) for w in interval(lo, hi))
        except KeyError as err:
            raise PosetError(f"segment {err.args[0]!r} lies inside {seg!r} but is missing") from None
        row = rows[seg]
        try:
            commutes = _commutes(seg, row, count, init, tail, home)
        except TypeError:
            raise TypeError(f"a split part lies in no row at segment {seg!r}") from None
        if not commutes:
            return f"comultiplication does not commute at segment {seg!r}"
        if coalg.counit(seg) != Cyc.rational(sum(init[a] == -1 for a in row)):
            return f"counit does not commute at segment {seg!r}"
    return None


def _outcome(check, coalg, numbering):
    # the verdict, or the type and message of what was raised
    try:
        return check(coalg, numbering)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


SCRAMBLES = (
    "foreign", "drop", "unrow", "move", "share", "swap_vertices", "vertex_moved", "no_row"
)


def _scrambled(numbering, quiver, rng):
    """(kinds, a numbering changed one to three times, its ids then
    relabelled at random): "foreign" keys an arbitrary arrow tuple, of
    random arrows or a keyed path with one arrow changed, often not
    composable, and puts it in no row, in a random row, or in the row
    that spans the homes of its first and last arrow, there half the time
    in place of a path of that row, which is left in no row: only its
    composability can fail it there; "drop" takes a key out of the index
    and its id out of its row, so the links to it are -2; "unrow" leaves a
    keyed id in no row; "move" puts an id in another row, and "share" in a
    second one; "swap_vertices" exchanges the rows of two vertices;
    "vertex_moved" makes a vertex the image of a segment with that end, and
    a new vertex key, of no quiver vertex, the image of the vertex's own
    segment; "no_row" deletes a segment's row."""
    index, rows = numbering
    key = {a: k for k, a in index.items()}
    rows = {seg: list(row) for seg, row in rows.items()}
    kinds = []
    for _ in range(rng.randint(1, 3)):
        segments = list(rows)
        if not segments:
            break
        kind = rng.choice(SCRAMBLES)
        kinds.append(kind)
        home = {a: seg for seg, row in rows.items() for a in row}
        ids = {k: a for a, k in key.items()}
        vertices = [a for a, k in key.items() if not isinstance(k, tuple) and a in home]
        if kind == "foreign":
            if not quiver.arrow_ids:
                continue
            paths = [k for k in ids if isinstance(k, tuple)]
            if paths and rng.random() < 0.5:
                new = list(rng.choice(paths))
                new[rng.randrange(len(new))] = rng.choice(quiver.arrow_ids)
                new = tuple(new)
            else:
                new = tuple(rng.choice(quiver.arrow_ids) for _ in range(rng.randint(1, 4)))
            if new in ids:
                continue
            a = max(key) + 1
            key[a] = new
            first, last = home.get(ids.get(new[:1])), home.get(ids.get(new[-1:]))
            spanned = first and last and (first[0], last[1])
            where = rng.choice([None, rng.choice(segments), spanned, spanned])
            if where in rows:
                if where == spanned and rows[where] and rng.random() < 0.5:
                    rows[where].remove(rng.choice(rows[where]))
                rows[where].append(a)
        elif kind == "drop" and len(key) > 1:
            a = rng.choice(sorted(key))
            del key[a]
            rows = {seg: [b for b in row if b != a] for seg, row in rows.items()}
        elif kind in ("unrow", "move", "share"):
            seg = rng.choice([s for s in segments if rows[s]] or [None])
            if seg is None:
                continue
            a = rng.choice(rows[seg])
            if kind != "share":
                rows[seg].remove(a)
            if kind != "unrow":
                rows[rng.choice(segments)].append(a)
        elif kind == "swap_vertices" and len(vertices) > 1:
            a, b = rng.sample(vertices, 2)
            rows[home[a]][rows[home[a]].index(a)] = b
            rows[home[b]][rows[home[b]].index(b)] = a
        elif kind == "vertex_moved":
            moves = [
                (home[a], seg) for a in vertices
                for seg in segments if seg[0] != seg[1] and home[a][0] in seg
            ]
            if moves:
                end, seg = rng.choice(moves)
                a = max(key) + 1
                key[a] = f"spare{a}"
                rows[seg], rows[end] = rows[end], [a]
        elif kind == "no_row":
            rows.pop(rng.choice(segments))
    relabel = list(key)
    rng.shuffle(relabel)
    new_id = {a: i for i, a in enumerate(relabel)}
    index = {key[a]: new_id[a] for a in sorted(key)}
    return kinds, (index, {seg: {new_id[a]: 1 for a in row} for seg, row in rows.items()})


def test_morphism_check_agrees_with_the_per_split_check_on_scrambled_numberings():
    # embed's numbering of each case changed at random, beyond what
    # _corruptions does to images: the per-path check must give the
    # per-split check's verdict, or raise what it raises, every time; where
    # splitting meets a split part in no row, a TypeError, the per-path
    # check fails the comultiplication at that segment
    rng = random.Random(53)
    outcomes = Counter()
    scrambles = Counter()
    for coalg in _walk_cases(rng, 25):
        quiver, names = _hasse_with_names(coalg.poset)
        runs, (rows, *_) = _walk_images(coalg, quiver, names)
        keyed = _walk_index(runs, rows), rows
        for _ in range(80):
            kinds, scrambled = _scrambled(keyed, quiver, rng)
            scrambled = _key_links(*scrambled, quiver)
            expected = _outcome(_per_split_morphism_failure, coalg, scrambled)
            outcome = _outcome(_morphism_failure, coalg, scrambled)
            if isinstance(expected, tuple) and expected[0] is TypeError:
                seg = expected[1].split(" at segment ")[1]
                assert outcome == f"comultiplication does not commute at segment {seg}", kinds
            else:
                assert outcome == expected, kinds
            if isinstance(expected, str):
                expected = expected.split(" does")[0]
            elif expected is not None:
                expected = expected[0].__name__
            outcomes[expected] += 1
            scrambles.update(kinds)
    assert set(scrambles) == set(SCRAMBLES)
    assert {None, "comultiplication", "counit", "ValueError", "TypeError", "PosetError"} <= set(
        outcomes
    ), outcomes
    assert min(outcomes.values()) >= 5, outcomes


def _sound_keys(numbering, quiver):
    """The keys of the ids that the per-path route clears, by its
    definition on keys: a vertex in the row of (e, e); or a path in a row
    whose keys without the last and without the first arrow are sound, the
    first in a row with its lower end, the second in one with its upper
    end, and, for two arrows, the target of the first is the source of the
    second. Longer paths inherit composability from those two keys."""
    index, rows = numbering
    home = {a: seg for seg, row in rows.items() for a in row}
    sound = {}

    def check(key):
        if key not in sound:
            seg = home.get(index.get(key))
            if seg is None:
                sound[key] = False
            elif not isinstance(key, tuple):
                sound[key] = seg[0] == seg[1]
            else:
                first = key[:-1] or quiver.source(key[0])
                last = key[1:] or quiver.target(key[-1])
                sound[key] = (
                    check(first) and check(last)
                    and home[index[first]][0] == seg[0] and home[index[last]][1] == seg[1]
                    and (len(key) != 2 or quiver.target(key[0]) == quiver.source(key[1]))
                )
        return sound[key]

    return {key for key in index if check(key)}


def test_morphism_check_fails_at_the_first_row_with_an_unsound_path():
    # embed's own numbering has only sound ids; on a corrupted one, the
    # check fails at the first segment, in basis order, whose row holds an
    # unsound id, and fails its comultiplication there, unless a row of
    # sound ids before it fails by its term count or its counit
    rng = random.Random(59)
    at_unsound = at_sound = 0
    for coalg in _walk_cases(rng, 30):
        result = embed(coalg)
        assert result.morphism_ok, result.failure
        quiver, names = _hasse_with_names(coalg.poset)
        runs, (rows, *_) = _walk_images(coalg, quiver, names)
        index = _walk_index(runs, rows)
        assert _sound_keys((index, rows), quiver) == index.keys()
        position = {repr(seg): k for k, seg in enumerate(coalg.basis_list)}
        for kind, bad in _corruptions(result.phi, rng, quiver):
            if kind in SHARED:
                continue
            index, rows = numbering = _numbering(bad)
            sound = {index[key] for key in _sound_keys(numbering, quiver)}
            unsound = [
                k for k, seg in enumerate(coalg.basis_list) if not sound.issuperset(rows[seg])
            ]
            failure = _morphism_failure(coalg, _key_links(index, rows, quiver))
            if failure is None:
                assert unsound == [], kind
                continue
            k = position[failure.split(" at segment ")[1]]
            if unsound and k == unsound[0]:
                assert failure.startswith("comultiplication"), kind
                at_unsound += 1
            else:
                assert not unsound or k < unsound[0], kind
                at_sound += 1
    assert at_unsound > 50
    assert at_sound > 50
