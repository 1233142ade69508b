import random

import pytest

from qcf.posets import (
    IncidenceSubcoalgebra,
    Poset,
    PosetError,
    embed,
    full_incidence_coalgebra,
    hasse_quiver,
    tensor_iso_check,
)
from qcf.lincomb import LinComb, expand_slot, linear
from qcf.rand import random_incidence_subcoalgebra, random_poset
from qcf.scalars import Cyc


@pytest.fixture
def chain3():
    return Poset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])


@pytest.fixture
def diamond():
    return Poset.from_covers(
        ["b", "m1", "m2", "t"], [("b", "m1"), ("b", "m2"), ("m1", "t"), ("m2", "t")]
    )


def test_partial_order_validation():
    with pytest.raises(PosetError):
        Poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(PosetError):
        Poset(["x", "y", "z"], [("x", "y"), ("y", "z")])  # missing (x, z)
    Poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])


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
    assert hasse_quiver(Poset(["a", "b", "c"], [])).arrow_ids == ()
    hq = hasse_quiver(chain3)
    assert len(hq.arrow_ids) == 2  # 0 < 2 is not a cover
    assert len(hasse_quiver(diamond).arrow_ids) == 4


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


def _saturated_chain_count(poset, x, y):
    # chains x = z0 < z1 < ... < y where each step is a covering pair
    if x == y:
        return 1
    total = 0
    for z in poset.elements:
        if (
            poset.lt(x, z)
            and poset.leq(z, y)
            and not any(poset.lt(x, w) and poset.lt(w, z) for w in poset.elements)
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
    point = Poset(["*"], [])
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
