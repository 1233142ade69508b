"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (zero tolerance). Criteria 1-3 share the seeded
instance batches from conftest so the equivalence statements are evaluated
on the same coalgebras as the bijection counts.
"""

import random

from qcf.forms import is_balanced, radicals
from qcf.frobenius import (
    admits_hopf,
    analyze,
    check_condition_d,
    check_condition_d_incidence,
    classify,
    combine,
    iso_key,
)
from qcf.hopf import (
    LineProduct,
    build_Hn,
    cyclic_hopf_datum,
    cyclic_x_c2_hopf_datum,
    dihedral_hopf_datum,
    verify_coalgebra_iso_Cn,
    verify_hopf,
    with_antipode,
)
from qcf.lincomb import LinComb, map_linear
from qcf.posets import embed, full_incidence_coalgebra, tensor_iso_check
from qcf.quiver import (
    A_0INF,
    A_INF,
    WindowedFamily,
    build_family,
    direct_sum,
)
from qcf.rand import (
    random_acyclic_quiver,
    random_descriptor_multiset,
    random_poset,
)
from qcf.scalars import Cyc, RootOfUnity


def test_criterion_01_balanced_form_bijection_path(path_instances):
    for coalg, params, space, ones in path_instances:
        assert len(space) == params.size
        assert is_balanced(ones).ok
    print(
        f"\nACCEPTANCE 1 balanced-form bijection (path): PASS "
        f"({len(path_instances)}/{len(path_instances)} instances, "
        f"nullspace dim == parameter count, closed forms balanced)"
    )


def test_criterion_02_balanced_form_bijection_incidence(incidence_instances):
    for coalg, params, space, ones in incidence_instances:
        assert len(space) == params.size
        assert is_balanced(ones).ok
    print(
        f"\nACCEPTANCE 2 balanced-form bijection (incidence): PASS "
        f"({len(incidence_instances)}/{len(incidence_instances)} instances, "
        f"nullspace dim == marked-class count, closed forms balanced)"
    )


def test_criterion_03_criterion_equivalence(path_instances, incidence_instances):
    sides = {"left": True, "right": True}
    total = 0
    for coalg, params, _, ones in path_instances:
        verdict = analyze(coalg).left_verdict == "yes"
        assert verdict == check_condition_d(coalg, params).ok
        left_rad, right_rad = radicals(ones)
        sides["left"] &= verdict == (len(left_rad) == 0)
        sides["right"] &= verdict == (len(right_rad) == 0)
        total += 1
    for coalg, params, _, ones in incidence_instances:
        verdict = analyze(coalg).left_verdict == "yes"
        assert verdict == check_condition_d_incidence(coalg, params).ok
        left_rad, right_rad = radicals(ones)
        sides["left"] &= verdict == (len(left_rad) == 0)
        sides["right"] &= verdict == (len(right_rad) == 0)
        total += 1
    agreeing = [s for s, ok in sides.items() if ok]
    assert agreeing, "no side of the all-ones form tracks the combinatorial criterion"
    print(
        f"\nACCEPTANCE 3 criterion equivalence: PASS ({total} instances; "
        f"combinatorial and extension criteria agree everywhere; the all-ones "
        f"closed form has trivial radical on side(s) {agreeing} exactly on the "
        f"positive instances; on finite coalgebras the form matrix is square, "
        f"so both sides coincide)"
    )


def test_criterion_04_full_coalgebras_cosemisimple_rule():
    rng = random.Random(0x5EED4)
    from qcf.quiver import full_path_coalgebra

    for _ in range(50):
        quiver = random_acyclic_quiver(rng)
        report = analyze(full_path_coalgebra(quiver))
        assert (report.left_verdict == "yes") == (len(quiver.arrow_ids) == 0)
    for _ in range(50):
        poset = random_poset(rng)
        report = analyze(full_incidence_coalgebra(poset))
        assert (report.left_verdict == "yes") == poset.is_equality_order()
    print(
        "\nACCEPTANCE 4 full-coalgebra sweep: PASS (50 path + 50 incidence; "
        "positive verdict exactly on arrowless quivers / equality orders)"
    )


def test_criterion_05_canonical_families():
    for n in range(1, 9):
        for s in range(1, 5):
            coalg = build_family(WindowedFamily.cycle(n, s))
            assert coalg.dimension == n * (s + 1)
            report = analyze(coalg)
            assert report.left_verdict == "yes" and report.right_verdict == "yes"
    for s in (1, 2, 3):
        fam = WindowedFamily.line(A_INF, {k: k + s for k in range(-4, 6)})
        report = analyze(fam)
        assert report.left_verdict == "yes"
        assert report.right_verdict == "yes" and report.window_limited_right
        half = WindowedFamily.line(A_0INF, {k: k + s for k in range(0, 8)})
        report = analyze(half)
        assert report.left_verdict == "yes"
        assert report.right_verdict == "no" and report.right_witness[0] == "0"
    print(
        "\nACCEPTANCE 5 canonical families: PASS (cycles n<=8, s<=4 two-sided with "
        "dimension n(s+1); constant-offset line windows left yes / right "
        "yes-on-window; half-line windows left yes / right no at the bottom vertex)"
    )


def test_criterion_06_classification_round_trip():
    rng = random.Random(0x60D)
    trials = 100
    for _ in range(trials):
        finite_parts, families, expected = random_descriptor_multiset(rng)
        partial = []
        if finite_parts:
            partial.append(classify(direct_sum(finite_parts)))
        if families:
            partial.append(classify(families))
        result = combine(*partial)
        assert result.ok, result.violation
        assert iso_key(result.classification) == expected
    print(
        f"\nACCEPTANCE 6 classification round trip: PASS ({trials}/{trials} "
        f"random summand multisets recovered from their direct sums)"
    )


HOPF_GRID = [
    (2, 1, RootOfUnity(2, 1)),
    (4, 1, RootOfUnity(2, 1)),
    (3, 2, RootOfUnity(3, 1)),
    (6, 2, RootOfUnity(3, 1)),
    (4, 3, RootOfUnity(4, 1)),
]


def test_criterion_07_hopf_axiom_grid():
    checked = []
    for n, s, q in HOPF_GRID:
        groups = [("cyclic", cyclic_hopf_datum(n, s, q))]
        groups.append(("cyclic x C2", cyclic_x_c2_hopf_datum(n, s, q)))
        dihedral = dihedral_hopf_datum(n, s, q)
        if dihedral is not None:
            groups.append(("dihedral", dihedral))
        for alpha in (Cyc.zero(), Cyc.rational(1)):
            for tag, datum in groups:
                table = with_antipode(build_Hn(s, q, datum, alpha))
                report = verify_hopf(table)
                assert report.ok, (n, s, tag, report.first_failure())
                checked.append((n, s, tag, 0 if alpha.is_zero() else 1))
    assert len(checked) == 22  # dihedral admits a valid datum only for n = 2
    print(
        f"\nACCEPTANCE 7 Hopf axiom grid: PASS ({len(checked)} tables, all axioms "
        f"and both antipode identities, dimensions up to 36)"
    )


def test_criterion_08_line_product_consistency():
    window = range(-6, 7)
    triples = 0
    for s in (1, 2, 3):
        q = RootOfUnity(s + 1, 1)
        for alpha in (Cyc.zero(), Cyc.rational(1)):
            prod = LineProduct(s, q, alpha)
            degrees = range(s + 1)
            labels = [(i, u) for i in window for u in degrees]
            table = prod.table(labels)
            product = table.product
            for a in labels:
                for b in labels:
                    ab = product[(a, b)]
                    for c in labels:
                        left = table.mul_lin_basis(ab, c)
                        right = table.mul_basis_lin(a, product[(b, c)])
                        assert left == right, (s, alpha, a, b, c)
                        triples += 1
            # comultiplication is an algebra map on the same window
            for a in labels:
                da = table.coproduct[a]
                for b in labels:
                    lhs = map_linear(product[(a, b)], lambda l: table.coproduct[l])
                    rhs = table.mul_tensor2(da, table.coproduct[b])
                    assert lhs == rhs, (s, alpha, a, b)
            # translation: shifting the left factor shifts output labels
            for a in labels[:40]:
                for b in labels[:40]:
                    base = product[(a, b)]
                    for t in (-3, 5):
                        shifted = prod.product((a[0] + t, a[1]), b)
                        assert shifted == LinComb(
                            {(l[0] + t, l[1]): c for l, c in base.items()}
                        )
    print(
        f"\nACCEPTANCE 8 line product consistency: PASS ({triples} associativity "
        f"triples, comultiplication multiplicative, translation invariance)"
    )


def test_criterion_09_coalgebra_isomorphism():
    cases = [
        (2, 1, RootOfUnity(2, 1), Cyc.zero()),
        (4, 1, RootOfUnity(2, 1), Cyc.rational(1)),
        (6, 2, RootOfUnity(3, 1), Cyc.zero()),
    ]
    pairs = 0
    for n, s, q, alpha in cases:
        report = verify_coalgebra_iso_Cn(n, s, q, alpha)
        assert report.ok, report.failure
        pairs += report.checked_pairs
    print(
        f"\nACCEPTANCE 9 coalgebra isomorphism: PASS (3 parameter sets, "
        f"{pairs} pulled-back products match the cycle formula)"
    )


def test_criterion_10_embedding_and_tensor():
    rng = random.Random(0xEBED)
    for _ in range(50):
        poset = random_poset(rng, max_elements=12)
        coalg = full_incidence_coalgebra(poset)
        result = embed(coalg)
        assert result.morphism_ok, result.failure
        assert result.injective
    done = 0
    while done < 20:
        x = random_poset(rng, max_elements=10)
        y = random_poset(rng, max_elements=10)
        if len(x.elements) * len(y.elements) > 60:
            continue
        assert tensor_iso_check(x, y).ok
        done += 1
    print(
        "\nACCEPTANCE 10 embedding and tensor: PASS (50 embeddings are injective "
        "coalgebra morphisms; 20 product posets match the tensor square)"
    )


def test_criterion_11_admits_hopf_trichotomy():
    from qcf.frobenius import Classification

    line2 = classify([WindowedFamily.line(A_INF, {k: k + 2 for k in range(0, 5)})])
    line2_pair = classify(
        [
            WindowedFamily.line(A_INF, {k: k + 2 for k in range(0, 5)}),
            WindowedFamily.line(A_INF, {k: k + 2 for k in range(2, 7)}),
        ]
    )
    line_mixed = classify(
        [
            WindowedFamily.line(A_INF, {k: k + 2 for k in range(0, 5)}),
            WindowedFamily.line(A_INF, {k: k + 3 for k in range(0, 5)}),
        ]
    )
    line_growing = classify(
        [WindowedFamily.line(A_INF, {0: 1, 1: 3, 2: 4, 3: 5, 4: 6})]
    )
    half = classify([WindowedFamily.line(A_0INF, {k: k + 2 for k in range(0, 5)})])
    fixture = [
        (Classification((("point",),), {}), "III"),
        (Classification((("point",),) * 7, {}), "III"),
        (Classification((("Cn", 2, 1),), {}), "II"),
        (Classification((("Cn", 4, 1), ("Cn", 4, 1)), {}), "II"),
        (Classification((("Cn", 6, 2),) * 3, {}), "II"),
        (Classification((("Cn", 3, 1),), {}), "none"),  # 2 does not divide 3
        (Classification((("Cn", 4, 1), ("Cn", 2, 1)), {}), "none"),
        (Classification((("Cn", 2, 1), ("point",)), {}), "none"),
        (line2.classification, "I"),
        (line2_pair.classification, "I"),
        (line_mixed.classification, "none"),
        (line_growing.classification, "none"),
        (half.classification, "none"),
    ]
    assert len(fixture) >= 12
    for cls, expected in fixture:
        assert admits_hopf(cls).family == expected, (cls.summands, expected)
    print(
        f"\nACCEPTANCE 11 Hopf admissibility trichotomy: PASS "
        f"({len(fixture)} fixture classifications across families I, II, III, none)"
    )
