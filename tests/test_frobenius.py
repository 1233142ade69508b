import random

import pytest

import qcf.frobenius
from qcf.forms import incidence_form_params, path_form_params
from qcf.frobenius import (
    Classification,
    _analyze_finite,
    admits_hopf,
    analyze,
    check_condition_d,
    classify,
    combine,
    iso_key,
)
from qcf.posets import Poset, full_incidence_coalgebra
from qcf.quiver import (
    A_0INF,
    A_INF,
    Path,
    PathSubcoalgebra,
    Quiver,
    QuiverError,
    WindowedFamily,
    build_family,
    cycle_quiver,
    direct_sum,
    full_path_coalgebra,
)
from qcf.rand import (
    random_acyclic_quiver,
    random_descriptor_multiset,
    random_incidence_subcoalgebra,
    random_line_family,
    random_path_subcoalgebra,
    random_poset,
)


def test_full_path_coalgebra_with_arrow_is_not_cofrobenius():
    coalg = full_path_coalgebra(Quiver(["u", "v"], [("a", "u", "v")]))
    report = analyze(coalg)
    assert report.left_verdict == "no"
    assert report.right_verdict == "no"
    assert report.left_witness[0] == "v"


def test_cycle_families_are_two_sided():
    for n in range(1, 6):
        for s in range(1, 4):
            report = analyze(build_family(WindowedFamily.cycle(n, s)))
            assert report.left_verdict == "yes"
            assert report.right_verdict == "yes"
            r_map = report.r_map()
            l_map = report.l_map()
            for k in range(n):
                assert r_map[str(k)] == str((k + s) % n)
                assert l_map[r_map[str(k)]] == str(k)


def test_line_window_constant_offset():
    fam = WindowedFamily.line(A_INF, {k: k + 2 for k in range(-3, 6)})
    report = analyze(fam)
    assert report.left_verdict == "yes"
    assert report.right_verdict == "yes"
    assert report.window_limited_right
    assert report.interior  # nonempty for this window
    for v in report.interior:
        assert report.per_vertex[v].left_ok
        assert report.per_vertex[v].right_ok


def test_line_window_growing_offset_fails_right():
    fam = WindowedFamily.line(A_INF, {k: (k + 1 if k < 1 else k + 2) for k in range(-3, 6)})
    report = analyze(fam)
    assert report.left_verdict == "yes"
    assert report.right_verdict == "no"
    assert report.right_witness == ("2", "vertex is not the endpoint of any maximal path")


def test_half_line_window_is_never_right():
    fam = WindowedFamily.line(A_0INF, {k: k + 2 for k in range(0, 7)})
    report = analyze(fam)
    assert report.left_verdict == "yes"
    assert report.right_verdict == "no"
    assert report.right_witness[0] == "0"


def test_unique_maximal_uses_prefix_order():
    # two loops at one vertex: the longest outgoing path does not dominate
    quiver = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    basis = [
        quiver.vertex_path("v"),
        quiver.arrow_path("x"),
        quiver.arrow_path("y"),
        quiver.make_path(("x", "y")),
    ]
    coalg = PathSubcoalgebra(quiver, basis)
    assert coalg.validate() == []
    report = analyze(coalg)
    assert not report.per_vertex["v"].in_R
    assert report.left_verdict == "no"


def test_extension_condition_agrees_on_small_examples():
    arrow = full_path_coalgebra(Quiver(["u", "v"], [("a", "u", "v")]))
    check = check_condition_d(arrow, path_form_params(arrow))
    assert not check.ok and check.witness == arrow.quiver.vertex_path("v")

    cycle = build_family(WindowedFamily.cycle(2, 1))
    assert check_condition_d(cycle, path_form_params(cycle)).ok

    grouplike = full_path_coalgebra(Quiver(["x", "y"], []))
    assert check_condition_d(grouplike, path_form_params(grouplike)).ok


def test_extension_condition_incidence_examples():
    antichain = full_incidence_coalgebra(Poset.from_covers(["p", "q"], []))
    assert check_condition_d(antichain, incidence_form_params(antichain)).ok

    chain = full_incidence_coalgebra(
        Poset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    )
    check = check_condition_d(chain, incidence_form_params(chain))
    assert not check.ok
    assert ("1", "2") in check.failures


def test_classify_direct_sum_of_cycles_and_points():
    k32 = build_family(WindowedFamily.cycle(3, 2))
    point = full_path_coalgebra(Quiver(["z"], []))
    total = direct_sum([k32, k32, point])
    result = classify(total)
    assert result.ok
    assert result.classification.summands == (("Cn", 3, 2), ("Cn", 3, 2), ("point",))


def test_classify_rejects_uneven_cycle_lengths():
    quiver = cycle_quiver(3)
    basis = [quiver.vertex_path(str(k)) for k in range(3)]
    basis += [quiver.arrow_path(f"a{k}") for k in range(3)]
    basis.append(quiver.make_path(("a0", "a1")))
    coalg = PathSubcoalgebra(quiver, basis)
    assert coalg.validate() == []
    result = classify(coalg)
    assert not result.ok
    assert result.violation == (
        "maximal path lengths differ around a cycle",
        (("0", 2), ("1", 1), ("2", 1)),
    )


def test_classify_witnesses_an_uneven_second_cycle_by_its_sorted_vertices():
    # cycle 0 -> 2 -> 0 is even; cycle 1 -> 4 -> 3 -> 1 is walked out of
    # vertex order and only <d> reaches length 2: its vertices come sorted
    arrows = [("a", "0", "2"), ("b", "2", "0"), ("c", "1", "4"), ("d", "4", "3"), ("f", "3", "1")]
    quiver = Quiver(["0", "1", "2", "3", "4"], arrows)
    basis = [quiver.vertex_path(v) for v in quiver.vertices]
    basis += [quiver.arrow_path(aid) for aid, _, _ in arrows]
    basis.append(quiver.make_path(("c", "d")))
    coalg = PathSubcoalgebra(quiver, basis)
    assert coalg.validate() == []
    result = classify(coalg)
    assert not result.ok
    assert result.violation == (
        "maximal path lengths differ around a cycle",
        (("1", 2), ("3", 1), ("4", 1)),
    )
    basis.pop()
    assert classify(PathSubcoalgebra(quiver, basis)).classification.summands == (
        ("Cn", 2, 1),
        ("Cn", 3, 1),
    )


def test_classify_rejects_acyclic_with_arrows():
    coalg = full_path_coalgebra(Quiver(["u", "v"], [("a", "u", "v")]))
    result = classify(coalg)
    assert not result.ok


def test_classify_rejects_branching():
    quiver = Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "u", "w")])
    coalg = full_path_coalgebra(quiver)
    result = classify(coalg)
    assert not result.ok
    assert "leave" in result.violation[0]


def test_iso_keys_for_cycles():
    c21 = classify(build_family(WindowedFamily.cycle(2, 1))).classification
    c21b = classify(build_family(WindowedFamily.cycle(2, 1))).classification
    c41 = classify(build_family(WindowedFamily.cycle(4, 1))).classification
    assert iso_key(c21) == iso_key(c21b)
    assert iso_key(c21) != iso_key(c41)


def test_iso_keys_for_translated_line_windows():
    # same run of offsets on a shifted window: isomorphic via translation
    f1 = WindowedFamily.line(A_INF, {k: k + 2 for k in range(0, 5)})
    f2 = WindowedFamily.line(A_INF, {k: k + 2 for k in range(3, 8)})
    c1 = classify([f1]).classification
    c2 = classify([f2]).classification
    assert iso_key(c1) == iso_key(c2)
    f3 = WindowedFamily.line(A_INF, {k: k + 3 for k in range(0, 5)})
    assert iso_key(c1) != iso_key(classify([f3]).classification)


def test_half_line_windows_compare_verbatim():
    f1 = WindowedFamily.line(A_0INF, {k: k + 2 for k in range(0, 5)})
    f2 = WindowedFamily.line(A_0INF, {0: 2, 1: 3, 2: 5, 3: 6, 4: 7})
    assert iso_key(classify([f1]).classification) == iso_key(classify([f1]).classification)
    assert iso_key(classify([f1]).classification) != iso_key(classify([f2]).classification)


def test_admits_hopf_families():
    points = Classification((("point",),) * 7, {})
    assert admits_hopf(points).family == "III"
    cycles = Classification((("Cn", 4, 1), ("Cn", 4, 1)), {})
    adm = admits_hopf(cycles)
    assert adm.family == "II" and adm.n == 4 and adm.s == 1
    assert admits_hopf(Classification((("Cn", 3, 1),), {})).family == "none"
    lines = classify([WindowedFamily.line(A_INF, {k: k + 2 for k in range(0, 5)})]).classification
    adm = admits_hopf(lines)
    assert adm.family == "I" and adm.s == 2 and adm.window_limited
    mixed = Classification((("Cn", 2, 1), ("point",)), {})
    assert admits_hopf(mixed).family == "none"


def test_admits_hopf_refuses_the_empty_coalgebra():
    adm = admits_hopf(Classification((), {}))
    assert (adm.family, adm.summand_count, adm.reason) == ("none", 0, "empty coalgebra")


def test_admits_hopf_names_the_failing_divisibility():
    for n, s in [(3, 1), (5, 2), (2, 2)]:
        adm = admits_hopf(Classification((("Cn", n, s),), {}))
        assert (adm.family, adm.n, adm.s) == ("none", n, s)
        assert adm.reason == f"{s + 1} does not divide {n}"


def test_analyze_refuses_an_invalid_line_window():
    # a reach table that is not strictly increasing: analyze validates the
    # family itself rather than trusting its callers to
    fam = WindowedFamily.line(A_INF, {0: 2, 1: 2})
    with pytest.raises(QuiverError) as info:
        analyze(fam)
    assert str(info.value) == "reach must be strictly increasing at 1"


def test_ladder_window_interior_elements_pass():
    # truncating the two-layer ladder only disturbs the top boundary
    from test_forms import ladder_window

    levels, width = 4, 2
    _, coalg = ladder_window(levels, width)
    report = analyze(coalg)
    boundary = {f"a{levels}"} | {f"b{levels - 1}_{i}" for i in range(1, width + 1)}
    for element, info in report.per_vertex.items():
        assert info.left_ok == (element not in boundary), element
    check = check_condition_d(coalg, incidence_form_params(coalg))
    assert not check.ok
    for x, z in check.failures:
        assert x in boundary or z in boundary


def test_round_trip_small_sample():
    rng = random.Random(13)
    for _ in range(20):
        finite_parts, families, expected = random_descriptor_multiset(rng)
        partial = []
        if finite_parts:
            partial.append(classify(direct_sum(finite_parts)))
        if families:
            partial.append(classify(families))
        result = combine(*partial)
        assert result.ok
        assert iso_key(result.classification) == expected


def _oracle(coalg):
    """R, L and both verdicts read from the comultiplication alone: a lies
    below b on the left (right) when a is a left (right) factor of a term of
    comul(b), and the ends of b are the grouplike factors next to b itself."""
    vertex = lambda g: g.source if isinstance(g, Path) else g[0]
    start, end, below_left, below_right = {}, {}, {}, {}
    for b in coalg.basis_list:
        terms = coalg.comul(b).labels()
        start[b] = next(vertex(x) for x, y in terms if y == b and coalg.counit(x) == 1)
        end[b] = next(vertex(y) for x, y in terms if x == b and coalg.counit(y) == 1)
        below_left[b] = {x for x, _ in terms}
        below_right[b] = {y for _, y in terms}
    vertices = {start[b] for b in coalg.basis_list}
    r_map, l_map = {}, {}
    for v in vertices:
        out = [b for b in coalg.basis_list if start[b] == v]
        tops = [t for t in out if all(b in below_left[t] for b in out)]
        if tops:
            r_map[v] = end[tops[0]]
        into = [b for b in coalg.basis_list if end[b] == v]
        bottoms = [t for t in into if all(b in below_right[t] for b in into)]
        if bottoms:
            l_map[v] = start[bottoms[0]]
    left = all(l_map.get(r_map.get(v)) == v for v in vertices)
    right = all(r_map.get(l_map.get(v)) == v for v in vertices)
    return r_map, l_map, "yes" if left else "no", "yes" if right else "no"


def _oracle_instances():
    rng = random.Random(0xF20B)
    for _ in range(150):
        yield random_path_subcoalgebra(rng)
        yield random_incidence_subcoalgebra(rng)
        yield full_path_coalgebra(random_acyclic_quiver(rng))
        yield full_incidence_coalgebra(random_poset(rng))


def test_analyzer_matches_the_comultiplication_oracle():
    verdicts = set()
    for coalg in _oracle_instances():
        report = analyze(coalg)
        expected = _oracle(coalg)
        got = (report.r_map(), report.l_map(), report.left_verdict, report.right_verdict)
        assert got == expected, coalg.basis_list
        verdicts.add((type(coalg).__name__, report.left_verdict, report.right_verdict))
    # every class shows a positive and a negative verdict on each side
    for kind in ("PathSubcoalgebra", "IncidenceSubcoalgebra"):
        for side in (1, 2):
            assert {v[side] for v in verdicts if v[0] == kind} == {"yes", "no"}


def _growing_window(rng):
    """A window up to 30 wide whose reach offsets grow by random steps; its
    vertex names cross -10 and 10, where string order is not numeric."""
    tag = rng.choice((A_INF, A_0INF))
    lo = 0 if tag == A_0INF else rng.randint(-12, 0)
    r, reach = {}, lo
    for v in range(lo, lo + rng.randint(8, 30)):
        reach = max(reach, v) + rng.choice((1, 1, 2, 5))
        r[v] = reach
    return WindowedFamily.line(tag, r)


def _random_windows():
    rng = random.Random(0x3A1F)
    for _ in range(150):
        yield random_line_family(rng, A_INF)
        yield random_line_family(rng, A_0INF)
        yield _growing_window(rng)


def test_window_maps_match_the_built_window():
    # the reach-table reading against the finite analyzer on the materialized
    # window: same verdict per vertex, in the same (string) vertex order
    for fam in _random_windows():
        report = analyze(fam)
        built = _analyze_finite(build_family(fam))
        assert list(report.per_vertex.items()) == list(built.per_vertex.items()), fam
        assert report.r_map() == built.r_map()
        assert report.l_map() == built.l_map()


def test_windows_are_analyzed_without_building_them(monkeypatch):
    windows = list(_random_windows())[:60]
    expected = [(analyze(fam), analyze(fam, margin=1)) for fam in windows]
    cycles = [WindowedFamily.cycle(n, s) for n in range(1, 6) for s in range(1, 4)]
    summary = lambda rep: (rep.left_verdict, rep.right_verdict, rep.r_map(), rep.l_map())
    for fam in cycles:
        assert summary(analyze(fam)) == summary(analyze(build_family(fam)))

    def refuse(fam):
        raise AssertionError("build_family called on a line window")

    monkeypatch.setattr(qcf.frobenius, "build_family", refuse)
    assert [(analyze(fam), analyze(fam, margin=1)) for fam in windows] == expected
