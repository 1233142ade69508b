import random
import re
from itertools import chain
from pathlib import Path

import pytest

from qcf import dsl
from qcf import forms as forms_module
from qcf.cli import resolve
from qcf.forms import (
    BalancedCheck,
    BilinearForm,
    FormError,
    all_ones_alpha,
    balanced_space_bruteforce,
    form_from_params,
    incidence_form_params,
    is_balanced,
    path_form_params,
    radicals,
)
from qcf.frobenius import check_condition_d
from qcf.linalg import sparse_int_nullspace
from qcf.lincomb import LinComb, linear
from qcf.posets import IncidenceSubcoalgebra, Poset, full_incidence_coalgebra
from qcf.quiver import (
    PathSubcoalgebra,
    Quiver,
    WindowedFamily,
    bounded_path_coalgebra,
    build_family,
    direct_sum,
    full_path_coalgebra,
    path_sort_key,
)
from qcf.rand import random_incidence_subcoalgebra, random_path_subcoalgebra
from qcf.scalars import Cyc


@pytest.fixture
def single_arrow():
    quiver = Quiver(["u", "v"], [("a", "u", "v")])
    return quiver, full_path_coalgebra(quiver)


def test_zero_form_is_balanced(single_arrow):
    _, coalg = single_arrow
    assert is_balanced(BilinearForm(coalg, {})).ok


def test_diagonal_on_arrow_is_not_balanced(single_arrow):
    quiver, coalg = single_arrow
    a = quiver.arrow_path("a")
    check = is_balanced(BilinearForm(coalg, {(a, a): Cyc.one()}))
    assert not check.ok
    assert check.violation[0] == a and check.violation[1] == a


def test_single_arrow_parameter_paths(single_arrow):
    quiver, coalg = single_arrow
    params = path_form_params(coalg)
    assert params.paths == (quiver.arrow_path("a"),)
    form = form_from_params(coalg, params, all_ones_alpha(params))
    assert is_balanced(form).ok
    # the only nonzero entries pair the arrow against the matching vertices
    assert form.entry(quiver.arrow_path("a"), quiver.vertex_path("u")).is_one()
    assert form.entry(quiver.vertex_path("v"), quiver.arrow_path("a")).is_one()
    assert len(form.entries) == 2


def test_grouplike_parameter_paths_are_vertices():
    coalg = full_path_coalgebra(Quiver(["x", "y", "z"], []))
    params = path_form_params(coalg)
    assert sorted(p.source for p in params.paths) == ["x", "y", "z"]
    assert all(p.is_vertex() for p in params.paths)


def test_cycle_parameter_paths_exclude_vertices():
    coalg = build_family(WindowedFamily.cycle(2, 1))
    params = path_form_params(coalg)
    assert sorted(p.length for p in params.paths) == [1, 1, 2, 2]


def test_bruteforce_dimensions_match_examples(single_arrow):
    _, arrow_coalg = single_arrow
    grouplike = full_path_coalgebra(Quiver(["x", "y", "z"], []))
    cycle = build_family(WindowedFamily.cycle(2, 1))
    assert len(balanced_space_bruteforce(grouplike)) == 3
    assert len(balanced_space_bruteforce(arrow_coalg)) == 1
    assert len(balanced_space_bruteforce(cycle)) == 4


def test_bruteforce_respects_bound(single_arrow):
    _, coalg = single_arrow
    with pytest.raises(FormError):
        balanced_space_bruteforce(coalg, bound=2)


def reference_rows(coalg) -> list[dict[int, int]]:
    """The balance system built pair by pair: one row per basis pair (i, j)
    and coordinate, with every term of both sides, x(i, j) at column i * n + j."""
    basis = coalg.basis_list
    n = len(basis)
    index = {p: i for i, p in enumerate(basis)}
    rank = {p: r for r, p in enumerate(sorted(basis, key=repr))}
    comuls = [coalg.comul(p).labels() for p in basis]
    left = [[(rank[p1], index[p2]) for p1, p2 in terms] for terms in comuls]
    right = [[(rank[q2], index[q1]) for q1, q2 in terms] for terms in comuls]
    rows = []
    for i in range(n):
        for j in range(n):
            per_coord: dict[int, dict[int, int]] = {}
            for r, k in left[i]:
                row = per_coord.setdefault(r, {})
                row[k * n + j] = row.get(k * n + j, 0) + 1
            for r, k in right[j]:
                row = per_coord.setdefault(r, {})
                row[i * n + k] = row.get(i * n + k, 0) - 1
            for r in sorted(per_coord):
                row = {k: v for k, v in per_coord[r].items() if v}
                if row:
                    rows.append(row)
    return rows


def builder_cases():
    rng = random.Random(19)
    for _ in range(12):
        yield random_path_subcoalgebra(rng, max_basis=16)
        yield random_incidence_subcoalgebra(rng, max_elements=7, max_basis=18)
    # the shapes of the forms benchmark: family(Cn, ...), full(B4), paths(Q, maxlen=3)
    yield build_family(WindowedFamily.cycle(4, 3))
    subsets = [str(m) for m in range(16)]
    covers = [(str(m), str(m | 1 << b)) for m in range(16) for b in range(4) if not m >> b & 1]
    yield full_incidence_coalgebra(Poset.from_covers(subsets, covers))
    quiver = Quiver(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("l", "u", "u")],
    )
    yield bounded_path_coalgebra(quiver, 3)


def test_bruteforce_rows_have_the_per_pair_row_space(monkeypatch):
    systems = []

    def capture(rows, ncols):
        systems.append([dict(row) for row in rows])
        return sparse_int_nullspace(rows, ncols)

    monkeypatch.setattr(forms_module, "sparse_int_nullspace", capture)
    for coalg in builder_cases():
        n = len(coalg.basis_list)
        systems.clear()
        balanced_space_bruteforce(coalg)
        (rows,) = systems
        reference = reference_rows(coalg)
        assert sparse_int_nullspace(rows, n * n) == sparse_int_nullspace(reference, n * n)
        assert len(rows) <= len(reference)
        forced = [next(iter(row)) for row in rows if len(row) == 1]
        assert len(forced) == len(set(forced))
        # each forced unknown once, and the reference's two-term rows as they are
        assert set(forced) == {next(iter(row)) for row in reference if len(row) == 1}
        pairs = [row for row in rows if len(row) == 2]
        assert len(pairs) + len(forced) == len(rows)
        assert sorted(map(sorted, (row.items() for row in pairs))) == sorted(
            map(sorted, (row.items() for row in reference if len(row) == 2))
        )


class _StubCoalgebra:
    def __init__(self, comul: dict):
        self.basis_list = list(comul)
        self._comul = comul

    def comul(self, p) -> LinComb:
        return self._comul[p]


@pytest.mark.parametrize(
    "terms, message",
    [
        ({("a", "a"): Cyc.rational(2)}, "coefficient 2"),
        ({("a", "a"): Cyc.one(), ("a", "b"): Cyc.one()}, "repeats a factor"),
        ({("a", "a"): Cyc.one(), ("b", "a"): Cyc.one()}, "repeats a factor"),
    ],
    ids=["coefficient", "repeated-left-factor", "repeated-right-factor"],
)
def test_bruteforce_refuses_comultiplications_it_cannot_read(terms, message):
    b = LinComb({("b", "b"): Cyc.one()})
    with pytest.raises(FormError, match=message):
        balanced_space_bruteforce(_StubCoalgebra({"a": LinComb(terms), "b": b}))


def test_form_with_partial_zero_alpha_still_balanced():
    coalg = build_family(WindowedFamily.cycle(2, 1))
    params = path_form_params(coalg)
    alpha = {}
    for i, d in enumerate(params.paths):
        alpha[d] = Cyc.rational(i % 2)  # some zero entries
    assert is_balanced(form_from_params(coalg, params, alpha)).ok


def test_incidence_params_antichain():
    poset = Poset.from_covers(["p", "q", "r"], [])
    coalg = full_incidence_coalgebra(poset)
    params = incidence_form_params(coalg)
    assert params.size == 3
    assert all(cls.x == cls.y for cls in params.marked)
    assert len(balanced_space_bruteforce(coalg)) == 3


def test_incidence_params_chain_has_one_marked_class():
    poset = Poset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    coalg = full_incidence_coalgebra(poset)
    params = incidence_form_params(coalg)
    assert params.size == 1
    cls = params.marked[0]
    assert (cls.x, cls.y) == ("0", "2")
    assert cls.members == ("0", "1", "2")
    form = form_from_params(coalg, params, all_ones_alpha(params))
    assert is_balanced(form).ok
    assert len(balanced_space_bruteforce(coalg)) == 1


def ladder_window(levels: int = 3, width: int = 2):
    """A finite window of the two-layer order a_n < b_{n,i} < a_{n+1},
    with the segments of length <= 1 plus the two long jump families."""
    elements = [f"a{n}" for n in range(levels + 1)]
    covers = []
    for n in range(levels):
        for i in range(1, width + 1):
            elements.append(f"b{n}_{i}")
            covers.append((f"a{n}", f"b{n}_{i}"))
            covers.append((f"b{n}_{i}", f"a{n + 1}"))
    poset = Poset.from_covers(elements, covers)
    basis = [(e, e) for e in elements]
    for n in range(levels):
        basis.append((f"a{n}", f"a{n + 1}"))
        for i in range(1, width + 1):
            basis.append((f"a{n}", f"b{n}_{i}"))
            basis.append((f"b{n}_{i}", f"a{n + 1}"))
    for n in range(levels - 1):
        for i in range(1, width + 1):
            basis.append((f"b{n}_{i}", f"b{n + 1}_{i}"))
    return poset, IncidenceSubcoalgebra(poset, basis)


def test_ladder_window_is_interval_closed():
    _, coalg = ladder_window()
    assert coalg.validate() == []


def test_ladder_window_marked_classes_sit_on_the_jumps():
    levels, width = 3, 2
    _, coalg = ladder_window(levels, width)
    params = incidence_form_params(coalg)
    marked_pairs = {(cls.x, cls.y) for cls in params.marked}
    for n in range(levels):
        assert (f"a{n}", f"a{n + 1}") in marked_pairs
    for n in range(levels - 1):
        for i in range(1, width + 1):
            assert (f"b{n}_{i}", f"b{n + 1}_{i}") in marked_pairs
    # frozen census for this window, confirmed by the nullspace oracle
    assert params.size == 19
    assert len(balanced_space_bruteforce(coalg)) == params.size


def test_radicals_of_zero_and_identity_forms():
    coalg = full_path_coalgebra(Quiver(["x", "y"], []))
    zero = BilinearForm(coalg, {})
    left, right = radicals(zero)
    assert len(left) == len(right) == 2
    quiver = coalg.quiver
    ident = BilinearForm(
        coalg,
        {
            (quiver.vertex_path(v), quiver.vertex_path(v)): Cyc.one()
            for v in ("x", "y")
        },
    )
    left, right = radicals(ident)
    assert left == [] and right == []


def test_radical_of_non_cofrobenius_form(single_arrow):
    _, coalg = single_arrow
    params = path_form_params(coalg)
    form = form_from_params(coalg, params, all_ones_alpha(params))
    left, right = radicals(form)
    assert len(left) == 1 and len(right) == 1


def test_radical_dims_invariant_under_basis_permutation(single_arrow):
    quiver, coalg = single_arrow
    reordered = PathSubcoalgebra(quiver, list(reversed(coalg.basis_list)))
    params = path_form_params(coalg)
    for target in (coalg, reordered):
        form = form_from_params(target, params, all_ones_alpha(params))
        left, right = radicals(form)
        assert (len(left), len(right)) == (1, 1)


def test_cyclotomic_alpha_values_stay_balanced():
    coalg = build_family(WindowedFamily.cycle(2, 1))
    params = path_form_params(coalg)
    alpha = {d: Cyc.root(3) ** k for k, d in enumerate(params.paths)}
    form = form_from_params(coalg, params, alpha)
    assert is_balanced(form).ok
    left, right = radicals(form)
    assert left == [] and right == []


def test_bruteforce_vectors_are_balanced_small_sweep():
    rng = random.Random(5)
    for _ in range(15):
        coalg = random_path_subcoalgebra(rng, max_basis=12)
        for form in balanced_space_bruteforce(coalg):
            assert is_balanced(form).ok
    for _ in range(15):
        coalg = random_incidence_subcoalgebra(rng, max_elements=6, max_basis=14)
        for form in balanced_space_bruteforce(coalg):
            assert is_balanced(form).ok


def _two_arrow_path_case():
    quiver = Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    coalg = full_path_coalgebra(quiver)
    a, b, u = quiver.arrow_path("a"), quiver.arrow_path("b"), quiver.vertex_path("u")
    return coalg, (a, b), Cyc.rational(2), (a, b, u)


def _chain_incidence_case():
    poset = Poset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    coalg = full_incidence_coalgebra(poset)
    stray = (("0", "2"), ("1", "1"))
    return coalg, stray, Cyc.one(), (("0", "2"), ("1", "1"), ("0", "0"))


def _cycle_family_case():
    coalg = build_family(WindowedFamily.cycle(3, 2))
    quiver = coalg.quiver
    a1a2 = quiver.concat(quiver.arrow_path("a1"), quiver.arrow_path("a2"))
    v1, v2 = quiver.vertex_path("1"), quiver.vertex_path("2")
    return coalg, (a1a2, v2), Cyc.rational(3), (a1a2, v2, v1)


@pytest.mark.parametrize(
    "case", [_two_arrow_path_case, _chain_incidence_case, _cycle_family_case]
)
def test_violation_of_all_ones_form_with_stray_entry(case):
    # the (p, q, coordinate) triples were recorded from the direct checker
    # before it skipped zero entries; the skip must not move them
    coalg, stray, value, expected = case()
    if isinstance(coalg, IncidenceSubcoalgebra):
        params = incidence_form_params(coalg)
    else:
        params = path_form_params(coalg)
    form = form_from_params(coalg, params, all_ones_alpha(params))
    assert is_balanced(form).ok
    assert stray not in form.entries
    check = is_balanced(BilinearForm(coalg, {**form.entries, stray: value}))
    assert not check.ok
    assert check.violation == expected


def test_left_and_right_radical_dimensions_agree_on_random_forms():
    # the form's matrix is square, so both radicals have dimension n - rank;
    # the CLI reports one nullspace's size as both
    rng = random.Random(11)
    values = [Cyc.zero(), Cyc.one(), Cyc.rational(-2), Cyc.root(3), Cyc.root(4, 3)]
    dims = set()
    for _ in range(25):
        coalg = random_path_subcoalgebra(rng, max_basis=12)
        params = path_form_params(coalg)
        alpha = {d: rng.choice(values) for d in params.paths}
        forms = [form_from_params(coalg, params, alpha)]
        coalg = random_incidence_subcoalgebra(rng, max_elements=6, max_basis=14)
        params = incidence_form_params(coalg)
        alpha = {(c.x, c.y, c.members): rng.choice(values) for c in params.marked}
        forms.append(form_from_params(coalg, params, alpha))
        for form in forms:
            left, right = radicals(form)
            assert len(left) == len(right)
            dims.add(len(left) > 0)
    assert dims == {False, True}


def balanced_by_pairs(form: BilinearForm) -> BalancedCheck:
    """Reference checker: both sides of the balance identity on every basis
    pair in basis order, the witness coordinate the smallest by repr."""
    coalg = form.coalgebra
    basis = coalg.basis_list
    entries = form.entries
    comuls = {p: coalg.comul(p) for p in basis}
    for p in basis:
        for q in basis:
            diff = linear(chain(
                (
                    (p1, c * entries[p2, q])
                    for (p1, p2), c in comuls[p].items()
                    if (p2, q) in entries
                ),
                (
                    (q2, -(c * entries[p, q1]))
                    for (q1, q2), c in comuls[q].items()
                    if (p, q1) in entries
                ),
            ))
            if not diff.is_zero():
                return BalancedCheck(False, (p, q, sorted(diff.labels(), key=repr)[0]))
    return BalancedCheck(True)


def test_is_balanced_matches_the_per_pair_check_on_random_forms():
    rng = random.Random(17)
    values = [Cyc.one(), Cyc.rational(-1), Cyc.rational(2), Cyc.root(3), Cyc.root(4, 3),
              Cyc.root(8) + Cyc.one(), -Cyc.root(3) - Cyc.root(3, 2)]
    verdicts = set()
    for i in range(60):
        if i % 2:
            coalg = random_path_subcoalgebra(rng, max_basis=12)
            params = path_form_params(coalg)
            alpha = {d: rng.choice(values) for d in params.paths}
            form = form_from_params(coalg, params, alpha)
        else:
            coalg = random_incidence_subcoalgebra(rng, max_elements=6, max_basis=14)
            params = incidence_form_params(coalg)
            alpha = {(c.x, c.y, c.members): rng.choice(values) for c in params.marked}
            form = form_from_params(coalg, params, alpha)
        basis = coalg.basis_list
        entries = dict(form.entries)
        # 1-3 stray entries, some of which may overwrite a parameter entry
        for _ in range(rng.randint(1, 3)):
            entries[rng.choice(basis), rng.choice(basis)] = rng.choice(values)
        for candidate in (form, BilinearForm(coalg, entries)):
            check = is_balanced(candidate)
            assert check == balanced_by_pairs(candidate)
            verdicts.add(check.ok)
    assert verdicts == {False, True}


def reference_path_form_params(coalg) -> tuple:
    """The parameter paths as `path_form_params` first found them: two
    `Path`s per split of each candidate, hashed against the basis."""
    quiver = coalg.quiver
    basis = coalg.basis
    candidates = {
        quiver.concat(q, p)
        for q in coalg.basis_list
        for p in coalg.basis_list
        if q.target == p.source
    }

    def admissible(d) -> bool:
        for i in range(d.length + 1):
            qq, pp = quiver.split(d, i)
            if qq not in basis or pp not in basis:
                continue
            for aid in quiver.in_arrows(pp.source):
                extended = quiver.concat(quiver.arrow_path(aid), pp)
                if extended in basis and (not qq.arrows or qq.arrows[-1] != aid):
                    return False
            for bid in quiver.out_arrows(qq.target):
                extended = quiver.concat(qq, quiver.arrow_path(bid))
                if extended in basis and (not pp.arrows or pp.arrows[0] != bid):
                    return False
        return True

    return tuple(sorted((d for d in candidates if admissible(d)), key=path_sort_key))


def pinned_path_coalgebras():
    for seed in range(3):
        rng = random.Random(f"params/{seed}")
        for _ in range(100):
            yield random_path_subcoalgebra(rng)
        for _ in range(20):
            yield random_path_subcoalgebra(rng, max_vertices=8, max_arrows=12, max_basis=60)
    yield build_family(WindowedFamily.cycle(7, 3))
    # the forms benchmark's 3-cycle with a loop at u
    looped = Quiver(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("l", "u", "u")],
    )
    for maxlen in range(4):
        yield bounded_path_coalgebra(looped, maxlen)
    # the windows golden's families but Big, whose 19,900 paths are too many
    # for the reference's pass over all basis pairs
    text = (Path(__file__).parent / "golden" / "windows.qcf").read_text()
    values = resolve(dsl.parse(text)[0])[0].coalgebras
    for name in ("Grow", "Half", "Pair"):
        parts = [build_family(f) for f in values[name].families]
        yield direct_sum(parts) if len(parts) > 1 else parts[0]


def test_path_form_params_match_the_path_based_reference():
    sizes = set()
    for coalg in pinned_path_coalgebras():
        params = path_form_params(coalg)
        assert params.paths == reference_path_form_params(coalg)
        sizes.add(params.size)
    assert len(sizes) > 10


def reference_path_entries(coalg, params, alpha) -> dict:
    """The path form as first built: a pass over every composable pair of
    basis paths, beta(p, q) = alpha[d] when the composite qp is a parameter
    path d."""
    param_set = set(params.paths)
    entries = {}
    for q in coalg.basis_list:
        for p in coalg.basis_list:
            if q.target == p.source:
                d = coalg.quiver.concat(q, p)
                if d in param_set and not alpha[d].is_zero():
                    entries[(p, q)] = alpha[d]
    return entries


def reference_incidence_entries(coalg, params, alpha) -> dict:
    """The incidence form from a pass over every pair of basis segments:
    beta(e(t, y), e(x, z)) = alpha on the class of z = t between x and y,
    when that class is marked."""
    class_of = {(c.x, c.y, u): c for c in params.classes for u in c.members}
    entries = {}
    for t, y in coalg.basis_list:
        for x, z in coalg.basis_list:
            cls = class_of.get((x, y, z)) if z == t else None
            if cls is not None and cls.marked:
                value = alpha[(cls.x, cls.y, cls.members)]
                if not value.is_zero():
                    entries[((t, y), (x, z))] = value
    return entries


def reference_path_extendable(coalg, params) -> set:
    """The prefixes q of a parameter path whose rest is a basis path."""
    split = coalg.quiver.splits
    return {q for d in params.paths for q, p in split(d) if p in coalg.basis}


def reference_incidence_extendable(coalg, params) -> set:
    """The segments (x, z) with z a member of a marked class with lower end x."""
    return {(c.x, z) for c in params.marked for z in c.members}


def test_form_and_condition_d_match_the_per_class_references(
    path_instances, incidence_instances
):
    rng = random.Random(23)
    values = [Cyc.zero(), Cyc.one(), Cyc.rational(-2), Cyc.root(3), Cyc.root(4, 3)]
    sweeps = (
        (path_instances, reference_path_entries, reference_path_extendable),
        (incidence_instances, reference_incidence_entries, reference_incidence_extendable),
    )
    verdicts, zeros = set(), 0
    for instances, entries_of, extendable_of in sweeps:
        for coalg, params, _, _ in instances:
            alpha = {key: rng.choice(values) for key in params.support}
            zeros += sum(v.is_zero() for v in alpha.values())
            form = form_from_params(coalg, params, alpha)
            assert form.entries == entries_of(coalg, params, alpha)
            extendable = extendable_of(coalg, params)
            failures = tuple(b for b in coalg.basis_list if b not in extendable)
            check = check_condition_d(coalg, params)
            assert (check.ok, check.witness, check.failures) == (
                not failures, failures[0] if failures else None, failures
            )
            verdicts.add(check.ok)
    assert verdicts == {False, True} and zeros > 0


@pytest.mark.parametrize("case", [_two_arrow_path_case, _chain_incidence_case],
                         ids=["path", "incidence"])
def test_form_from_params_names_a_missing_alpha_key(case):
    coalg = case()[0]
    if isinstance(coalg, IncidenceSubcoalgebra):
        params = incidence_form_params(coalg)
    else:
        params = path_form_params(coalg)
    alpha = all_ones_alpha(params)
    key = next(iter(params.support))
    del alpha[key]
    with pytest.raises(FormError, match=re.escape(f"alpha missing value for {key!r}")):
        form_from_params(coalg, params, alpha)
