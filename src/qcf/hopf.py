"""Hopf algebra structures on the co-Frobenius families.

Three constructions:

* a closed-form product on the line family with offset s, on finitely
  supported elements (two branches, the second weighted by a free scalar
  alpha and only reachable when the combined x-degree overflows s);
* the same product transported to the cycle family, vertex indices mod n;
* an explicit finite-dimensional table on basis {h x^u : h in G, 0 <= u <= s}
  for a finite group G with a central element g and a character chi with
  chi(g) = q, subject to x h = chi(h) h x and x^(s+1) = alpha (g^(s+1) - 1).

Antipodes are solved for recursively along the filtration by x-degree
(`compute_antipode`), and `verify_hopf` checks the convolution identities
S * id = id * S = epsilon 1 with the other axioms; nothing about an antipode
is assumed.
"""

from __future__ import annotations

from ._record import record
from .lincomb import Accumulator, LinComb, _wrap, expand_slot, linear, map_linear, pair_tensor
from .scalars import MINUS_ONE, ONE_ROOT, Cyc, RootOfUnity, cached_mul, q_binomial, q_factorial

Label = tuple  # (group element index, x-degree) for the finite tables


class HopfError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite group data


@record(frozen=True)
class FiniteGroupData:
    """A finite group with a distinguished central element and a character.

    The character values are roots of unity; chi(g) must be the chosen
    primitive root q. Everything is validated before a table is built.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    identity: int
    g: int
    chi: tuple[RootOfUnity, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def validate(self, s: int, q: RootOfUnity, alpha: Cyc) -> None:
        n_elems = self.order
        if s < 1:
            raise HopfError(f"x-degree bound s must be >= 1, got {s}")
        if q.order != s + 1:
            raise HopfError(
                f"q must be a primitive root of order s+1 = {s + 1}, got order {q.order}"
            )
        t, e = self.table, self.identity
        gens = check_group_table(t, self.names, e)
        for h in range(n_elems):
            if self.table[self.g][h] != self.table[h][self.g]:
                raise HopfError(f"distinguished element is not central: fails at {self.names[h]}")
        chi_s = [r.scalar() for r in self.chi]
        # Light's argument again: with chi(e) = 1 and associativity, the b
        # with chi(ab) = chi(a) chi(b) for all a are closed under the
        # product, so the generators decide; the full loop runs only to
        # name the first failing pair
        if not chi_s[e].is_one() or _unmultiplicative_pair(t, chi_s, gens) is not None:
            a, b = _unmultiplicative_pair(t, chi_s, range(n_elems))
            raise HopfError(
                f"character is not multiplicative at ({self.names[a]}, {self.names[b]})"
            )
        if chi_s[self.g] != q.scalar():
            raise HopfError("character does not send the distinguished element to q")
        if not alpha.is_zero():
            for a in range(n_elems):
                if (s + 1) % self.chi[a].order != 0:
                    raise HopfError(
                        "alpha may be nonzero only when the character has order dividing s+1; "
                        f"fails at {self.names[a]}"
                    )


def check_group_table(t, names, e) -> list:
    """Raise HopfError unless the table t is a group with identity e: every
    entry an index, the identity law, associativity and inverses. Returns
    the generators that decided associativity."""
    n = len(t)
    for i, row in enumerate(t):
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise HopfError(f"malformed multiplication table row {i}")
    for i in range(n):
        if t[e][i] != i or t[i][e] != i:
            raise HopfError(f"identity law fails at {names[i]}")

    def step(w, h):
        return t[w][h]

    order = sorted(range(n), key=lambda h: -_orbit(e, step, h))
    gens = _greedy_generators(order, e, step)
    # Light's test: by the identity law the b with (ab)c = a(bc) for all
    # a, c are closed under the product, so the generators decide; the
    # full loop runs only to name the first failing triple
    if _nonassociative_triple(t, gens) is not None:
        a, b, c = _nonassociative_triple(t, range(n))
        raise HopfError(f"associativity fails at ({names[a]}, {names[b]}, {names[c]})")
    for a in range(n):
        if e not in t[a]:
            raise HopfError(f"element {names[a]} has no inverse")
    return gens


def _greedy_generators(candidates, start, step) -> list:
    """Generators of a finite product, with their certificate.

    Each candidate not yet reached becomes a generator. The reached set
    starts at `start` (the identity) and is closed under w -> step(w, g)
    for every generator g, where step returns the basis label that w g is
    a nonzero multiple of, or None. So every reached label lies in the
    subalgebra the generators generate, and since every candidate ends up
    reached or a generator, the generators generate everything.
    """
    reached = {start}
    gens = []
    for cand in candidates:
        if cand in reached:
            continue
        gens.append(cand)
        queue = list(reached)
        while queue:
            w = queue.pop()
            for g in gens:
                label = step(w, g)
                if label is not None and label not in reached:
                    reached.add(label)
                    queue.append(label)
    return gens


def _orbit(start, step, cand) -> int:
    """The number of labels reached from `start` by repeated w -> step(w,
    cand), `start` included: the longer a candidate's orbit, the more of the
    closure it reaches alone, so trying it first leaves fewer generators."""
    seen = {start}
    w = step(start, cand)
    while w is not None and w not in seen:
        seen.add(w)
        w = step(w, cand)
    return len(seen)


def _nonassociative_triple(t, middle):
    """The first (a, b, c) with b in `middle` and (ab)c != a(bc) in the group
    table t, or None."""
    n = len(t)
    for a in range(n):
        for b in middle:
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return a, b, c
    return None


def _unmultiplicative_pair(t, chi, right):
    """The first (a, b) with b in `right` and chi(ab) != chi(a) chi(b) in
    the group table t, or None."""
    for a in range(len(t)):
        for b in right:
            if chi[t[a][b]] != chi[a] * chi[b]:
                return a, b
    return None


def element_order(table, identity: int, a: int) -> int:
    """The least k >= 1 with a^k = identity in the group table."""
    k, cur = 1, a
    while cur != identity:
        cur = table[cur][a]
        k += 1
        if k > len(table):
            raise HopfError("multiplication table is not a group")
    return k


def cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    if n < 1:
        raise HopfError(f"cyclic group order must be >= 1, got {n}")
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def cyclic_names(n: int) -> tuple[str, ...]:
    """c^k is named "c{k}", the identity "e"."""
    return tuple("e" if k == 0 else f"c{k}" for k in range(n))


def product_table(t1, t2) -> tuple[tuple[int, ...], ...]:
    """The direct product of two group tables, (i, j) at index i |t2| + j."""
    n1, n2 = len(t1), len(t2)
    return tuple(
        tuple(r1[j1] * n2 + r2[j2] for j1 in range(n1) for j2 in range(n2))
        for r1 in t1
        for r2 in t2
    )


def cyclic_hopf_datum(n: int, s: int, q: RootOfUnity) -> FiniteGroupData:
    """Cyclic group of order n, distinguished generator, chi(c^k) = q^k."""
    if n % (s + 1) != 0:
        raise HopfError(f"{s + 1} does not divide {n}: no such character exists")
    chi = tuple(q.power(k) for k in range(n))
    return FiniteGroupData(cyclic_table(n), cyclic_names(n), identity=0, g=1 % n, chi=chi)


def cyclic_x_c2_hopf_datum(n: int, s: int, q: RootOfUnity) -> FiniteGroupData:
    """C_n x C_2 with g = (c, e); the character ignores the second factor."""
    if n % (s + 1) != 0:
        raise HopfError(f"{s + 1} does not divide {n}: no such character exists")
    table = product_table(cyclic_table(n), cyclic_table(2))
    names = tuple(f"c{i}t{f}" for i in range(n) for f in range(2))
    chi = tuple(q.power(i) for i in range(n) for _ in range(2))
    return FiniteGroupData(table, names, identity=0, g=2 * (1 % n), chi=chi)


def dihedral_table(n: int):
    """Order 2n, elements r^i s^f with s r = r^(-1) s."""
    if n < 1:
        raise HopfError(f"dihedral parameter must be >= 1, got {n}")
    elems = [(i, f) for i in range(n) for f in range(2)]
    index = {el: k for k, el in enumerate(elems)}
    table = []
    for (i, f) in elems:
        row = []
        for (j, t) in elems:
            jj = j if f == 0 else -j
            row.append(index[((i + jj) % n, (f + t) % 2)])
        table.append(tuple(row))
    names = tuple(f"r{i}s{f}" for (i, f) in elems)
    return tuple(table), names, index


def dihedral_hopf_datum(n: int, s: int, q: RootOfUnity) -> FiniteGroupData | None:
    """Dihedral group of order 2n when it has a central element of order n
    hit by some character; otherwise None. Characters send the rotation to
    a sign, so only small cases qualify."""
    table, names, index = dihedral_table(n)
    order = 2 * n
    identity = index[(0, 0)]
    central = [
        a
        for a in range(order)
        if all(table[a][h] == table[h][a] for h in range(order))
        and element_order(table, identity, a) == n
    ]
    elems = [(i, f) for i in range(n) for f in range(2)]
    # chi(r^i s^f) = (-1)^(er i + es f); the rotation's sign must have order dividing n
    for g in central:
        for er in (0, 1):
            if er * n % 2:
                continue
            for es in (0, 1):
                chi = tuple(MINUS_ONE if (er * i + es * f) % 2 else ONE_ROOT for (i, f) in elems)
                if chi[g] != q:
                    continue
                datum = FiniteGroupData(table, names, identity, g, chi)
                try:
                    datum.validate(s, q, Cyc.zero())
                except HopfError:
                    continue
                return datum
    return None


def group_from_csv_rows(rows: list[list[int]], names: list[str] | None = None):
    """Multiplication table as a CSV-style matrix of 0-based indices."""
    n = len(rows)
    table = tuple(tuple(int(x) for x in row) for row in rows)
    if any(len(row) != n for row in table):
        raise HopfError("multiplication table must be square")
    identity = None
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise HopfError("no identity element in table")
    names = tuple(names) if names else tuple(f"g{i}" for i in range(n))
    return table, names, identity


# ---------------------------------------------------------------------------
# closed-form products on the line and cycle families


class _OnDemand(dict):
    """A dict that computes a missing entry on first lookup and keeps it."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class LineProduct:
    """Product on labels (i, u) = the path from vertex i of length u, 0 <= u <= s.

    Without a modulus this is the line family; with a modulus n the vertex
    indices are reduced mod n, which gives the cycle family and needs s+1 | n.
    """

    def __init__(self, s: int, q: RootOfUnity, alpha: Cyc, n: int | None = None):
        if s < 1:
            raise HopfError(f"s must be >= 1, got {s}")
        if q.order != s + 1:
            raise HopfError(
                f"q must be a primitive root of order {s + 1}, got order {q.order}"
            )
        if n is not None and n % (s + 1) != 0:
            raise HopfError(f"{s + 1} does not divide {n}")
        self.s = s
        self.n = n
        qs = q.scalar()
        self.qpow = [Cyc.one()]
        for _ in range(s):
            self.qpow.append(self.qpow[-1] * qs)
        # `product` reads binom[(u + v, u)] only when u + v <= s
        self.binom = {(a, b): q_binomial(a, b, qs) for a in range(s + 1) for b in range(a + 1)}
        self.fac = [q_factorial(u, qs) for u in range(s + 1)]
        self.fac_inv = []
        for u, f in enumerate(self.fac):
            if f.is_zero():
                raise HopfError(f"q-factorial of {u} vanishes; q is not primitive")
            self.fac_inv.append(f.inv())
        self.overflow = {}
        for u in range(s + 1):
            for v in range(s + 1):
                if u + v >= s + 1:
                    coef = self.fac[u + v - s - 1] * self.fac_inv[u] * self.fac_inv[v]
                    self.overflow[(u, v)] = alpha * coef

    def _vertex(self, i: int) -> int:
        return i if self.n is None else i % self.n

    def product(self, a: Label, b: Label) -> LinComb:
        (i, u), (j, v) = a, b
        s = self.s
        c = self.qpow[(j * u) % (s + 1)]
        if u + v <= s:
            coef = cached_mul(c, self.binom[(u + v, u)])
            return LinComb.basis((self._vertex(i + j), u + v), coef)
        coef = cached_mul(c, self.overflow[(u, v)])
        w = u + v - s - 1
        # on a cycle with n = s+1 both terms have one label and cancel
        return linear((((self._vertex(i + j + s + 1), w), coef), ((self._vertex(i + j), w), -coef)))

    def coproduct(self, a: Label) -> LinComb:
        i, u = a
        return linear((((i, h), (self._vertex(i + h), u - h)), Cyc.one()) for h in range(u + 1))

    def counit(self, a: Label) -> Cyc:
        return Cyc.one() if a[1] == 0 else Cyc.zero()

    def table(self, labels=None) -> "HopfTable":
        """A HopfTable on the given labels (all n(s+1) of them on a cycle).

        Its structure maps are computed on first lookup, also at labels
        outside the given ones, so a finite window of the line can be used
        wherever a table is expected.
        """
        if labels is None:
            if self.n is None:
                raise HopfError("the line family is infinite: labels are needed")
            labels = [(i, u) for i in range(self.n) for u in range(self.s + 1)]
        return HopfTable(
            labels=tuple(labels),
            unit=(0, 0),
            degree={label: label[1] for label in labels},
            product=_OnDemand(lambda key: self.product(*key)),
            coproduct=_OnDemand(self.coproduct),
            counit=_OnDemand(self.counit),
            meta={},
        )


# ---------------------------------------------------------------------------
# finite Hopf tables


@record
class HopfTable:
    """Structure maps on a finite basis, as dicts keyed by labels and label
    pairs; `LineProduct.table` fills them on first lookup."""

    labels: tuple
    unit: Label
    degree: dict
    product: dict  # (label, label) -> LinComb
    coproduct: dict  # label -> LinComb over label pairs
    counit: dict  # label -> Cyc
    meta: dict
    antipode: dict | None = None  # label -> LinComb

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def mul_lin_basis(self, x: LinComb, b) -> LinComb:
        if len(x.terms) == 1:
            # one term: the product row scaled, as no two labels can collide
            # and no product of nonzero scalars is zero
            ((l, c),) = x.terms.items()
            return self.product[(l, b)].scale(c)
        acc = Accumulator()
        add = acc.add
        for l, c in x.items():
            for l2, c2 in self.product[(l, b)].items():
                add(l2, cached_mul(c, c2))
        return acc.result()

    def mul_basis_lin(self, a, y: LinComb) -> LinComb:
        if len(y.terms) == 1:
            ((l, c),) = y.terms.items()
            return self.product[(a, l)].scale(c)
        acc = Accumulator()
        add = acc.add
        for l, c in y.items():
            for l2, c2 in self.product[(a, l)].items():
                add(l2, cached_mul(c, c2))
        return acc.result()

    def mul(self, x: LinComb, y: LinComb) -> LinComb:
        return map_linear(pair_tensor(x, y), self.product.__getitem__)

    def mul_tensor2(self, x: LinComb, y: LinComb) -> LinComb:
        # componentwise product on the tensor square
        acc = Accumulator()
        add = acc.add
        for (a1, a2), c1 in x.items():
            for (b1, b2), c2 in y.items():
                left = self.product[(a1, b1)]
                right = self.product[(a2, b2)]
                c = cached_mul(c1, c2)
                for l1, d1 in left.items():
                    for l2, d2 in right.items():
                        add((l1, l2), cached_mul(c, cached_mul(d1, d2)))
        return acc.result()


def build_Hn(s: int, q: RootOfUnity, G: FiniteGroupData, alpha: Cyc) -> HopfTable:
    """Table on {h x^u}: x h = chi(h) h x, x^(s+1) = alpha (g^(s+1) - 1),
    grouplike group elements, and the skew-primitive generator pattern for x.

    Each product's terms are written straight into its dict, in the order
    `linear` would give them: (hk, u+v) with chi(k)^u, or on overflow
    (hk g^(s+1), w) with chi(k)^u alpha and then (hk, w) with its negative.
    No coefficient is zero, as the chi powers are roots of unity, and an
    overflow product is zero exactly when alpha = 0 or g^(s+1) = e, where
    its two labels coincide and cancel. The keys and output labels reuse
    the tuples of `labels`.
    """
    G.validate(s, q, alpha)
    order = G.order
    qs = q.scalar()
    chi_s = [r.scalar() for r in G.chi]
    chi_pow = [[Cyc.one()] for _ in range(order)]
    for h in range(order):
        for _ in range(s):
            chi_pow[h].append(chi_pow[h][-1] * chi_s[h])
    g_pows = [G.identity]
    for _ in range(s + 1):
        g_pows.append(G.mul(g_pows[-1], G.g))
    binom = {}
    for a in range(s + 1):
        for b in range(a + 1):
            binom[(a, b)] = q_binomial(a, b, qs)

    labels = tuple((h, u) for h in range(order) for u in range(s + 1))
    width = s + 1
    table = G.table
    gs1 = g_pows[s + 1]
    overflow = not alpha.is_zero() and gs1 != G.identity
    chi_alpha = [[(c * alpha, -(c * alpha)) for c in row] for row in chi_pow] if overflow else None
    product: dict = {}
    for h in range(order):
        row = table[h]
        for u in range(width):
            a = labels[h * width + u]
            for k in range(order):
                hk = row[k]
                base = hk * width
                coef = chi_pow[k][u]
                for v in range(width):
                    key = (a, labels[k * width + v])
                    if u + v <= s:
                        product[key] = _wrap({labels[base + u + v]: coef})
                    elif overflow:
                        w = u + v - width
                        plus, minus = chi_alpha[k][u]
                        product[key] = _wrap(
                            {labels[table[hk][gs1] * width + w]: plus, labels[base + w]: minus}
                        )
                    else:
                        product[key] = _wrap({})
    coproduct: dict = {}
    counit: dict = {}
    degree: dict = {}
    for (h, u) in labels:
        coproduct[(h, u)] = linear(
            (((h, u - j), (G.mul(h, g_pows[u - j]), j)), binom[(u, j)]) for j in range(u + 1)
        )
        counit[(h, u)] = Cyc.one() if u == 0 else Cyc.zero()
        degree[(h, u)] = u
    return HopfTable(
        labels=labels,
        unit=(G.identity, 0),
        degree=degree,
        product=product,
        coproduct=coproduct,
        counit=counit,
        meta={
            "kind": "lifted quantum line",
            "s": s,
            "q_order": q.order,
            "q_exponent": q.exponent,
            "group_order": order,
            "g": G.names[G.g],
            "g_order": element_order(G.table, G.identity, G.g),
            "dimension": len(labels),
        },
    )


def group_algebra(table, names, identity) -> HopfTable:
    """Group Hopf algebra: grouplike basis, inverse antipode."""
    order = len(table)
    labels = tuple(range(order))
    product = {
        (a, b): LinComb.basis(table[a][b]) for a in labels for b in labels
    }
    coproduct = {a: LinComb.basis((a, a)) for a in labels}
    counit = {a: Cyc.one() for a in labels}
    degree = {a: 0 for a in labels}
    return HopfTable(
        labels=labels,
        unit=identity,
        degree=degree,
        product=product,
        coproduct=coproduct,
        counit=counit,
        meta={"kind": "group algebra", "group_order": order, "dimension": order},
    )


def compute_antipode(table: HopfTable) -> dict:
    """Recursive antipode along increasing filtration degree.

    Grouplikes invert through the product table; any other basis element c
    must have a unique coproduct term of the shape c (x) grouplike, which is
    solved for. It only solves: it raises HopfError when the recursion
    cannot proceed, and leaves the convolution identities to `verify_hopf`.
    """
    order = sorted(table.labels, key=lambda b: (table.degree[b], repr(b)))
    unit = table.unit
    one = LinComb.basis(unit)
    grouplikes = [b for b in table.labels
                  if table.counit[b].is_one() and table.coproduct[b] == LinComb.basis((b, b))]
    inverse: dict = {}
    for a in grouplikes:
        for b in grouplikes:
            if table.product[(a, b)] == one and table.product[(b, a)] == one:
                inverse[a] = b
                break
        else:
            raise HopfError(f"grouplike {a!r} is not invertible")

    antipode: dict = {}
    for c in order:
        if c in inverse:
            antipode[c] = LinComb.basis(inverse[c])
            continue
        top = [(b, coeff) for (a, b), coeff in table.coproduct[c].items() if a == c]
        if len(top) != 1 or top[0][0] not in inverse:
            raise HopfError(
                f"coproduct of {c!r} lacks a unique leading term with grouplike right factor"
            )
        gamma, lead = top[0]
        # epsilon(c) 1 minus the sum of S(a) b over the terms a (x) b below c
        acc = Accumulator()
        acc.add(unit, table.counit[c])
        for (a, b), coeff in table.coproduct[c].items():
            if a == c:
                continue
            if a not in antipode:
                raise HopfError(f"filtration order broken: {a!r} needed before {c!r}")
            minus = -coeff
            for l, d in table.mul_lin_basis(antipode[a], b).items():
                acc.add(l, cached_mul(d, minus))
        antipode[c] = table.mul_lin_basis(acc.result(), inverse[gamma]).scale(lead.inv())
    return antipode


def with_antipode(table: HopfTable) -> HopfTable:
    table.antipode = compute_antipode(table)
    return table


def algebra_generators(table: HopfTable) -> list | None:
    """Labels that generate the algebra, certified by `_greedy_generators`:
    a label is reached when the product of a reached label and a generator
    is a nonzero multiple of it. Candidates are taken in (degree, -orbit,
    repr) order, the orbit counted by `_orbit` through the same step: a
    long orbit reaches much of the closure alone, so the set stays small
    however the labels are numbered. Any certified set generates the
    algebra, so the order changes how many generators there are, not what
    they prove.

    None when the unit is not a label, or when a label has no degree to
    order the candidates by. None too when a product or coproduct of
    labels is missing from the table, or when one leaves their span (a
    finite window of the line family): there the labels span no
    subalgebra, and generators prove nothing.
    """
    labels = table.labels
    inside = set(labels)
    if table.unit not in inside:
        return None
    try:
        degree = {b: table.degree[b] for b in labels}
        for a in labels:
            for b in labels:
                if not inside.issuperset(table.product[(a, b)].labels()):
                    return None
            if not all(x in inside and y in inside for x, y in table.coproduct[a].labels()):
                return None
    except KeyError:
        return None

    def step(w, g):
        terms = table.product[(w, g)].terms
        if len(terms) == 1:
            ((label, c),) = terms.items()
            if not c.is_zero():
                return label
        return None

    unit = table.unit
    order = sorted(labels, key=lambda b: (degree[b], -_orbit(unit, step, b), repr(b)))
    return _greedy_generators(order, unit, step)


@record
class CheckResult:
    """One axiom's verdict. `checked` counts the basis tuples visited, up
    to and including the first failing one; `method` says which ran:
    "exhaustive", or "generators g1, ..., gk" for the reduced sweep."""

    ok: bool
    failure: str | None = None
    checked: int = 0
    method: str = "exhaustive"


@record
class HopfVerifyReport:
    ok: bool
    checks: dict
    dimension: int

    def first_failure(self) -> str | None:
        for name, res in self.checks.items():
            if not res.ok:
                return f"{name}: {res.failure}"
        return None


def _sweep(outcomes, method: str) -> CheckResult:
    """CheckResult of an iterable giving, per tuple visited, None or a
    failure string; it stops at the first failure. A table entry missing
    for the tuple being visited (a KeyError) is that tuple's failure."""
    checked = 0
    try:
        for failure in outcomes:
            checked += 1
            if failure is not None:
                return CheckResult(False, failure, checked, method)
    except KeyError as missing:
        return CheckResult(False, f"no table entry at {missing.args[0]!r}", checked + 1, method)
    return CheckResult(True, None, checked, method)


def _associativity(table: HopfTable, middle):
    """Per triple (a, b, c), b in `middle` and a, c over the labels: None
    when (ab)c = a(bc), else the failure string.

    When ab = c1 l and bc = c2 m are one-term products, (ab)c = a(bc) says
    that row (l, c) scaled by c1 equals row (a, m) scaled by c2. No
    coefficient is zero, so the scaled rows keep their labels, and they are
    compared term by term without being built. Multi-term and zero products
    go through `mul_lin_basis` and `mul_basis_lin`, which accumulate.
    """
    labels = table.labels
    pair = table.product
    mul_lin_basis = table.mul_lin_basis
    mul_basis_lin = table.mul_basis_lin
    for a in labels:
        for b in middle:
            ab = pair[(a, b)]
            one = len(ab.terms) == 1
            if one:
                ((l, c1),) = ab.terms.items()
            for c in labels:
                bc = pair[(b, c)]
                if one and len(bc.terms) == 1:
                    ((m, c2),) = bc.terms.items()
                    left = pair[(l, c)].terms
                    right = pair[(a, m)].terms
                    same = left.keys() == right.keys()
                    if same:
                        for k, v in left.items():
                            if cached_mul(v, c1) != cached_mul(right[k], c2):
                                same = False
                                break
                else:
                    same = mul_lin_basis(ab, c) == mul_basis_lin(a, bc)
                yield None if same else f"({a!r} {b!r} {c!r})"


def verify_hopf(table: HopfTable, exhaustive: bool = False) -> HopfVerifyReport:
    """Check every Hopf axiom on the basis; failures are report content,
    never exceptions.

    With `exhaustive` every axiom runs over all basis tuples: the oracle.
    Otherwise, once the unit laws hold and `algebra_generators` certifies
    generators, associativity runs with its middle factor over the
    generators only, and so do the multiplicativity of the coproduct and
    counit with their left factor once associativity holds (Light's test:
    the elements passing each of these checks form a subalgebra). The
    generators are tried by degree, then longest orbit, then repr; any
    certified set generates the algebra, so the order sets only the number
    of tuples visited. A reduced check that fails runs again over all
    tuples, so the verdicts and failure strings are always those of the
    exhaustive sweep. Associativity (`_associativity`) compares the scaled
    rows of two one-term products term by term, and builds both sides only
    for other products.

    Only here are the antipode's convolution identities checked
    (`compute_antipode` just solves), so an antipode failing them, or
    lacking a label its coproduct terms need, is an `antipode_identities`
    failure, not an exception.
    """
    labels = table.labels
    unit = table.unit
    checks: dict[str, CheckResult] = {}
    gens = None
    method = "exhaustive"

    def run(name, check, reducible=False):
        # check(over) yields None or a failure string per tuple, with the
        # reducible slot running over `over`
        if reducible and gens is not None:
            checks[name] = _sweep(check(gens), method)
            if checks[name].ok:
                return
        checks[name] = _sweep(check(labels), "exhaustive")

    def unit_laws(over):
        if not table.counit[unit].is_one():
            yield "counit of the unit is not 1"
        elif table.coproduct[unit] != LinComb.basis((unit, unit)):
            yield "coproduct of the unit is not unit (x) unit"
        else:
            yield None
        for b in over:
            if table.product[(unit, b)] != LinComb.basis(b):
                yield f"1 * {b!r}"
            elif table.product[(b, unit)] != LinComb.basis(b):
                yield f"{b!r} * 1"
            else:
                yield None

    run("unit_laws", unit_laws)
    if not exhaustive and checks["unit_laws"].ok:
        gens = algebra_generators(table)
        if gens is not None:
            method = "generators " + ", ".join(map(repr, gens))

    run("associativity", lambda middle: _associativity(table, middle), reducible=True)
    if not checks["associativity"].ok:
        gens = None

    def coassociativity(over):
        for b in over:
            d = table.coproduct[b]
            lhs = expand_slot(d, 0, lambda l: table.coproduct[l])
            rhs = expand_slot(d, 1, lambda l: table.coproduct[l])
            yield None if lhs == rhs else f"{b!r}"

    run("coassociativity", coassociativity)

    def counit_laws(over):
        for b in over:
            d = table.coproduct[b].items()
            left = linear((y, cached_mul(c, table.counit[x])) for (x, y), c in d)
            right = linear((x, cached_mul(c, table.counit[y])) for (x, y), c in d)
            yield None if left == LinComb.basis(b) and right == LinComb.basis(b) else f"{b!r}"

    run("counit_laws", counit_laws)

    def coproduct_multiplicative(left):
        for a in left:
            da = table.coproduct[a]
            for b in labels:
                lhs = map_linear(table.product[(a, b)], lambda l: table.coproduct[l])
                rhs = table.mul_tensor2(da, table.coproduct[b])
                yield None if lhs == rhs else f"({a!r}, {b!r})"

    run("coproduct_multiplicative", coproduct_multiplicative, reducible=True)

    def counit_multiplicative(left):
        for a in left:
            for b in labels:
                lhs = Cyc.zero()
                for l, c in table.product[(a, b)].items():
                    lhs = lhs + cached_mul(c, table.counit[l])
                ok = (lhs - table.counit[a] * table.counit[b]).is_zero()
                yield None if ok else f"({a!r}, {b!r})"

    run("counit_multiplicative", counit_multiplicative, reducible=True)

    if table.antipode is not None:
        def antipode_identities(over):
            # S * id ("left") and id * S ("right") against epsilon(b) 1
            antipode = table.antipode
            for b in over:
                terms = table.coproduct[b].items()
                missing = [l for (x, y), _ in terms for l in (x, y) if l not in antipode]
                if missing:
                    yield f"no antipode at {missing[0]!r}"
                    continue
                expect = LinComb.basis(unit, table.counit[b])
                left, right = Accumulator(), Accumulator()
                for (x, y), c in terms:
                    for l, d in table.mul_lin_basis(antipode[x], y).items():
                        left.add(l, cached_mul(d, c))
                    for l, d in table.mul_basis_lin(x, antipode[y]).items():
                        right.add(l, cached_mul(d, c))
                if left.result() != expect:
                    yield f"left convolution at {b!r}"
                elif right.result() != expect:
                    yield f"right convolution at {b!r}"
                else:
                    yield None

        run("antipode_identities", antipode_identities)
    else:
        checks["antipode_identities"] = CheckResult(False, "antipode not computed")

    ok = all(res.ok for res in checks.values())
    return HopfVerifyReport(ok=ok, checks=checks, dimension=table.dimension)


# ---------------------------------------------------------------------------
# the coalgebra identification between the cycle family and the finite table


@record
class CoalgIsoReport:
    ok: bool
    n: int
    s: int
    checked_pairs: int
    failure: str | None = None


def verify_coalgebra_iso_Cn(n: int, s: int, q: RootOfUnity, alpha: Cyc) -> CoalgIsoReport:
    """Identify the cycle-family basis with rescaled monomials c^i x^u / (u)_q!
    inside the cyclic-group table; check it is a bijective coalgebra map and
    that pulling the table product back gives the closed-form cycle product."""
    line = LineProduct(s, q, alpha, n)
    cn = line.table()
    table = build_Hn(s, q, cyclic_hopf_datum(n, s, q), alpha)

    def phi(label: Label) -> LinComb:
        i, u = label
        return LinComb.basis((i, u), line.fac_inv[u])

    def phi_inv_label(label: Label) -> LinComb:
        i, u = label
        return LinComb.basis((i, u), line.fac[u])

    # bijectivity: distinct basis images with nonzero scale, dimensions match
    if cn.dimension != table.dimension:
        return CoalgIsoReport(False, n, s, 0, "dimension mismatch")

    for b in cn.labels:
        lhs = map_linear(phi(b), lambda l: table.coproduct[l])
        rhs = map_linear(
            cn.coproduct[b], lambda pair: pair_tensor(phi(pair[0]), phi(pair[1]))
        )
        if lhs != rhs:
            return CoalgIsoReport(False, n, s, 0, f"coproduct mismatch at {b!r}")
        eps = Cyc.zero()
        for l, c in phi(b).items():
            eps = eps + c * table.counit[l]
        if not (eps - cn.counit[b]).is_zero():
            return CoalgIsoReport(False, n, s, 0, f"counit mismatch at {b!r}")

    checked = 0
    for a in cn.labels:
        for b in cn.labels:
            through_table = map_linear(
                table.mul(phi(a), phi(b)), phi_inv_label
            )
            direct = cn.product[(a, b)]
            if through_table != direct:
                return CoalgIsoReport(
                    False, n, s, checked, f"pulled-back product mismatch at ({a!r}, {b!r})"
                )
            checked += 1
    return CoalgIsoReport(True, n, s, checked)
