"""Seeded input documents and output checks for the three benchmark workloads.

Each workload is one `qcf COMMAND` invocation on a document written from the
seed. The program receives only the written files; nothing here runs inside
the measured interpreter.

Why these workloads:

- hopf-verify: the exhaustive Hopf-axiom sweep on two dimension-64 lifted
  quantum lines. `hopf`, `lincomb` and `scalars` do nearly all the work. The
  two tables sit on opposite sides of the `cached_mul` memo's hit rate: H4
  repeats a few dozen distinct products, H8 has hundreds at conductor 8.
- forms: brute-force balanced-form spaces up to 10,000 unknowns. `linalg`
  does most of the work over integers and rationals; `hopf` never runs, so
  a scalar change should leave it unchanged.
- embed: the sum-over-paths embedding of the 128-element Boolean lattice.
  Rational coefficients and `Path` labels only, a large set-up (poset
  closure and validation), a 9 MB report, and the largest memory.
"""

from __future__ import annotations

import random
from math import gcd
from pathlib import Path

WORKLOADS = ("hopf-verify", "forms", "embed")
DEFAULT_SEED = 0

# --- hopf-verify -----------------------------------------------------------


def _primitive_root(order: int, k: int) -> str:
    """zeta_order^k written as a primitive root, as the DSL requires."""
    k %= order
    d = gcd(k, order)
    return f"root({order // d},{k // d})"


def _hn_declaration(rng: random.Random, name: str, s: int, moduli: tuple[int, ...]):
    """H_n over prod C_m with g the generator of the first factor and
    chi(i, ...) = q^i, q = zeta_(s+1); group indices permuted by the seed.

    Returns (declaration text, csv file name, csv text).
    """
    elements = [()]
    for m in moduli:
        elements = [e + (i,) for e in elements for i in range(m)]
    order = len(elements)
    perm = list(range(order))
    rng.shuffle(perm)
    index = {e: perm[k] for k, e in enumerate(elements)}
    table = [[0] * order for _ in range(order)]
    chi = [""] * order
    for a in elements:
        chi[index[a]] = _primitive_root(s + 1, a[0])
        for b in elements:
            prod = tuple((x + y) % m for x, y, m in zip(a, b, moduli))
            table[index[a]][index[b]] = index[prod]
    g = index[(1,) + (0,) * (len(moduli) - 1)]
    csv_name = f"{name.lower()}.csv"
    csv_text = "".join(",".join(map(str, row)) + "\n" for row in table)
    decl = (
        f'hopf {name} = hn(s={s}, q={_primitive_root(s + 1, 1)}, group=csv("{csv_name}"), '
        f"g={g}, chi=[{', '.join(chi)}], alpha=1)\n"
    )
    return decl, csv_name, csv_text


def hopf_files(seed: int, small: bool) -> dict[str, str]:
    rng = random.Random(f"hopf-verify/{seed}")
    # H4: s=3 over C8 x C2; H8: s=7 over C8. Both have dimension 64.
    specs = [("H2", 1, (2, 2)), ("H4", 3, (4,))] if small else [("H4", 3, (8, 2)), ("H8", 7, (8,))]
    files = {}
    doc = ""
    for name, s, moduli in specs:
        decl, csv_name, csv_text = _hn_declaration(rng, name, s, moduli)
        doc += decl
        files[csv_name] = csv_text
    files["doc.qcf"] = doc
    return files


def check_hopf(report: dict, small: bool) -> str | None:
    results = report.get("results", {})
    expected = {"H2", "H4"} if small else {"H4", "H8"}
    if set(results) != expected:
        return f"hopf-verify reports {sorted(results)}, expected {sorted(expected)}"
    for name, entry in results.items():
        if entry.get("verified") is not True:
            return f"{name}: verified is {entry.get('verified')!r}"
        bad = [k for k, c in entry.get("checks", {}).items() if c.get("ok") is not True]
        if bad or len(entry.get("checks", {})) != 7:
            return f"{name}: failed or missing axiom checks {bad}"
    return None


# --- forms -----------------------------------------------------------------


def _boolean_lattice(name: str, rank: int, rng: random.Random | None = None) -> str:
    """Poset declaration of the subsets of a rank-element set.

    With an rng the element names are permuted and the covers shuffled."""
    size = 1 << rank
    labels = list(range(size))
    if rng is not None:
        rng.shuffle(labels)
    covers = [(i, i | 1 << b) for i in range(size) for b in range(rank) if not i >> b & 1]
    if rng is not None:
        rng.shuffle(covers)
    elements = " ".join(f"x{labels[i]}" for i in range(size))
    cover_text = " ".join(f"x{labels[a]} < x{labels[b]};" for a, b in covers)
    return f"poset {name} {{ elements: {elements}; covers: {cover_text} }}\n"


def _path_declarations(name: str, coalg) -> str:
    quiver = coalg.quiver
    arrows = " ".join(f"{a}: {quiver.source(a)} -> {quiver.target(a)};" for a in quiver.arrow_ids)
    items = " ".join(
        (" ".join(p.arrows) if p.arrows else p.source) + ";" for p in coalg.basis_list
    )
    arrow_part = f" arrows: {arrows}" if arrows else ""
    return (
        f"quiver Q{name} {{ vertices: {' '.join(quiver.vertices)};{arrow_part} }}\n"
        f"coalgebra {name} = basis(Q{name}) {{ {items} }}\n"
    )


def _incidence_declarations(name: str, coalg) -> str:
    poset = coalg.poset
    covers = " ".join(f"{a} < {b};" for a, b in poset.covers())
    segments = " ".join(f"[{lo},{hi}];" for lo, hi in coalg.basis_list)
    cover_part = f" covers: {covers}" if covers else ""
    return (
        f"poset P{name} {{ elements: {' '.join(poset.elements)};{cover_part} }}\n"
        f"coalgebra {name} = segments(P{name}) {{ {segments} }}\n"
    )


FORMS_BOUND = 200
FORMS_BATCH = 24  # random path and incidence instances each


def forms_files(seed: int, small: bool) -> dict[str, str]:
    from qcf import rand

    rng = random.Random(f"forms/{seed}")
    n, rank, batch = (3, 2, 2) if small else (25, 4, FORMS_BATCH)
    doc = (
        # 3-vertex cycle with a loop; paths of length <= 3 give dimension 22
        "quiver Q { vertices: u v w; arrows: a: u -> v; b: v -> w; c: w -> u; l: u -> u; }\n"
        f"coalgebra A_cycle = family(Cn, n={n}, s=3)\n"
        + _boolean_lattice("B", rank)
        + "coalgebra A_lattice = full(B)\n"
        + f"coalgebra A_paths = paths(Q, maxlen={1 if small else 3})\n"
    )
    for i in range(batch):
        doc += _path_declarations(f"R{i:02d}p", rand.random_path_subcoalgebra(rng))
        doc += _incidence_declarations(f"R{i:02d}i", rand.random_incidence_subcoalgebra(rng))
    return {"doc.qcf": doc}


def check_forms(report: dict, small: bool) -> str | None:
    results = report.get("results", {})
    batch = 2 if small else FORMS_BATCH
    if len(results) != 3 + 2 * batch:
        return f"forms reports {len(results)} coalgebras, expected {3 + 2 * batch}"
    for name, entry in results.items():
        if entry.get("agree") is not True or entry.get("nullspace_dim") != entry.get("param_count"):
            return f"{name}: brute force and closed form disagree"
    return None


# --- embed -----------------------------------------------------------------


def embed_files(seed: int, small: bool) -> dict[str, str]:
    rng = random.Random(f"embed/{seed}")
    doc = _boolean_lattice("B", 3 if small else 7, rng) + "coalgebra E = full(B)\n"
    return {"doc.qcf": doc}


def check_embed(report: dict, small: bool) -> str | None:
    results = report.get("results", {})
    if set(results) != {"E"}:
        return f"embed reports {sorted(results)}, expected ['E']"
    entry = results["E"]
    segments = 3 ** (3 if small else 7)
    if entry.get("morphism_ok") is not True or entry.get("injective") is not True:
        return "embedding is not an injective coalgebra morphism"
    if len(entry.get("images", {})) != segments or entry.get("image_dimension") != segments:
        return f"embedding covers {len(entry.get('images', {}))} segments, expected {segments}"
    return None


# --- registry --------------------------------------------------------------

_FILES = {"hopf-verify": hopf_files, "forms": forms_files, "embed": embed_files}
_CHECKS = {"hopf-verify": check_hopf, "forms": check_forms, "embed": check_embed}


def write_inputs(workload: str, seed: int, directory: Path, small: bool = False) -> list[str]:
    """Write the workload's files into `directory`; return the CLI arguments."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in _FILES[workload](seed, small).items():
        (directory / name).write_text(text)
    args = [workload, "--input", str(directory / "doc.qcf")]
    if workload == "forms":
        args += ["--bound", str(FORMS_BOUND)]
    return args


def check_report(workload: str, report: dict, small: bool = False) -> str | None:
    """Content check valid for every seed; None when the report is right."""
    if report.get("command") != workload:
        return f"report is for {report.get('command')!r}"
    return _CHECKS[workload](report, small)
