"""Span recording for the traced run, installed from outside the program.

`install()` wraps the layer-boundary functions of each `qcf` module. A
wrapper replaces the original at every place a name is looked up: the
defining module, every `qcf` module that imported it by name, and every
class attribute that aliases it (`Cyc.__rmul__` is `Cyc.__mul__`). A site
left unpatched would run uncounted, so the patched modules are recorded with
the spans and the self-test checks them. A boundary the sources no longer
define is skipped and listed; its metrics read 0.

Every wrapped call records a span (name, parent, start, end) in flat arrays
held in memory; `Recorder.dump()` writes them out once the command ends, and
`summarize()` turns a dump into per-layer metrics. Self time is a span's
duration minus the time its child spans cover. Busy time counts only the
outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from array import array
from collections import Counter
from math import gcd
from pathlib import Path

# (module, attribute path, span name). Several attributes may share a span.
BOUNDARIES = (
    ("scalars", "Cyc.__mul__", "scalars.cyc_mul"),
    ("scalars", "Cyc.__add__", "scalars.cyc_add"),
    ("scalars", "Cyc.inv", "scalars.cyc_inv"),
    ("scalars", "cached_mul", "scalars.cached_mul"),
    ("lincomb", "LinComb.add_term", "lincomb.add_term"),
    ("lincomb", "LinComb.__eq__", "lincomb.eq"),
    ("lincomb", "LinComb.scale", "lincomb.scale"),
    ("lincomb", "map_linear", "lincomb.map_linear"),
    ("lincomb", "pair_tensor", "lincomb.pair_tensor"),
    ("lincomb", "expand_slot", "lincomb.expand_slot"),
    ("linalg", "sparse_int_nullspace", "linalg.sparse_int_nullspace"),
    ("linalg", "sparse_int_echelon", "linalg.sparse_int_echelon"),
    ("linalg", "sparse_int_rank", "linalg.sparse_int_rank"),
    ("linalg", "field_nullspace", "linalg.field_nullspace"),
    ("forms", "balanced_space_bruteforce", "forms.balanced_space_bruteforce"),
    ("forms", "is_balanced", "forms.is_balanced"),
    ("forms", "radicals", "forms.radicals"),
    ("forms", "path_form_params", "forms.form_params"),
    ("forms", "incidence_form_params", "forms.form_params"),
    ("hopf", "build_Hn", "hopf.build_Hn"),
    ("hopf", "compute_antipode", "hopf.compute_antipode"),
    ("hopf", "verify_hopf", "hopf.verify_hopf"),
    ("hopf", "HopfTable.mul_lin_basis", "hopf.mul_lin_basis"),
    ("hopf", "HopfTable.mul_basis_lin", "hopf.mul_basis_lin"),
    ("hopf", "HopfTable.mul_tensor2", "hopf.mul_tensor2"),
    ("hopf", "HopfTable.mul", "hopf.mul"),
    ("posets", "embed", "posets.embed"),
    ("posets", "Poset.__init__", "posets.poset_build"),
    ("posets", "Poset.from_covers", "posets.poset_build"),
    ("posets", "IncidenceSubcoalgebra.__init__", "posets.incidence_build"),
    ("posets", "IncidenceSubcoalgebra.validate", "posets.incidence_validate"),
    ("posets", "IncidenceSubcoalgebra.comul", "posets.comul"),
    ("quiver", "Quiver.splits", "quiver.splits"),
    ("quiver", "PathSubcoalgebra.comul", "quiver.comul"),
    ("quiver", "build_family", "quiver.build_family"),
    ("dsl", "parse", "dsl.parse"),
    ("cli", "main", "cli.main"),
    ("cli", "resolve", "cli.resolve"),
    ("cli", "cmd_forms", "cli.command"),
    ("cli", "cmd_embed", "cli.command"),
    ("cli", "cmd_hopf", "cli.command"),
)

MODULES = ("scalars", "lincomb", "linalg", "quiver", "posets", "forms", "hopf", "dsl", "cli")


def _conductor(x) -> int:
    return getattr(x, "m", 1)


def _by_conductor(name: str):
    """Hook counting a binary Cyc operation by the conductor it works in."""

    def hook(counters, args, result):
        ma, mb = _conductor(args[0]), _conductor(args[1])
        counters[f"{name}.m{ma if ma == mb else ma * mb // gcd(ma, mb)}"] += 1

    return hook


def _on_echelon(counters, args, result):
    counters["linalg.rows"] += len(args[0])
    counters["linalg.pivots"] += len(result)


def _on_nullspace(counters, args, result):
    counters["linalg.unknowns"] += args[1]


def _on_field_nullspace(counters, args, result):
    matrix = args[0]
    counters["linalg.field_nullspace.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _on_parse(counters, args, result):
    counters["dsl.input_bytes"] += len(args[0].encode())


def _on_dumps(counters, args, result):
    counters["cli.report_bytes"] += len(result.encode())


# span name -> hook(counters, args, result), called after the wrapped call
HOOKS = {
    "scalars.cyc_mul": _by_conductor("scalars.cyc_mul"),
    "scalars.cyc_add": _by_conductor("scalars.cyc_add"),
    "linalg.sparse_int_echelon": _on_echelon,
    "linalg.sparse_int_nullspace": _on_nullspace,
    "linalg.field_nullspace": _on_field_nullspace,
    "dsl.parse": _on_parse,
    "cli.serialize": _on_dumps,
}


class Recorder:
    """Spans in flat arrays: name id, parent index, start, end (seconds)."""

    def __init__(self):
        self.names: list[str] = []
        self.sid = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.sites: dict[str, set] = {}  # span name -> modules whose lookups were patched
        self.missing: list[str] = []  # boundaries the sources no longer define
        self._current = [-1]

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        sid_value = self.names.index(name)
        sid, parent, start, end = self.sid, self.parent, self.start, self.end
        current = self._current
        clock = time.perf_counter
        hook = HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(sid)
            sid.append(sid_value)
            parent.append(current[0])
            end.append(0.0)
            current[0] = idx
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                current[0] = parent[idx]
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        """Write the spans (binary arrays) and a JSON sidecar next to them."""
        with open(path, "wb") as fh:
            for arr in (self.sid, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.sid),
            "counters": dict(self.counters),
            "sites": {name: sorted(mods) for name, mods in self.sites.items()},
            "missing": self.missing,
        }
        Path(str(path) + ".json").write_text(json.dumps(meta))


def _qcf_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "qcf" or name.startswith("qcf.")]


def _sites(modules):
    """Every (namespace, attribute) through which a qcf name can be looked up."""
    for mod in modules:
        yield mod.__dict__, mod
        for value in list(mod.__dict__.values()):
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                yield value.__dict__, value


def install(recorder: Recorder) -> None:
    import qcf.cli  # noqa: F401  (loads every module the CLI can reach)

    modules = _qcf_modules()
    by_name = {m.__name__: m for m in modules}
    wrappers: dict[int, tuple] = {}
    for module, attr, name in BOUNDARIES:
        owner = by_name.get(f"qcf.{module}")
        try:
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr.split(".")[-1])
        except AttributeError:  # the function is gone; its metrics read 0
            recorder.missing.append(f"qcf.{module}.{attr}")
            continue
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrappers[id(fn)] = (fn, recorder.wrap(fn, name), name)
    for namespace, holder in _sites(modules):
        for key, value in list(namespace.items()):
            fn = value.__func__ if isinstance(value, staticmethod) else value
            hit = wrappers.get(id(fn))
            if hit is None or hit[0] is not fn:
                continue
            fn, traced, name = hit
            setattr(holder, key, staticmethod(traced) if isinstance(value, staticmethod) else traced)
            where = holder.__name__ if isinstance(holder, types.ModuleType) else holder.__module__
            recorder.sites.setdefault(name, set()).add(where)
    # the CLI serializes through the json module it imported
    cli = by_name["qcf.cli"]
    cli.json = types.SimpleNamespace(dumps=recorder.wrap(json.dumps, "cli.serialize"))


# --- analysis of a dump --------------------------------------------------


def load(path: Path):
    meta = json.loads(Path(str(path) + ".json").read_text())
    n = meta["spans"]
    arrays = []
    with open(path, "rb") as fh:
        for code in ("H", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return meta, arrays


def summarize(path: Path) -> dict:
    """Per-name calls, busy and self time; per-module self time; counters."""
    meta, (sid, parent, start, end) = load(path)
    names = meta["names"]
    k = len(names)
    calls = [0] * k
    busy = [0.0] * k
    self_time = [0.0] * k
    outer_end = [float("-inf")] * k  # end of the last outermost span per name
    for i in range(len(sid)):
        s = sid[i]
        t0, t1 = start[i], end[i]
        d = t1 - t0
        calls[s] += 1
        self_time[s] += d
        p = parent[i]
        if p >= 0:
            self_time[sid[p]] -= d
        if t0 >= outer_end[s]:  # spans are stored in start order and nest
            busy[s] += d
            outer_end[s] = t1
    out: dict = {}
    for s, name in enumerate(names):
        out[f"{name}.calls"] = calls[s]
        out[f"{name}.busy_s"] = busy[s]
        out[f"{name}.self_s"] = self_time[s]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            self_time[s] for s, name in enumerate(names) if name.split(".")[0] == module
        )
    out.update(meta["counters"])
    out["missing"] = meta["missing"]
    out["trace.spans"] = len(sid)
    return out
