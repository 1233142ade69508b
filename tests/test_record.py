"""`qcf._record.record` against `dataclasses.dataclass` as the oracle: each
shape is declared both ways, and the two classes must agree."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import qcf
from qcf._record import FrozenInstanceError, record
from qcf.dsl import Pos, Token
from qcf.quiver import Path


def twins(annotations, defaults=None, **options):
    """The class `Shape` declared with dataclasses and with record, in that order."""
    out = []
    for decorate in (dataclasses.dataclass, record):
        body = {"__annotations__": dict(annotations), **(defaults or {})}
        out.append(decorate(**options)(type("Shape", (), body)))
    return out


PLAIN = twins({"a": "int", "b": "str"})
DEFAULTED = twins({"kind": "str", "n": "int", "parts": "tuple"}, defaults={"n": 0, "parts": ()})
FROZEN = twins({"line": "int", "col": "int"}, frozen=True)
ORDERED = twins({"source": "str", "target": "str", "arrows": "tuple"}, frozen=True, order=True)
SHAPES = {"plain": PLAIN, "defaulted": DEFAULTED, "frozen": FROZEN, "ordered": ORDERED}

CALLS = {
    "plain": [((1, "x"), {}), ((), {"a": 2, "b": "y"}), ((3,), {"b": "z"})],
    "defaulted": [(("cyclic",), {}), (("csv", 4), {}), (("product",), {"parts": (1, 2), "n": 3})],
    "frozen": [((1, 2), {}), ((), {"col": 5, "line": 4})],
    "ordered": [(("u", "v", ("a",)), {}), (("u",), {"target": "u", "arrows": ()})],
}
BAD_CALLS = [((), {}), ((1,), {}), ((1, 2, 3, 4, 5), {}), ((1, 2, 3), {"nope": 0})]


def outcome(cls, args, kwargs):
    try:
        obj = cls(*args, **kwargs)
    except TypeError as exc:
        return "TypeError", str(exc)
    return "ok", repr(obj)


@pytest.mark.parametrize("shape", SHAPES)
def test_constructor_calls_agree(shape):
    oracle, mine = SHAPES[shape]
    for args, kwargs in CALLS[shape] + BAD_CALLS:
        assert outcome(mine, args, kwargs) == outcome(oracle, args, kwargs)
    for args, kwargs in CALLS[shape]:
        assert vars(mine(*args, **kwargs)) == vars(oracle(*args, **kwargs))
    assert outcome(mine, (), {})[0] == "TypeError"  # every shape has a required field


@pytest.mark.parametrize("shape", SHAPES)
def test_repr_and_equality_agree(shape):
    oracle, mine = SHAPES[shape]
    made = [(oracle(*a, **k), mine(*a, **k)) for a, k in CALLS[shape]]
    for d1, r1 in made:
        assert repr(r1) == repr(d1)
        for d2, r2 in made:
            assert (r1 == r2) == (d1 == d2)
            assert (r1 != r2) == (d1 != d2)
        # another class never compares equal, not even the oracle twin
        assert r1 != d1 and d1 != r1
        assert not (r1 == vars(r1)) and r1 != tuple(vars(r1).values())
        assert r1.__eq__(d1) is NotImplemented


def test_records_of_different_classes_are_unequal():
    # same name, fields, repr and values; only the class differs
    frozen = twins({"a": "int", "b": "str"}, frozen=True)
    mine = [PLAIN[1](1, "x"), frozen[1](1, "x")]
    assert repr(mine[0]) == repr(mine[1]) == repr(PLAIN[0](1, "x"))
    assert mine[0] != mine[1] and mine[1] != mine[0]
    assert (mine[0] == mine[1]) == (PLAIN[0](1, "x") == frozen[0](1, "x"))


@pytest.mark.parametrize("shape", SHAPES)
def test_hashing_agrees(shape):
    oracle, mine = SHAPES[shape]
    for args, kwargs in CALLS[shape]:
        d, r = oracle(*args, **kwargs), mine(*args, **kwargs)
        if shape in ("frozen", "ordered"):
            assert hash(r) == hash(d) == hash(mine(*args, **kwargs))
            assert len({r, mine(*args, **kwargs)}) == 1
        else:
            assert mine.__hash__ is None is oracle.__hash__
            with pytest.raises(TypeError):
                hash(d)
            with pytest.raises(TypeError):
                hash(r)


@pytest.mark.parametrize("shape", ["frozen", "ordered"])
def test_frozen_fields_cannot_be_assigned_or_deleted(shape):
    oracle, mine = SHAPES[shape]
    args, kwargs = CALLS[shape][0]
    for obj in (oracle(*args, **kwargs), mine(*args, **kwargs)):
        name = next(iter(vars(obj)))
        before = repr(obj)
        for action in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name), lambda: setattr(obj, "new", 0)):
            with pytest.raises(AttributeError) as exc:
                action()
            assert type(exc.value).__name__ == "FrozenInstanceError"
        assert repr(obj) == before
    assert issubclass(FrozenInstanceError, AttributeError)


def test_unfrozen_fields_can_be_assigned():
    for cls in PLAIN:
        obj = cls(1, "x")
        obj.a = 2
        del obj.b
        assert vars(obj) == {"a": 2}


# pickle finds a class by its module and name, so these twins are declared here
@dataclasses.dataclass(frozen=True, order=True)
class OracleEdge:
    source: str
    target: str
    arrows: tuple


@record(frozen=True, order=True)
class Edge:
    source: str
    target: str
    arrows: tuple


@record(frozen=True, order=True)
class SlottedEdge:
    __slots__ = ("source", "target", "arrows")
    source: str
    target: str
    arrows: tuple


@pytest.mark.parametrize("mine", [Edge, SlottedEdge])
def test_frozen_copies_and_pickles_agree_with_the_oracle(mine):
    # the field values are copied as the oracle copies them: a list field is
    # shared by a shallow copy and copied by a deep one and by pickling
    for fields in [("u", "v", ("a", "b")), ("u", "u", ()), ("u", "v", ["a", ["b"]])]:
        shared = []
        for obj in (OracleEdge(*fields), mine(*fields)):
            twins = copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))
            for twin in twins:
                assert type(twin) is type(obj) and twin == obj
                assert repr(twin) == repr(obj)
            shared.append([twin.arrows is obj.arrows for twin in twins])
            with pytest.raises(AttributeError) as exc:
                twins[1].source = "w"
            assert type(exc.value).__name__ == "FrozenInstanceError"
        assert shared[0] == shared[1]
        assert repr(mine(*fields)) == repr(OracleEdge(*fields)).replace("OracleEdge", mine.__name__)
    assert shared[0] == [True, False, False]
    assert not hasattr(SlottedEdge("u", "v", ()), "__dict__")


def test_paths_positions_and_tokens_survive_copy_and_pickle():
    assert not hasattr(Path("u", "v", ("a",)), "__dict__")
    for obj in [
        Path("u", "u", ()),
        Path("u", "w", ("a", "b")),
        Pos(3, 7),
        Token("name", "x", Pos(1, 1)),
    ]:
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)


def test_sorted_paths_agree_with_the_oracle():
    oracle = dataclasses.make_dataclass(
        "Path", [("source", str), ("target", str), ("arrows", tuple)], frozen=True, order=True
    )
    rng = random.Random(5)
    fields = [
        (rng.choice("uvw"), rng.choice("uvw"), tuple(rng.choice("abc") for _ in range(rng.randrange(3))))
        for _ in range(300)
    ]
    mine = sorted(Path(*f) for f in fields)
    assert [(p.source, p.target, p.arrows) for p in mine] == [
        (p.source, p.target, p.arrows) for p in sorted(oracle(*f) for f in fields)
    ]
    for p, q in zip(mine, mine[1:]):
        d, e = oracle(p.source, p.target, p.arrows), oracle(q.source, q.target, q.arrows)
        assert (p < q, p <= q, p > q, p >= q) == (d < e, d <= e, d > e, d >= e)
    assert repr(Path("u", "u", ())) == "<u>" and repr(Path("u", "v", ("a", "b"))) == "<a b>"
    with pytest.raises(TypeError):
        Path("u", "u", ()) < ("u", "u", ())


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a site-packages .pth file may import typing before qcf runs
    src = str(FilePath(qcf.__file__).resolve().parent.parent)
    probe = "import sys, qcf.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
