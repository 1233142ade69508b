"""Record classes: the standard `@dataclass` cut down to what qcf uses.

    @record(frozen=True, order=True)
    class Path:
        source: str
        target: str
        arrows: tuple[str, ...]

The fields are the names annotated in the class body, in order; base
classes contribute none. A field with a value in the class body defaults to
it. `@record` writes `__init__`, the dataclass `__repr__` and an `__eq__` that
returns NotImplemented for other classes. `frozen=True` adds `__hash__`
over the fields and makes assigning or deleting a field raise
FrozenInstanceError; other records are unhashable. A frozen record's
`__reduce__` rebuilds it from its field tuple, so `copy` and `pickle` never
assign a field, and a frozen class may declare `__slots__` in its body.
`order=True` adds the four comparisons, field tuple against field tuple. A
method the class body defines itself is kept. Unlike `@dataclass`,
`__repr__` has no guard against a record that contains itself.

Every CLI command starts a fresh interpreter, so this runs at each start.
All of a class's methods are compiled from one source text with one `exec`,
where `@dataclass` pays one `exec` per method plus the import of `inspect`,
`ast`, `dis` and `tokenize`. The methods stay field by field, not loops
over the fields: `Path` is built and hashed once or more for every basis
path of a path coalgebra.
"""


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


_MISSING = object()


def record(cls=None, /, *, frozen=False, order=False):
    """Class decorator, bare or called with `frozen` and `order`."""
    if cls is None:
        return lambda c: _build(c, frozen, order)
    return _build(cls, frozen, order)


_ORDER = [("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">=")]


def _build(cls, frozen, order):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    env = {
        "__cls": cls,
        "__names": names,
        "__setattr": object.__setattr__,
        "__frozen": FrozenInstanceError,
    }
    params = []
    body = []
    for n in names:
        default = cls.__dict__.get(n, _MISSING)
        if default is _MISSING:
            params.append(n)
        else:
            env[f"__default_{n}"] = default
            params.append(f"{n}=__default_{n}")
        body.append(f"__setattr(self, {n!r}, {n})" if frozen else f"self.{n} = {n}")

    mine = "(" + "".join(f"self.{n}," for n in names) + ")"
    theirs = "(" + "".join(f"other.{n}," for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    src = [
        f"def __init__(self, {', '.join(params)}):",
        *(f"    {line}" for line in body or ["pass"]),
        "def __repr__(self):",
        f'    return self.__class__.__qualname__ + f"({shown})"',
    ]
    for op, sym in [("eq", "==")] + (_ORDER if order else []):
        src += [
            f"def __{op}__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {mine} {sym} {theirs}",
            "    return NotImplemented",
        ]
    if frozen:
        src += [
            "def __hash__(self):",
            f"    return hash({mine})",
            "def __reduce__(self):",
            f"    return self.__class__, {mine}",
            "def __setattr__(self, name, value):",
            "    if type(self) is __cls or name in __names:",
            '        raise __frozen(f"cannot assign to field {name!r}")',
            "    super(__cls, self).__setattr__(name, value)",
            "def __delattr__(self, name):",
            "    if type(self) is __cls or name in __names:",
            '        raise __frozen(f"cannot delete field {name!r}")',
            "    super(__cls, self).__delattr__(name)",
        ]
    before = set(env)
    exec("\n".join(src), env)
    for key in set(env) - before - {"__builtins__"}:
        fn = env[key]
        fn.__qualname__ = f"{cls.__qualname__}.{key}"
        if cls.__dict__.get(key) is None:  # None: a class defining __eq__ gets __hash__ = None
            setattr(cls, key, fn)
    if not frozen and "__hash__" not in cls.__dict__:
        cls.__hash__ = None
    return cls

