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

Every CLI command starts a fresh interpreter, and a run calls few of these
methods: of most classes only `__init__`. So `@record` writes each method's
source text but compiles none of them. It puts a stand-in in each method's
place, and the stand-in's first call compiles that one method with `exec`,
puts it on the class in the stand-in's place and runs it. Later calls run
the compiled method directly, and a method nothing calls is never compiled.
`@dataclass` compiles every method when the class is made, and imports
`inspect`, `ast`, `dis` and `tokenize`. The methods stay field by field, not
loops over the fields: `Path` is built and hashed once or more for every
basis path of a path coalgebra, and generic closures over
`operator.attrgetter` made its `hash` and `==` 1.5 to 2 times slower.
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
    src = {
        "__init__": [
            f"def __init__(self, {', '.join(params)}):",
            *(f"    {line}" for line in body or ["pass"]),
        ],
        "__repr__": ["def __repr__(self):", f'    return self.__class__.__qualname__ + f"({shown})"'],
    }
    for op, sym in [("eq", "==")] + (_ORDER if order else []):
        src[f"__{op}__"] = [
            f"def __{op}__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {mine} {sym} {theirs}",
            "    return NotImplemented",
        ]
    if frozen:
        src["__hash__"] = ["def __hash__(self):", f"    return hash({mine})"]
        src["__reduce__"] = ["def __reduce__(self):", f"    return self.__class__, {mine}"]
        src["__setattr__"] = [
            "def __setattr__(self, name, value):",
            "    if type(self) is __cls or name in __names:",
            '        raise __frozen(f"cannot assign to field {name!r}")',
            "    super(__cls, self).__setattr__(name, value)",
        ]
        src["__delattr__"] = [
            "def __delattr__(self, name):",
            "    if type(self) is __cls or name in __names:",
            '        raise __frozen(f"cannot delete field {name!r}")',
            "    super(__cls, self).__delattr__(name)",
        ]
    for key, lines in src.items():
        if cls.__dict__.get(key) is None:  # None: a class defining __eq__ gets __hash__ = None
            setattr(cls, key, _stand_in(cls, key, lines, env))
    if not frozen and "__hash__" not in cls.__dict__:
        cls.__hash__ = None
    return cls


def _stand_in(cls, key, lines, env):
    """Method `key` of `cls` as a function that, on its first call, compiles
    the method from `lines` in the globals `env`, puts it on `cls` in its own
    place and runs it. A stand-in fetched before that and called later finds
    the method compiled."""

    def first_call(*args, **kwargs):
        fn = env.get(key)
        if fn is None:
            exec("\n".join(lines), env)
            fn = env[key]
            fn.__qualname__ = f"{cls.__qualname__}.{key}"
            setattr(cls, key, fn)
        return fn(*args, **kwargs)

    return first_call
