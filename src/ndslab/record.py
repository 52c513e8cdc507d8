"""Frozen records: what ndslab used of the standard library's frozen data
classes, without generating and compiling six methods per class at import
and without importing that module and inspect.

`@record` reads the fields off the class's own annotations, in order; a
class attribute named like a field is its default.  It adds `__init__`,
which stores each field with `object.__setattr__` and then calls
`__post_init__` when the class has one, and `__eq__`, `__hash__` and
`__repr__` equal to the data class versions.  A method the class defines
itself is kept (`__hash__ = None` included).  Assignment and deletion raise
FrozenInstanceError.  Not supported: `replace`, `fields` and `asdict`,
`ClassVar`, inheritance between records, keyword-only fields.

`__init__` is compiled once per shape, meaning (field count, has
`__post_init__`), with placeholder names; each class gets a copy of that
code renamed to its own fields and its defaults as the function's
defaults, so every instance runs the bytecode a per-class compile would
give, and the import compiles no more sources than there are shapes.
"""

from functools import cache
from operator import attrgetter
from types import FunctionType


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of a field of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_INIT_GLOBALS = {"_set": object.__setattr__}


@cache
def _init_code(count: int, post_init: bool):
    """The __init__ code of a shape: fields _f0, _f1, ... each stored under
    its own name, the constant `_fi` being the name it is stored under."""
    names = [f"_f{i}" for i in range(count)]
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if post_init:
        body.append("self.__post_init__()")
    namespace = {}
    exec(f"def __init__({', '.join(['self', *names])}):\n {'; '.join(body) or 'pass'}", namespace)
    return namespace["__init__"].__code__


def record(cls):
    names = tuple(cls.__annotations__)
    own = cls.__dict__
    defaults = tuple(own[n] for n in names if n in own)
    if any(n not in own for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    code = _init_code(len(names), hasattr(cls, "__post_init__"))
    renamed = dict(zip(code.co_varnames[1:], names))  # its only locals are its arguments
    code = code.replace(co_varnames=("self", *names),
                        co_consts=tuple(renamed.get(c, c) for c in code.co_consts))
    init = FunctionType(code, _INIT_GLOBALS, "__init__", defaults or None)

    # the field tuple, as data classes compare and hash it
    if len(names) > 1:
        key = attrgetter(*names)
    elif names:
        one = attrgetter(*names)
        key = lambda self: (one(self),)  # noqa: E731
    else:
        key = lambda self: ()  # noqa: E731

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    methods = {"__init__": init, "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__}
    for name, method in methods.items():
        if name not in own:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
