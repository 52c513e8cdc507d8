"""Frozen records: what ndslab used of the standard library's frozen data
classes, without generating and compiling six methods per class at import
(68 of the 84 ms that importing ndslab took) and without importing that
module and inspect.

`@record` reads the fields off the class's own annotations, in order; a
class attribute named like a field is its default.  It adds `__init__`,
which stores each field with `object.__setattr__` and then calls
`__post_init__` when the class has one, and `__eq__`, `__hash__` and
`__repr__` equal to the data class versions.  A method the class defines
itself is kept (`__hash__ = None` included).  Assignment and deletion raise
FrozenInstanceError.  Not supported: `replace`, `fields` and `asdict`,
`ClassVar`, inheritance between records, keyword-only fields.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of a field of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    own = cls.__dict__
    # only __init__ is compiled: a closure taking *args costs every instance
    namespace = {"_set": object.__setattr__}
    params = ["self"]
    for n in names:
        if n in own:
            namespace[f"_default_{n}"] = own[n]
            params.append(f"{n}=_default_{n}")
        else:
            params.append(n)
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n {'; '.join(body) or 'pass'}", namespace)

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

    methods = {"__init__": namespace["__init__"], "__eq__": __eq__,
               "__hash__": __hash__, "__repr__": __repr__}
    for name, method in methods.items():
        if name not in own:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
