"""`record` against its oracle, the standard library's frozen dataclass: twin
classes with one body agree on construction, equality, hashing and repr;
importing ndslab loads none of dataclasses, inspect and typing, and
compiles one `__init__` per record shape."""

import ast
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ndslab
import ndslab.cli  # noqa: F401  (every module of the package)
from ndslab import record as rec
from ndslab.record import FrozenInstanceError, record


# one class body per shape that src/ndslab uses; each call builds a fresh class


def empty():
    class Empty:
        pass
    return Empty


def one():
    class One:
        a: object
    return One


def three():
    class Three:
        a: object
        b: object
        c: object = "default"
    return Three


def normalised():
    """__post_init__ rewrites a field and keeps a non-field attribute, as
    ProductSpec.space does."""
    class Normalised:
        a: object
        b: object

        def __post_init__(self):
            object.__setattr__(self, "a", ("normalised", self.a))
            object.__setattr__(self, "extra", repr(self.b))
    return Normalised


def semantic_eq():
    """BiWord's shape: its own equality and no hash."""
    class SemanticEq:
        a: object
        b: object

        def __eq__(self, other):
            if not isinstance(other, SemanticEq):
                return NotImplemented
            return len(repr(self.a)) == len(repr(other.a))

        __hash__ = None
    return SemanticEq


def cached_hash():
    """NdsSpec's shape: a hash computed once, in a non-field attribute."""
    class CachedHash:
        a: object
        b: object = 0

        def __post_init__(self):
            object.__setattr__(self, "_hash", hash((self.b, self.a)))

        def __hash__(self):
            return self._hash
    return CachedHash


def own_repr():
    class OwnRepr:
        a: object

        def __repr__(self):
            return f"<{self.a!r}>"
    return OwnRepr


SHAPES = (empty, one, three, normalised, semantic_eq, cached_hash, own_repr)


def twins(shape):
    """(record, frozen dataclass) built from one body; a body with its own
    __eq__ is declared eq=False, as BiWord was."""
    return record(shape()), dataclass(frozen=True, eq="__eq__" not in vars(shape()))(shape())


TWINS = {shape.__name__: twins(shape) for shape in SHAPES}
NEST_R, NEST_D = TWINS["one"]

# pairs (value for the record twin, value for the dataclass twin)
LEAVES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-1, max_value=1, max_denominator=3),
    st.sampled_from(["", "a", "b"]),
).map(lambda v: (v, v))
PAIRS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: ((t[0][0], t[1][0]), (t[0][1], t[1][1]))),
        inner.map(lambda p: (NEST_R(p[0]), NEST_D(p[1]))),
    ),
    max_leaves=4,
)


def _arity(cls):
    names = list(cls.__annotations__)
    return sum(n not in vars(cls) for n in names), len(names)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return ("unhashable", str(exc))


@pytest.mark.parametrize("shape", sorted(TWINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_twins_agree(shape, data):
    R, D = TWINS[shape]
    required, total = _arity(R)
    made = []
    for _ in range(2):
        n = data.draw(st.integers(required, total))
        args = data.draw(st.lists(PAIRS, min_size=n, max_size=n))
        made.append((R(*[a for a, _ in args]), D(*[d for _, d in args])))
    (r1, d1), (r2, d2) = made
    assert repr(r1) == repr(d1)
    assert _hash(r1) == _hash(d1)
    assert (r1 == r2) == (d1 == d2)
    assert (r1 != r2) == (d1 != d2)
    assert (r1 == r1) and not (r1 != r1)
    assert (r1 == "x", r1 != "x") == (d1 == "x", d1 != "x") == (False, True)


@pytest.mark.parametrize("shape", sorted(TWINS))
def test_fields_defaults_and_frozen(shape):
    R, D = TWINS[shape]
    required, total = _arity(R)
    for cls in (R, D):
        if required:
            with pytest.raises(TypeError):  # missing
                cls(*range(required - 1))
        with pytest.raises(TypeError):  # extra
            cls(*range(total + 1))
        obj = cls(*range(required))
        if total:
            first = next(iter(cls.__annotations__))
            with pytest.raises(TypeError):  # repeated
                cls(*range(required or 1), **{first: 0})
        for name in (*cls.__annotations__, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert repr(R(*range(required))) == repr(D(*range(required)))
    assert vars(R(*range(total))) == vars(D(*range(total)))


def test_frozen_error_and_defaults():
    R, _ = TWINS["three"]
    obj = R(1, 2)
    assert obj.c == "default"
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'a'"):
        obj.a = 0
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'c'"):
        del obj.c
    assert issubclass(FrozenInstanceError, AttributeError)
    assert R.__init__.__qualname__ == f"{R.__qualname__}.__init__"
    assert hash(obj) == hash((1, 2, "default"))
    assert NEST_R(Fraction(1, 2)) == NEST_R(Fraction(2, 4))


def test_a_required_field_after_a_default_is_refused():
    def body():
        class Misordered:
            a: object = 0
            b: object
        return Misordered
    for make in (record, dataclass(frozen=True)):
        with pytest.raises(TypeError):
            make(body())


SRC = pathlib.Path(ndslab.__file__).parent


def _run(*args: str) -> str:
    """The stdout of a fresh interpreter that imports ndslab from SRC."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _stdlib_imports() -> list:
    """Every module the package's sources import that is not one of its own."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
                found.add(node.module)
    return sorted(found)


def _records() -> list:
    """Every class of the package made by `record`."""
    return [
        cls for name, mod in sorted(sys.modules.items()) if name.startswith("ndslab.")
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == name
        and vars(cls).get("__setattr__") is rec._frozen_setattr
    ]


class TestImportGuard:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        code = (
            "import sys; before = set(sys.modules); import ndslab, ndslab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        assert _run("-c", code) == "[]"

    def test_import_without_site_loads_no_typing(self):
        """`site` may preload typing (a .pth file); without it nothing that
        importing ndslab.cli runs loads typing, dataclasses or inspect."""
        code = ("import sys; import ndslab.cli; "
                "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        assert _run("-S", "-c", code) == "[]"

    def test_the_command_line_loads_no_chaos_convergence_or_corpus(self):
        code = ("import sys; import ndslab.cli; "
                "print(sorted({'ndslab.chaos', 'ndslab.convergence', 'ndslab.corpus'} & set(sys.modules)))")
        assert _run("-c", code) == "[]"

    def test_chaos_convergence_and_corpus_load_on_first_access(self):
        code = ("import ndslab; print(ndslab.chaos.__name__, ndslab.convergence.__name__, "
                "ndslab.corpus.run_corpus.__module__, hasattr(ndslab, 'no_such_module'))")
        assert _run("-c", code) == "ndslab.chaos ndslab.convergence ndslab.corpus False"

    def test_import_compiles_one_init_per_record_shape(self):
        """Count the sources compiled from strings while ndslab.cli is
        imported, after every standard library module it imports is loaded,
        against the distinct (field count, has __post_init__) shapes."""
        code = (
            f"import sys\nfor name in {_stdlib_imports()!r}: __import__(name)\n"
            "compiled = []\n"
            "sys.addaudithook(lambda event, args: compiled.append(args) "
            "if event == 'compile' and args[1] == '<string>' else None)\n"
            "import ndslab.cli\nprint(len(compiled))"
        )
        shapes = {(len(cls.__annotations__), hasattr(cls, "__post_init__")) for cls in _records()}
        assert int(_run("-c", code)) <= len(shapes)

    def test_each_record_init_takes_its_fields_and_defaults(self):
        classes = _records()
        assert ndslab.checkers.Param in classes and ndslab.spaces.BiWord in classes
        for cls in classes:
            fields = tuple(cls.__annotations__)
            init = cls.__init__
            assert init.__code__.co_varnames[: len(fields) + 1] == ("self", *fields), cls
            defaults = tuple(vars(cls)[n] for n in fields if n in vars(cls))
            assert (init.__defaults__ or ()) == defaults, cls

    def test_no_module_declares_a_dataclass(self):
        offenders = [p.name for p in sorted(SRC.rglob("*.py")) if "@dataclass" in p.read_text()]
        assert offenders == []
