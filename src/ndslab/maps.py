"""Map sequences over one phase space: rule-based term dispatch, exact
prefix/window composition into closed normal forms, derived systems (tail,
iterate, product), and validated closed-form laws for cumulative shift
exponents / rotation coefficients (and their finite-space analogue).
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import gcd, lcm

from .record import record
from .spaces import (
    AffineAngle,
    Arc,
    BasicOpen,
    BiWord,
    CircleSpace,
    Cylinder,
    FiniteId,
    FiniteSet,
    FiniteSpace,
    Point,
    ProductOpen,
    ProductPoint,
    ProductSpace,
    ShiftSpace,
    SpaceDesc,
    SpaceMismatch,
)


class OverlappingRules(ValueError):
    """Two rule patterns match the same index, or the overlap check could not
    decide within its budget whether they do."""


class LawValidationError(RuntimeError):
    """A derived closed-form law disagreed with stepwise composition."""


# ---------------------------------------------------------------------------
# index patterns


@record
class EqualsPattern:
    value: int

    def matches(self, n: int) -> bool:
        return n == self.value

    def ordinal(self, n: int) -> int:
        return 1

    def first_match(self) -> int:
        return self.value


@record
class ArithProgPattern:
    first: int
    step: int

    def __post_init__(self):
        if self.first < 1 or self.step < 1:
            raise ValueError("arithmetic progressions need first >= 1 and step >= 1")

    def matches(self, n: int) -> bool:
        return n >= self.first and (n - self.first) % self.step == 0

    def ordinal(self, n: int) -> int:
        return (n - self.first) // self.step + 1

    def first_match(self) -> int:
        return self.first


@record
class PowerPattern:
    """Matches n = base**k + offset for k = 1, 2, 3, ..."""

    base: int
    offset: int

    def __post_init__(self):
        if self.base < 2 or self.offset < 0:
            raise ValueError("power patterns need base >= 2 and offset >= 0")

    def matches(self, n: int) -> bool:
        v = n - self.offset
        if v < self.base:
            return False
        while v % self.base == 0:
            v //= self.base
        return v == 1

    def ordinal(self, n: int) -> int:
        v = n - self.offset
        k = 0
        while v > 1:
            v //= self.base
            k += 1
        return k

    def first_match(self) -> int:
        return self.base + self.offset


# ap(1,1) matches every index: a law's catch-all piece
IndexPattern = EqualsPattern | ArithProgPattern | PowerPattern


# ---------------------------------------------------------------------------
# map terms


@record
class IdentityTerm:
    pass


@record
class ShiftPowTerm:
    exponent: int


@record
class RotPowTerm:
    coefficient: int


@record
class FiniteFnTerm:
    table: tuple  # table[i-1] is the image of id i; NdsSpec checks it is total

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))

    @property
    def surjective(self) -> bool:
        return len(set(self.table)) == len(self.table)


@record
class FamilyTerm:
    """sigma^(coeff*k + add) or rot^(coeff*k + add) at the k-th match of the
    owning rule's pattern."""

    kind: str  # "shift" | "rot"
    coeff: int
    add: int = 0

    def at_ordinal(self, k: int):
        e = self.coeff * k + self.add
        return ShiftPowTerm(e) if self.kind == "shift" else RotPowTerm(e)


MapTerm = IdentityTerm | ShiftPowTerm | RotPowTerm | FiniteFnTerm
RuleTerm = MapTerm | FamilyTerm

IDENTITY = IdentityTerm()


def term_exponent(term: MapTerm) -> int:
    """Net shift exponent / rotation coefficient of a concrete term."""
    if isinstance(term, IdentityTerm):
        return 0
    if isinstance(term, ShiftPowTerm):
        return term.exponent
    if isinstance(term, RotPowTerm):
        return term.coefficient
    raise SpaceMismatch("finite map terms have no exponent")


def term_is_surjective(term: MapTerm) -> bool:
    if isinstance(term, FiniteFnTerm):
        return term.surjective
    return True  # shift powers, rotations, identity are bijections


# ---------------------------------------------------------------------------
# system specifications


@record
class Rule:
    pattern: IndexPattern
    term: RuleTerm


# two power patterns with unequal offsets are checked for a common index up
# to this bound
VALIDATION_HORIZON = 4096

# powers a power pattern walks against a progression before the overlap check
# gives up undecided
OVERLAP_WALK_BUDGET = 1 << 15


def _power_meets_progression(q: PowerPattern, p: ArithProgPattern):
    """First n = base^k + offset (k >= 1) matched by the progression, or None.

    From k = step.bit_length() on, base^k mod step is purely periodic: a
    prime power of the step that divides base^k at all does so by then, and
    the rest is a unit's orbit.  So the walk of residues past the first term
    is exhaustive once the residue it had there comes round again.  A walk
    longer than OVERLAP_WALK_BUDGET raises OverlappingRules, undecided."""
    k, power = 1, q.base
    while power + q.offset < p.first:
        k, power = k + 1, power * q.base
    target, r = (p.first - q.offset) % p.step, power % p.step
    settle = max(k, p.step.bit_length())
    for k in range(k, k + OVERLAP_WALK_BUDGET):
        if r == target:
            return q.base**k + q.offset
        if k == settle:
            anchor = r
        elif k > settle and r == anchor:
            return None
        r = r * q.base % p.step
    raise OverlappingRules(
        f"cannot decide whether {q} and {p} share an index: the powers mod {p.step} "
        f"do not repeat within the overlap check's budget of {OVERLAP_WALK_BUDGET} powers"
    )


def _powers_meet(p: PowerPattern, q: PowerPattern):
    """First n = p.base^j + offset = q.base^k + offset (j, k >= 1), or None.

    b1^j = b2^k holds exactly when both bases are powers of one root: then
    the smaller base divides the larger and their quotient is a power of
    that root too, so dividing down as in Euclid's algorithm ends at the
    largest common root g (b1 = g^s, b2 = g^t, s and t coprime) or at a
    remainder, and the first common power is g^lcm(s, t) = b1^t."""
    g, y = sorted((p.base, q.base))
    while g != y:
        y, rem = divmod(y, g)
        if rem:
            return None
        g, y = sorted((g, y))
    t, b = 0, q.base
    while b > 1:
        b //= g
        t += 1
    return p.base**t + p.offset


def _patterns_overlap(p: IndexPattern, q: IndexPattern):
    """First index matched by both patterns, or None.  Exact, except two
    power patterns with unequal offsets, walked up to VALIDATION_HORIZON."""
    if isinstance(p, EqualsPattern):
        return p.value if q.matches(p.value) else None
    if isinstance(q, EqualsPattern):
        return q.value if p.matches(q.value) else None
    if isinstance(p, ArithProgPattern) and isinstance(q, ArithProgPattern):
        # the CRT: n = p.first + p.step*t meets q exactly when p.step*t is
        # q.first - p.first mod q.step, solvable iff g divides that gap; the
        # common indices then step by the lcm, from the least one that is at
        # least both first terms
        g = gcd(p.step, q.step)
        gap, rest = divmod(q.first - p.first, g)
        if rest:
            return None
        t = gap * pow(p.step // g, -1, q.step // g)
        n, joint = max(p.first, q.first), p.step // g * q.step
        return n + (p.first + p.step * t - n) % joint
    if isinstance(p, PowerPattern) and not isinstance(q, PowerPattern):
        p, q = q, p
    if isinstance(p, ArithProgPattern):
        return _power_meets_progression(q, p)
    if isinstance(q, PowerPattern):
        if p.offset == q.offset:
            return _powers_meet(p, q)
        n = q.base + q.offset
        while n <= VALIDATION_HORIZON:
            if p.matches(n):
                return n
            n = (n - q.offset) * q.base + q.offset
        return None
    return None


@record
class NdsSpec:
    """A rule-based map sequence f_1, f_2, ... over one space.

    Every index matches at most one rule; pattern pairs are checked for
    disjointness exactly, except two power patterns with unequal offsets,
    checked up to VALIDATION_HORIZON.  Two literals can only clash on one
    value, so each literal is paired with the other kinds of pattern and
    with the literals of its own value only.  A power pattern whose powers
    against a progression do not repeat within OVERLAP_WALK_BUDGET raises
    OverlappingRules undecided.  Unmatched indices get `default`.  Every
    term must fit the space (SpaceMismatch otherwise), and every table must
    be total on 1..n (ValueError otherwise).
    """

    space: SpaceDesc
    rules: tuple = ()
    default: MapTerm = IDENTITY
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        for term in [r.term for r in self.rules] + [self.default]:
            if isinstance(term, FiniteFnTerm) and (
                not term.table or any(not (1 <= v <= len(term.table)) for v in term.table)
            ):
                raise ValueError("finite map table must be total on 1..n")
            # every term must fit the space; a family is checked by its kind
            term_to_normal(self.space, term.at_ordinal(1) if isinstance(term, FamilyTerm) else term)
        patterns = [r.pattern for r in self.rules]
        others, literals = [], {}
        for b, pb in enumerate(patterns):
            if isinstance(pb, EqualsPattern):
                literals.setdefault(pb.value, []).append(b)
            else:
                others.append(b)
        for a, pa in enumerate(patterns):
            if isinstance(pa, EqualsPattern):
                later = sorted(b for b in (*others, *literals[pa.value]) if b > a)
            else:
                later = range(a + 1, len(patterns))
            for b in later:
                pb = patterns[b]
                n = _patterns_overlap(pa, pb)
                if n is not None:
                    # a power index can have more digits than str() writes
                    at = n if n.bit_length() <= 4096 else f"of {n.bit_length()} bits"
                    raise OverlappingRules(f"index {at} matches both {pa} and {pb}")
        # specs key checkers._MASK_CACHE: hash the rule tree once, not per lookup
        object.__setattr__(self, "_hash", hash(
            (self.space, self.rules, self.default, self.name)
        ))

    def __hash__(self) -> int:
        return self._hash


@record
class DerivedSpec:
    """A tail or iterate of a rule system: step n is the composed window of
    `base` over indices offset + stride(n-1) + 1 .. offset + stride*n.
    Built by tail and iterate only."""

    base: NdsSpec
    offset: int
    stride: int

    @property
    def space(self):
        return self.base.space


@record
class ProductSpec:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a product system needs at least two components")
        # built once, not per read; not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "space", ProductSpace(tuple(p.space for p in self.parts)))


SystemSpec = NdsSpec | DerivedSpec | ProductSpec


def leaves(spec: SystemSpec) -> list:
    """The rule systems and tails and iterates of one that `spec` is made
    of: itself, or a product's parts' leaves."""
    if isinstance(spec, ProductSpec):
        return [leaf for part in spec.parts for leaf in leaves(part)]
    return [spec]


def reading(spec: SystemSpec) -> tuple:
    """(F, a, s): step n of `spec` is the composed window of F over indices
    a + s(n-1) + 1 .. a + sn; F is the rule system of a tail or iterate,
    and any other system itself, at (0, 1)."""
    if isinstance(spec, DerivedSpec):
        return spec.base, spec.offset, spec.stride
    return spec, 0, 1


def tail(spec: SystemSpec, k: int) -> SystemSpec:
    """f_{k,infinity}, the system from step k of `spec` on: (a, s) goes to
    (a + s(k - 1), s).  A product steps every part at once, so its tail is
    the product of its parts' tails."""
    if k < 1:
        raise ValueError("tail index must be >= 1")
    if isinstance(spec, ProductSpec):
        return ProductSpec(tuple(tail(p, k) for p in spec.parts))
    F, a, s = reading(spec)
    return DerivedSpec(F, a + s * (k - 1), s)


def iterate(spec: SystemSpec, k: int) -> SystemSpec:
    """The k-th iterate of `spec`, step n the window of its steps k(n-1)+1
    .. kn: (a, s) goes to (a, ks), and a product's is the product of its
    parts' iterates."""
    if k < 1:
        raise ValueError("iterate order must be >= 1")
    if isinstance(spec, ProductSpec):
        return ProductSpec(tuple(iterate(p, k) for p in spec.parts))
    F, a, s = reading(spec)
    return DerivedSpec(F, a, k * s)


# ---------------------------------------------------------------------------
# normal maps: a term other than the identity is its own normal map


@record
class ProductMap:
    parts: tuple


NormalMap = ShiftPowTerm | RotPowTerm | FiniteFnTerm | ProductMap


def identity_map(space: SpaceDesc) -> NormalMap:
    if isinstance(space, ShiftSpace):
        return ShiftPowTerm(0)
    if isinstance(space, CircleSpace):
        return RotPowTerm(0)
    if isinstance(space, FiniteSpace):
        return FiniteFnTerm(tuple(range(1, space.point_count + 1)))
    return ProductMap(tuple(identity_map(p) for p in space.parts))


def term_to_normal(space: SpaceDesc, term: MapTerm) -> NormalMap:
    """The identity as the space's identity map; any other term, checked
    against the space, as it is."""
    if isinstance(term, IdentityTerm):
        return identity_map(space)
    if isinstance(term, ShiftPowTerm):
        if not isinstance(space, ShiftSpace):
            raise SpaceMismatch("shift power on a non-shift space")
    elif isinstance(term, RotPowTerm):
        if not isinstance(space, CircleSpace):
            raise SpaceMismatch("rotation power on a non-circle space")
    elif isinstance(term, FiniteFnTerm):
        if not isinstance(space, FiniteSpace) or len(term.table) != space.point_count:
            raise SpaceMismatch("finite map table does not fit the space")
    else:
        raise SpaceMismatch(f"unknown term {term!r}")
    return term


def compose(after: NormalMap, before: NormalMap) -> NormalMap:
    """after o before"""
    if isinstance(after, ShiftPowTerm) and isinstance(before, ShiftPowTerm):
        return ShiftPowTerm(after.exponent + before.exponent)
    if isinstance(after, RotPowTerm) and isinstance(before, RotPowTerm):
        return RotPowTerm(after.coefficient + before.coefficient)
    if isinstance(after, FiniteFnTerm) and isinstance(before, FiniteFnTerm):
        return FiniteFnTerm(tuple([after.table[v - 1] for v in before.table]))
    if isinstance(after, ProductMap) and isinstance(before, ProductMap):
        return ProductMap(tuple(compose(a, b) for a, b in zip(after.parts, before.parts)))
    raise SpaceMismatch(f"cannot compose {type(after).__name__} with {type(before).__name__}")


def apply(m: NormalMap, p: Point) -> Point:
    if isinstance(m, ShiftPowTerm):
        if not isinstance(p, BiWord):
            raise SpaceMismatch("shift power applies to shift-space points")
        return p.shifted(m.exponent)
    if isinstance(m, RotPowTerm):
        if not isinstance(p, AffineAngle):
            raise SpaceMismatch("rotation applies to circle points")
        return p.rotated(m.coefficient)
    if isinstance(m, FiniteFnTerm):
        if not isinstance(p, FiniteId):
            raise SpaceMismatch("finite tables apply to finite-space points")
        return FiniteId(m.table[p.index - 1])
    if isinstance(m, ProductMap):
        if not isinstance(p, ProductPoint):
            raise SpaceMismatch("product maps apply to product points")
        return ProductPoint(tuple(apply(c, x) for c, x in zip(m.parts, p.parts)))
    raise SpaceMismatch(f"unknown normal map {m!r}")


def image(m: NormalMap, A: BasicOpen) -> BasicOpen | None:
    """Forward image; nonempty input gives nonempty output."""
    if isinstance(m, ShiftPowTerm):
        if not isinstance(A, Cylinder):
            raise SpaceMismatch("shift power images apply to cylinders")
        return Cylinder(A.start - m.exponent, A.word)
    if isinstance(m, RotPowTerm):
        if not isinstance(A, Arc):
            raise SpaceMismatch("rotation images apply to arcs")
        return Arc(A.center.rotated(m.coefficient), A.radius)
    if isinstance(m, FiniteFnTerm):
        if not isinstance(A, FiniteSet):
            raise SpaceMismatch("finite table images apply to id sets")
        return FiniteSet(frozenset(m.table[i - 1] for i in A.ids))
    if isinstance(m, ProductMap):
        if not isinstance(A, ProductOpen):
            raise SpaceMismatch("product map images apply to rectangles")
        parts = tuple(image(c, a) for c, a in zip(m.parts, A.parts))
        return ProductOpen(parts)
    raise SpaceMismatch(f"unknown normal map {m!r}")


def preimage(m: NormalMap, A: BasicOpen) -> Cylinder:
    """The inverse image of a cylinder under a shift power, the one pullback
    the lemma-2.1 itinerary check reads; SpaceMismatch for any other map or
    open."""
    if not (isinstance(m, ShiftPowTerm) and isinstance(A, Cylinder)):
        raise SpaceMismatch("preimages pull cylinders back through shift powers")
    return Cylinder(A.start + m.exponent, A.word)


# ---------------------------------------------------------------------------
# term dispatch and composition


def eval_term(spec: NdsSpec, i: int) -> MapTerm:
    """The i-th map of a rule system as a concrete term (indexed families get
    their match ordinal substituted)."""
    if i < 1:
        raise ValueError("sequence indices are 1-based")
    for rule in spec.rules:
        if rule.pattern.matches(i):
            if isinstance(rule.term, FamilyTerm):
                return rule.term.at_ordinal(rule.pattern.ordinal(i))
            return rule.term
    return spec.default


def step_normal(spec: SystemSpec, i: int) -> NormalMap:
    """The i-th step map as a normal map; total on every system kind."""
    if isinstance(spec, ProductSpec):
        return ProductMap(tuple(step_normal(p, i) for p in spec.parts))
    F, a, s = reading(spec)
    if s > 1:
        return window_compose(F, a + s * (i - 1) + 1, s)
    return term_to_normal(F.space, eval_term(F, a + i))


def _step_exponents(spec: NdsSpec, lo: int, hi: int) -> list:
    """[exponent of f_i for lo <= i <= hi]: each rule's term in closed form
    over its matches (a family term is coeff*k + add at the k-th match), so
    no index is dispatched through eval_term."""
    pieces = [
        (r.pattern, r.term.coeff, r.term.add) if isinstance(r.term, FamilyTerm)
        else (r.pattern, 0, term_exponent(r.term))
        for r in spec.rules
    ]
    return _closed_fill(pieces, lo, hi, term_exponent(spec.default))


def step_tables(spec: NdsSpec, lo: int, hi: int) -> list:
    """[table of f_i for lo <= i <= hi] of a finite-space rule system: one
    _closed_fill of rule numbers (the default numbered last) read through
    the rules' tables, so no index is dispatched through eval_term."""
    tables = [term_to_normal(spec.space, t).table for t in (*(r.term for r in spec.rules), spec.default)]
    numbers = _closed_fill([(r.pattern, 0, k) for k, r in enumerate(spec.rules)], lo, hi, len(spec.rules))
    return list(map(tables.__getitem__, numbers))


def _closed_fill(pieces, lo: int, hi: int, default) -> list:
    """[v(n) for lo <= n <= hi]: v(n) = per_ordinal*k + constant from the
    first piece (pattern, per_ordinal, constant) whose pattern matches n,
    with k the match ordinal, and `default` where none matches.  The pieces
    are laid down last to first, so an earlier one overwrites a later one
    where both match; each writes its matches run by run (_runs) as one
    slice of an arithmetic range."""
    out = [default] * (hi - lo + 1)
    for pattern, per, const in reversed(pieces):
        for first, step, count, k in _runs(pattern, lo, hi):
            at = slice(first - lo, first - lo + step * (count - 1) + 1, step)
            out[at] = range(per * k + const, per * (k + count) + const, per) if per else [const] * count
    return out


def _runs(pattern: IndexPattern, lo: int, hi: int) -> list:
    """The matches of `pattern` within [lo, hi] as runs (first index,
    stride, count, ordinal of the first); the ordinal rises by one per step
    of a run."""
    if isinstance(pattern, EqualsPattern):
        return [(pattern.value, 1, 1, 1)] if lo <= pattern.value <= hi else []
    if isinstance(pattern, ArithProgPattern):
        skipped = max(0, -((pattern.first - lo) // pattern.step))  # matches below lo
        n = pattern.first + skipped * pattern.step
        return [(n, pattern.step, (hi - n) // pattern.step + 1, skipped + 1)] if n <= hi else []
    runs = []  # power pattern: base^k + offset for k = 1, 2, ...
    power, k = pattern.base, 1
    while power + pattern.offset <= hi:
        if power + pattern.offset >= lo:
            runs.append((power + pattern.offset, 1, 1, k))
        power, k = power * pattern.base, k + 1
    return runs


def window_compose(spec: SystemSpec, i: int, k: int) -> NormalMap:
    """Exact closed form of the window composition f_{i+k-1} o ... o f_i
    (identity for k = 0).  On the shift and the circle it is the power whose
    exponent sums the window's step exponents (_step_exponents)."""
    if i < 1 or k < 0:
        raise ValueError("need i >= 1 and k >= 0")
    if isinstance(spec, ProductSpec):
        return ProductMap(tuple(window_compose(p, i, k) for p in spec.parts))
    spec, a, s = reading(spec)
    i, k = a + s * (i - 1) + 1, s * k
    space = spec.space
    if k == 0:
        return identity_map(space)
    if isinstance(space, (ShiftSpace, CircleSpace)):
        e = sum(_step_exponents(spec, i, i + k - 1))
        return ShiftPowTerm(e) if isinstance(space, ShiftSpace) else RotPowTerm(e)
    m = term_to_normal(space, eval_term(spec, i))
    for j in range(i + 1, i + k):
        m = compose(term_to_normal(space, eval_term(spec, j)), m)
    return m


def prefix_compose(spec: SystemSpec, n: int) -> NormalMap:
    """f_1^n, the time-n prefix map."""
    return window_compose(spec, 1, n)


def prefix_exponents(spec: SystemSpec, upto: int) -> list:
    """[E(0), ..., E(upto)]: the exponent (shift) or rotation coefficient
    (circle) of every prefix map f_1^n, n <= upto: every s-th running sum of
    the step exponents of the rule system F that `spec` reads (see reading),
    filled afresh on every call over indices a + 1 .. a + s*upto, so no
    index before the cut is filled."""
    F, a, s = reading(spec)
    if not isinstance(F, NdsSpec) or not isinstance(F.space, (ShiftSpace, CircleSpace)):
        raise SpaceMismatch("prefix exponents need a shift or circle system")
    return list(accumulate(_step_exponents(F, a + 1, a + s * upto), initial=0))[::s]


def table_step(prefix: tuple, step: tuple) -> tuple:
    """step o prefix as a table, one step of the table folds: i goes to step(prefix(i))."""
    return tuple([step[v - 1] for v in prefix])


def prefix_tables(spec: SystemSpec, upto: int):
    """T(0), ..., T(upto) as an iterator: the table of every prefix map
    f_1^n, n <= upto, of a finite-space system or a tail or iterate of one,
    the finite analogue of prefix_exponents.  The step_tables of indices
    a + 1 .. a + s*upto are folded one table_step a step, T(n)[i-1] =
    f_n(T(n-1)(i)), and every s-th prefix is kept (see reading)."""
    F, a, s = reading(spec)
    if not isinstance(F, NdsSpec) or not isinstance(F.space, FiniteSpace):
        raise SpaceMismatch("prefix tables need a finite-space system")
    identity = tuple(range(1, F.space.point_count + 1))
    return islice(accumulate(step_tables(F, a + 1, a + s * upto), table_step, initial=identity), 0, None, s)


# ---------------------------------------------------------------------------
# exponent laws


@record
class LawPiece:
    """On indices matching `pattern` (with match ordinal k) the cumulative
    exponent equals per_ordinal*k + constant."""

    pattern: IndexPattern
    per_ordinal: int
    constant: int

    def value_at(self, n: int) -> int:
        return self.per_ordinal * self.pattern.ordinal(n) + self.constant

    def is_zero(self) -> bool:
        return self.per_ordinal == 0 and self.constant == 0


@record
class ExponentLaw:
    """Piecewise closed form for the prefix exponent E(n) (shift) or rotation
    coefficient C(n) (circle); first matching piece wins, the final piece is
    a catch-all on ap(1,1), which describe() prints as "otherwise"."""

    pieces: tuple
    validated_up_to: int

    def value(self, n: int) -> int:
        for piece in self.pieces:
            if piece.pattern.matches(n):
                return piece.value_at(n)
        raise LawValidationError(f"law has no piece covering index {n}")

    def is_identity(self) -> bool:
        """True when E(n) = 0 for every n: every prefix map is the identity."""
        return all(p.is_zero() for p in self.pieces)

    def zero_on_residue(self, mod: int, residue: int) -> bool:
        """True when the law forces E(n) = 0 on every n ≡ residue (mod mod):
        every piece is 0 or shares no index with the class, conservatively,
        since a power walk the overlap check cannot finish counts as one."""
        members = ArithProgPattern((residue - 1) % mod + 1, mod)
        try:
            return all(p.is_zero() or _patterns_overlap(p.pattern, members) is None for p in self.pieces)
        except OverlappingRules:
            return False

    def first_zero_residue(self) -> tuple | None:
        """The first (modulus, residue), moduli 2 then 3 and residues in
        increasing order, whose class the law forces to E(n) = 0; or None."""
        return next(((m, r) for m in (2, 3) for r in range(m) if self.zero_on_residue(m, r)), None)

    def sparse_support(self) -> bool:
        """True when every index with nonzero exponent lies in a power
        pattern or a finite list, which forces unbounded gaps."""
        return all(p.is_zero() or isinstance(p.pattern, (PowerPattern, EqualsPattern)) for p in self.pieces)

    def describe(self) -> str:
        bits = []
        for p in self.pieces:
            pat = p.pattern
            if pat == ArithProgPattern(1, 1):
                where = "otherwise"
            elif isinstance(pat, EqualsPattern):
                where = f"n={pat.value}"
            elif isinstance(pat, ArithProgPattern):
                where = f"n={pat.first}+{pat.step}(k-1)"
            else:
                where = f"n={pat.base}^k+{pat.offset}"
            form = f"{p.per_ordinal}*k+{p.constant}" if p.per_ordinal else str(p.constant)
            bits.append(f"E({where})={form}")
        return "; ".join(bits) + f" [validated to {self.validated_up_to}]"


# the most pieces law_candidate reads: a check walks them all, a refutation cites them all
MAX_LAW_PIECES = 4096


def law_candidate(spec: SystemSpec, horizon: int) -> list | None:
    """The pieces of the exponent law of a shift or circle rule system or of
    a tail or iterate of one, read off its prefix exponents E, not yet
    validated.  Past M, E on each class mod L is a polynomial of degree at
    most 2 in the class ordinal (_law_read; design notes, "One law
    reader"), so a line that is not all 0 is a progression piece and any
    other nonzero E(n) a literal piece.  None on a class of degree 2, when
    M or L is past `horizon` or past MAX_LAW_PIECES pieces, and where
    _law_read reads nothing; power rules give only _power_pair's law."""
    read = _law_read(spec, horizon)
    if read is None:
        return None
    F, _, M, L = read
    if not L:
        return _power_pair(F)
    E = prefix_exponents(spec, M + 3 * L - 1)
    starts = {}  # the first index of each class piece, by class
    for n in range(M, M + L):
        d = E[n + L] - E[n]
        if E[n + 2 * L] - E[n + L] != d or len(starts) == MAX_LAW_PIECES:
            return None
        if d or E[n]:
            while n > L and E[n - L] == E[n] - d and E[n - L]:
                n -= L
            starts[n % L] = n
    heads = [n for n in range(1, M) if E[n] and n < starts.get(n % L, M)]
    if len(starts) + len(heads) >= MAX_LAW_PIECES:
        return None
    # a class piece from n steps by d = E[n + L] - E[n], from E[n] - d at ordinal 0
    pieces = [LawPiece(ArithProgPattern(n, L), E[n + L] - E[n], 2 * E[n] - E[n + L]) for n in starts.values()]
    pieces += [LawPiece(EqualsPattern(n), 0, E[n]) for n in heads]
    pieces.sort(key=lambda p: p.pattern.first_match())
    if [p.pattern for p in pieces] == [ArithProgPattern(1, 1)]:
        return pieces
    return pieces + [LawPiece(ArithProgPattern(1, 1), 0, 0)]


def law_reach(spec: SystemSpec, horizon: int) -> int | None:
    """The base entries derive_laws(spec, horizon) fills past the cut for an
    exponent law (see reading), off the rules before anything is filled:
    s*max(M + 3L - 1, horizon // s), the reader's fill and the steps the
    validation re-reads, as if a law is found; None where nothing is read."""
    read = _law_read(spec, horizon)
    if read is None:
        return None
    _F, s, M, L = read
    return s * max(M + 3 * L - 1, horizon // s)


def _law_read(spec: SystemSpec, horizon: int) -> tuple | None:
    """(F, s, M, L) of the read law_candidate makes, F the rule system
    `spec` reads with stride s (see reading): M the step after the last
    literal and progression start and L the lcm of the steps over gcd(L, s),
    in the reading's steps; M = L = 0 where only a plain system's
    telescoping pair is read off the rules; None where it reads nothing."""
    F, a, s = reading(spec)
    if not isinstance(F.space, (ShiftSpace, CircleSpace)):
        return None
    idle = rule_map(F.space, F.default)  # a power rule emitting the default's map changes nothing
    if any(isinstance(r.pattern, PowerPattern) and rule_map(F.space, r.term) != idle for r in F.rules):
        return None if a or s > 1 else (F, 1, 0, 0)
    L = lcm(*(r.pattern.step for r in F.rules if isinstance(r.pattern, ArithProgPattern)))
    M = 1 + max([0] + [r.pattern.first_match() - a for r in F.rules
                       if isinstance(r.pattern, (EqualsPattern, ArithProgPattern))])
    M, L = -(-M // s), L // gcd(L, s)
    if M > horizon or L > horizon:
        return None
    return F, s, M, L


def _power_pair(spec: NdsSpec) -> list | None:
    """The law of sigma^(c*k+d) at base^k + o undone at base^k + o + 1, every
    other step the identity: c*k+d on the first pattern, 0 elsewhere."""
    zero = identity_map(spec.space)
    moving = [(r.pattern, r.term) for r in spec.rules if rule_map(spec.space, r.term) != zero]
    if len(moving) != 2 or rule_map(spec.space, spec.default) != zero or not all(
        isinstance(p, PowerPattern) and isinstance(t, FamilyTerm) for p, t in moving
    ):
        return None
    (p, f), (q, g) = sorted(moving, key=lambda rule: rule[0].offset)
    if p.base != q.base or q.offset - p.offset != 1 or (f.coeff, f.add) != (-g.coeff, -g.add):
        return None
    return [LawPiece(p, f.coeff, f.add), LawPiece(ArithProgPattern(1, 1), 0, 0)]


def derive_exponent_law(spec: SystemSpec, horizon: int) -> ExponentLaw | None:
    """The law_candidate of a shift or circle system, validated against
    `prefix_exponents` over `horizon` base entries past the cut (see
    reading); a validation failure is a hard error.  An iterate of order s
    is validated over the larger of horizon // s steps and the M + 3L - 1
    steps its reader read (_law_read), as law_reach counts, so an order past
    the horizon is not validated to 0.  None when no law is read (callers
    fall back to enumeration-only checks)."""
    candidate = law_candidate(spec, horizon)
    if candidate is None:
        return None
    _F, s, M, L = _law_read(spec, horizon)
    steps = max(horizon // s, M + 3 * L - 1) if s > 1 else horizon
    law = ExponentLaw(tuple(candidate), steps)
    # validate against the prefix exponents every verdict path reads: the
    # law's values fill one array like the rules do, and only a mismatch is
    # walked index by index to report the first n it fails at
    actual = prefix_exponents(spec, steps)
    pieces = [(p.pattern, p.per_ordinal, p.constant) for p in law.pieces]
    if _closed_fill(pieces, 1, steps, None) != actual[1:]:
        for n in range(1, steps + 1):
            if law.value(n) != actual[n]:
                raise LawValidationError(
                    f"derived law disagrees with composition at n={n}: "
                    f"{law.value(n)} vs {actual[n]}"
                )
    return law


# ---------------------------------------------------------------------------
# where the steps settle


def rule_map(space: SpaceDesc, term: RuleTerm) -> NormalMap | None:
    """The one normal map `term` emits every time its rule fires; None for a
    family whose exponent changes with the match ordinal."""
    if isinstance(term, FamilyTerm):
        if term.coeff != 0:
            return None
        term = term.at_ordinal(1)
    return term_to_normal(space, term)


def covered_from(spec: NdsSpec) -> int | None:
    """The least index from which every index matches a rule, so the default
    never fires again: 1 under an ap(1,1) rule, None when the default fires
    infinitely often.  Disjoint progressions hold disjoint residue classes
    modulo the lcm of their steps, and they hold all of them exactly when
    their shares 1/step sum to 1 (equals and power matches are too sparse
    to fill a class).  The indices they then leave open are each
    progression's own class below its first term, so the last gap is found
    stepping down those classes past the finitely many other matches."""
    progs = [r.pattern for r in spec.rules if isinstance(r.pattern, ArithProgPattern)]
    period = lcm(*(p.step for p in progs))
    if sum(period // p.step for p in progs) != period:
        return None
    last_gap = 0
    for p in progs:
        n = p.first - p.step
        while n > last_gap and any(r.pattern.matches(n) for r in spec.rules):
            n -= p.step
        last_gap = max(last_gap, n)
    return last_gap + 1


# the most steps derive_table_law composes to reach r0, and the longest
# block eventual_step builds
LEAD_WALK_BOUND = 10_000


def eventual_step(spec: SystemSpec) -> tuple | None:
    """(r0, block) when the rules prove that step r0 + k is block[k % p]
    for every k >= 0, else None.  From its first term on, a progression
    holds its classes mod L, the lcm of the steps; the default holds the
    other classes, unless the progressions cover every index from some
    point on (covered_from), and every power rule must emit its map.  A
    progression emitting that map is left out of L.  r0 is the latest of
    the cover index, first - step + 1 of each progression left in while the
    default fires, and one past each equals rule emitting another map than
    its class; the block is cut to its least period, so one settled map is
    p = 1.  None for a family term growing on a progression, and when L
    passes LEAD_WALK_BOUND, checked before the block is built.  Reading
    from index a on (see reading) moves r0 back by a."""
    F, a, s = reading(spec)
    if s > 1 or not isinstance(F, NdsSpec):
        return None
    space, cover = F.space, covered_from(F)
    progs = [(r.pattern, rule_map(space, r.term))
             for r in F.rules if isinstance(r.pattern, ArithProgPattern)]
    rest = rule_map(space, F.default) if cover is None else progs[0][1]
    progs = [(p, g) for p, g in progs if g != rest]
    L = lcm(*(p.step for p, _ in progs))
    if L > LEAD_WALK_BOUND or None in (rest, *(g for _, g in progs)) or any(
        isinstance(r.pattern, PowerPattern) and rule_map(space, r.term) != rest for r in F.rules
    ):
        return None
    classes = [next((g for p, g in progs if (c - p.first) % p.step == 0), rest) for c in range(L)]
    r0 = max([cover or 1] + [p.first - p.step + 1 for p, _ in progs if cover is None] + [
        r.pattern.value + 1 for r in F.rules
        if isinstance(r.pattern, EqualsPattern) and rule_map(space, r.term) != classes[r.pattern.value % L]
    ])
    r0 = max(1, r0 - a)
    block = [classes[(a + r0 + k) % L] for k in range(L)]
    p = next(d for d in range(1, L + 1) if L % d == 0 and block[d:] == block[:-d])
    return r0, tuple(block[:p])


# ---------------------------------------------------------------------------
# finite-space analogue: a lead of prefix tables, then a repeating block


@record
class TableLaw:
    """Every prefix table T(n) of a finite-space system whose steps repeat a
    block from `stabilized_from` (r0) on: T(1) .. T(r0 - 1) are `lead`, and
    step r0 + k is block[k % p].  With C_j the first j steps of the block
    composed and B = C_p, T(r0 - 1 + mp + j) is C_j o B^m o T(r0 - 1), so
    each point's orbit is its rho under B at the block boundaries, at most
    |X| points, and every phase is read off the C_j: p - 1 folds and |X|·p
    reads in all, whatever the order of the tables."""

    stabilized_from: int
    lead: tuple  # the tables of T(1) .. T(r0 - 1)
    block: tuple

    def __post_init__(self):
        first, *rest = (m.table for m in self.block)  # folded into C_1 .. C_p
        object.__setattr__(self, "_steps", tuple(accumulate(rest, table_step, initial=first)))
        object.__setattr__(self, "_phases", {})  # _phase(y) by y
        object.__setattr__(self, "_value_sets", {})  # _values(y) by y
        object.__setattr__(self, "_loops", {})  # point on a loop of B -> (loop, place, values)
        object.__setattr__(self, "_points", {})  # _point(i) by i
        object.__setattr__(self, "_description", [])

    def _orbit(self, i: int) -> tuple:
        """(tail, loop, e, values): the points T(r0 - 1 + mp)(i), m = 0, 1,
        .., before B's loop, the loop, the place e where i enters it, and
        every value C_j takes on it; each loop is found once."""
        y, seen = self.lead[-1][i - 1] if self.lead else i, {}
        while y not in seen and y not in self._loops:
            seen[y] = len(seen)
            y = self._steps[-1][y - 1]
        tail = list(seen)
        if y not in self._loops:
            loop, tail = tuple(tail[seen[y] :]), tail[: seen[y]]
            values = set().union(*map(self._values, loop))
            for m, z in enumerate(loop):
                self._loops[z] = loop, m, values
        return (tail, *self._loops[y])

    def _point(self, i: int) -> tuple:
        """_orbit(i) and every T(n)(i) the lead and the tail add to the values
        round the loop, built once per point; the loop's values are one set,
        shared by its points."""
        if i not in self._points:
            tail, *_, values = orbit = self._orbit(i)
            self._points[i] = *orbit, {t[i - 1] for t in self.lead}.union(*map(self._values, tail)) - values
        return self._points[i]

    def _values(self, y: int) -> set:
        """{C_j(y)} over j = 1 .. p, built once per point: what reach and
        recurrent read, without the phases that only visits needs."""
        if y not in self._value_sets:
            self._value_sets[y] = {C[y - 1] for C in self._steps}
        return self._value_sets[y]

    def _phase(self, y: int) -> dict:
        """{C_j(y): [j, ..]} over j = 1 .. p, built once per point."""
        if y not in self._phases:
            self._phases[y] = {}
            for j, C in enumerate(self._steps, 1):
                self._phases[y].setdefault(C[y - 1], []).append(j)
        return self._phases[y]

    def visits(self, i: int, values) -> tuple:
        """(pre, start, loop, period): the n >= 1 with T(n)(i) in `values`
        are pre up to start, and past it the n with (n - start) % period in
        loop.  Past start = r0 - 1 + tp, t the tail of i under B, the
        (point, phase) states of i run round a loop of p times B's."""
        r0, p = self.stabilized_from, len(self.block)
        tail, loop, e, *_ = self._point(i)

        def at(points):  # mp + j where C_j(points[m]) is in values
            return [m * p + j for m, y in enumerate(points)
                    for v in self._phase(y).keys() & values for j in self._phase(y)[v]]

        period = p * len(loop)
        pre = [n for n, t in enumerate(self.lead, 1) if t[i - 1] in values]
        pre += sorted(r0 - 1 + q for q in at(tail))
        return pre, r0 - 1 + len(tail) * p, {q % period for q in at(loop[e:] + loop[:e])}, period

    def reach(self, ids) -> set:
        """Every T(n)(i) over n >= 1 and i in ids: before the loop and round it."""
        return set().union(*(values for i in ids for values in self._point(i)[3:]))

    def recurrent(self, ids) -> set:
        """Every T(n)(i) taken for infinitely many n, i in ids: the values
        round their loops."""
        return set().union(*(self._point(i)[3] for i in ids))

    def loop_size(self, i: int) -> int:
        """len(recurrent({i})), read off the value set that i's loop shares
        with its other points, without a copy."""
        return len(self._point(i)[3])

    def describe(self) -> str:
        """r0, and T(n + c) = T(n) for every n > P: c is p times the lcm of
        the points' loops under B, and P is the last index before some
        point's (point, phase) state reaches its loop.  For a point with a
        tail of t under B, that state is at r0 - 1 + (t - 1)p + j, the least
        j with C_j mapping the tail's last point and the loop point before
        its entry together.  At p = 1, T(P + 1 + c) is the first repeat of a
        table at or past r0."""
        if not self._description:
            r0, p = self.stabilized_from, len(self.block)
            P, c = r0 - 1, 1
            for i in range(1, len(self._steps[0]) + 1):
                tail, loop, e, *_ = self._point(i)
                c = lcm(c, p * len(loop))
                if tail:
                    j = next(j for j, C in enumerate(self._steps, 1)
                             if C[tail[-1] - 1] == C[loop[e - 1] - 1])
                    P = max(P, r0 - 2 + (len(tail) - 1) * p + j)
            self._description.append(
                f"prefix tables stabilize at index {r0}; {P} leading tables then a cycle of {c}"
            )
        return self._description[0]


def table_settling(spec: SystemSpec) -> tuple | None:
    """(r0, block) of the TableLaw of a finite-space system, read off the
    rules (eventual_step) before prefix_tables folds its r0 - 1 tables; None
    for any other system and for a lead longer than LEAD_WALK_BOUND steps,
    which gets no law: the checks stay within their horizon."""
    settled = eventual_step(spec) if isinstance(spec.space, FiniteSpace) else None
    return None if settled is None or settled[0] > LEAD_WALK_BOUND + 1 else settled


def derive_table_law(spec: SystemSpec) -> TableLaw | None:
    """The TableLaw of a finite-space system whose steps repeat a block from
    r0 on (table_settling), else None."""
    settled = table_settling(spec)
    if settled is None:
        return None
    r0, block = settled
    return TableLaw(r0, tuple(islice(prefix_tables(spec, r0 - 1), 1, None)), block)


# ---------------------------------------------------------------------------
# law container used by the checkers


@record
class SystemLaws:
    exponent: ExponentLaw | None = None
    table: TableLaw | None = None
    components: tuple = ()  # per-part laws for product systems

    def exponent_laws(self) -> list:
        """The exponent laws of the system and of its factors, nested ones too."""
        own = [self.exponent] if self.exponent is not None else []
        return own + [law for part in self.components for law in part.exponent_laws()]


def derive_laws(spec: SystemSpec, horizon: int) -> SystemLaws:
    if isinstance(spec, ProductSpec):
        return SystemLaws(components=tuple(derive_laws(p, horizon) for p in spec.parts))
    space = spec.space
    if isinstance(space, (ShiftSpace, CircleSpace)):
        return SystemLaws(exponent=derive_exponent_law(spec, horizon))
    if isinstance(space, FiniteSpace):
        return SystemLaws(table=derive_table_law(spec))
    return SystemLaws()


def spec_is_surjective_structurally(spec: SystemSpec) -> bool:
    """True when the rule set alone makes every step map surjective: every
    rule term does, and so does the default unless the rules cover every
    index (covered_from)."""
    if isinstance(spec, ProductSpec):
        return all(spec_is_surjective_structurally(p) for p in spec.parts)
    spec = reading(spec)[0]
    terms = [r.term for r in spec.rules] + ([] if covered_from(spec) == 1 else [spec.default])
    return all(isinstance(t, FamilyTerm) or term_is_surjective(t) for t in terms)
