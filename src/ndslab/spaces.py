"""Exact phase spaces: the two-sided full shift, finite discrete spaces, and
the circle with an irrational rotation angle.

All values are immutable and all operations are pure.  Shift and finite
computations are exact rational arithmetic.  On the circle the builtin angle
sqrt(2) - 1 is decided exactly: q + m*alpha is (p + n*sqrt(2)) / d over the
integers and one integer square root gives its floor.  A declared angle
alpha(c +- w) is only known to lie in its interval, so it decides what that
one interval separates and raises EnclosureUndecided otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import isqrt, lcm
from operator import eq, ne

from .record import record


class SpaceMismatch(ValueError):
    """A point or open set was used with a space/variant it does not belong to."""


class EnclosureUndecided(Exception):
    """A declared angle's interval is too wide to decide a comparison."""


# ---------------------------------------------------------------------------
# angle enclosures


@record
class AlphaEnclosure:
    """An irrational angle in (0, 1): the builtin sqrt(2) - 1, decided
    exactly, or a custom angle known only to lie in a fixed declared
    interval."""

    kind: str = "sqrt2m1"
    center: Fraction | None = None
    halfwidth: Fraction | None = None

    @staticmethod
    def sqrt2_minus_1() -> "AlphaEnclosure":
        return AlphaEnclosure("sqrt2m1")

    @staticmethod
    def custom(center: Fraction, halfwidth: Fraction) -> "AlphaEnclosure":
        center = Fraction(center)
        halfwidth = Fraction(halfwidth)
        if halfwidth <= 0:
            raise ValueError("enclosure halfwidth must be positive")
        if not (0 < center - halfwidth and center + halfwidth < 1):
            raise ValueError("enclosure must lie inside (0, 1)")
        return AlphaEnclosure("custom", center, halfwidth)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Lower/upper rational bounds: the declared interval, or a 2^-72
        bracket of sqrt(2) - 1 for display."""
        if self.kind == "sqrt2m1":
            s = isqrt(2 << 144)
            return Fraction(s, 1 << 72) - 1, Fraction(s + 1, 1 << 72) - 1
        return (self.center - self.halfwidth, self.center + self.halfwidth)


DEFAULT_ALPHA = AlphaEnclosure.sqrt2_minus_1()


def floor_sqrt2(n: int) -> int:
    """floor(n*sqrt2) for an integer n != 0: n*sqrt2 is irrational, so the
    floor is isqrt(2n^2) for n > 0 and -isqrt(2n^2) - 1 for n < 0."""
    root = isqrt(2 * n * n)
    return root if n > 0 else -root - 1


@record
class AlphaLinear:
    """The real number q + m*alpha, carried exactly.

    Over the builtin angle every comparison is decided exactly: for m != 0
    the value is irrational, so it is never equal to a rational.  Over a
    declared angle a comparison is decided when the declared interval
    separates it and raises EnclosureUndecided otherwise.
    """

    q: Fraction
    m: Fraction
    alpha: AlphaEnclosure = DEFAULT_ALPHA

    @property
    def exact(self) -> bool:
        return self.m == 0

    def enclosure(self) -> tuple[Fraction, Fraction]:
        if self.m == 0:
            return (self.q, self.q)
        lo, hi = self.alpha.bounds()
        a = self.q + self.m * lo
        b = self.q + self.m * hi
        return (a, b) if a <= b else (b, a)

    def __add__(self, other):
        if isinstance(other, AlphaLinear):
            if other.alpha != self.alpha:
                raise SpaceMismatch("mixed alpha enclosures")
            return AlphaLinear(self.q + other.q, self.m + other.m, self.alpha)
        return AlphaLinear(self.q + Fraction(other), self.m, self.alpha)

    def __sub__(self, other):
        if isinstance(other, AlphaLinear):
            if other.alpha != self.alpha:
                raise SpaceMismatch("mixed alpha enclosures")
            return AlphaLinear(self.q - other.q, self.m - other.m, self.alpha)
        return AlphaLinear(self.q - Fraction(other), self.m, self.alpha)

    def cmp(self, other: AlphaLinear | Fraction | int) -> int:
        """-1, 0, +1 against another value; raises EnclosureUndecided only
        over a declared angle whose interval is too wide."""
        if isinstance(other, AlphaLinear):
            diff = self - other
        else:
            diff = self - Fraction(other)
        if diff.m == 0:
            return -1 if diff.q < 0 else (1 if diff.q > 0 else 0)
        if diff.alpha.kind == "sqrt2m1":
            # irrational, so never 0: the sign is the sign of the floor
            return 1 if diff.floor() >= 0 else -1
        lo, hi = diff.enclosure()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        raise EnclosureUndecided(f"cannot order {diff} against 0")

    def floor(self) -> int:
        q, m = self.q, self.m
        if m == 0:
            return q.numerator // q.denominator
        if self.alpha.kind == "sqrt2m1":
            # q + m*(sqrt2 - 1) = (p + n*sqrt2) / d with d = den(q)*den(m) > 0,
            # and floor((p + y) / d) = (p + floor(y)) // d for integers p, d
            d = q.denominator * m.denominator
            n = m.numerator * q.denominator
            p = q.numerator * m.denominator - n
            return (p + floor_sqrt2(n)) // d
        lo, hi = self.enclosure()
        flo = lo.numerator // lo.denominator
        if hi < flo + 1:
            return flo
        raise EnclosureUndecided(f"cannot take floor of {self}")

    def wrap(self) -> "AlphaLinear":
        """Reduce into [0, 1)."""
        return self - Fraction(self.floor())


RationalOrEnclosure = Fraction | AlphaLinear


def value_cmp(a: RationalOrEnclosure, b: RationalOrEnclosure | int) -> int:
    """Order two exact-or-enclosure values."""
    if isinstance(a, AlphaLinear):
        return a.cmp(b)
    if isinstance(b, AlphaLinear):
        return -b.cmp(a)
    a, b = Fraction(a), Fraction(b)
    return -1 if a < b else (1 if a > b else 0)


def value_max(values: list) -> RationalOrEnclosure:
    """The largest of some exact-or-enclosure values (the first on ties)."""
    return max(values, key=cmp_to_key(value_cmp))


# ---------------------------------------------------------------------------
# space descriptions


@record
class ShiftSpace:
    alphabet_size: int = 2

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")


@record
class FiniteSpace:
    point_count: int

    def __post_init__(self):
        if self.point_count < 1:
            raise ValueError("point_count must be positive")


@record
class CircleSpace:
    alpha: AlphaEnclosure = DEFAULT_ALPHA


@record
class ProductSpace:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a product space needs at least two components")


SpaceDesc = ShiftSpace | FiniteSpace | CircleSpace | ProductSpace


def has_isolated_points(space: SpaceDesc) -> bool:
    if isinstance(space, FiniteSpace):
        return True
    if isinstance(space, ProductSpace):
        return any(has_isolated_points(p) for p in space.parts)
    return False


TOTAL_WEIGHT = Fraction(3)  # sum over all integers i of 2^-|i|


def space_diameter(space: SpaceDesc) -> Fraction:
    if isinstance(space, ShiftSpace):
        return TOTAL_WEIGHT
    if isinstance(space, FiniteSpace):
        return Fraction(0) if space.point_count == 1 else Fraction(1)
    if isinstance(space, CircleSpace):
        return Fraction(1, 2)
    return max(space_diameter(p) for p in space.parts)


# ---------------------------------------------------------------------------
# points


@record
class FiniteId:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("point ids are 1-based")


def _primitive(period: tuple) -> tuple:
    n = len(period)
    for p in range(1, n):
        if n % p == 0 and all(period[i] == period[i % p] for i in range(n)):
            return period[:p]
    return period


@record
class BiWord:
    """A bi-infinite symbol sequence: a finite window with purely periodic
    tails on both sides.  Coordinate i for i < window_start comes from `left`
    repeating leftward; for i >= window_start + len(window) from `right`
    repeating rightward.

    The window is a tuple, or `bytes` kept as given (one byte a cell, as
    `chaos.lemma21_construct` stores its witnesses); any other sequence is
    stored as a tuple.  Equality is semantic (same coordinate at every
    index), independent of the chosen representation.
    """

    window_start: int
    window: tuple | bytes
    left: tuple
    right: tuple

    def __post_init__(self):
        left, right, window = self.left, self.right, self.window
        if not left or not right:
            raise ValueError("periodic tails must be nonempty")
        # a one-symbol tuple tail is primitive and a tuple or bytes window is
        # normal: only other fields are normalised and stored again
        if type(left) is not tuple or len(left) > 1:
            object.__setattr__(self, "left", _primitive(tuple(left)))
        if type(right) is not tuple or len(right) > 1:
            object.__setattr__(self, "right", _primitive(tuple(right)))
        if type(window) not in (tuple, bytes):
            object.__setattr__(self, "window", tuple(window))

    @property
    def window_end(self) -> int:
        return self.window_start + len(self.window)

    def coord(self, i: int) -> int:
        if i < self.window_start:
            return self.left[(i - self.window_start) % len(self.left)]
        if i >= self.window_end:
            return self.right[(i - self.window_end) % len(self.right)]
        return self.window[i - self.window_start]

    def shifted(self, e: int) -> "BiWord":
        """The point y with y_i = x_{i+e} (image under the e-th shift power)."""
        if e == 0:
            return self
        # periodic tails are anchored at the window and already primitive, so
        # only the anchor moves and nothing is renormalised
        return normal_biword(self.window_start - e, self.window, self.left, self.right)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiWord):
            return NotImplemented
        lcm_l = lcm(len(self.left), len(other.left))
        lcm_r = lcm(len(self.right), len(other.right))
        lo = min(self.window_start, other.window_start) - lcm_l
        hi = max(self.window_end, other.window_end) + lcm_r
        return all(self.coord(i) == other.coord(i) for i in range(lo, hi))

    __hash__ = None  # semantic equality; not hashable

    def __repr__(self):
        w = "".join(str(s) for s in self.window)
        l = "".join(str(s) for s in self.left)
        r = "".join(str(s) for s in self.right)
        return f"BiWord(({l})* [{w}]@{self.window_start} ({r})*)"

    @staticmethod
    def constant(symbol: int) -> "BiWord":
        return BiWord(0, (), (symbol,), (symbol,))


def normal_biword(window_start: int, window, left: tuple, right: tuple) -> BiWord:
    """The BiWord of fields that are already normal (a tuple or `bytes`
    window, primitive tuple tails), stored as they are with nothing
    re-checked.  The fields are set in constructor order, so the point keeps
    them inline with no instance dict, as a constructed one does."""
    point = object.__new__(BiWord)
    set_field = object.__setattr__
    set_field(point, "window_start", window_start)
    set_field(point, "window", window)
    set_field(point, "left", left)
    set_field(point, "right", right)
    return point


def all_zeros() -> BiWord:
    return BiWord.constant(0)


def all_ones() -> BiWord:
    return BiWord.constant(1)


@record
class AffineAngle:
    """The angle q + c*alpha (mod 1)."""

    q: Fraction
    c: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q) % 1)
        object.__setattr__(self, "c", Fraction(self.c))

    def lift(self, alpha: AlphaEnclosure) -> AlphaLinear:
        return AlphaLinear(self.q, self.c, alpha)

    def rotated(self, coefficient) -> "AffineAngle":
        return AffineAngle(self.q, self.c + Fraction(coefficient))


@record
class ProductPoint:
    parts: tuple


Point = FiniteId | BiWord | AffineAngle | ProductPoint


def circle_separation(space: CircleSpace, a: AffineAngle, b: AffineAngle) -> AlphaLinear:
    """Circle metric min(t, 1-t) for the angular difference t, exact-aware."""
    diff = AlphaLinear(a.q - b.q, a.c - b.c, space.alpha)
    t = diff.wrap()
    if t.m == 0:
        d = min(t.q, 1 - t.q)
        return AlphaLinear(d, Fraction(0), space.alpha)
    # t irrational: comparison against 1/2 always decides
    if t.cmp(Fraction(1, 2)) < 0:
        return t
    return AlphaLinear(Fraction(1), Fraction(0), space.alpha) - t


# ---------------------------------------------------------------------------
# basic open sets


@record
class Cylinder:
    """Points agreeing with `word` on the window starting at `start`: a
    symbol in every cell of the window."""

    start: int
    word: tuple

    def __post_init__(self):
        word = tuple(self.word)
        if not word or None in word:
            raise ValueError("a cylinder word needs a symbol in every cell of its window")
        object.__setattr__(self, "word", word)

    @property
    def end(self) -> int:
        return self.start + len(self.word)


@record
class FiniteSet:
    ids: frozenset

    def __post_init__(self):
        ids = frozenset(self.ids)
        if not ids:
            raise ValueError("finite open sets must be nonempty")
        object.__setattr__(self, "ids", ids)


@record
class Arc:
    """Open arc of circumference length 2*radius around `center`."""

    center: AffineAngle
    radius: Fraction

    def __post_init__(self):
        r = Fraction(self.radius)
        if not (0 < r < Fraction(1, 2)):
            raise ValueError("arc radius must lie in (0, 1/2)")
        object.__setattr__(self, "radius", r)


@record
class ProductOpen:
    parts: tuple


BasicOpen = Cylinder | FiniteSet | Arc | ProductOpen


def _check_space_point(space: SpaceDesc, p: Point) -> None:
    ok = (
        (isinstance(space, ShiftSpace) and isinstance(p, BiWord))
        or (isinstance(space, FiniteSpace) and isinstance(p, FiniteId))
        or (isinstance(space, CircleSpace) and isinstance(p, AffineAngle))
        or (isinstance(space, ProductSpace) and isinstance(p, ProductPoint))
    )
    if not ok:
        raise SpaceMismatch(f"{type(p).__name__} is not a point of {type(space).__name__}")


# ---------------------------------------------------------------------------
# metric


def _stretch(p: BiWord, a: int, b: int) -> tuple | bytes:
    """p's coordinates a..b-1 on a stretch in one of p's modes, sliced."""
    if a >= p.window_start and b <= p.window_end:
        return p.window[a - p.window_start : b - p.window_start]
    tail, anchor = (p.left, p.window_start) if b <= p.window_start else (p.right, p.window_end)
    o = (a - anchor) % len(tail)
    return (tail * ((o + b - a) // len(tail) + 1))[o : o + b - a]


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(x: BiWord, y: BiWord, a: int, b: int, leftward: bool) -> int:
    """Bit mask of x_i != y_i over a <= i < b, the cell nearest 0 high."""
    bits = bytes(map(ne, _stretch(x, a, b), _stretch(y, a, b)))
    return int((bits[::-1] if leftward else bits).translate(_BITS) or b"0", 2)


def _mode_period(p: BiWord, a: int, b: int) -> int | None:
    """p's mode on a stretch [a, b) between window edges: the period of the
    tail it runs, or None inside the window."""
    if b <= p.window_start:
        return len(p.left)
    if a >= p.window_end:
        return len(p.right)
    return None


def disagreement_mask(x: BiWord, y: BiWord, a: int, b: int, leftward: bool = False) -> int:
    """Bit mask of x_i != y_i over a <= i < b: cell a in the high bit, or
    cell b-1 when leftward.

    The window edges cut [a, b) into stretches on which each point runs one
    mode.  A periodic stretch longer than its joint period q is one q-cell
    block (read in the mask's direction) times the repunit
    (2^(q*full) - 1) / (2^q - 1), so cells are only sliced out of windows and
    single periods; the rest is integer arithmetic on the mask's b - a bits.
    """
    edges = (x.window_start, x.window_end, y.window_start, y.window_end)
    cuts = sorted({a, b, *(c for c in edges if a < c < b)})
    mask = 0
    for s, t in zip(cuts, cuts[1:]):
        px, py = _mode_period(x, s, t), _mode_period(y, s, t)
        q = lcm(px, py) if (px and py) else None
        if q is None or t - s <= q:
            seg = _mask(x, y, s, t, leftward)
        else:
            full, rem = divmod(t - s, q)
            block = _mask(x, y, t - q, t, True) if leftward else _mask(x, y, s, s + q, False)
            repunit = ((1 << (q * full)) - 1) // ((1 << q) - 1)
            seg = ((block * repunit) << rem) | (block >> (q - rem))
        mask = (mask | (seg << (s - a))) if leftward else ((mask << (t - s)) | seg)
    return mask


def _at_phase(p: BiWord) -> BiWord:
    """p, or when p has no window and equal tails (a purely periodic point)
    the same point anchored at its phase within one period of 0, so a far
    shift of it costs nothing in `shift_distance`."""
    if p.window or p.left != p.right:
        return p
    return p.shifted(p.window_start - p.window_start % len(p.left))


def _class_ends(run: list, period: int) -> list:
    """The first and the last exponent of each residue class mod `period`
    in the ascending `run`.  Every class has its first exponent inside the
    shortest prefix that holds every class, so the first exponents are read
    off prefixes of period, 2 period, 4 period, ... exponents until one
    holds `period` classes or is the whole run, and the last ones off
    suffixes alike: one prefix of `period` exponents when every class comes
    early, at most twice one pass over the run when one never comes."""
    ends = []
    for first in (True, False):
        size = period
        while True:
            part = run[:size][::-1] if first else run[-size:]
            # a dict keeps a residue's last exponent in `part`
            found = dict(zip(map(period.__rmod__, part), part))
            if len(found) == period or size >= len(run):
                break
            size *= 2
        ends += found.values()
    return ends


def shift_distance_extremes(x: BiWord, y: BiWord, exponents: list) -> tuple:
    """min and max of d(sigma^E x, sigma^E y) over the ascending distinct
    exponents E, exactly.

    With delta_j = [x_j != y_j] the distance splits at E into a right sum
    R(E) = sum_{i>=0} delta_{E+i} 2^-i and a left sum
    L(E) = sum_{i>=1} delta_{E-i} 2^-i, and one cell to the right
    R(E+1) = 2(R(E) - delta_E), L(E+1) = (L(E) + delta_E) / 2.  delta is
    periodic (lp) below lo and (rp) from hi on, so every value is an integer
    over Q = (2^lp - 1)(2^rp - 1) 2^K, with K = hi - lo plus the distance of
    the farthest exponent from the windows on a side whose tail correction
    (below) is non-zero.  Over a gap of g cells up to the pair's extent
    (hi - lo + lp + rp) the recurrence folds to R <- 2^g R - 2Q M_r and
    L <- (L + Q M_l) / 2^g, with M_r and M_l the gap's disagreement masks
    read in the two directions; a wider gap is re-seeded in closed form, so
    no cost grows with |E|.

    Past a window edge the sum is a part periodic in E (rp on the right, lp
    on the left) plus the edge's correction, halved once per cell, so it is
    monotone on each residue class and only the class's first and last
    exponent can be its minimum or maximum.  The fold keeps every exponent
    in [lo, hi] and those class ends (_class_ends), at most
    w + 1 + 2(lp + rp) of them, so no fold or exact sum grows with the
    number of exponents.
    """
    for p in (x, y):
        if not isinstance(p, BiWord):
            raise SpaceMismatch(f"{type(p).__name__} is not a point of ShiftSpace")
    lo, hi = min(x.window_start, y.window_start), max(x.window_end, y.window_end)
    lp, rp = lcm(len(x.left), len(y.left)), lcm(len(x.right), len(y.right))
    lden, rden, w = (1 << lp) - 1, (1 << rp) - 1, hi - lo

    def bits(a, b, leftward=False):
        return disagreement_mask(x, y, a, b, leftward)

    # [lo, hi) read rightward and leftward, and the tail blocks at its edges
    win_r, win_l = bits(lo, hi), bits(lo, hi, True)
    right_at_hi, left_at_lo = bits(hi, hi + rp), bits(lo - lp, lo, True)

    def inside(e, k):
        # (R, L) for lo <= e <= hi over Q with 2^k
        r = (2 * (win_r & ((1 << (hi - e)) - 1)) * rden + 2 * right_at_hi) * lden
        l = ((win_l & ((1 << (e - lo)) - 1)) * lden + left_at_lo) * rden
        return r << (k - (hi - e)), l << (k - (e - lo))

    def right_tail_l(e, k):
        # left sum at e of the right tail's pattern continued leftward forever
        e = hi + rp + (e - hi) % rp
        return (bits(e - rp, e, True) * lden) << k

    def left_tail_r(e, k):
        # right sum at e of the left tail's pattern continued rightward forever
        e = lo - lp - (lo - lp - e) % lp
        return (2 * bits(e, e + lp) * rden) << k

    # beyond a window edge a sum is its tail pattern's plus the edge's
    # correction, halved once per cell of distance; a zero correction keeps
    # the denominator free of that distance
    fix_l = inside(hi, w)[1] - right_tail_l(hi, w)
    fix_r = inside(lo, w)[0] - left_tail_r(lo, w)
    k = w + max(0, exponents[-1] - hi if fix_l else 0, lo - exponents[0] if fix_r else 0)
    fix_l, fix_r = fix_l << (k - w), fix_r << (k - w)
    q = lden * rden << k

    def seed(e):
        if e > hi:
            return (2 * bits(e, e + rp) * lden) << k, right_tail_l(e, k) + (fix_l >> (e - hi))
        if e < lo:
            return left_tail_r(e, k) + (fix_r >> (lo - e)), (bits(e - lp, e, True) * rden) << k
        return inside(e, k)

    a, b = bisect_left(exponents, lo), bisect_right(exponents, hi)
    ends = _class_ends(exponents[:a], lp) + _class_ends(exponents[b:], rp)
    exponents = sorted({*exponents[a:b], *ends})

    extent = w + lp + rp
    sums, i = [], 0
    while i < len(exponents):
        # a run of exponents at most the extent apart: seed its first one,
        # then step over each gap [E, E+g) at once off the run's one mask
        j = i
        while j + 1 < len(exponents) and exponents[j + 1] - exponents[j] <= extent:
            j += 1
        a, b = exponents[i], exponents[j]
        r, l = seed(a)
        sums.append(r + l)
        cells = format(bits(a, b), f"0{b - a}b")  # delta_E at index E - a
        for e0, e in zip(exponents[i:j], exponents[i + 1 : j + 1]):
            g, gap = e - e0, cells[e0 - a : e - a]
            # the masks of [E, E+g) with cell E high (M_r) and cell E+g-1 high (M_l)
            r = (r << g) - 2 * q * int(gap, 2)
            l = (l + q * int(gap[::-1], 2)) >> g
            sums.append(r + l)
        i = j + 1
    return Fraction(min(sums), q), Fraction(max(sums), q)


def shift_distance(x: BiWord, y: BiWord) -> Fraction:
    """d(x, y) = sum over all integers i of |x_i - y_i| / 2^|i|, exactly: the
    one-exponent case E = 0 of `shift_distance_extremes`.  A distance whose
    denominator has more bits than an integer can hold raises ValueError.
    """
    x, y = _at_phase(x), _at_phase(y)
    try:
        return shift_distance_extremes(x, y, [0])[0]
    except OverflowError:
        raise ValueError(f"the exact distance of {x!r} and {y!r} needs a denominator "
                         "with too many digits for an integer") from None


def distance(space: SpaceDesc, p: Point, q: Point) -> RationalOrEnclosure:
    """Metric of the space: exact rational on shift/finite spaces, exact or
    enclosure-valued on the circle (exact zero for equal points)."""
    _check_space_point(space, p)
    _check_space_point(space, q)
    if isinstance(space, ShiftSpace):
        return shift_distance(p, q)
    if isinstance(space, FiniteSpace):
        return Fraction(0) if p.index == q.index else Fraction(1)
    if isinstance(space, CircleSpace):
        sep = circle_separation(space, p, q)
        return sep.q if sep.exact else sep
    return value_max([distance(s, a, b) for s, a, b in zip(space.parts, p.parts, q.parts)])


# ---------------------------------------------------------------------------
# membership


def contains(space: SpaceDesc, A: BasicOpen, p: Point) -> bool:
    _check_space_point(space, p)
    if isinstance(A, Cylinder):
        return all(map(eq, map(p.coord, range(A.start, A.end)), A.word))
    if isinstance(A, FiniteSet):
        return p.index in A.ids
    if isinstance(A, Arc):
        sep = circle_separation(space, p, A.center)
        return value_cmp(sep, A.radius) < 0
    if isinstance(A, ProductOpen):
        return all(contains(s, a, x) for s, a, x in zip(space.parts, A.parts, p.parts))
    raise SpaceMismatch(f"unknown open set {A!r}")


# ---------------------------------------------------------------------------
# meets


def _span_of(space: CircleSpace, A: Arc) -> tuple[AlphaLinear, AlphaLinear]:
    """(start position, length) of the arc, as exact reals."""
    start = A.center.lift(space.alpha) - A.radius
    return start, AlphaLinear(2 * A.radius, Fraction(0), space.alpha)


def intersects(space: SpaceDesc, A: BasicOpen, B: BasicOpen) -> bool:
    """Nonemptiness of A intersect B, decided on A and B themselves: no
    verdict needs the intersection as an open set."""
    if isinstance(A, Cylinder) and isinstance(B, Cylinder):
        lo, hi = max(A.start, B.start), min(A.end, B.end)
        return lo >= hi or A.word[lo - A.start:hi - A.start] == B.word[lo - B.start:hi - B.start]
    if isinstance(A, FiniteSet) and isinstance(B, FiniteSet):
        return bool(A.ids & B.ids)
    if isinstance(A, Arc) and isinstance(B, Arc) and isinstance(space, CircleSpace):
        sep = circle_separation(space, A.center, B.center)
        return value_cmp(sep, A.radius + B.radius) < 0
    if isinstance(A, ProductOpen) and isinstance(B, ProductOpen):
        return all(intersects(s, a, b) for s, a, b in zip(space.parts, A.parts, B.parts))
    raise SpaceMismatch(f"cannot intersect {type(A).__name__} with {type(B).__name__}")


# ---------------------------------------------------------------------------
# diameter and basis


def diameter(space: SpaceDesc, A: BasicOpen) -> RationalOrEnclosure:
    """Exact supremum of pairwise distances within A.

    On cylinders the supremum is attained (all coordinates off the window
    can disagree).  Arc diameters use the arc length 2*radius, which matches
    the metric supremum for radius <= 1/4; corpus arcs stay below that.
    """
    if isinstance(A, Cylinder):
        return TOTAL_WEIGHT - sum(Fraction(1, 1 << abs(i)) for i in range(A.start, A.end))
    if isinstance(A, FiniteSet):
        return Fraction(0) if len(A.ids) == 1 else Fraction(1)
    if isinstance(A, Arc):
        return 2 * A.radius
    if isinstance(A, ProductOpen):
        return value_max([diameter(s, a) for s, a in zip(space.parts, A.parts)])
    raise SpaceMismatch(f"unknown open set {A!r}")


def diameter_exceeds(space: SpaceDesc, A: BasicOpen, delta: Fraction) -> bool:
    """Exactly: is diam A > delta?

    A cylinder whose cells all lie at least D from the origin has cell
    weights summing below 2^(2-D), so its diameter exceeds 3 - 2^(2-D).  Once
    2^(D-2) passes the denominator of 3 - delta that bound decides the
    comparison, with no 2^-|i| term built for a window moved far out.  A
    rectangle is wider than delta exactly when one of its sides is."""
    if isinstance(A, Cylinder):
        gap = TOTAL_WEIGHT - Fraction(delta)
        if gap <= 0:
            return False  # the window holds a cell, so diam A < 3
        near = max(A.start, 1 - A.end, 0)  # the least |i| over the window
        if near - 2 >= gap.denominator.bit_length():
            return True
    if isinstance(A, ProductOpen):
        return any(diameter_exceeds(s, a, delta) for s, a in zip(space.parts, A.parts))
    return value_cmp(diameter(space, A), delta) > 0


def min_resolution(space: SpaceDesc) -> int:
    """The least basis resolution the space admits: circle arcs at
    resolution r have radius 1/(2r) and an open arc needs a radius below
    1/2, so a circle, or a product with a circle factor, needs r >= 2."""
    if isinstance(space, CircleSpace):
        return 2
    if isinstance(space, ProductSpace):
        return max(min_resolution(part) for part in space.parts)
    return 1


def enumerate_basis(space: SpaceDesc, resolution: int) -> list:
    """Finite topology basis at the given resolution, in deterministic order.

    The opens are pairwise disjoint, so B_i meets B_j exactly when i == j:
    the full-word cylinders on [-r, r] of the shift, the singletons of a
    finite space, the r arcs of radius 1/(2r) centred at k/r (neighbours
    touch at one endpoint only) and the rectangles of these.  On the shift
    and finite spaces they also cover the space, so every point lies in
    exactly one of them (see basis_reader).

    Index order: a shift word's symbols read as base-a digits, most
    significant first, give its index; singleton {i} has index i - 1; arc
    k has index k; a rectangle's index tuple runs in itertools.product
    order over its parts' indices, the first part most significant."""
    least = min_resolution(space)
    if resolution < least:
        raise ValueError(f"resolution must be at least {least}")
    if isinstance(space, ShiftSpace):
        words = product(range(space.alphabet_size), repeat=2 * resolution + 1)
        return [Cylinder(-resolution, word) for word in words]
    if isinstance(space, FiniteSpace):
        return [FiniteSet(frozenset({i})) for i in range(1, space.point_count + 1)]
    if isinstance(space, CircleSpace):
        r = Fraction(1, 2 * resolution)
        return [Arc(AffineAngle(Fraction(k, resolution)), r) for k in range(resolution)]
    if isinstance(space, ProductSpace):
        bases = [enumerate_basis(part, resolution) for part in space.parts]
        return [ProductOpen(sides) for sides in product(*bases)]
    raise SpaceMismatch(f"unknown space {space!r}")


def basis_reader(space: SpaceDesc, basis: list):
    """The function taking a point to the index of the open of `basis`
    (enumerate_basis(space, r)) holding it, or None when none does.

    The opens partition the shift and finite spaces, so the index is read
    off the point: its word on [-r, r] looked up among the basis words, or
    its id - 1.  A rectangle's index is the mixed-radix number of its
    sides' indices, in enumerate_basis order.  A circle point is tested
    against each arc, since a declared angle can leave membership undecided
    (an undecided arc does not hold the point); at most one arc holds it."""
    if isinstance(space, ShiftSpace):
        words = {B.word: i for i, B in enumerate(basis)}
        cells = range(basis[0].start, basis[0].end)
        return lambda p: words.get(tuple(map(p.coord, cells)))
    if isinstance(space, FiniteSpace):
        return lambda p: p.index - 1
    if isinstance(space, CircleSpace):
        return lambda p: next((i for i, A in enumerate(basis) if _holds(space, A, p)), None)
    # each part's basis, in order: its opens as the rectangles first list them
    bases = [list(dict.fromkeys(B.parts[k] for B in basis)) for k in range(len(space.parts))]
    readers = [basis_reader(part, sides) for part, sides in zip(space.parts, bases)]

    def read(p: ProductPoint) -> int | None:
        index = 0
        for reader, sides, x in zip(readers, bases, p.parts):
            i = reader(x)
            if i is None:
                return None
            index = index * len(sides) + i
        return index

    return read


def _holds(space: CircleSpace, A: Arc, p: AffineAngle) -> bool:
    try:
        return contains(space, A, p)
    except EnclosureUndecided:
        return False
