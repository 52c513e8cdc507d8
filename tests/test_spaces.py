"""Phase-space layer: exact metrics, cylinder/arc meets, basis enumeration.

Derived expectations are computed by independent brute-force oracles
(truncated metric sums, word enumeration) before being asserted.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from ndslab.spaces import (
    AffineAngle,
    AlphaEnclosure,
    AlphaLinear,
    Arc,
    BiWord,
    CircleSpace,
    Cylinder,
    EnclosureUndecided,
    FiniteId,
    FiniteSet,
    FiniteSpace,
    ProductOpen,
    ProductSpace,
    ShiftSpace,
    SpaceMismatch,
    all_ones,
    all_zeros,
    contains,
    diameter,
    diameter_exceeds,
    distance,
    enumerate_basis,
    intersects,
    shift_distance,
    shift_distance_extremes,
    value_cmp,
)

SHIFT = ShiftSpace()
CIRCLE = CircleSpace()


def diameter_witness_pair(A: Cylinder) -> tuple:
    """A pair of points of cylinder A attaining its diameter: one fills
    every cell off A's window with 0, the other with 1."""
    lo = min(A.start, 0) - 1
    hi = max(A.end, 0) + 1

    def build(fill):
        window = tuple(A.word[i - A.start] if A.start <= i < A.end else fill for i in range(lo, hi))
        return BiWord(lo, window, (fill,), (fill,))

    return build(0), build(1)


def truncated_distance(x, y, T=96):
    """Independent oracle: truncate the metric sum to |i| <= T; the dropped
    tail weighs at most 2^(1-T) per side."""
    total = Fraction(0)
    for i in range(-T, T + 1):
        if x.coord(i) != y.coord(i):
            total += Fraction(1, 1 << abs(i))
    return total


TRUNC_SLACK = Fraction(4, 1 << 96)


def exact_distance(x, y):
    """Independent exact oracle: sum the coordinates one by one out past both
    windows plus one joint period on each side, then close each side with
    its next period block over 1 - 2^-q (the disagreements repeat with the
    joint tail period q from there on)."""
    lq = math.lcm(len(x.left), len(y.left))
    rq = math.lcm(len(x.right), len(y.right))
    lo = min(x.window_start, y.window_start, 0) - lq
    hi = max(x.window_end, y.window_end, 0) + rq

    def weight(i):
        return Fraction(1, 1 << abs(i)) if x.coord(i) != y.coord(i) else Fraction(0)

    total = sum((weight(i) for i in range(lo, hi)), Fraction(0))
    right_block = sum((weight(i) for i in range(hi, hi + rq)), Fraction(0))
    left_block = sum((weight(i) for i in range(lo - lq, lo)), Fraction(0))
    return (
        total
        + right_block / (1 - Fraction(1, 1 << rq))
        + left_block / (1 - Fraction(1, 1 << lq))
    )


biwords = st.builds(
    BiWord,
    window_start=st.integers(-8, 8),
    window=st.lists(st.integers(0, 1), max_size=8).map(tuple),
    left=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    right=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)

bits = st.integers(0, 1)
far_biwords = st.builds(
    BiWord,
    window_start=st.integers(-600, 600),
    window=st.lists(bits, max_size=12).map(tuple),
    left=st.lists(bits, min_size=1, max_size=48).map(tuple),
    right=st.lists(bits, min_size=1, max_size=48).map(tuple),
)


@st.composite
def far_pairs(draw):
    """Unrelated points, or two windows over shared tails (the Li-Yorke
    candidates' shape: the distance then comes from the windows alone)."""
    x = draw(far_biwords)
    if draw(st.booleans()):
        return x, draw(far_biwords)
    start = draw(st.integers(-600, 600))
    window = tuple(draw(st.lists(bits, max_size=12)))
    return x, BiWord(start, window, x.left, x.right)


@st.composite
def cylinders_and_points(draw):
    """A cylinder and a point whose window either covers it or stops inside
    it; the point mostly follows the cylinder's word, so both answers
    occur."""
    inner = draw(st.lists(bits, max_size=6))
    cyl = Cylinder(draw(st.integers(-6, 6)), (draw(bits), *inner, draw(bits)))
    pad = st.integers(0, 3)
    if draw(st.booleans()):
        lo, hi = cyl.start - draw(pad), cyl.end + draw(pad)
    else:
        cut = draw(st.integers(cyl.start + 1, cyl.end - 1))
        lo, hi = (cut, cyl.end + draw(pad)) if draw(st.booleans()) else (cyl.start - draw(pad), cut)
    window = tuple(
        draw(bits) if not cyl.start <= i < cyl.end or draw(st.integers(0, 7)) == 0
        else cyl.word[i - cyl.start]
        for i in range(lo, hi)
    )
    tail = st.lists(bits, min_size=1, max_size=3).map(tuple)
    return cyl, BiWord(lo, window, draw(tail), draw(tail))


class TestMembership:
    @given(cylinders_and_points())
    @settings(max_examples=300)
    def test_cylinder_membership_is_the_per_cell_rule(self, case):
        cyl, x = case
        expected = all(x.coord(cyl.start + k) == s for k, s in enumerate(cyl.word))
        assert contains(SHIFT, cyl, x) == expected


class TupleKind(tuple):
    """A tuple subclass: normalising stores a plain tuple in its place."""


def primitive_period(period):
    n = len(period)
    return next(period[:p] for p in range(1, n + 1) if n % p == 0 and period == period[:p] * (n // p))


BIWORD_FIELDS = ("window_start", "window", "left", "right")


def normalised_as_before(window_start, window, left, right):
    """A BiWord normalised as its __post_init__ once did: every field stored
    again, each tail as its primitive period."""
    x = object.__new__(BiWord)
    for name, value in zip(BIWORD_FIELDS, (window_start, window, left, right)):
        object.__setattr__(x, name, value)
    if not x.left or not x.right:
        raise ValueError("periodic tails must be nonempty")
    object.__setattr__(x, "left", primitive_period(tuple(x.left)))
    object.__setattr__(x, "right", primitive_period(tuple(x.right)))
    object.__setattr__(x, "window", tuple(x.window))
    return x


kinds = st.sampled_from([tuple, list, TupleKind])
# a tail is a block repeated: one symbol, primitive, or not primitive
tails = st.builds(lambda block, times, kind: kind(block * times),
                  st.lists(bits, min_size=0, max_size=3), st.integers(1, 3), kinds)


class TestBiWordConstruction:
    @given(st.integers(-5, 5), st.builds(lambda w, kind: kind(w), st.lists(bits, max_size=6), kinds),
           tails, tails)
    @settings(max_examples=300, deadline=None)
    def test_constructor_matches_the_old_normal_form(self, start, window, left, right):
        try:
            old = normalised_as_before(start, window, left, right)
        except ValueError:
            with pytest.raises(ValueError, match="periodic tails must be nonempty"):
                BiWord(start, window, left, right)
            return
        new = BiWord(start, window, left, right)
        for f in BIWORD_FIELDS:
            assert type(getattr(new, f)) is type(getattr(old, f))
            assert getattr(new, f) == getattr(old, f)
        assert repr(new) == repr(old)
        assert new == old and old == new
        for x in (new, old):
            with pytest.raises(TypeError):
                hash(x)

    @given(cylinders_and_points(), biwords, st.lists(st.integers(0, 255), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_a_bytes_window_is_kept_and_reads_as_its_tuple(self, case, z, extra):
        cyl, p = case
        cells = p.window + tuple(extra)
        window = bytes(cells)
        x = BiWord(p.window_start, window, p.left, p.right)
        t = BiWord(p.window_start, cells, p.left, p.right)
        assert x.window is window and type(t.window) is tuple
        assert x == t and t == x and repr(x) == repr(t)
        span = range(x.window_start - 9, x.window_end + 9)
        assert list(map(x.coord, span)) == list(map(t.coord, span))
        for y in (z, p, t):
            assert shift_distance(x, y) == shift_distance(t, y) == shift_distance(y, x)
        assert contains(SHIFT, cyl, x) == contains(SHIFT, cyl, t)


class TestShiftMetric:
    def test_identical_points(self):
        x = BiWord(0, (1, 0, 1), (0,), (1, 1, 0))
        assert distance(SHIFT, x, x) == 0

    def test_opposite_constants(self):
        # oracle: sum of 2^-|i|, truncated
        approx = truncated_distance(all_zeros(), all_ones())
        assert abs(approx - 3) < TRUNC_SLACK
        assert distance(SHIFT, all_zeros(), all_ones()) == 3

    @given(biwords, biwords)
    @settings(max_examples=300, deadline=None)
    def test_matches_truncation_oracle(self, x, y):
        exact = shift_distance(x, y)
        assert abs(exact - truncated_distance(x, y)) <= TRUNC_SLACK

    @given(biwords, biwords)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_zero(self, x, y):
        assert shift_distance(x, y) == shift_distance(y, x)
        assert (shift_distance(x, y) == 0) == (x == y)

    @given(biwords, biwords, biwords)
    @settings(max_examples=150, deadline=None)
    def test_triangle(self, x, y, z):
        assert shift_distance(x, z) <= shift_distance(x, y) + shift_distance(y, z)

    @given(far_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_oracle_far_from_origin(self, pair):
        x, y = pair
        assert shift_distance(x, y) == exact_distance(x, y)

    @given(far_biwords, st.integers(-700, 700))
    @settings(max_examples=150, deadline=None)
    def test_shifted_equals_rebuilt_word(self, x, e):
        moved = x.shifted(e)
        rebuilt = BiWord(x.window_start - e, x.window, x.left, x.right)
        fields = ("window_start", "window", "left", "right")
        assert [getattr(moved, f) for f in fields] == [getattr(rebuilt, f) for f in fields]
        assert moved == rebuilt

    def test_semantic_equality_across_representations(self):
        a = BiWord(0, (), (0,), (0,))
        b = BiWord(5, (0, 0, 0), (0, 0), (0,))
        assert a == b
        assert shift_distance(a, b) == 0

    def test_space_point_mismatch(self):
        with pytest.raises(SpaceMismatch):
            distance(SHIFT, all_zeros(), FiniteId(1))

    @given(st.lists(bits, min_size=1, max_size=4), biwords, st.sampled_from([1, -1]),
           st.integers(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_far_shift_of_a_periodic_point_reads_its_phase(self, pattern, y, sign, e):
        # a 40-digit shift of a purely periodic point is the same point as
        # the shift reduced mod its period
        x = BiWord(0, (), tuple(pattern), tuple(pattern))
        big = sign * 10**40 + e
        near = x.shifted(big % len(pattern))
        assert shift_distance(x.shifted(big), y) == shift_distance(near, y)
        assert shift_distance(y, x.shifted(big)) == shift_distance(y, near)

    def test_denominator_too_large_for_an_integer_is_a_value_error(self):
        far = BiWord(0, (1,), (0,), (0,)).shifted(10**40)
        with pytest.raises(ValueError, match="too many digits for an integer"):
            shift_distance(all_zeros(), far)


@st.composite
def pairs_and_exponents(draw):
    """Near or far pairs and an ascending set of exponents, near the
    origin or far past the windows."""
    x, y = draw(st.one_of(st.tuples(biwords, biwords), far_pairs()))
    exponents = st.lists(st.one_of(st.integers(-40, 40), st.integers(-700, 700)),
                         min_size=1, max_size=6, unique=True)
    return x, y, sorted(draw(exponents))


class TestShiftDistanceExtremes:
    """The one exact shift metric kernel, against the per-coordinate
    oracle applied to each shifted pair."""

    @given(pairs_and_exponents())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_exact_oracle_at_every_exponent(self, case):
        x, y, exponents = case
        dists = [exact_distance(x.shifted(e), y.shifted(e)) for e in exponents]
        assert shift_distance_extremes(x, y, exponents) == (min(dists), max(dists))

    def test_a_point_of_another_space_is_a_mismatch(self):
        with pytest.raises(SpaceMismatch):
            shift_distance_extremes(all_zeros(), FiniteId(1), [0])


class TestFiniteMetric:
    def test_discrete(self):
        space = FiniteSpace(3)
        assert distance(space, FiniteId(1), FiniteId(2)) == 1
        assert distance(space, FiniteId(2), FiniteId(2)) == 0


class TestCircle:
    def test_equal_points_exact_zero(self):
        p = AffineAngle(Fraction(1, 3), 2)
        assert distance(CIRCLE, p, p) == 0

    def test_rational_distance_exact(self):
        d = distance(CIRCLE, AffineAngle(Fraction(1, 8)), AffineAngle(Fraction(7, 8)))
        assert d == Fraction(1, 4)

    def test_irrational_offset_brackets_float(self):
        # independent float oracle
        alpha = math.sqrt(2) - 1
        d = distance(CIRCLE, AffineAngle(Fraction(0), 1), AffineAngle(Fraction(0), 0))
        lo, hi = d.enclosure()
        want = min(alpha, 1 - alpha)
        assert lo <= Fraction(want).limit_denominator(10**15) <= hi or abs(float(lo) - want) < 1e-12

    def test_angle_equality_uses_coefficients(self):
        assert AffineAngle(Fraction(1, 2), 1) != AffineAngle(Fraction(1, 2), 2)
        assert AffineAngle(Fraction(3, 2), 1) == AffineAngle(Fraction(1, 2), 1)

    def test_comparison_refines(self):
        v = AlphaLinear(Fraction(0), Fraction(1))
        assert v.cmp(Fraction(41421356237, 10**11)) > 0
        assert v.cmp(Fraction(41421356238, 10**11)) < 0

    def test_custom_enclosure_can_stay_undecided(self):
        alpha = AlphaEnclosure.custom(Fraction(1, 3), Fraction(1, 2**70))
        v = AlphaLinear(Fraction(0), Fraction(1), alpha)
        with pytest.raises(EnclosureUndecided):
            v.cmp(Fraction(1, 3))

    def test_floor_and_wrap(self):
        v = AlphaLinear(Fraction(5, 2), Fraction(3))
        w = v.wrap()
        assert value_cmp(w, 0) >= 0 and value_cmp(w, 1) < 0


class TestIntersection:
    @pytest.mark.parametrize("word", [(0, None, 1), (None,), ()])
    def test_a_cylinder_has_a_symbol_in_every_cell(self, word):
        with pytest.raises(ValueError, match="a symbol in every cell"):
            Cylinder(0, word)

    @pytest.mark.parametrize("a, b", [
        (Cylinder(1, (0, 0, 0)), Cylinder(-1, (1,))),
        (Cylinder(4, (1,) * 6), Cylinder(-2, (0, 0))),
    ])
    def test_windows_apart_always_meet(self, a, b):
        # the later word is longer than the gap: a slice read past the
        # earlier window's end would compare part of it with nothing
        assert intersects(SHIFT, a, b) and intersects(SHIFT, b, a)

    def test_same_cylinder(self):
        c = Cylinder(0, (1,))
        assert intersects(SHIFT, c, c)

    def test_symbol_conflict(self):
        assert not intersects(SHIFT, Cylinder(0, (1,)), Cylinder(0, (0,)))

    def test_overlapping_merge_matches_enumeration(self):
        a = Cylinder(-1, (0, 1))
        b = Cylinder(0, (1, 0))
        # oracle: brute force over all words on [-1, 2)
        members = [
            w
            for w in iproduct((0, 1), repeat=3)
            if w[0] == 0 and w[1] == 1 and w[1] == 1 and w[2] == 0
        ]
        assert members == [(0, 1, 0)]
        assert intersects(SHIFT, a, b) and intersects(SHIFT, b, a)
        assert not intersects(SHIFT, a, Cylinder(0, (0, 0)))

    def test_gap_merge_keeps_free_middle(self):
        a = Cylinder(-3, (1,))
        b = Cylinder(2, (0,))
        assert intersects(SHIFT, a, b)
        for fill in (0, 1):
            p = BiWord(-3, (1, fill, fill, fill, fill, 0), (fill,), (fill,))
            assert contains(SHIFT, a, p) and contains(SHIFT, b, p)

    @given(
        st.integers(-3, 3), st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
        st.integers(-3, 3), st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_word_enumeration(self, s1, w1, s2, w2):
        a, b = Cylinder(s1, w1), Cylinder(s2, w2)
        lo = min(a.start, b.start)
        hi = max(a.end, b.end)
        in_both = [
            w
            for w in iproduct((0, 1), repeat=hi - lo)
            if all(w[i - lo] == s for i, s in enumerate(a.word, a.start))
            and all(w[i - lo] == s for i, s in enumerate(b.word, b.start))
        ]
        assert intersects(SHIFT, a, b) == bool(in_both)
        assert intersects(SHIFT, b, a) == bool(in_both)

    def test_finite_sets(self):
        a = FiniteSet(frozenset({1, 2}))
        b = FiniteSet(frozenset({2, 3}))
        assert intersects(FiniteSpace(3), a, b)
        assert not intersects(FiniteSpace(3), a, FiniteSet(frozenset({3})))

    def test_variant_mismatch(self):
        with pytest.raises(SpaceMismatch):
            intersects(SHIFT, Cylinder(0, (1,)), FiniteSet(frozenset({1})))
        arc = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        with pytest.raises(SpaceMismatch):
            intersects(SHIFT, arc, arc)


class TestArcs:
    def test_disjoint_arcs(self):
        a = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        b = Arc(AffineAngle(Fraction(1, 2)), Fraction(1, 8))
        assert not intersects(CIRCLE, a, b)

    def test_identical_arcs(self):
        a = Arc(AffineAngle(Fraction(1, 4)), Fraction(1, 8))
        assert intersects(CIRCLE, a, a)

    def test_nested_and_two_piece_overlaps_meet(self):
        big = Arc(AffineAngle(Fraction(0)), Fraction(1, 4))
        small = Arc(AffineAngle(Fraction(0)), Fraction(1, 16))
        assert intersects(CIRCLE, big, small) and intersects(CIRCLE, small, big)
        # radius 3/8 around 0 and 1/2: the overlap is two arcs, around 1/4 and 3/4
        a = Arc(AffineAngle(Fraction(0)), Fraction(3, 8))
        b = Arc(AffineAngle(Fraction(1, 2)), Fraction(3, 8))
        assert intersects(CIRCLE, a, b)
        for q in (Fraction(1, 4), Fraction(3, 4)):
            assert contains(CIRCLE, a, AffineAngle(q)) and contains(CIRCLE, b, AffineAngle(q))

    def test_partial_overlap_with_irrational_offset(self):
        a = Arc(AffineAngle(Fraction(0)), Fraction(1, 4))
        b = Arc(AffineAngle(Fraction(0), 1), Fraction(1, 4))  # center at alpha
        assert intersects(CIRCLE, a, b) and intersects(CIRCLE, b, a)
        # the overlap is (alpha - 1/4, 1/4), about (0.164, 0.25)
        mid = AffineAngle(Fraction(1, 5))
        assert contains(CIRCLE, a, mid) and contains(CIRCLE, b, mid)
        assert not intersects(CIRCLE, b, Arc(AffineAngle(Fraction(7, 8)), Fraction(1, 16)))

    def test_touching_open_arcs_are_disjoint(self):
        a = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        b = Arc(AffineAngle(Fraction(1, 4)), Fraction(1, 8))
        assert not intersects(CIRCLE, a, b)


class TestDiameter:
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_symmetric_window_matches_truncation(self, w):
        cyl = Cylinder(-w, tuple([0] * (2 * w + 1)))
        # oracle: brute-force truncated weight of the free coordinates
        T = 80
        free = sum(
            Fraction(1, 1 << abs(i)) for i in range(-T, T + 1) if not (-w <= i <= w)
        )
        exact = diameter(SHIFT, cyl)
        assert exact == Fraction(2, 1 << w)
        assert abs(exact - free) < Fraction(4, 1 << T)

    def test_diameter_attained_by_witness_pair(self):
        cyl = Cylinder(-2, (1, 0, 1, 1, 0))
        x, y = diameter_witness_pair(cyl)
        assert contains(SHIFT, cyl, x) and contains(SHIFT, cyl, y)
        assert shift_distance(x, y) == diameter(SHIFT, cyl)

    def test_monotone_in_window_growth(self):
        prev = None
        for w in range(1, 7):
            d = diameter(SHIFT, Cylinder(-w, tuple([1] * (2 * w + 1))))
            if prev is not None:
                assert d < prev
            prev = d

    def test_reflection_invariance(self):
        a = diameter(SHIFT, Cylinder(2, (1, 1, 0)))
        b = diameter(SHIFT, Cylinder(-4, (0, 1, 1)))
        assert a == b

    def test_singleton_and_arc(self):
        assert diameter(FiniteSpace(3), FiniteSet(frozenset({1}))) == 0
        assert diameter(CIRCLE, Arc(AffineAngle(Fraction(0)), Fraction(1, 8))) == Fraction(1, 4)

    @given(
        st.integers(-60, 60),
        st.lists(bits, min_size=1, max_size=6),
        st.one_of(st.fractions(0, 4, max_denominator=1 << 12),
                  st.integers(1, 40).map(lambda k: 3 - Fraction(1, 1 << k))),
    )
    @settings(max_examples=300, deadline=None)
    def test_exceeds_matches_the_exact_diameter(self, start, word, delta):
        # deltas just below 3 sit where the far-window bound stops deciding
        cyl = Cylinder(start, tuple(word))
        assert diameter_exceeds(SHIFT, cyl, delta) == (diameter(SHIFT, cyl) > delta)

    def test_exceeds_decides_a_window_moved_far_out(self):
        far = Cylinder(10**40, (1, 0, 1))
        assert diameter_exceeds(SHIFT, far, Fraction(5, 2))
        assert not diameter_exceeds(SHIFT, far, Fraction(3))
        rect = ProductOpen((Cylinder(0, (1,)), far))
        assert diameter_exceeds(ProductSpace((SHIFT, SHIFT)), rect, Fraction(2))


class TestBasis:
    def test_shift_resolution_one(self):
        basis = enumerate_basis(SHIFT, 1)
        assert len(basis) == 8
        assert all(b.start == -1 and len(b.word) == 3 for b in basis)
        assert len(set(basis)) == 8

    def test_finite_singletons(self):
        assert enumerate_basis(FiniteSpace(3), 1) == [
            FiniteSet(frozenset({i})) for i in (1, 2, 3)
        ]

    def test_circle_resolution_four(self):
        basis = enumerate_basis(CIRCLE, 4)
        assert len(basis) == 4
        assert all(b.radius == Fraction(1, 8) for b in basis)

    @given(biwords)
    @settings(max_examples=100, deadline=None)
    def test_every_shift_point_covered(self, x):
        basis = enumerate_basis(SHIFT, 2)
        assert any(contains(SHIFT, b, x) for b in basis)

    @given(st.integers(0, 11), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_generic_circle_points_covered(self, num, c):
        # points with irrational angle, or rational angle off arc boundaries
        p = AffineAngle(Fraction(num, 12), c)
        basis = enumerate_basis(CIRCLE, 4)
        if c == 0 and (Fraction(num, 12) * 8) % 1 == Fraction(1, 2) % 1 and num % 3 == 0:
            return  # boundary midpoints sit between open arcs
        covered = any(contains(CIRCLE, b, p) for b in basis)
        boundary = c == 0 and Fraction(num, 12) in (
            Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8),
        )
        assert covered or boundary

    def test_points_within_diameter(self):
        basis = enumerate_basis(SHIFT, 2)
        A = basis[17]
        p = BiWord(A.start, A.word, (0,), (0,))
        x, y = diameter_witness_pair(A)
        for q in (x, y):
            assert shift_distance(p, q) <= diameter(SHIFT, A)
