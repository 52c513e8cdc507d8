"""Hardening: circle arithmetic against an independent high-precision
oracle, declared-enclosure contracts, and cache thread-safety."""

import concurrent.futures
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ndslab import hitting as ht
from ndslab.maps import (
    ArithProgPattern,
    FamilyTerm,
    NdsSpec,
    RotPowTerm,
    Rule,
    ShiftPowTerm,
    prefix_compose,
)
from ndslab.spaces import (
    AffineAngle,
    AlphaEnclosure,
    AlphaLinear,
    Arc,
    CircleSpace,
    ShiftSpace,
    circle_separation,
    contains,
    distance,
    intersects,
    value_cmp,
)

mpmath.mp.dps = 60
ALPHA_MP = mpmath.sqrt(2) - 1
CIRCLE = CircleSpace()


def mp_circle_dist(q1, c1, q2, c2):
    t = mpmath.fmod((q1 - q2) + (c1 - c2) * ALPHA_MP, 1)
    if t < 0:
        t += 1
    return min(t, 1 - t)


class TestAgainstMpmathOracle:
    def test_randomized_distances(self):
        rng = random.Random(3)
        for _ in range(300):
            p = AffineAngle(Fraction(rng.randint(0, 23), 24), rng.randint(-40, 40))
            q = AffineAngle(Fraction(rng.randint(0, 23), 24), rng.randint(-40, 40))
            want = mp_circle_dist(p.q, p.c, q.q, q.c)
            got = distance(CIRCLE, p, q)
            if isinstance(got, Fraction):
                lo = hi = got
            else:
                lo, hi = got.enclosure()
            assert mpmath.mpf(lo.numerator) / lo.denominator <= want + mpmath.mpf(10) ** -50
            assert mpmath.mpf(hi.numerator) / hi.denominator >= want - mpmath.mpf(10) ** -50

    def test_randomized_arc_hits(self):
        rng = random.Random(4)
        margin = mpmath.mpf(10) ** -30
        for _ in range(300):
            a = Arc(AffineAngle(Fraction(rng.randint(0, 11), 12), rng.randint(-20, 20)),
                    Fraction(1, rng.choice([4, 6, 8])))
            b = Arc(AffineAngle(Fraction(rng.randint(0, 11), 12), rng.randint(-20, 20)),
                    Fraction(1, rng.choice([4, 6, 8])))
            d = mp_circle_dist(a.center.q, a.center.c, b.center.q, b.center.c)
            rsum = mpmath.mpf((a.radius + b.radius).numerator) / (a.radius + b.radius).denominator
            got = intersects(CIRCLE, a, b)
            if d < rsum - margin:
                assert got
            elif d > rsum + margin:
                assert not got

    def test_randomized_membership(self):
        rng = random.Random(5)
        margin = mpmath.mpf(10) ** -30
        for _ in range(300):
            arc = Arc(AffineAngle(Fraction(rng.randint(0, 11), 12), rng.randint(-10, 10)),
                      Fraction(1, rng.choice([4, 8, 16])))
            p = AffineAngle(Fraction(rng.randint(0, 11), 12), rng.randint(-10, 10))
            d = mp_circle_dist(p.q, p.c, arc.center.q, arc.center.c)
            r = mpmath.mpf(arc.radius.numerator) / arc.radius.denominator
            got = contains(CIRCLE, arc, p)
            if d < r - margin:
                assert got
            elif d > r + margin:
                assert not got


    @given(
        st.integers(-10**300, 10**300), st.integers(1, 2**20),
        st.integers(-10**300, 10**300).filter(bool), st.integers(1, 2**20),
        st.integers(-10**300, 10**300), st.integers(1, 2**20),
    )
    @settings(max_examples=200, deadline=None)
    def test_builtin_floor_and_cmp(self, a, b, c, e, r, s):
        # (p + n*sqrt2) / d sits at least about 1 / (3*n*d) from any
        # rational of denominator d, so twice the operand digits resolve it
        v, other = AlphaLinear(Fraction(a, b), Fraction(c, e)), Fraction(r, s)
        with mpmath.workdps(2 * sum(len(str(x)) for x in (a, b, c, e, r, s)) + 40):
            x = mpmath.mpf(a) / b + mpmath.mpf(c) / e * (mpmath.sqrt(2) - 1)
            assert v.floor() == int(mpmath.floor(x))
            assert v.cmp(other) == (1 if x > mpmath.mpf(r) / s else -1)


class TestBoundedRefinement:
    @pytest.mark.parametrize("bits", [80, 4000])
    def test_convergents_far_past_any_fixed_precision_are_ordered(self, bits):
        # consecutive continued-fraction convergents p/q of the angle sit
        # within 1/q^2 of it, one on each side
        p0, q0, p1, q1 = 0, 1, 1, 2
        while q1 <= 1 << bits:
            p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        v = AlphaLinear(Fraction(0), Fraction(1))
        with mpmath.workdps(2 * len(str(q1)) + 40):
            for p, q in ((p0, q0), (p1, q1)):
                want = 1 if mpmath.sqrt(2) - 1 > mpmath.mpf(p) / q else -1
                assert v.cmp(Fraction(p, q)) == want

    def test_moderately_close_comparison_decides(self):
        # a convergent with q ~ 2^20 is separated well within reach
        p0, q0, p1, q1 = 0, 1, 1, 2
        while q1 <= 1 << 20:
            p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        v = AlphaLinear(Fraction(0), Fraction(1))
        assert v.cmp(Fraction(p1, q1)) in (-1, 1)

    def test_custom_enclosure_reports_undecided_indices(self):
        alpha = AlphaEnclosure.custom(Fraction(1, 4), Fraction(1, 2**70))
        spec = NdsSpec(CircleSpace(alpha), (), RotPowTerm(1))
        U = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        V = Arc(AffineAngle(Fraction(1, 2)), Fraction(1, 8))
        hs = ht.hitting_set(spec, U, V, 8)
        # every index needs the wrap or the boundary call the enclosure
        # cannot make; all are excluded from members and reported
        assert hs.members == ()
        assert hs.inconclusive == tuple(range(1, 9))

    def test_custom_enclosure_still_decides_clear_cases(self):
        alpha = AlphaEnclosure.custom(Fraction(2, 5), Fraction(1, 2**70))
        p = AffineAngle(Fraction(0), 1)  # at the angle itself: ~0.4
        inside = Arc(AffineAngle(Fraction(1, 3)), Fraction(1, 4))
        outside = Arc(AffineAngle(Fraction(4, 5)), Fraction(1, 8))
        assert contains(CircleSpace(alpha), inside, p)
        assert not contains(CircleSpace(alpha), outside, p)


class TestConcurrentCaches:
    def test_parallel_prefix_composition_is_schedule_independent(self):
        spec = NdsSpec(ShiftSpace(), (
            Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
            Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1)),
        ))
        want = [prefix_compose(spec, n) for n in range(1, 257)]

        fresh = NdsSpec(ShiftSpace(), spec.rules)
        ns = list(range(1, 257))
        random.Random(11).shuffle(ns)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = dict(zip(ns, pool.map(lambda n: prefix_compose(fresh, n), ns)))
        assert [got[n] for n in range(1, 257)] == want

    def test_separation_masks_order_independent(self):
        spec = NdsSpec(ShiftSpace(), (), ShiftPowTerm(1))
        from ndslab.spaces import Cylinder

        U = Cylinder(-1, (0, 0, 0))
        a = ht.separation_set(spec, U, Fraction(1, 4), 64)
        b = ht.separation_set(spec, U, Fraction(1, 4), 64)
        assert a == b
