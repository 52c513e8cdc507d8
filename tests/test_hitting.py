"""Hitting-time and separation sets and their frequency classification."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
from pairs import by_pair

from ndslab import hitting as ht
from ndslab.hitting import (
    brute_force_hitting,
    classify_frequency,
    hitting_set,
    product_structural_miss,
    separation_set,
)
from ndslab.maps import (
    ArithProgPattern,
    EqualsPattern,
    FamilyTerm,
    FiniteFnTerm,
    IdentityTerm,
    NdsSpec,
    PowerPattern,
    ProductSpec,
    RotPowTerm,
    Rule,
    ShiftPowTerm,
    derive_laws,
    image,
    prefix_compose,
)
from ndslab.spaces import (
    AffineAngle,
    AlphaEnclosure,
    Arc,
    CircleSpace,
    Cylinder,
    FiniteSet,
    FiniteSpace,
    ProductOpen,
    ShiftSpace,
    enumerate_basis,
)

SHIFT = ShiftSpace()


def ex31():
    return NdsSpec(SHIFT, (
        Rule(ArithProgPattern(3, 2), FamilyTerm("shift", 1)),
        Rule(ArithProgPattern(4, 2), FamilyTerm("shift", -1)),
    ))


def ex36():
    return NdsSpec(SHIFT, (
        Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
        Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1)),
    ))


def ex35():
    cyc = FiniteFnTerm((2, 3, 1))
    return NdsSpec(FiniteSpace(3), tuple(Rule(EqualsPattern(i), cyc) for i in (1, 2, 3)))


CONST_SIGMA = NdsSpec(SHIFT, (), ShiftPowTerm(1))
CONST_ID = NdsSpec(SHIFT, (), IdentityTerm())


class TestHittingSet:
    def test_finite_cycle_hits_once(self):
        hs = hitting_set(ex35(), FiniteSet(frozenset({1})), FiniteSet(frozenset({2})), 100)
        assert hs.members == (1,)

    def test_constant_shift_always_hits_itself(self):
        U = Cylinder(0, (0,))
        hs = hitting_set(CONST_SIGMA, U, U, 10)
        assert hs.members == tuple(range(1, 11))

    def test_no_even_members_for_disjoint_pair(self):
        hs = hitting_set(ex31(), Cylinder(0, (0,)), Cylinder(0, (1,)), 64)
        assert hs.members and all(n % 2 == 1 for n in hs.members)

    def test_agrees_with_step_fold_oracle(self):
        U, V = Cylinder(0, (0, 1)), Cylinder(-1, (1, 1))
        for spec in (ex31(), ex36(), CONST_SIGMA, CONST_ID):
            hs = hitting_set(spec, U, V, 256)
            assert hs.members == brute_force_hitting(spec, U, V, 256)

    def test_circle_oracle_agreement(self):
        spec = NdsSpec(CircleSpace(), (
            Rule(PowerPattern(3, 0), FamilyTerm("rot", 1)),
            Rule(PowerPattern(3, 1), FamilyTerm("rot", -1)),
        ))
        U = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        V = Arc(AffineAngle(Fraction(1, 2)), Fraction(1, 8))
        hs = hitting_set(spec, U, V, 128)
        assert hs.members == brute_force_hitting(spec, U, V, 128)
        assert hs.inconclusive == ()

    def test_monotone_in_target_growth(self):
        U = Cylinder(0, (0,))
        small = Cylinder(0, (1, 1))
        large = Cylinder(0, (1,))  # fewer constraints: a superset
        hs_small = hitting_set(ex36(), U, small, 128)
        hs_large = hitting_set(ex36(), U, large, 128)
        assert set(hs_small.members) <= set(hs_large.members)

    def test_horizon_truncation_consistency(self):
        U, V = Cylinder(0, (0,)), Cylinder(0, (1,))
        long = hitting_set(ex36(), U, V, 200)
        short = hitting_set(ex36(), U, V, 60)
        assert short.members == tuple(n for n in long.members if n <= 60)

    def test_several_opens_share_one_class_walk(self):
        basis = enumerate_basis(SHIFT, 2)
        W = Cylinder(-3, (0,) * 7)
        for spec in (ex36(), CONST_SIGMA):
            hits, undecided = ht.pair_masks(spec, basis, (W,), 100)
            assert list(by_pair(hits, len(basis), 1)) == [(i, 0) for i in range(len(basis))] and not undecided
            for U, mask in zip(basis, hits):
                assert ht._mask_members(mask) == brute_force_hitting(spec, U, W, 100)


def tail_start_from_bits(mask: int, H: int):
    """The tail start read off the bit string of `mask`, one character per
    time: one past the last time that is not a member."""
    bits = format(mask >> 1, f"0{H}b")[::-1]
    head = len(bits.rstrip("1"))
    return head + 1 if head < H else None


masks_within = st.integers(1, 200).flatmap(lambda H: st.tuples(st.just(H), st.one_of(
    st.sampled_from([0, (2 << H) - 2, 1 << H]),  # empty, full, H alone
    st.integers(0, (1 << H) - 1).map(lambda m: m << 1),
    # any members, then every time from t to H
    st.tuples(st.integers(0, (1 << H) - 1), st.integers(1, H)).map(
        lambda mt: mt[0] << 1 | (2 << H) - (1 << mt[1])),
)))


@given(masks_within)
@example((1, 0))
@example((1, 2))
@settings(max_examples=300, deadline=None)
def test_tail_start_reads_what_the_bit_string_does(case):
    H, mask = case
    assert ht._tail_start(mask, H) == tail_start_from_bits(mask, H)
    assert ht._frequency(mask, H)[3] == ht._tail_start(mask, H)


def class_walk(spec, U, V, H) -> tuple:
    """(members, inconclusive) of N(U, V) from the rectangle's own class
    walk: every product prefix map composed, its image of U tested once."""
    hits = undecided = 0
    for m, times in ht.prefix_classes(spec, H).items():
        meets = ht._meets(spec.space, image(m, U), V)
        if meets is None:
            undecided |= times
        elif meets:
            hits |= times
    return ht._mask_members(hits), ht._mask_members(undecided)


# a declared angle of 1/4: the basis arcs' comparisons at even times stay
# undecided under rot^1
DECLARED = NdsSpec(
    CircleSpace(AlphaEnclosure.custom(Fraction(1, 4), Fraction(1, 2**70))), (), RotPowTerm(1)
)
PRODUCT_PARTS = [ex31(), ex36(), CONST_SIGMA, ex35(), DECLARED]


@st.composite
def rectangle_pairs(draw):
    """A product of two or three parts, with U and V drawn from the parts'
    bases at resolution 2 (the least on the circle)."""
    parts = tuple(draw(st.lists(st.sampled_from(PRODUCT_PARTS), min_size=2, max_size=3)))
    sides = [draw(st.lists(st.sampled_from(enumerate_basis(p.space, 2)), min_size=2, max_size=2))
             for p in parts]
    U, V = (ProductOpen(tuple(side[k] for side in sides)) for k in (0, 1))
    return ProductSpec(parts), U, V


class TestProductHittingSet:
    @given(rectangle_pairs(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_the_part_fold_equals_the_rectangle_class_walk(self, case, H):
        spec, U, V = case
        hs = hitting_set(spec, U, V, H)
        assert (hs.members, hs.inconclusive) == class_walk(spec, U, V, H)
        assert hs.members == brute_force_hitting(spec, U, V, H)

    def test_shift_by_shift_and_shift_by_finite(self):
        for parts in ((ex36(), CONST_SIGMA), (ex31(), ex35())):
            spec = ProductSpec(parts)
            for i, j in ((0, 1), (1, 0), (0, 0)):
                U, V = (ProductOpen(tuple(enumerate_basis(p.space, 1)[k] for p in parts))
                        for k in (i, j))
                hs = hitting_set(spec, U, V, 64)
                assert (hs.members, hs.inconclusive) == class_walk(spec, U, V, 64)
                assert hs.members == brute_force_hitting(spec, U, V, 64)

    def test_the_first_side_that_misses_decides_before_a_later_undecided_one(self):
        arc = enumerate_basis(DECLARED.space, 2)[0]
        zero, one = Cylinder(0, (0,)), Cylinder(0, (1,))
        circle_first = ProductSpec((DECLARED, ex31()))
        shift_first = ProductSpec((ex31(), DECLARED))
        # the circle side is undecided at every even time, where ex31's
        # identity prefixes keep the disjoint cylinders apart
        a = hitting_set(circle_first, ProductOpen((arc, zero)), ProductOpen((arc, one)), 16)
        b = hitting_set(shift_first, ProductOpen((zero, arc)), ProductOpen((one, arc)), 16)
        assert a.members == b.members == (3, 5, 7, 9, 11, 13, 15)
        assert a.inconclusive == tuple(range(2, 17, 2)) and b.inconclusive == ()
        assert (a.members, a.inconclusive) == class_walk(
            circle_first, ProductOpen((arc, zero)), ProductOpen((arc, one)), 16)
        assert (b.members, b.inconclusive) == class_walk(
            shift_first, ProductOpen((zero, arc)), ProductOpen((one, arc)), 16)


class TestSeparationSet:
    def test_drifting_window_separates_from_third_odd_time(self):
        # oracle: with the window at [-4-m, 4-m], the free weight is
        #   sum_{i < -4-m} 2^-|i| + sum_{i > 4-m} 2^-|i|
        # computed here by direct truncated summation
        U = Cylinder(-4, tuple([0] * 9))
        delta = Fraction(1, 2)
        expected = []
        for n in range(1, 65):
            e = prefix_compose(ex36(), n).exponent
            lo, hi = -4 - e, 4 - e
            free = sum(
                Fraction(1, 1 << abs(i))
                for i in range(-90, 91)
                if not (lo <= i <= hi)
            )
            if free > delta:
                expected.append(n)
        assert expected == [2 * m - 1 for m in range(3, 33)]
        ss = separation_set(ex36(), U, delta, 64)
        assert ss.members == tuple(expected)
        assert all(n % 2 == 1 for n in ss.members)

    def test_delta_above_space_diameter_empty(self):
        ss = separation_set(CONST_SIGMA, Cylinder(0, (0,)), Fraction(3), 32)
        assert ss.members == ()

    def test_identity_system_with_wide_open(self):
        U = Cylinder(0, (0,))
        ss = separation_set(CONST_ID, U, Fraction(1, 2), 16)
        assert ss.members == tuple(range(1, 17))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_antitone_in_delta(self, num, den):
        delta_small = Fraction(min(num, den), max(num, den) + 1)
        delta_big = delta_small + Fraction(1, 3)
        U = Cylinder(-2, tuple([0] * 5))
        big = separation_set(ex36(), U, delta_small, 48)
        small = separation_set(ex36(), U, delta_big, 48)
        assert set(small.members) <= set(big.members)

    def test_rotation_invariance_on_circle(self):
        spec = NdsSpec(CircleSpace(), (), FamilyTerm("rot", 1).at_ordinal(1))
        U = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        below = separation_set(spec, U, Fraction(1, 8), 16)
        above = separation_set(spec, U, Fraction(1, 3), 16)
        assert below.members == tuple(range(1, 17))  # diameter 1/4 > 1/8
        assert above.members == ()


class TestClassifyFrequency:
    def test_eventual_gap_two(self):
        hs = hitting_set(ex36(), Cylinder(0, (0,)), Cylinder(0, (1,)), 200)
        fe = classify_frequency(hs, derive_laws(ex36(), 512))
        assert fe.eventual_max_gap == 2
        assert fe.structural is None or fe.structural == "excluded-residue"

    def test_sparse_support_structural(self):
        spec = NdsSpec(CircleSpace(), (
            Rule(PowerPattern(3, 0), FamilyTerm("rot", 1)),
            Rule(PowerPattern(3, 1), FamilyTerm("rot", -1)),
        ))
        U = Arc(AffineAngle(Fraction(0)), Fraction(1, 8))
        V = Arc(AffineAngle(Fraction(1, 2)), Fraction(1, 8))
        hs = hitting_set(spec, U, V, 200)
        fe = classify_frequency(hs, derive_laws(spec, 256))
        assert fe.structural == "sparse-support"

    def test_full_set_statistics(self):
        hs = hitting_set(CONST_SIGMA, Cylinder(0, (0,)), Cylinder(0, (0,)), 50)
        fe = classify_frequency(hs, None)
        assert fe.max_gap == 1
        assert fe.tail_start == 1
        assert fe.longest_run == 50
        assert not fe.censored_final_gap

    def test_max_gap_boundary_convention(self):
        hs = hitting_set(ex35(), FiniteSet(frozenset({1})), FiniteSet(frozenset({2})), 100)
        fe = classify_frequency(hs, None)
        members = [0] + list(hs.members) + [101]
        assert fe.max_gap == max(b - a for a, b in zip(members, members[1:]))
        assert fe.censored_final_gap  # silence from 2 to the horizon

    def test_finite_support_structural(self):
        hs = hitting_set(ex35(), FiniteSet(frozenset({1})), FiniteSet(frozenset({2})), 100)
        fe = classify_frequency(hs, derive_laws(ex35(), 100))
        assert fe.structural == "finite-support"


def frequency_reference(members, H):
    """(max_gap, eventual_max_gap, longest_run, tail_start) walking the
    sorted members one by one, under the {0, H+1} boundary convention."""
    extended = [0] + members + [H + 1]
    max_gap = max(b - a for a, b in zip(extended, extended[1:]))
    late = [(a, b) for a, b in zip(members, members[1:]) if a >= (H + 1) // 2]
    eventual = max((b - a for a, b in late), default=0)
    longest = run = 0
    for k, n in enumerate(members):
        run = run + 1 if k and members[k - 1] == n - 1 else 1
        longest = max(longest, run)
    tail_start = None
    if members and members[-1] == H:
        tail_start = H
        while tail_start - 1 in members:
            tail_start -= 1
    return max_gap, eventual, longest, tail_start


@st.composite
def member_sets(draw):
    H = draw(st.integers(1, 80))
    every = set(range(1, H + 1))
    members = draw(st.one_of(
        st.just(set()),
        st.just(every),
        st.sets(st.integers(1, H)).map(lambda holes: every - holes),  # cofinite
        st.integers(1, H).map(lambda n: {n}),
        st.sets(st.integers(1, H)),
    ))
    return sorted(members), H


class TestFrequencyFromMask:
    @given(member_sets())
    @settings(max_examples=400, deadline=None)
    def test_mask_statistics_match_the_member_walk(self, case):
        members, H = case
        mask = sum(1 << n for n in members)
        assert ht._frequency(mask, H) == frequency_reference(members, H)

    def test_horizon_one(self):
        assert ht._frequency(0, 1) == (2, 0, 0, None)
        assert ht._frequency(0b10, 1) == (1, 0, 1, 1)


class TestProductStructuralMiss:
    def test_parity_coverage(self):
        g = NdsSpec(SHIFT, (
            Rule(ArithProgPattern(2, 2), FamilyTerm("shift", 1)),
            Rule(ArithProgPattern(3, 2), FamilyTerm("shift", -1)),
        ))
        prod = ProductSpec((ex36(), g))
        U = ProductOpen((Cylinder(0, (0,)), Cylinder(0, (0,))))
        V = ProductOpen((Cylinder(0, (1,)), Cylinder(0, (1,))))
        assert hitting_set(prod, U, V, 128).members == ()
        claim = product_structural_miss(prod, derive_laws(prod, 256), U, V)
        assert claim is not None and "mod 2" in claim

    def test_no_claim_when_factors_meet(self):
        g = NdsSpec(SHIFT, (
            Rule(ArithProgPattern(2, 2), FamilyTerm("shift", 1)),
            Rule(ArithProgPattern(3, 2), FamilyTerm("shift", -1)),
        ))
        prod = ProductSpec((ex36(), g))
        U = ProductOpen((Cylinder(0, (0,)), Cylinder(0, (0,))))
        claim = product_structural_miss(prod, derive_laws(prod, 256), U, U)
        assert claim is None
