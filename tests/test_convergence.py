"""Sup-metric, convergence verdicts, and the equicontinuity modulus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndslab.convergence import (
    check_collective_convergence,
    check_uniform_convergence,
    equicontinuity_modulus,
    sup_distance,
)
from ndslab.maps import (
    ArithProgPattern,
    EqualsPattern,
    FamilyTerm,
    FiniteFnTerm,
    IdentityTerm,
    NdsSpec,
    PowerPattern,
    RotPowTerm,
    Rule,
    ShiftPowTerm,
    apply,
    iterate,
    step_normal,
)
from ndslab.spaces import (
    BiWord,
    CircleSpace,
    FiniteSpace,
    ShiftSpace,
    shift_distance,
    value_cmp,
)

SHIFT = ShiftSpace()


def alternating_word(m: int) -> BiWord:
    """x with x_i determined by the parity of floor(i/m): disagrees with its
    own m-shift at every coordinate."""
    block = tuple([0] * m + [1] * m)
    return BiWord(0, (), block, block)


class TestSupDistance:
    def test_equal_shift_powers(self):
        assert sup_distance(SHIFT, ShiftPowTerm(1), ShiftPowTerm(1)) == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_shift_gap_attained(self, m):
        # oracle: the alternating-block word realizes distance 3 to its shift
        x = alternating_word(m)
        y = apply(ShiftPowTerm(m), x)
        assert shift_distance(x, y) == 3
        assert sup_distance(SHIFT, ShiftPowTerm(m), ShiftPowTerm(0)) == 3

    def test_finite_tables(self):
        space = FiniteSpace(2)
        one = FiniteFnTerm((1, 1))
        two = FiniteFnTerm((2, 2))
        assert sup_distance(space, one, two) == 1
        assert sup_distance(space, one, one) == 0

    def test_circle_rotations(self):
        space = CircleSpace()
        assert sup_distance(space, RotPowTerm(2), RotPowTerm(2)) == 0
        d = sup_distance(space, RotPowTerm(1), RotPowTerm(0))
        assert value_cmp(d, Fraction(41, 100)) > 0

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms_on_shift_powers(self, a, b, c):
        A, B, C = ShiftPowTerm(a), ShiftPowTerm(b), ShiftPowTerm(c)
        dab = sup_distance(SHIFT, A, B)
        assert dab == sup_distance(SHIFT, B, A)
        assert (dab == 0) == (a == b)
        assert sup_distance(SHIFT, A, C) <= dab + sup_distance(SHIFT, B, C)


def ex33():
    t1, t2 = FiniteFnTerm((1, 1)), FiniteFnTerm((2, 2))
    return NdsSpec(FiniteSpace(2), (Rule(EqualsPattern(1), t1),), t2), t2


def ex35():
    cyc = FiniteFnTerm((2, 3, 1))
    return NdsSpec(FiniteSpace(3), tuple(Rule(EqualsPattern(i), cyc) for i in (1, 2, 3)))


def ex36():
    return NdsSpec(SHIFT, (
        Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
        Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1)),
    ))


CONST_SIGMA = NdsSpec(SHIFT, (), ShiftPowTerm(1))


class TestUniformConvergence:
    def test_example_33(self):
        spec, limit = ex33()
        v = check_uniform_convergence(spec, limit, 64)
        assert v.witnessed and v.stabilization_index == 2

    def test_example_35(self):
        v = check_uniform_convergence(ex35(), FiniteFnTerm((1, 2, 3)), 64)
        assert v.witnessed and v.stabilization_index == 4

    def test_constant_shift_refuted_at_three(self):
        v = check_uniform_convergence(CONST_SIGMA, IdentityTerm(), 64)
        assert v.status == "refuted"
        assert v.refuting_pair[2] == 3

    def test_growing_families_refuted(self):
        v = check_uniform_convergence(ex36(), IdentityTerm(), 64)
        assert v.status == "refuted"


class TestCollectiveConvergence:
    def test_example_33(self):
        spec, limit = ex33()
        v = check_collective_convergence(spec, limit, 64, 6)
        assert v.witnessed

    def test_example_35(self):
        v = check_collective_convergence(ex35(), FiniteFnTerm((1, 2, 3)), 64, 6)
        assert v.witnessed

    def test_example_36_refuted(self):
        v = check_collective_convergence(ex36(), IdentityTerm(), 64, 4)
        assert v.status == "refuted"
        r, k, d = v.refuting_pair
        assert d == 3

    def test_collective_implies_uniform(self):
        cases = [(*ex33(),), (ex35(), FiniteFnTerm((1, 2, 3)))]
        for spec, limit in cases:
            coll = check_collective_convergence(spec, limit, 64, 6)
            unif = check_uniform_convergence(spec, limit, 64)
            assert not coll.witnessed or unif.witnessed


class TestInconclusiveConvergence:
    """Neither a settled step nor a divergent window backs a verdict."""

    CHECKS = [
        lambda spec: check_uniform_convergence(spec, IdentityTerm(), 64),
        lambda spec: check_collective_convergence(spec, IdentityTerm(), 64, 8),
    ]

    @pytest.mark.parametrize("check", CHECKS, ids=["uniform", "collective"])
    def test_an_iterate_has_no_structural_reason(self, check):
        v = check(iterate(CONST_SIGMA, 2))
        assert (v.status, v.detail) == ("inconclusive", "no structural argument either way")

    @pytest.mark.parametrize("check", CHECKS, ids=["uniform", "collective"])
    def test_a_reason_without_a_divergent_window_in_the_horizon(self, check):
        # sigma^1 first fires at 2 + 100, past every window within the horizon
        late = NdsSpec(SHIFT, (Rule(PowerPattern(2, 100), ShiftPowTerm(1)),))
        v = check(late)
        assert (v.status, v.detail) == ("inconclusive", "no structural argument either way")

    def test_an_equals_rule_is_no_reason(self):
        spec = NdsSpec(SHIFT, (Rule(EqualsPattern(5), ShiftPowTerm(2)),), ShiftPowTerm(1))
        v = check_uniform_convergence(spec, IdentityTerm(), 64)
        assert v.status == "refuted" and v.detail == (
            "the default emits ShiftPowTerm(exponent=1) infinitely often; D(f_1, f) = 3"
        )


class TestEquicontinuityModulus:
    def test_constant_shift_modulus(self):
        xi, _ = equicontinuity_modulus(CONST_SIGMA, Fraction(1, 4), 3, 64)
        assert xi == Fraction(1, 64)

    def test_rotations_are_isometries(self):
        spec = NdsSpec(CircleSpace(), (), RotPowTerm(1))
        xi, _ = equicontinuity_modulus(spec, Fraction(1, 8), 5, 64)
        assert xi == Fraction(1, 16)

    def test_unbounded_growth_flagged(self):
        xi, note = equicontinuity_modulus(ex36(), Fraction(1, 4), 1, 64)
        assert xi is None and "growing" in note

    def test_modulus_too_large_for_an_integer_is_a_value_error(self):
        # the 40-digit window sits in the first half, so a modulus is due
        spec = NdsSpec(SHIFT, (Rule(EqualsPattern(5), ShiftPowTerm(10**40)),))
        with pytest.raises(ValueError, match="too many digits for an integer"):
            equicontinuity_modulus(spec, Fraction(1, 2), 2, 10)

    def test_modulus_bound_on_sampled_pairs(self):
        # spec invariant: pairs closer than xi stay within epsilon/2 along
        # every window of length <= k starting at n <= H
        epsilon = Fraction(1, 4)
        k, H = 3, 64
        xi, _ = equicontinuity_modulus(CONST_SIGMA, epsilon, k, H)
        rng = random.Random(99)
        for _ in range(1000):
            far = rng.randint(8, 14)  # flip one coordinate far out: d = 2^-far < xi
            side = rng.choice((-1, 1))
            base = tuple(rng.randint(0, 1) for _ in range(5))
            x = BiWord(-2, base, (0,), (0,))
            flipped = list(base)
            y_window = dict(enumerate(flipped, start=-2))
            x_full = x
            y_full = BiWord(-2, base, (0,), (0,))
            # realize the flip by widening the window
            lo = min(-2, side * far)
            hi = max(3, side * far + 1)
            cells_x, cells_y = [], []
            for i in range(lo, hi):
                v = x_full.coord(i)
                cells_x.append(v)
                cells_y.append(1 - v if i == side * far else v)
            x2 = BiWord(lo, tuple(cells_x), (0,), (0,))
            y2 = BiWord(lo, tuple(cells_y), (0,), (0,))
            assert shift_distance(x2, y2) < xi
            n = rng.randint(1, H)
            px, py = x2, y2
            for j in range(n, n + k):
                m = step_normal(CONST_SIGMA, j)
                px, py = apply(m, px), apply(m, py)
                assert shift_distance(px, py) < epsilon / 2
