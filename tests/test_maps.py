"""Map sequences, exact composition, derived systems, and validated laws.

The independent oracle throughout is the step fold: composing the step maps
one at a time (or applying them one at a time to points) instead of using
the closed-form window compositions.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ndslab import checkers as ck
from ndslab import maps as maps_mod
from ndslab.maps import (
    ArithProgPattern,
    EqualsPattern,
    FamilyTerm,
    FiniteFnTerm,
    IDENTITY,
    NdsSpec,
    OverlappingRules,
    PowerPattern,
    ProductMap,
    ProductSpec,
    RotPowTerm,
    Rule,
    ShiftPowTerm,
    apply,
    compose,
    covered_from,
    derive_exponent_law,
    derive_laws,
    derive_table_law,
    eval_term,
    eventual_step,
    identity_map,
    image,
    preimage,
    prefix_compose,
    step_normal,
    term_to_normal,
    window_compose,
)
from ndslab import convergence
from ndslab.spaces import (
    AffineAngle,
    Arc,
    BiWord,
    CircleSpace,
    Cylinder,
    FiniteId,
    FiniteSet,
    FiniteSpace,
    ProductOpen,
    ShiftSpace,
    SpaceMismatch,
    contains,
    intersects,
)

SHIFT = ShiftSpace()


def ex31():
    return NdsSpec(SHIFT, (
        Rule(ArithProgPattern(3, 2), FamilyTerm("shift", 1)),
        Rule(ArithProgPattern(4, 2), FamilyTerm("shift", -1)),
    ), name="example-3.1")


def ex36():
    return NdsSpec(SHIFT, (
        Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
        Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1)),
    ), name="example-3.6")


def ex38():
    return NdsSpec(CircleSpace(), (
        Rule(PowerPattern(3, 0), FamilyTerm("rot", 1)),
        Rule(PowerPattern(3, 1), FamilyTerm("rot", -1)),
    ), name="example-3.8")


def ex35():
    cyc = FiniteFnTerm((2, 3, 1))
    return NdsSpec(FiniteSpace(3), tuple(Rule(EqualsPattern(i), cyc) for i in (1, 2, 3)),
                   name="example-3.5")


CONST_SIGMA = NdsSpec(SHIFT, (), ShiftPowTerm(1), name="constant-shift")


class TestSpecHash:
    def test_equal_specs_share_one_mask_cache_entry(self):
        def build():
            return NdsSpec(SHIFT, (
                Rule(ArithProgPattern(1, 3), ShiftPowTerm(2)),
                Rule(ArithProgPattern(2, 3), FamilyTerm("shift", -1)),
            ), name="hash-share")

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != NdsSpec(SHIFT, a.rules, name="hash-other")
        with ck.scoped_caches():
            _, _, codes = ck._pair_masks(a, 1, 40)
            # b's call finds a's entry: one key, the same codes
            assert ck._pair_masks(b, 1, 40)[2] is codes
            assert sum(key == (a, 1, 40) for key in ck._MASK_CACHE) == 1


class TestEvalTerm:
    def test_power_index_hits_family(self):
        assert eval_term(ex38(), 3) == RotPowTerm(1)
        assert eval_term(ex38(), 9) == RotPowTerm(2)
        assert eval_term(ex38(), 10) == RotPowTerm(-2)

    def test_else_branch(self):
        assert eval_term(ex38(), 5) == IDENTITY

    def test_leading_identities(self):
        assert eval_term(ex31(), 1) == IDENTITY
        assert eval_term(ex31(), 2) == IDENTITY
        assert eval_term(ex31(), 3) == ShiftPowTerm(1)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingRules):
            NdsSpec(SHIFT, (
                Rule(ArithProgPattern(1, 2), ShiftPowTerm(1)),
                Rule(EqualsPattern(5), ShiftPowTerm(2)),
            ))


def first_common_power(q, p, powers):
    """The first base^k + offset, k <= powers, that the progression matches."""
    return next((n for n in (q.base**k + q.offset for k in range(1, powers + 1)) if p.matches(n)), None)


class TestPowerAgainstProgression:
    @given(st.integers(2, 12), st.integers(0, 40), st.integers(1, 10**5), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_first_common_index_matches_the_power_walk(self, base, offset, first, step):
        q, p = PowerPattern(base, offset), ArithProgPattern(first, step)
        # the powers up to the first term (at most 17), the step's bit length
        # and one period of the residues mod step (at most step) all fit in
        # 3 * step + 64
        expected = first_common_power(q, p, 3 * step + 64)
        assert maps_mod._patterns_overlap(q, p) == maps_mod._patterns_overlap(p, q) == expected

    def test_an_index_too_long_to_print_is_named_by_its_bits(self):
        # 3^k = 1 (mod 10007) first at k = 5003: an index of 7930 bits
        with pytest.raises(OverlappingRules, match="index of 7930 bits matches both"):
            NdsSpec(SHIFT, (
                Rule(PowerPattern(3, 0), ShiftPowTerm(1)),
                Rule(ArithProgPattern(1, 10007), ShiftPowTerm(2)),
            ))

    def test_a_residue_cycle_longer_than_the_budget_is_undecided(self):
        # 3 is a primitive root of the prime 65537: its powers run through
        # 65536 residues, none of them 0, before they repeat
        budget = maps_mod.OVERLAP_WALK_BUDGET
        assert budget < 65536
        with pytest.raises(OverlappingRules, match=f"budget of {budget} powers"):
            NdsSpec(SHIFT, (
                Rule(PowerPattern(3, 0), ShiftPowTerm(1)),
                Rule(ArithProgPattern(65537, 65537), ShiftPowTerm(2)),
            ))


class TestPowerAgainstPower:
    @given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_equal_offsets_match_the_power_walk(self, a, b, offset):
        p, q = PowerPattern(a, offset), PowerPattern(b, offset)
        # bases up to 40 are powers of their root with exponents up to 5, so a
        # first common power is at most 5 powers of either base out
        expected = first_common_power(q, p, 64)
        assert maps_mod._patterns_overlap(p, q) == maps_mod._patterns_overlap(q, p) == expected

    def test_a_first_common_power_past_the_walk_bound_overlaps(self):
        # 8192 = 2^13 is past VALIDATION_HORIZON, and pow(8192,0) starts there
        with pytest.raises(OverlappingRules, match="index 8192 matches both"):
            NdsSpec(FiniteSpace(2), (
                Rule(PowerPattern(2, 0), SWAP), Rule(PowerPattern(8192, 0), IDENTITY),
            ))

    def test_bases_without_a_common_root_never_meet(self):
        assert maps_mod._patterns_overlap(PowerPattern(6, 1), PowerPattern(12, 1)) is None
        # 4^3 = 8^2: the first common power is 2^lcm(2, 3)
        assert maps_mod._patterns_overlap(PowerPattern(4, 3), PowerPattern(8, 3)) == 2**6 + 3


def scanned_progression_overlap(p, q):
    """The first index both progressions match, scanning p's terms from the
    larger first term over one joint period, the lcm of the steps."""
    if (q.first - p.first) % gcd(p.step, q.step):
        return None
    start = p.first + -(-(max(p.first, q.first) - p.first) // p.step) * p.step
    joint = range(start, start + lcm(p.step, q.step) + 1, p.step)
    return next((n for n in joint if q.matches(n)), None)


class TestProgressionAgainstProgression:
    @given(st.integers(1, 200), st.integers(1, 60), st.integers(1, 200), st.integers(1, 60))
    @settings(max_examples=500, deadline=None)
    def test_the_crt_index_equals_the_scan(self, a, s, b, t):
        p, q = ArithProgPattern(a, s), ArithProgPattern(b, t)
        expected = scanned_progression_overlap(p, q)
        assert scanned_progression_overlap(q, p) == expected
        assert maps_mod._patterns_overlap(p, q) == maps_mod._patterns_overlap(q, p) == expected

    def test_coprime_steps_of_thirty_digits_clash_at_the_crt_index(self):
        a, b = 10**29 + 1, 10**29 + 7
        n = maps_mod._patterns_overlap(ArithProgPattern(1, a), ArithProgPattern(2, b))
        assert (n % a, n % b) == (1, 2) and n < a * b


def scanned_zero_on_class(piece, mod: int, residue: int) -> bool:
    """Whether a law piece is zero on n ≡ residue (mod mod), each pattern
    decided on its own: a literal by its residue, a progression by the
    gcd of the steps, a power by scanning base^k + offset over k up to
    4*mod + 8, past the transient and one period of base^k mod mod."""
    pat = piece.pattern
    if piece.is_zero():
        return True
    if isinstance(pat, EqualsPattern):
        return not (pat.value % mod == residue % mod and piece.value_at(pat.value) != 0)
    if isinstance(pat, ArithProgPattern):
        return (residue - pat.first) % gcd(pat.step, mod) != 0
    if isinstance(pat, PowerPattern):
        return all((pat.base**k + pat.offset - residue) % mod for k in range(1, 4 * mod + 9))
    return False


law_piece_patterns = st.one_of(
    st.builds(EqualsPattern, st.integers(1, 300)),
    st.builds(ArithProgPattern, st.integers(1, 200), st.integers(1, 60)),
    st.builds(PowerPattern, st.integers(2, 12), st.integers(0, 40)),
    st.just(ArithProgPattern(1, 1)),
)


class TestZeroOnResidue:
    @given(law_piece_patterns, st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 64),
           st.integers(-100, 100))
    @settings(max_examples=500, deadline=None)
    def test_the_overlap_kernel_equals_the_scan(self, pattern, per, constant, mod, residue):
        piece = maps_mod.LawPiece(pattern, per, constant)
        # the laws give a literal a constant value (per_ordinal 0)
        assume(not isinstance(pattern, EqualsPattern) or per == 0)
        law = maps_mod.ExponentLaw((piece, maps_mod.LawPiece(ArithProgPattern(1, 1), 0, 0)), 1)
        assert law.zero_on_residue(mod, residue) == scanned_zero_on_class(piece, mod, residue)

    def test_a_power_walk_past_the_budget_may_meet_the_class(self):
        # 3 is a primitive root of the prime 65537: no power is 0 mod 65537,
        # but the residues do not repeat within OVERLAP_WALK_BUDGET, so the
        # class counts as met, the conservative answer
        law = maps_mod.ExponentLaw((maps_mod.LawPiece(PowerPattern(3, 0), 1, 0),), 1)
        assert not law.zero_on_residue(65537, 0)
        assert law.zero_on_residue(3, 1) and not law.zero_on_residue(3, 0)


def pairwise_overlap_error(rules):
    """The disjointness check as one loop over every rule pair, the oracle
    for the literal grouping: the message of its first clash, or None."""
    for a in range(len(rules)):
        for b in range(a + 1, len(rules)):
            pa, pb = rules[a].pattern, rules[b].pattern
            n = maps_mod._patterns_overlap(pa, pb)
            if n is not None:
                at = n if n.bit_length() <= 4096 else f"of {n.bit_length()} bits"
                return f"index {at} matches both {pa} and {pb}"
    return None


# literals drawn twice as often as each other kind, from few values, so
# they repeat
clash_patterns = st.one_of(
    st.integers(1, 12).map(EqualsPattern),
    st.integers(1, 12).map(EqualsPattern),
    st.builds(ArithProgPattern, st.integers(1, 60), st.integers(5, 40)),
    st.builds(PowerPattern, st.integers(2, 4), st.integers(0, 40)),
)


class TestLiteralRules:
    @given(st.lists(clash_patterns, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_the_first_clash_equals_the_pairwise_loop(self, patterns):
        rules = tuple(Rule(p, ShiftPowTerm(1)) for p in patterns)
        expected = pairwise_overlap_error(rules)
        try:
            NdsSpec(SHIFT, rules)
        except OverlappingRules as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_the_adversary_check_is_linear_in_its_rules(self, monkeypatch):
        real, calls = maps_mod._patterns_overlap, []

        def counting(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(maps_mod, "_patterns_overlap", counting)
        adv, _ = ck.build_gap_adversary(list(range(4, 513, 4)), law_horizon=514)
        assert len(adv.rules) == 256 and len(calls) <= len(adv.rules)
        # one progression among the literals is checked against each of them once
        calls.clear()
        NdsSpec(SHIFT, adv.rules + (Rule(ArithProgPattern(1000, 2), ShiftPowTerm(1)),))
        assert len(calls) == len(adv.rules)


class TestWindowCompose:
    def test_zero_window_is_identity(self):
        for spec in (ex31(), ex38(), ex35()):
            assert window_compose(spec, 7, 0) == identity_map(spec.space)

    def test_even_prefixes_cancel(self):
        spec = ex31()
        for t in (1, 2, 5, 20):
            assert prefix_compose(spec, 2 * t) == ShiftPowTerm(0)

    def test_odd_prefixes_grow(self):
        spec = ex36()
        for m in (1, 2, 7, 30):
            assert prefix_compose(spec, 2 * m - 1) == ShiftPowTerm(m)

    def test_matches_step_fold_oracle(self):
        for spec in (ex31(), ex36(), ex38(), ex35(), CONST_SIGMA, maps_mod.tail(ex31(), 2)):
            acc = identity_map(spec.space)
            for n in range(1, 200):
                acc = compose(step_normal(spec, n), acc)
                assert prefix_compose(spec, n) == acc

    @given(st.integers(1, 40), st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_cocycle_law(self, i, k, j):
        for spec in (ex36(), ex35()):
            lhs = window_compose(spec, i, k + j)
            rhs = compose(window_compose(spec, i + k, j), window_compose(spec, i, k))
            assert lhs == rhs

    def test_iterate_consistency(self):
        spec = ex36()
        for k in (1, 2, 3):
            it = maps_mod.iterate(spec, k)
            for n in range(1, 40):
                assert prefix_compose(it, n) == prefix_compose(spec, k * n)

    def test_tail_window(self):
        spec = ex31()
        tail = maps_mod.tail(spec, 2)
        for n in range(1, 60):
            assert prefix_compose(tail, n) == window_compose(spec, 2, n)

    def test_product_componentwise(self):
        prod = ProductSpec((ex36(), CONST_SIGMA))
        m = prefix_compose(prod, 5)
        assert m.parts == (prefix_compose(ex36(), 5), prefix_compose(CONST_SIGMA, 5))


class TestImagePreimage:
    def test_identity_image(self):
        c = Cylinder(0, (1, 0))
        assert image(ShiftPowTerm(0), c) == c

    def test_shift_image_checked_on_points(self):
        c = Cylinder(0, (1,))
        img = image(ShiftPowTerm(1), c)
        assert img == Cylinder(-1, (1,))
        # oracle: apply the shift to sample points and test membership
        for fill in (0, 1):
            x = BiWord(0, (1,), (fill,), (fill,))
            y = apply(ShiftPowTerm(1), x)
            assert contains(SHIFT, img, y)

    def test_finite_image(self):
        cyc = term_to_normal(FiniteSpace(3), FiniteFnTerm((2, 3, 1)))
        assert image(cyc, FiniteSet(frozenset({1}))) == FiniteSet(frozenset({2}))

    @pytest.mark.parametrize("m", [
        ShiftPowTerm(1), RotPowTerm(1), FiniteFnTerm((2, 1)), ProductMap((ShiftPowTerm(1), RotPowTerm(1))),
    ], ids=repr)
    def test_preimage_pulls_only_cylinders_back_through_shift_powers(self, m):
        opens = [Cylinder(0, (1,)), Arc(AffineAngle(Fraction(0)), Fraction(1, 8)),
                 FiniteSet(frozenset({1})), ProductOpen((Cylinder(0, (1,)), Cylinder(0, (0,))))]
        for A in opens:
            if isinstance(m, ShiftPowTerm) and isinstance(A, Cylinder):
                assert preimage(m, A) == Cylinder(1, (1,))
            else:
                with pytest.raises(SpaceMismatch):
                    preimage(m, A)

    @given(
        st.integers(-3, 3),
        st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
        st.integers(-3, 3),
        st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
        st.integers(-4, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_image_respects_intersection(self, s1, w1, s2, w2, e):
        a, b = Cylinder(s1, w1), Cylinder(s2, w2)
        m = ShiftPowTerm(e)
        assert intersects(SHIFT, image(m, a), image(m, b)) == intersects(SHIFT, a, b)

    @given(st.integers(-4, 4), st.integers(-3, 3),
           st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple))
    @settings(max_examples=100, deadline=None)
    def test_preimage_inverts_image(self, e, s, w):
        a = Cylinder(s, w)
        m = ShiftPowTerm(e)
        assert preimage(m, image(m, a)) == a


class TestApply:
    def test_identity(self):
        p = BiWord(0, (1, 0), (0,), (1,))
        assert apply(identity_map(SHIFT), p) == p

    def test_three_cycle_closes(self):
        cyc = term_to_normal(FiniteSpace(3), FiniteFnTerm((2, 3, 1)))
        p = FiniteId(1)
        for _ in range(3):
            p = apply(cyc, p)
        assert p == FiniteId(1)

    def test_rotation_adds_coefficient(self):
        m = term_to_normal(CircleSpace(), RotPowTerm(2))
        assert apply(m, AffineAngle(Fraction(0), 0)) == AffineAngle(Fraction(0), 2)


class TestExponentLaws:
    def test_example_31_law(self):
        law = derive_exponent_law(ex31(), 2048)
        assert law is not None and law.validated_up_to == 2048
        for t in range(1, 500):
            assert law.value(2 * t) == 0
            if t >= 1:
                assert law.value(2 * t + 1) == t
        assert law.value(1) == 0
        assert law.zero_on_residue(2, 0)
        assert not law.sparse_support()

    def test_example_36_law(self):
        law = derive_exponent_law(ex36(), 1024)
        for m in range(1, 300):
            assert law.value(2 * m - 1) == m
            assert law.value(2 * m) == 0

    def test_example_38_law(self):
        law = derive_exponent_law(ex38(), 2200)
        # oracle cross-check against stepwise composition at the powers
        for k in range(1, 8):
            assert law.value(3**k) == k
        for n in (2, 50, 100, 2000):
            if all(n != 3**k for k in range(1, 8)):
                assert law.value(n) == 0
        assert law.sparse_support()
        assert law.zero_on_residue(2, 0)

    def test_constant_sequence_law(self):
        law = derive_exponent_law(CONST_SIGMA, 512)
        for n in (1, 2, 100):
            assert law.value(n) == n

    def test_tail_law(self):
        law = derive_exponent_law(maps_mod.tail(ex31(), 2), 1024)
        for k in range(1, 200):
            assert law.value(2 * k) == k
            assert law.value(2 * k - 1) == 0

    def test_no_law_for_unsupported_shape(self):
        # sigma^k at every index: E(n) = n(n+1)/2 grows quadratically
        spec = NdsSpec(SHIFT, (Rule(ArithProgPattern(1, 1), FamilyTerm("shift", 1)),))
        assert derive_exponent_law(spec, 100) is None

    def test_one_shots_that_do_not_cancel_get_a_law(self):
        spec = NdsSpec(SHIFT, (
            Rule(EqualsPattern(1), ShiftPowTerm(5)),
            Rule(EqualsPattern(4), ShiftPowTerm(-3)),
        ))
        law = derive_exponent_law(spec, 100)
        assert law.describe() == (
            "E(n=1)=5; E(n=2)=5; E(n=3)=5; E(n=4+1(k-1))=2; E(otherwise)=0 [validated to 100]"
        )

    def test_validation_is_hard_error(self):
        # same-sign families telescope nothing; the candidate generator must
        # refuse them rather than emit an invalid law
        spec = NdsSpec(SHIFT, (
            Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
            Rule(ArithProgPattern(2, 2), FamilyTerm("shift", 1)),
        ))
        assert derive_exponent_law(spec, 64) is None


def law_tables(law, ns) -> list:
    """[T(n) for n in ns] read off the law's visits: T(n)(i) is the one
    point that i visits at n."""
    points = range(1, len(law.block[0].table) + 1)
    visits = {(i, v): law.visits(i, {v}) for i in points for v in points}

    def visited(n, pre, start, loop, period):
        return n in pre if n <= start else (n - start) % period in loop

    def at(n, i):
        (v,) = [v for v in points if visited(n, *visits[i, v])]
        return v

    return [FiniteFnTerm(tuple(at(n, i) for i in points)) for n in ns]


def law_table(law, n: int) -> FiniteFnTerm:
    return law_tables(law, [n])[0]


def law_shape(law) -> tuple:
    """(P, cycle) as describe() states them: T(n + cycle) = T(n) past P."""
    P, cycle = re.search(r"(\d+) leading tables then a cycle of (\d+)", law.describe()).groups()
    return int(P), int(cycle)


def table_fold(spec, upto: int) -> list:
    """[T(1), .., T(upto)], composing one step at a time."""
    acc, tables = identity_map(spec.space), []
    for n in range(1, upto + 1):
        acc = compose(step_normal(spec, n), acc)
        tables.append(acc)
    return tables


def finite_tables(size: int):
    return st.one_of(
        st.permutations(range(1, size + 1)), st.lists(st.integers(1, size), min_size=size, max_size=size),
    ).map(lambda t: FiniteFnTerm(tuple(t)))


@st.composite
def settled_finite_systems(draw):
    """Random finite(1..6) systems that settle on one table: equals rules
    over a constant default, or a single else rule, and tails of these."""
    size = draw(st.integers(1, 6))
    tables = finite_tables(size)
    if draw(st.integers(0, 4)) == 0:
        spec = NdsSpec(FiniteSpace(size), (Rule(ArithProgPattern(1, 1), draw(tables)),), draw(tables))
    else:
        values = draw(st.sets(st.integers(1, 12), max_size=4))
        spec = NdsSpec(FiniteSpace(size), tuple(Rule(EqualsPattern(v), draw(tables)) for v in sorted(values)),
                       draw(tables))
    return maps_mod.tail(spec, draw(st.integers(2, 6))) if draw(st.booleans()) else spec


@st.composite
def periodic_finite_systems(draw):
    """Random finite(1..6) systems whose steps repeat a block: progressions
    of steps 2 and 3 emitting fixed tables, equals rules, power rules
    emitting the default's map, and tails of these (a rule that overlaps
    the ones kept is dropped)."""
    size = draw(st.integers(1, 6))
    tables = finite_tables(size)
    default = draw(tables)
    patterns = [ArithProgPattern(draw(st.integers(1, 6)), draw(st.integers(2, 3)))
                for _ in range(draw(st.integers(1, 3)))]
    patterns += [EqualsPattern(v) for v in draw(st.sets(st.integers(1, 12), max_size=3))]
    patterns += [PowerPattern(draw(st.integers(2, 3)), draw(st.integers(0, 3)))
                 for _ in range(draw(st.integers(0, 1)))]
    rules = []
    for pattern in draw(st.permutations(patterns)):
        rule = Rule(pattern, default if isinstance(pattern, PowerPattern) else draw(tables))
        try:
            NdsSpec(FiniteSpace(size), (*rules, rule), default)
        except OverlappingRules:
            continue
        rules.append(rule)
    spec = NdsSpec(FiniteSpace(size), tuple(rules), default)
    return maps_mod.tail(spec, draw(st.integers(2, 6))) if draw(st.booleans()) else spec


def brute_period(tables: list, x: int, top: int):
    """The least k <= top with T(n)(x) = x at every multiple n of k in
    `tables`, which must reach past top * (top + 1); None when there is none."""
    return next((k for k in range(1, top + 1)
                 if all(t.table[x - 1] == x for t in tables[k - 1 :: k])), None)


def assert_law_matches_the_fold(spec, data):
    law = derive_table_law(spec)
    assert law is not None
    P, cycle = law_shape(law)
    points = range(1, spec.space.point_count + 1)
    # every point's least period is at most the start and period of its visits
    top = max(start + period for _, start, _, period in (law.visits(x, set()) for x in points)) + 1
    tables = table_fold(spec, max(P + 2 * cycle + 8, top * (top + 1)))
    assert law_tables(law, range(1, P + 2 * cycle + 9)) == tables[: P + 2 * cycle + 8]
    # T(n + cycle) = T(n) past P, and at p = 1 T(P + 1 + cycle) is the first
    # repeat of a table at or past r0
    r0 = law.stabilized_from
    assert tables[P : P + cycle + 8] == tables[P + cycle : P + 2 * cycle + 8]
    assert r0 <= P + 1
    if len(law.block) == 1:
        assert len(set(tables[r0 - 1 : P + cycle])) == P + cycle - r0 + 1
    ids = data.draw(st.sets(st.sampled_from(points), min_size=1))
    assert law.reach(ids) == {t.table[i - 1] for t in tables[: P + cycle] for i in ids}
    for x in points:
        assert ck._finite_period(law, x) == brute_period(tables, x, top)


class TestTableLaw:
    def test_example_35_tables(self):
        law = derive_table_law(ex35())
        assert law is not None
        assert law_table(law, 1).table == (2, 3, 1)
        assert law_table(law, 2).table == (3, 1, 2)
        for n in range(3, 40):
            assert law_table(law, n).table == (1, 2, 3)

    def test_matches_fold_for_all_small_n(self):
        spec = ex35()
        law = derive_table_law(spec)
        for n, table in enumerate(table_fold(spec, 63), 1):
            assert law_table(law, n) == table

    def test_tail_table_law(self):
        tail = maps_mod.tail(ex35(), 2)
        law = derive_table_law(tail)
        for n, table in enumerate(table_fold(tail, 31), 1):
            assert law_table(law, n) == table

    def test_family_rules_have_no_table_law(self):
        assert derive_table_law(ex36()) is None

    @given(settled_finite_systems(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_orbits_match_the_fold(self, spec, data):
        assert_law_matches_the_fold(spec, data)

    @given(periodic_finite_systems(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_orbits_of_periodic_blocks_match_the_fold(self, spec, data):
        assert_law_matches_the_fold(spec, data)

    def test_a_period_need_not_be_a_multiple_of_the_loop(self):
        # every step swaps 1 and 2, and the fourth also sends 3 to 1: the
        # states of 1 loop over 4 steps while T(n)(1) repeats every 2
        A, B = FiniteFnTerm((2, 1, 3)), FiniteFnTerm((2, 1, 1))
        law = derive_table_law(NdsSpec(FiniteSpace(3), (Rule(ArithProgPattern(4, 4), B),), A))
        assert (law.stabilized_from, law.block) == (1, (A, A, A, B))
        assert law.visits(1, set())[3] == 4
        assert [ck._finite_period(law, x) for x in (1, 2, 3)] == [2, 2, None]

    def test_a_long_block_is_read_at_its_boundaries(self, monkeypatch):
        # a 60-cycle at every 999th index and the identity elsewhere: each
        # point's (point, phase) states loop over 60 * 999 steps, and the law
        # folds the block's tables once (p - 1 steps) and walks 60 block boundaries
        ring = FiniteFnTerm(tuple(k % 60 + 1 for k in range(1, 61)))
        spec = NdsSpec(FiniteSpace(60), (Rule(ArithProgPattern(1, 999), ring),), identity_map(FiniteSpace(60)))
        calls = []
        real = maps_mod.table_step
        monkeypatch.setattr(maps_mod, "table_step", lambda a, b: calls.append(1) or real(a, b))
        law = derive_table_law(spec)
        monkeypatch.undo()
        assert len(law.block) == 999 and len(calls) == 998
        assert law.describe() == "prefix tables stabilize at index 1; 0 leading tables then a cycle of 59940"
        # T(n) is the ring to the power of the number of m <= n with m = 1 mod 999
        assert law.visits(1, {2}) == ([], 0, set(range(1, 1000)), 59940)
        assert all(law.reach({x}) == set(range(1, 61)) for x in range(1, 61))
        assert [ck._finite_period(law, x) for x in range(1, 61)] == [59940] * 60

    def test_each_points_tail_is_walked_once_per_law(self, monkeypatch):
        # a path k -> min(k + 1, 12) at every 7th index and a 12-cycle
        # elsewhere; reach and recurrent asked once per pair, as a checker
        # asks for every unhit pair, walk each point's tail only once
        path = FiniteFnTerm(tuple(min(k + 1, 12) for k in range(1, 13)))
        ring = FiniteFnTerm(tuple(k % 12 + 1 for k in range(1, 13)))
        spec = NdsSpec(FiniteSpace(12), (Rule(ArithProgPattern(1, 7), path),), ring)
        walked = []
        real = maps_mod.TableLaw._orbit
        monkeypatch.setattr(maps_mod.TableLaw, "_orbit", lambda law, i: walked.append(i) or real(law, i))
        law = derive_table_law(spec)
        points = range(1, 13)
        sets = [(law.reach({x}), law.recurrent({x}), law.visits(x, {y})) for x in points for y in points]
        law.describe()
        assert sorted(walked) == list(points)
        monkeypatch.undo()
        fresh = derive_table_law(spec)
        assert sets == [(fresh.reach({x}), fresh.recurrent({x}), fresh.visits(x, {y})) for x in points for y in points]

    def test_reach_and_recurrent_build_no_phase_index(self, monkeypatch):
        # the {value: [phases]} index serves visits only: reach and
        # recurrent read one value set per point, however many tails share it
        path = FiniteFnTerm(tuple(min(k + 1, 12) for k in range(1, 13)))
        ring = FiniteFnTerm(tuple(k % 12 + 1 for k in range(1, 13)))
        spec = NdsSpec(FiniteSpace(12), (Rule(ArithProgPattern(1, 7), path),), ring)
        law = derive_table_law(spec)
        monkeypatch.setattr(maps_mod.TableLaw, "_phase", None)
        points = range(1, 13)
        reach = [law.reach({x}) for x in points]
        assert [law.recurrent({x}) for x in points] == [set(points)] * 12
        assert len(law._value_sets) == 12 and not law._phases
        tables = table_fold(spec, sum(law_shape(law)))
        assert reach == [{t.table[x - 1] for t in tables} for x in points]

    def test_long_permutation_composes_no_cycle(self, monkeypatch):
        # cycles 5, 7, 8, 9 and 11 on finite(40): order 27720
        table, first = [], 1
        for length in (5, 7, 8, 9, 11):
            table += [first + (k + 1) % length for k in range(length)]
            first += length
        spec = NdsSpec(FiniteSpace(40), (), FiniteFnTerm(tuple(table)))
        calls = []
        real = maps_mod.compose
        monkeypatch.setattr(maps_mod, "compose", lambda a, b: calls.append(1) or real(a, b))
        law = derive_table_law(spec)
        shape = law_shape(law)
        assert law_table(law, 27721) == FiniteFnTerm(tuple(table))
        monkeypatch.undo()
        assert len(calls) <= 41
        assert shape == (0, 27720)

    def test_lead_walk_bound_is_checked_before_walking(self, monkeypatch):
        # the steps settle at index 20001: past the bound there is no law
        spec = NdsSpec(FiniteSpace(2), (Rule(EqualsPattern(20_000), SWAP),), IDENTITY)
        monkeypatch.setattr(maps_mod, "step_normal", lambda *args: pytest.fail("the lead was walked"))
        assert derive_table_law(spec) is None

    def test_a_block_past_the_lead_walk_bound_is_not_built(self):
        # odd and even indices on 30-digit steps with gcd 2, so the two never
        # meet: L has 59 digits, so no block and no law
        spec = NdsSpec(FiniteSpace(2), (
            Rule(ArithProgPattern(1, 2 * 10**29 + 2), SWAP), Rule(ArithProgPattern(2, 2 * 10**29 + 14), SWAP),
        ), IDENTITY)
        assert eventual_step(spec) is None and derive_table_law(spec) is None


class TestDerivedLaws:
    def test_product_laws_split(self):
        laws = derive_laws(ProductSpec((ex36(), CONST_SIGMA)), 256)
        assert len(laws.components) == 2
        assert laws.components[0].exponent is not None

    def test_memoized_prefixes_match_fresh(self):
        spec = ex36()
        first = [prefix_compose(spec, n) for n in range(1, 128)]
        second = [prefix_compose(spec, n) for n in range(1, 128)]
        assert first == second


SWAP = FiniteFnTerm((2, 1))
CYCLE3 = FiniteFnTerm((2, 3, 1))
SWAP3 = FiniteFnTerm((2, 1, 3))


@st.composite
def rule_systems(draw):
    """Random rule systems on the shift, the circle and finite(2), with
    equals, ap, pow and else rules (a rule that overlaps the ones kept is
    dropped), and tails of them.  Progressions share one step most of the
    time, so they often cover every residue."""
    kind = draw(st.sampled_from(("shift", "circle", "finite")))
    if kind == "finite":
        space = FiniteSpace(2)
        terms = families = st.sampled_from([IDENTITY, SWAP, FiniteFnTerm((1, 2)), FiniteFnTerm((1, 1))])
    else:
        space, power = (SHIFT, ShiftPowTerm) if kind == "shift" else (CircleSpace(), RotPowTerm)
        terms = st.sampled_from([IDENTITY, power(0), power(1), power(-1)])
        families = st.builds(FamilyTerm, st.just("shift" if kind == "shift" else "rot"),
                             st.integers(-1, 1), st.integers(-1, 1))
    if draw(st.integers(0, 9)) == 0:
        spec = NdsSpec(space, (Rule(ArithProgPattern(1, 1), draw(terms)),), draw(terms))
    else:
        step = draw(st.integers(1, 4))
        patterns = [ArithProgPattern(r + step * draw(st.integers(0, 2)), step)
                    for r in range(1, step + 1) if draw(st.integers(0, 4))]
        patterns += [ArithProgPattern(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
                     for _ in range(draw(st.integers(0, 1)))]
        patterns += [EqualsPattern(v) for v in draw(st.lists(st.integers(1, 14), max_size=4))]
        patterns += [PowerPattern(draw(st.integers(2, 3)), draw(st.integers(0, 3)))
                     for _ in range(draw(st.integers(0, 2)))]
        rules, default = [], draw(terms)
        for pattern in draw(st.permutations(patterns)):
            term = draw(st.one_of(terms, families))
            try:
                NdsSpec(space, tuple(rules) + (Rule(pattern, term),), default)
            except OverlappingRules:
                continue
            rules.append(Rule(pattern, term))
        spec = NdsSpec(space, tuple(rules), default)
    return maps_mod.tail(spec, draw(st.integers(2, 6))) if draw(st.booleans()) else spec


def progression_period(spec) -> int:
    return lcm(*(r.pattern.step for r in spec.rules if isinstance(r.pattern, ArithProgPattern)))


class TestWhereTheStepsSettle:
    @given(rule_systems())
    @settings(max_examples=300, deadline=None)
    def test_every_step_from_r0_is_g(self, spec):
        settled = eventual_step(spec)
        if settled is not None:
            r0, block = settled
            base = spec.base if isinstance(spec, maps_mod.DerivedSpec) else spec
            period = progression_period(base)
            top = max([r.pattern.first_match() for r in base.rules], default=1) + 2 * period + 9
            for k in range(top):
                assert step_normal(spec, r0 + k) == block[k % len(block)]
            # the block is its least period: no shorter rotation repeats it
            assert all(block[d:] + block[:d] != block for d in range(1, len(block)))

    @given(rule_systems())
    @settings(max_examples=300, deadline=None)
    def test_cover_index_matches_a_scan(self, spec):
        spec = spec.base if isinstance(spec, maps_mod.DerivedSpec) else spec

        def matched(n):
            return any(r.pattern.matches(n) for r in spec.rules)

        period = progression_period(spec)
        top = max([r.pattern.first_match() for r in spec.rules], default=1) + 2 * period + 8
        cover = covered_from(spec)
        if cover is None:
            # an open residue class keeps an index no rule matches in every stretch
            assert not all(matched(n) for n in range(top, top + 64 * period))
        else:
            assert all(matched(n) for n in range(cover, top))
            assert cover == 1 or not matched(cover - 1)

    def test_equals_rule_emitting_g_does_not_delay_the_law(self):
        spec = NdsSpec(FiniteSpace(3), (Rule(EqualsPattern(5), CYCLE3),), CYCLE3)
        assert eventual_step(spec) == (1, (FiniteFnTerm(CYCLE3.table),))
        assert derive_table_law(spec).stabilized_from == 1
        verdict = convergence.check_uniform_convergence(spec, CYCLE3, 64)
        assert verdict.witnessed and verdict.stabilization_index == 1

    def test_equals_rule_emitting_its_class_map_does_not_delay_the_block(self):
        alternating = (Rule(ArithProgPattern(1, 2), CYCLE3),)
        ident = FiniteFnTerm((1, 2, 3))
        # index 4 is in the default's class: the identity there is no break
        for term, r0 in ((IDENTITY, 1), (CYCLE3, 5)):
            spec = NdsSpec(FiniteSpace(3), (*alternating, Rule(EqualsPattern(4), term)), IDENTITY)
            assert eventual_step(spec) == (r0, (CYCLE3, ident))
        # below ap(5,2)'s first term the default fires in its class, last at 3
        spec = NdsSpec(FiniteSpace(3), (Rule(ArithProgPattern(5, 2), CYCLE3),), IDENTITY)
        assert eventual_step(spec) == (4, (ident, CYCLE3))
        # a tail at 2 reads the block one phase on
        tail = maps_mod.tail(NdsSpec(FiniteSpace(3), alternating, IDENTITY), 2)
        assert eventual_step(tail) == (1, (ident, CYCLE3))
        assert not convergence.check_uniform_convergence(tail, CYCLE3, 64).witnessed

    def test_power_rule_meeting_a_progression_past_4096_overlaps(self):
        # pow(2,0) meets ap(5000,1) first at 8192, past VALIDATION_HORIZON
        with pytest.raises(OverlappingRules, match="index 8192 matches both"):
            NdsSpec(FiniteSpace(2), (
                Rule(PowerPattern(2, 0), SWAP), Rule(ArithProgPattern(5000, 1), IDENTITY),
            ))

    def test_covering_progressions_settle_without_the_default(self):
        spec = NdsSpec(FiniteSpace(2), (
            Rule(ArithProgPattern(1, 2), SWAP), Rule(ArithProgPattern(2, 2), SWAP),
        ), IDENTITY)
        assert covered_from(spec) == 1 and eventual_step(spec) == (1, (FiniteFnTerm((2, 1)),))
        law = derive_table_law(spec)
        for n, table in enumerate(table_fold(spec, 39), 1):
            assert law_table(law, n) == table
        assert convergence.check_uniform_convergence(spec, SWAP, 64).witnessed
        assert convergence.check_collective_convergence(spec, SWAP, 64, 4).witnessed

    def test_tail_law_walks_only_the_tail(self, monkeypatch):
        # the base settles at index 6; its tail at 2 fills only its own four
        # lead steps, base indices 2 .. 5 past its cut, off the base's rules
        base = NdsSpec(FiniteSpace(3), (Rule(EqualsPattern(5), SWAP3),), CYCLE3, name="C3")
        tail = maps_mod.tail(base, 2)
        filled = []
        real = maps_mod.step_tables

        def counting(spec, lo, hi):
            filled.extend((spec, i) for i in range(lo, hi + 1))
            return real(spec, lo, hi)

        monkeypatch.setattr(maps_mod, "step_tables", counting)
        law = derive_table_law(tail)
        monkeypatch.undo()
        assert law.stabilized_from == 5
        assert filled == [(base, i) for i in range(2, 6)]
        for n, table in enumerate(table_fold(tail, 19), 1):
            assert law_table(law, n) == table


class TestTermsAreNormalMaps:
    @given(st.one_of(
        st.integers(-10**6, 10**6).map(lambda e: (SHIFT, ShiftPowTerm(e))),
        st.integers(-10**6, 10**6).map(lambda c: (CircleSpace(), RotPowTerm(c))),
        st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n).map(
            lambda t: (FiniteSpace(len(t)), FiniteFnTerm(t)))),
    ))
    def test_a_fitting_term_is_its_own_normal_map(self, case):
        space, term = case
        assert term_to_normal(space, term) is term

    @pytest.mark.parametrize("space", [SHIFT, CircleSpace(), FiniteSpace(3),
                                       ProductSpec((CONST_SIGMA, ex35())).space], ids=repr)
    def test_the_identity_resolves_to_the_identity_map(self, space):
        assert term_to_normal(space, IDENTITY) == identity_map(space)

    def test_a_table_given_as_a_list_is_stored_as_a_tuple(self):
        assert FiniteFnTerm([2, 1]).table == (2, 1)
        assert FiniteFnTerm([2, 1]) == FiniteFnTerm((2, 1))

    @pytest.mark.parametrize("table", [(), (0, 1), (1, 3), (2, 2, 4)], ids=repr)
    def test_a_spec_refuses_a_table_not_total_on_its_ids(self, table):
        space = FiniteSpace(max(1, len(table)))
        with pytest.raises(ValueError, match=r"finite map table must be total on 1\.\.n"):
            NdsSpec(space, (), FiniteFnTerm(table))
        with pytest.raises(ValueError, match=r"finite map table must be total on 1\.\.n"):
            NdsSpec(space, (Rule(EqualsPattern(2), FiniteFnTerm(table)),))


class TestIterateLaws:
    @given(rule_systems(), rule_systems(), st.booleans(), st.integers(2, 4), st.integers(1, 128))
    @settings(max_examples=100, deadline=None)
    def test_shift_and_circle_iterates_get_a_law_finite_ones_none(self, a, b, product, k, horizon):
        base = ProductSpec((a, b)) if product else a
        iterate = maps_mod.iterate(base, k)
        laws = derive_laws(iterate, horizon)
        if product:  # the product of its parts' iterates, each with its own laws
            parts = (maps_mod.iterate(a, k), maps_mod.iterate(b, k))
            assert laws == maps_mod.SystemLaws(components=tuple(derive_laws(p, horizon) for p in parts))
            return
        if isinstance(base.space, FiniteSpace):
            assert laws == maps_mod.SystemLaws()
            return
        # a class of the iterate lies in one class of the base: a base law
        # read off its classes gives one, the telescoping pair none
        base_law = derive_exponent_law(base, horizon)
        if laws.exponent is None:
            assert base_law is None or any(isinstance(p.pattern, PowerPattern) for p in base_law.pieces)
        else:
            assert_law_matches_prefix_exponents(iterate, laws.exponent, 4 * horizon)


def built(tower):
    """The system a tower of tuples stands for: ("tail" | "iterate", inner,
    k) or ("product", inners, None) around rule systems, built through
    maps.tail, maps.iterate and ProductSpec."""
    if not isinstance(tower, tuple):
        return tower
    kind, inner, k = tower
    if kind == "product":
        return ProductSpec(tuple(map(built, inner)))
    return getattr(maps_mod, kind)(built(inner), k)


def unfolded_step(tower, i: int):
    """f_i of a tower, unfolding one tail or iterate at a time from the
    outside in: the walk maps.tail and maps.iterate replace."""
    if isinstance(tower, maps_mod.DerivedSpec):  # a drawn tail of a rule system
        assert tower.stride == 1
        return unfolded_step(tower.base, tower.offset + i)
    if not isinstance(tower, tuple):
        return term_to_normal(tower.space, eval_term(tower, i))
    kind, inner, k = tower
    if kind == "tail":
        return unfolded_step(inner, k + i - 1)
    if kind == "iterate":
        return unfolded_window(inner, k * (i - 1) + 1, k)
    return ProductMap(tuple(unfolded_step(p, i) for p in inner))


def unfolded_window(tower, i: int, k: int):
    """f_{i+k-1} o ... o f_i, folding unfolded_step one index at a time."""
    m = identity_map(built(tower).space)
    for j in range(i, i + k):
        m = compose(unfolded_step(tower, j), m)
    return m


@st.composite
def towers(draw, products: int = 2):
    """Up to three tails and iterates of orders 1 to 3 around a rule system
    on the shift, the circle or finite(2), or around a product of two such
    towers, which may hold a product themselves."""
    if products and draw(st.integers(0, 2)) == 0:
        tower = ("product", (draw(towers(products - 1)), draw(towers(products - 1))), None)
    else:
        tower = draw(rule_systems())
    for _ in range(draw(st.integers(0, 3))):
        tower = (draw(st.sampled_from(("tail", "iterate"))), tower, draw(st.integers(1, 3)))
    return tower


class TestReading:
    @given(towers(), st.integers(1, 10), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_steps_windows_and_exponents_match_the_unfolded_tower(self, tower, i, k):
        spec = built(tower)
        assert step_normal(spec, i) == unfolded_step(tower, i)
        assert window_compose(spec, i, k) == unfolded_window(tower, i, k)
        F = maps_mod.reading(spec)[0]
        if isinstance(F, NdsSpec) and not isinstance(F.space, FiniteSpace):
            expected = [maps_mod.term_exponent(unfolded_window(tower, 1, n)) for n in range(i + k + 1)]
            assert maps_mod.prefix_exponents(spec, i + k) == expected
        else:
            with pytest.raises(SpaceMismatch):
                maps_mod.prefix_exponents(spec, i + k)

    def test_the_constructors_compose_offsets_and_strides_from_the_inside_out(self):
        spec = maps_mod.tail(maps_mod.iterate(maps_mod.tail(maps_mod.iterate(ex36(), 2), 4), 3), 5)
        # iterate 2: (0, 2); tail 4: (6, 2); iterate 3: (6, 6); tail 5: (30, 6)
        assert maps_mod.reading(spec) == (ex36(), 30, 6)

    @given(rule_systems(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_tails_of_tails_add_and_iterates_of_iterates_multiply(self, spec, j, k):
        tail, iterate = maps_mod.tail, maps_mod.iterate
        assert tail(tail(spec, j), k) == tail(spec, j + k - 1)
        assert iterate(iterate(spec, j), k) == iterate(spec, j * k)
        assert tail(tail(ex36(), 2), 3) == tail(ex36(), 4)

    @given(towers(), st.sampled_from(("tail", "iterate")), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_a_derived_product_is_the_product_of_its_parts_derived(self, tower, kind, k):
        spec = built(tower)
        derived = getattr(maps_mod, kind)(spec, k)
        if isinstance(spec, ProductSpec):
            assert derived == ProductSpec(tuple(getattr(maps_mod, kind)(p, k) for p in spec.parts))
            laws = derive_laws(derived, 64)
            assert len(laws.components) == len(spec.parts) and laws.exponent is laws.table is None
        else:
            assert isinstance(derived, maps_mod.DerivedSpec)

    @given(rule_systems(), st.integers(1, 96))
    @settings(max_examples=100, deadline=None)
    def test_an_order_one_iterate_reads_as_its_base(self, spec, horizon):
        it = maps_mod.iterate(spec, 1)
        assert maps_mod.reading(it) == maps_mod.reading(spec)
        assert derive_laws(it, horizon) == derive_laws(spec, horizon)
        assert eventual_step(it) == eventual_step(spec)

    @pytest.mark.parametrize("prop, status", [
        (ck.PropertyKind("multi-transitive", order=2), ck.REFUTED),
        (ck.PropertyKind("mixing"), ck.REFUTED),
        (ck.PropertyKind("dense-periodic-points"), ck.WITNESSED),
    ])
    def test_an_order_one_iterate_gets_its_bases_verdict(self, prop, status):
        # without its base's law, iterate(F, 1) of example 3.6 stayed inconclusive on these
        base = ck.check_property(ex36(), prop, 1, 64)
        derived = ck.check_property(maps_mod.iterate(ex36(), 1), prop, 1, 64)
        assert base.status == derived.status == status
        assert derived == base


def assert_law_matches_prefix_exponents(spec, law, horizon: int):
    exponents = maps_mod.prefix_exponents(spec, horizon)
    assert [law.value(n) for n in range(1, horizon + 1)] == exponents[1:]


class TestLawRecogniserShapes:
    """Laws the reader gives for literal, progression and else shapes, and
    for tails of them: literal pieces for head values no class covers."""

    ADVERSARY = ck.build_gap_adversary([4, 8, 12])[0]

    def test_a_tail_cut_past_a_literal_pair_reindexes_the_literals(self):
        # offset 5 drops the pair at 4 and 5; the pairs at 8 and 12 move to 3 and 7
        tail = maps_mod.tail(self.ADVERSARY, 6)
        law = derive_exponent_law(tail, 64)
        assert law.describe() == "E(n=3)=8; E(n=7)=12; E(otherwise)=0 [validated to 64]"
        assert_law_matches_prefix_exponents(tail, law, 64)

    def test_a_tail_cut_inside_a_literal_pair_gets_a_law(self):
        # offset 4 keeps only the undoing half of the first pair, at index 1,
        # so E is -4 from there on, apart from the two pairs still ahead
        tail = maps_mod.tail(self.ADVERSARY, 5)
        law = derive_exponent_law(tail, 64)
        assert law.describe() == (
            "E(n=1)=-4; E(n=2)=-4; E(n=3)=-4; E(n=4)=4; E(n=5)=-4; E(n=6)=-4; E(n=7)=-4; "
            "E(n=8)=8; E(n=9+1(k-1))=-4; E(otherwise)=0 [validated to 64]"
        )
        assert_law_matches_prefix_exponents(tail, law, 64)

    def test_a_single_else_rule_is_a_constant_sequence(self):
        spec = NdsSpec(SHIFT, (Rule(ArithProgPattern(1, 1), ShiftPowTerm(2)),), ShiftPowTerm(5))
        law = derive_exponent_law(spec, 64)
        assert law.describe() == "E(otherwise)=2*k+0 [validated to 64]"
        assert_law_matches_prefix_exponents(spec, law, 64)

    def test_a_zero_literal_is_skipped_between_pairs(self):
        spec = NdsSpec(SHIFT, (
            Rule(EqualsPattern(3), ShiftPowTerm(0)),
            Rule(EqualsPattern(5), ShiftPowTerm(2)),
            Rule(EqualsPattern(6), ShiftPowTerm(-2)),
        ))
        law = derive_exponent_law(spec, 64)
        assert law.describe() == "E(n=5)=2; E(otherwise)=0 [validated to 64]"
        assert_law_matches_prefix_exponents(spec, law, 64)

    def test_a_constant_rule_on_a_progression_gets_a_law(self):
        # E falls by one every even index; the even class starts at 4, as
        # its value 0 at 2 ends the walk back
        spec = NdsSpec(SHIFT, (
            Rule(EqualsPattern(1), ShiftPowTerm(1)),
            Rule(ArithProgPattern(2, 2), ShiftPowTerm(-1)),
        ))
        law = derive_exponent_law(spec, 64)
        assert law.describe() == (
            "E(n=1+2(k-1))=-1*k+2; E(n=4+2(k-1))=-1*k+0; E(otherwise)=0 [validated to 64]"
        )
        assert_law_matches_prefix_exponents(spec, law, 64)

    @pytest.mark.parametrize("patterns", [
        (ArithProgPattern(1, 2), ArithProgPattern(2, 4)),  # unequal steps
        (PowerPattern(2, 0), PowerPattern(3, 0)),  # unequal bases
        (PowerPattern(3, 0), PowerPattern(2, 0)),
        (PowerPattern(2, 0), PowerPattern(2, 3)),  # offsets three apart
        (PowerPattern(2, 3), PowerPattern(2, 0)),
        (ArithProgPattern(1, 2), PowerPattern(2, 0)),  # a progression and powers
    ], ids=repr)
    @pytest.mark.parametrize("space", [SHIFT, CircleSpace()], ids=repr)
    def test_opposite_families_outside_the_telescoping_shapes_get_no_law(self, patterns, space):
        kind = "shift" if space == SHIFT else "rot"
        spec = NdsSpec(space, (
            Rule(patterns[0], FamilyTerm(kind, 1)), Rule(patterns[1], FamilyTerm(kind, -1)),
        ))
        assert derive_exponent_law(spec, 64) is None


@st.composite
def law_rule_sets(draw):
    """(reading, spec, a, s): a shift or circle rule system of ap (ap(1,1)
    among them) and literal rules with family and constant terms (each rule
    kept only when it shares no index with an earlier one), read through a tail at
    a + 1 from 1 to 8 and then an iterate of order s from 1 to 4."""
    space = draw(st.sampled_from([SHIFT, CircleSpace()]))
    kind, power = ("shift", ShiftPowTerm) if space == SHIFT else ("rot", RotPowTerm)
    amount = st.integers(-3, 3)
    term = st.one_of(st.builds(FamilyTerm, st.just(kind), amount, amount), amount.map(power))
    pattern = st.one_of(
        st.builds(ArithProgPattern, st.integers(1, 12), st.integers(1, 6)),
        st.integers(1, 30).map(EqualsPattern),
        st.just(ArithProgPattern(1, 1)),
    )
    rules = []
    for p, t in draw(st.lists(st.tuples(pattern, term), max_size=5)):
        if all(maps_mod._patterns_overlap(p, r.pattern) is None for r in rules):
            rules.append(Rule(p, t))
    spec = NdsSpec(space, tuple(rules), draw(amount.map(power)))
    a, s = draw(st.integers(0, 7)), draw(st.integers(1, 4))
    reading = maps_mod.tail(spec, a + 1)
    return (maps_mod.iterate(reading, s) if s > 1 else reading), spec, a, s


class TestLawReader:
    @given(law_rule_sets(), st.integers(1, 80))
    @settings(max_examples=300, deadline=None)
    def test_a_law_holds_past_its_horizon_and_is_missed_only_where_a_class_is_quadratic(
        self, systems, H
    ):
        reading, spec, a, s = systems
        exponents = maps_mod.prefix_exponents(reading, 4 * H)
        law = derive_exponent_law(reading, H)
        if law is not None:
            assert [law.value(n) for n in range(1, 4 * H + 1)] == exponents[1:]
            return
        # no law: M or L is past H, or some class mod L bends past M, in the
        # reading's own steps: a class mod L/gcd(L, s) from step ceil(M/s) on
        L = lcm(*(r.pattern.step for r in spec.rules if isinstance(r.pattern, ArithProgPattern)))
        M = 1 + max([0] + [r.pattern.first_match() - a for r in spec.rules])
        M, L = -(-M // s), L // gcd(L, s)
        if M <= H and L <= H:
            E = maps_mod.prefix_exponents(reading, M + 3 * L)
            assert any(E[n + 2 * L] - 2 * E[n + L] + E[n] for n in range(M, M + L))

    @given(law_rule_sets(), st.integers(1, 80))
    @settings(max_examples=200, deadline=None)
    def test_law_reach_is_every_entry_derive_laws_fills(self, systems, H):
        for spec in systems[:2]:
            filled, real = [], maps_mod._step_exponents

            def recorded(F, lo, hi):
                filled.append(hi - lo + 1)
                return real(F, lo, hi)

            with mock.patch.object(maps_mod, "_step_exponents", recorded):
                law = derive_laws(spec, H).exponent
            # the reader's read and, once it finds a law, the validation's
            reach = maps_mod.law_reach(spec, H)
            if law is not None:
                assert reach == max(filled)
            else:
                assert reach is None if not filled else reach >= max(filled)

    def test_an_iterate_past_the_law_horizon_is_validated_over_its_read(self):
        # H // s is 0 at order 3000; the reader reads M_s + 3L_s - 1 = 3 steps
        spec = NdsSpec(SHIFT, (Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
                               Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1))))
        iterate = maps_mod.iterate(spec, 3000)
        law = derive_exponent_law(iterate, 2048)
        assert law.validated_up_to == 3 == maps_mod.law_reach(iterate, 2048) // 3000
        assert law.describe() == "E(otherwise)=0 [validated to 3]"

    def test_the_telescoping_pair_is_read_off_its_rules(self):
        spec = NdsSpec(CircleSpace(), (Rule(PowerPattern(3, 0), FamilyTerm("rot", 1)),
                                       Rule(PowerPattern(3, 1), FamilyTerm("rot", -1))))
        with mock.patch.object(maps_mod, "_step_exponents", None):
            assert maps_mod.law_candidate(spec, 64) is not None
        assert maps_mod.law_reach(spec, 64) == 64  # the validation's fill alone
        assert maps_mod.law_reach(maps_mod.tail(spec, 2), 64) is None
        assert maps_mod.law_reach(maps_mod.iterate(spec, 2), 64) is None

    @pytest.mark.parametrize("last, pieces", [(4096, 4096), (4097, None)])
    def test_a_law_takes_at_most_max_law_pieces(self, last, pieces):
        # E is 1 on 1..last-1: one literal piece each, and the else piece
        spec = NdsSpec(SHIFT, (Rule(EqualsPattern(1), ShiftPowTerm(1)),
                               Rule(EqualsPattern(last), ShiftPowTerm(-1))))
        law = derive_exponent_law(spec, 5000)
        assert maps_mod.MAX_LAW_PIECES == 4096
        assert (None if law is None else len(law.pieces)) == pieces
