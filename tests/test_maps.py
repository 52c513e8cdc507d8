"""Map sequences, exact composition, derived systems, and validated laws.

The independent oracle throughout is the step fold: composing the step maps
one at a time (or applying them one at a time to points) instead of using
the closed-form window compositions.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ndslab import checkers as ck
from ndslab import maps as maps_mod
from ndslab.maps import (
    ArithProgPattern,
    ElsePattern,
    EqualsPattern,
    FamilyTerm,
    FiniteFnTerm,
    IDENTITY,
    IterateSpec,
    NdsSpec,
    OverlappingRules,
    PowerPattern,
    ProductMap,
    ProductSpec,
    RotPowMap,
    RotPowTerm,
    Rule,
    ShiftPowMap,
    ShiftPowTerm,
    TableMap,
    TailSpec,
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
    def test_equal_specs_share_one_cumulative_entry(self):
        def build():
            return NdsSpec(SHIFT, (
                Rule(ArithProgPattern(1, 3), ShiftPowTerm(2)),
                Rule(ArithProgPattern(2, 3), FamilyTerm("shift", -1)),
            ), name="hash-share")

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != NdsSpec(SHIFT, a.rules, name="hash-other")
        prefix_compose(a, 40)
        prefix_compose(b, 60)
        keys = [k for k in maps_mod._CUM._exponents if k == a]
        assert len(keys) == 1
        # b's call grew a's 41 entries, at least doubling them: to index max(60, 2 * 41)
        assert len(maps_mod._CUM._exponents[b]) == 83


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
            assert prefix_compose(spec, 2 * t) == ShiftPowMap(0)

    def test_odd_prefixes_grow(self):
        spec = ex36()
        for m in (1, 2, 7, 30):
            assert prefix_compose(spec, 2 * m - 1) == ShiftPowMap(m)

    def test_matches_step_fold_oracle(self):
        for spec in (ex31(), ex36(), ex38(), ex35(), CONST_SIGMA, TailSpec(ex31(), 2)):
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
            it = IterateSpec(spec, k)
            for n in range(1, 40):
                assert prefix_compose(it, n) == prefix_compose(spec, k * n)

    def test_tail_window(self):
        spec = ex31()
        tail = TailSpec(spec, 2)
        for n in range(1, 60):
            assert prefix_compose(tail, n) == window_compose(spec, 2, n)

    def test_product_componentwise(self):
        prod = ProductSpec((ex36(), CONST_SIGMA))
        m = prefix_compose(prod, 5)
        assert m.parts == (prefix_compose(ex36(), 5), prefix_compose(CONST_SIGMA, 5))


class TestImagePreimage:
    def test_identity_image(self):
        c = Cylinder(0, (1, 0))
        assert image(ShiftPowMap(0), c) == c

    def test_shift_image_checked_on_points(self):
        c = Cylinder(0, (1,))
        img = image(ShiftPowMap(1), c)
        assert img == Cylinder(-1, (1,))
        # oracle: apply the shift to sample points and test membership
        for fill in (0, 1):
            x = BiWord.from_window(0, (1,), fill)
            y = apply(ShiftPowMap(1), x)
            assert contains(SHIFT, img, y)

    def test_finite_image_and_empty_preimage(self):
        cyc = term_to_normal(FiniteSpace(3), FiniteFnTerm((2, 3, 1)))
        assert image(cyc, FiniteSet(frozenset({1}))) == FiniteSet(frozenset({2}))
        const = term_to_normal(FiniteSpace(2), FiniteFnTerm((1, 1)))
        assert preimage(const, FiniteSet(frozenset({2}))) is None

    @pytest.mark.parametrize("m", [
        ShiftPowMap(1), RotPowMap(1), TableMap((2, 1)), ProductMap((ShiftPowMap(1), RotPowMap(1))),
    ], ids=repr)
    def test_preimage_checks_its_input_as_image_does(self, m):
        opens = [Cylinder(0, (1,)), Arc(AffineAngle(Fraction(0)), Fraction(1, 8)),
                 FiniteSet(frozenset({1})), ProductOpen((Cylinder(0, (1,)), Cylinder(0, (0,))))]
        for A in opens:
            try:
                image(m, A)
            except SpaceMismatch:
                with pytest.raises(SpaceMismatch):
                    preimage(m, A)
            else:
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
        m = ShiftPowMap(e)
        assert intersects(SHIFT, image(m, a), image(m, b)) == intersects(SHIFT, a, b)

    @given(st.integers(-4, 4), st.integers(-3, 3),
           st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple))
    @settings(max_examples=100, deadline=None)
    def test_preimage_inverts_image(self, e, s, w):
        a = Cylinder(s, w)
        m = ShiftPowMap(e)
        assert preimage(m, image(m, a)) == a

    @given(st.lists(st.integers(1, 4), min_size=4, max_size=4).map(tuple),
           st.sets(st.integers(1, 4), min_size=1).map(frozenset))
    @settings(max_examples=100, deadline=None)
    def test_noninvertible_preimage_contains_source(self, table, ids):
        m = term_to_normal(FiniteSpace(4), FiniteFnTerm(table))
        a = FiniteSet(ids)
        back = preimage(m, image(m, a))
        assert back is not None and a.ids <= back.ids


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
        assert law.zero_on_multiples(2)
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
        assert law.zero_on_multiples(2)

    def test_constant_sequence_law(self):
        law = derive_exponent_law(CONST_SIGMA, 512)
        for n in (1, 2, 100):
            assert law.value(n) == n

    def test_tail_law(self):
        law = derive_exponent_law(TailSpec(ex31(), 2), 1024)
        for k in range(1, 200):
            assert law.value(2 * k) == k
            assert law.value(2 * k - 1) == 0

    def test_no_law_for_unsupported_shape(self):
        spec = NdsSpec(SHIFT, (
            Rule(EqualsPattern(1), ShiftPowTerm(5)),
            Rule(EqualsPattern(4), ShiftPowTerm(-3)),
        ))
        assert derive_exponent_law(spec, 100) is None

    def test_validation_is_hard_error(self):
        # same-sign families telescope nothing; the candidate generator must
        # refuse them rather than emit an invalid law
        spec = NdsSpec(SHIFT, (
            Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
            Rule(ArithProgPattern(2, 2), FamilyTerm("shift", 1)),
        ))
        assert derive_exponent_law(spec, 64) is None


def law_table(law, n: int) -> TableMap:
    """T(n) read off every point's orbit under the table law."""
    def at(i):
        lead, loop = law.orbit(i)
        return lead[n - 1] if n <= len(lead) else loop[(n - len(lead) - 1) % len(loop)]

    return TableMap(tuple(at(i) for i in range(1, len(law.step.table) + 1)))


def table_fold(spec, upto: int) -> list:
    """[T(1), .., T(upto)], composing one step at a time."""
    acc, tables = identity_map(spec.space), []
    for n in range(1, upto + 1):
        acc = compose(step_normal(spec, n), acc)
        tables.append(acc)
    return tables


@st.composite
def settled_finite_systems(draw):
    """Random finite(1..6) systems that settle on one table: equals rules
    over a constant default, or a single else rule, and tails of these."""
    size = draw(st.integers(1, 6))
    tables = st.one_of(
        st.permutations(range(1, size + 1)), st.lists(st.integers(1, size), min_size=size, max_size=size),
    ).map(lambda t: FiniteFnTerm(tuple(t)))
    if draw(st.integers(0, 4)) == 0:
        spec = NdsSpec(FiniteSpace(size), (Rule(ElsePattern(), draw(tables)),), draw(tables))
    else:
        values = draw(st.sets(st.integers(1, 12), max_size=4))
        spec = NdsSpec(FiniteSpace(size), tuple(Rule(EqualsPattern(v), draw(tables)) for v in sorted(values)),
                       draw(tables))
    return TailSpec(spec, draw(st.integers(2, 6))) if draw(st.booleans()) else spec


def brute_period(tables: list, x: int, top: int):
    """The least k <= top with T(n)(x) = x at every multiple n of k in
    `tables`, which must reach past top * (top + 1); None when there is none."""
    return next((k for k in range(1, top + 1)
                 if all(t.table[x - 1] == x for t in tables[k - 1 :: k])), None)


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
        tail = TailSpec(ex35(), 2)
        law = derive_table_law(tail)
        for n, table in enumerate(table_fold(tail, 31), 1):
            assert law_table(law, n) == table

    def test_family_rules_have_no_table_law(self):
        assert derive_table_law(ex36()) is None

    @given(settled_finite_systems(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_orbits_match_the_fold(self, spec, data):
        law = derive_table_law(spec)
        assert law is not None
        P, cycle = len(law.lead), law.cycle
        top = P + cycle + 1
        tables = table_fold(spec, max(P + 2 * cycle + 8, top * (top + 1)))
        for n in range(1, P + 2 * cycle + 9):
            assert law_table(law, n) == tables[n - 1]
        # the first repeat at or past r0 is T(P + 1 + cycle) = T(P + 1)
        assert law.entry == tables[P] == tables[P + cycle]
        r0 = law.stabilized_from
        assert r0 <= P + 1 and len(set(tables[r0 - 1 : P + cycle])) == P + cycle - r0 + 1
        points = range(1, spec.space.point_count + 1)
        ids = data.draw(st.sets(st.sampled_from(points), min_size=1))
        assert law.reach(ids) == {t.table[i - 1] for t in tables[:top] for i in ids}
        for x in points:
            assert ck._finite_period(law, x) == brute_period(tables, x, top)

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
        monkeypatch.undo()
        assert len(calls) <= 41
        assert (law.cycle, len(law.lead)) == (27720, 0)
        assert law_table(law, 27721) == law.entry == TableMap(tuple(table))

    def test_lead_walk_bound_is_checked_before_walking(self, monkeypatch):
        # the steps settle at index 20001: past the bound there is no law
        spec = NdsSpec(FiniteSpace(2), (Rule(EqualsPattern(20_000), SWAP),), IDENTITY)
        monkeypatch.setattr(maps_mod, "step_normal", lambda *args: pytest.fail("the lead was walked"))
        assert derive_table_law(spec) is None


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
        spec = NdsSpec(space, (Rule(ElsePattern(), draw(terms)),), draw(terms))
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
    return TailSpec(spec, draw(st.integers(2, 6))) if draw(st.booleans()) else spec


def progression_period(spec) -> int:
    return lcm(*(r.pattern.step for r in spec.rules if isinstance(r.pattern, ArithProgPattern)))


class TestWhereTheStepsSettle:
    @given(rule_systems())
    @settings(max_examples=300, deadline=None)
    def test_every_step_from_r0_is_g(self, spec):
        settled = eventual_step(spec)
        if settled is not None:
            r0, g = settled
            period = progression_period(spec.base if isinstance(spec, TailSpec) else spec)
            for n in range(r0, r0 + 2 * period + 9):
                assert step_normal(spec, n) == g

    @given(rule_systems())
    @settings(max_examples=300, deadline=None)
    def test_cover_index_matches_a_scan(self, spec):
        spec = spec.base if isinstance(spec, TailSpec) else spec

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
        assert eventual_step(spec) == (1, TableMap(CYCLE3.table))
        assert derive_table_law(spec).stabilized_from == 1
        verdict = convergence.check_uniform_convergence(spec, CYCLE3, 64)
        assert verdict.witnessed and verdict.stabilization_index == 1

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
        assert covered_from(spec) == 1 and eventual_step(spec) == (1, TableMap((2, 1)))
        law = derive_table_law(spec)
        for n, table in enumerate(table_fold(spec, 39), 1):
            assert law_table(law, n) == table
        assert convergence.check_uniform_convergence(spec, SWAP, 64).witnessed
        assert convergence.check_collective_convergence(spec, SWAP, 64, 4).witnessed

    def test_tail_law_walks_only_the_tail(self, monkeypatch):
        base = NdsSpec(FiniteSpace(3), (), CYCLE3, name="C3")
        tail = TailSpec(base, 2)
        calls = {base: 0, tail: 0}
        real = maps_mod.step_normal

        def counting(spec, i):
            calls[spec] += 1
            return real(spec, i)

        monkeypatch.setattr(maps_mod, "step_normal", counting)
        law = derive_table_law(tail)
        monkeypatch.undo()
        # every base step read goes through a tail step: no base law is walked
        assert calls[base] == calls[tail]
        for n, table in enumerate(table_fold(tail, 19), 1):
            assert law_table(law, n) == table
