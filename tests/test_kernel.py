"""The exponent-class mask kernel and the orbit questions read off the
prefix classes, against independent step-fold oracles.

The kernel decides each prefix class once; the oracles fold the step maps
one index at a time and test every time separately, so any class that is
keyed too coarsely (or any shortcut that is not exact) shows up as a mask
that differs from the fold."""

import ast
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import accumulate, product
from operator import and_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ndslab import chaos
from ndslab import checkers as ck
from ndslab import convergence as cv
from ndslab import hitting as ht
from ndslab import maps as mp
from ndslab import spaces as sp

SHIFT = sp.ShiftSpace()
# non-refinable angles: comparisons near multiples of these stay undecided
CUSTOM_ALPHAS = [
    sp.AlphaEnclosure.custom(Fraction(c), Fraction(1, 2**70))
    for c in ("1/4", "1/3", "3/8")
]


def bits(times) -> int:
    mask = 0
    for n in times:
        mask |= 1 << n
    return mask


def folded_images(spec, U, horizon):
    """f_1^n(U) for n = 1..horizon, one step map at a time."""
    current = U
    for n in range(1, horizon + 1):
        current = mp.image(mp.step_normal(spec, n), current)
        yield n, current


def reference_set(kind, spec, U, horizon, V=None, delta=None) -> ht.HittingSet:
    """hitting_set / separation_set decided at every time separately."""
    members, undecided = [], []
    for n, img in folded_images(spec, U, horizon):
        try:
            if kind == "hitting":
                hit = sp.intersects(spec.space, img, V)
            else:
                hit = sp.value_cmp(sp.diameter(spec.space, img), delta) > 0
        except sp.EnclosureUndecided:
            undecided.append(n)
            continue
        if hit:
            members.append(n)
    return ht.HittingSet(
        kind, spec, horizon, tuple(members), tuple(undecided), u=U, v=V,
        delta=None if delta is None else Fraction(delta),
    )


def separation_fold(spec, U, delta, horizon) -> int:
    mask = 0
    for n, img in folded_images(spec, U, horizon):
        try:
            if sp.value_cmp(sp.diameter(spec.space, img), delta) > 0:
                mask |= 1 << n
        except sp.EnclosureUndecided:
            pass
    return mask


# ---------------------------------------------------------------------------
# systems


@st.composite
def shift_ap(draw):
    step = draw(st.integers(2, 4))
    a, b = draw(st.lists(st.integers(1, step), min_size=2, max_size=2, unique=True))
    c, add = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    rules = (
        mp.Rule(mp.ArithProgPattern(a, step), mp.FamilyTerm("shift", c, add)),
        mp.Rule(mp.ArithProgPattern(b, step), mp.FamilyTerm("shift", -c, -add)),
    )
    return mp.NdsSpec(SHIFT, rules, mp.ShiftPowTerm(draw(st.integers(-1, 1))))


@st.composite
def shift_pow(draw):
    base, c = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    rules = (
        mp.Rule(mp.PowerPattern(base, 0), mp.FamilyTerm("shift", c)),
        mp.Rule(mp.PowerPattern(base, 1), mp.FamilyTerm("shift", -c)),
    )
    return mp.NdsSpec(SHIFT, rules)


@st.composite
def derived(draw, base):
    spec = draw(base)
    kind = draw(st.sampled_from(("plain", "tail", "iterate")))
    if kind == "tail":
        return mp.TailSpec(spec, draw(st.integers(2, 5)))
    if kind == "iterate":
        return mp.IterateSpec(spec, draw(st.integers(2, 3)))
    return spec


shift_systems = derived(st.one_of(shift_ap(), shift_pow()))


@st.composite
def circle_systems(draw):
    alpha = draw(st.sampled_from([sp.DEFAULT_ALPHA] + CUSTOM_ALPHAS))
    step = draw(st.integers(1, 3))
    rules = (
        mp.Rule(mp.ArithProgPattern(1, step), mp.FamilyTerm("rot", draw(st.integers(-2, 2)))),
    ) if step > 1 else ()
    default = mp.RotPowTerm(draw(st.integers(-2, 2)))
    return mp.NdsSpec(sp.CircleSpace(alpha), rules, default)


@st.composite
def finite_systems(draw):
    size = draw(st.integers(2, 4))
    table = st.lists(st.integers(1, size), min_size=size, max_size=size).map(mp.FiniteFnTerm)
    at = draw(st.lists(st.integers(1, 6), max_size=3, unique=True))
    rules = tuple(mp.Rule(mp.EqualsPattern(n), draw(table)) for n in at)
    return mp.NdsSpec(sp.FiniteSpace(size), rules, draw(table))


product_systems = st.tuples(shift_systems, shift_systems).map(mp.ProductSpec)

DELTAS = st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                          Fraction(3, 2), Fraction(2), Fraction(5, 2)])


def system_cases():
    """(spec, basis resolution, horizon) across every space kind."""
    return st.one_of(
        st.tuples(shift_systems, st.integers(1, 2), st.integers(1, 24)),
        st.tuples(circle_systems(), st.integers(2, 4), st.integers(1, 24)),
        st.tuples(finite_systems(), st.just(1), st.integers(1, 16)),
        st.tuples(product_systems, st.just(1), st.integers(1, 5)),
    )


# ---------------------------------------------------------------------------
# the checkers' kernels


class TestPairMasks:
    @given(system_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_pair_mask_matches_the_stepwise_oracle(self, case):
        spec, r, H = case
        basis, masks = ck._pair_masks(spec, r, H)
        assert len(masks) == len(basis) ** 2
        for (i, j), mask in masks.items():
            assert mask == bits(ht.brute_force_hitting(spec, basis[i], basis[j], H)), (i, j)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_saturated_shift_class_hits_every_pair(self, r, sign):
        # E(1) = 2r+1, E(2) = 4r, E(3) = 2r: the first two clear the window
        # [-r, r], the last still overlaps it
        w = 2 * r + 1
        spec = mp.NdsSpec(SHIFT, (
            mp.Rule(mp.EqualsPattern(1), mp.ShiftPowTerm(sign * w)),
            mp.Rule(mp.EqualsPattern(2), mp.ShiftPowTerm(sign * (4 * r - w))),
            mp.Rule(mp.EqualsPattern(3), mp.ShiftPowTerm(-sign * 2 * r)),
        ))
        assert [mp.prefix_compose(spec, n).exponent for n in (1, 2, 3)] == [
            sign * w, sign * 4 * r, sign * 2 * r]
        basis, masks = ck._pair_masks(spec, r, 3)
        assert all(mask & 0b110 == 0b110 for mask in masks.values())
        assert not all(mask & 0b1000 for mask in masks.values())
        for (i, j), mask in masks.items():
            assert mask == bits(ht.brute_force_hitting(spec, basis[i], basis[j], 3))

    def test_undecided_circle_indices_are_dropped(self):
        alpha = sp.AlphaEnclosure.custom(Fraction(1, 4), Fraction(1, 2**70))
        spec = mp.NdsSpec(sp.CircleSpace(alpha), (), mp.RotPowTerm(1))
        basis, masks = ck._pair_masks(spec, 2, 8)
        undecided = ht.hitting_set(spec, basis[0], basis[0], 8).inconclusive
        assert undecided  # the oracle below really meets undecided times
        for (i, j), mask in masks.items():
            assert mask == bits(ht.brute_force_hitting(spec, basis[i], basis[j], 8))
            assert not mask & bits(ht.hitting_set(spec, basis[i], basis[j], 8).inconclusive)


class TestSeparationMasks:
    @given(system_cases(), DELTAS)
    @settings(max_examples=60, deadline=None)
    def test_every_separation_mask_matches_the_stepwise_fold(self, case, delta):
        spec, r, H = case
        basis, mask = ck._sep_masks(spec, r, H, delta)
        for U in basis:
            assert mask == separation_fold(spec, U, delta, H)


def meets_pairs(space, m, basis, rows=None) -> list:
    """The pairs (i, j), i in `rows` (default all), with m(B_i) meeting B_j,
    one intersection test each."""
    return [
        (i, j) for i in (range(len(basis)) if rows is None else rows)
        for j, b in enumerate(basis) if ht._meets(space, mp.image(m, basis[i]), b)
    ]


class TestClassPairs:
    @pytest.mark.parametrize("alphabet", [2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_overlap_join_matches_the_intersection_tests(self, alphabet, r):
        space = sp.ShiftSpace(alphabet)
        basis = sp.enumerate_basis(space, r)
        # evenly spaced rows, about 10^5 intersection tests per basis
        rows = range(0, len(basis), max(1, len(basis) ** 2 * (4 * r + 1) // 100_000))
        for e in range(-2 * r, 2 * r + 1):
            m = mp.ShiftPowMap(e)
            got = [(i, j) for i, j in ck._class_pairs(space, m, basis) if i in rows]
            assert got == meets_pairs(space, m, basis, rows), e

    @given(st.integers(2, 3), st.integers(1, 2), st.integers(-12, 12))
    @settings(max_examples=60, deadline=None)
    def test_shift_pairs_clear_of_the_window_are_every_pair(self, alphabet, r, e):
        words = [b.word for b in sp.enumerate_basis(sp.ShiftSpace(alphabet), r)]
        pairs = ck._shift_pairs(e, words)
        assert (len(pairs) == len(words) ** 2) == (abs(e) > 2 * r)

    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple)))
    @settings(max_examples=60, deadline=None)
    def test_table_pairs_match_the_intersection_tests(self, table):
        space = sp.FiniteSpace(len(table))
        basis = sp.enumerate_basis(space, 1)
        m = mp.TableMap(table)
        assert ck._class_pairs(space, m, basis) == meets_pairs(space, m, basis)

    def test_classes_of_no_basis_kind_are_refused(self):
        space = sp.ProductSpace((SHIFT, SHIFT))
        m = mp.ProductMap((mp.ShiftPowMap(1), mp.ShiftPowMap(0)))
        with pytest.raises(sp.SpaceMismatch):
            ck._class_pairs(space, m, sp.enumerate_basis(space, 1))


def offset_pairs(space, m, basis) -> list:
    """The circle class pairs from one intersection test per offset d,
    rot^c(B_d) against B_0, spread over every i; undecided offsets are
    left out."""
    r = len(basis)
    return [
        (i, (i - d) % r)
        for d in range(r) if ht._meets(space, mp.image(m, basis[d]), basis[0])
        for i in range(r)
    ]


CIRCLE_COEFFICIENTS = [0, 10**40, -10**40] + [s * c for c in range(1, 301) for s in (1, -1)]


class TestCircleClassPairs:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_builtin_angle_offsets_match_the_intersection_tests(self, r):
        space = sp.CircleSpace()
        basis = sp.enumerate_basis(space, r)
        for c in CIRCLE_COEFFICIENTS:
            m = mp.RotPowMap(c)
            assert ck._class_pairs(space, m, basis) == offset_pairs(space, m, basis), c

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_builtin_angle_offsets_match_every_pair(self, r):
        space = sp.CircleSpace()
        basis = sp.enumerate_basis(space, r)
        for c in [0, 10**40, -10**40] + list(range(-20, 21)):
            m = mp.RotPowMap(c)
            assert sorted(ck._class_pairs(space, m, basis)) == meets_pairs(space, m, basis), c

    @pytest.mark.parametrize("alpha", CUSTOM_ALPHAS, ids=lambda a: str(a.center))
    def test_a_declared_angle_drops_exactly_the_undecided_offsets(self, alpha):
        space = sp.CircleSpace(alpha)
        dropped = 0
        for r in range(2, 9):
            basis = sp.enumerate_basis(space, r)
            for c in range(-24, 25):
                m = mp.RotPowMap(c)
                outcome = [ht._meets(space, mp.image(m, basis[d]), basis[0]) for d in range(r)]
                dropped += outcome.count(None)
                kept = [(i, (i - d) % r) for d in range(r) if outcome[d] for i in range(r)]
                assert ck._class_pairs(space, m, basis) == kept, (r, c)
        assert dropped  # the angle really leaves offsets undecided


def product_parts(kinds):
    """Strategies for the component systems of a product, one per kind."""
    kinds_to_parts = {
        "shift": shift_systems, "circle": circle_systems(), "finite": finite_systems(),
    }
    return st.tuples(*(kinds_to_parts[k] for k in kinds)).map(mp.ProductSpec)


@pytest.mark.parametrize("kinds, r", [
    (("shift", "shift"), 1), (("shift", "circle"), 2), (("finite", "shift"), 1),
])
class TestDerivedProductMasks:
    """A tail or iterate of a product is not a ProductSpec, but its prefix
    maps are still product maps: its masks must equal the per-time test."""

    @given(st.data(), st.sampled_from(["tail", "iterate"]), st.integers(2, 4), st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_pair_masks_match_the_per_time_oracle(self, kinds, r, data, shape, k, H):
        product = data.draw(product_parts(kinds))
        spec = mp.TailSpec(product, k) if shape == "tail" else mp.IterateSpec(product, k)
        basis, masks = ck._pair_masks(spec, r, H)
        assert len(masks) == len(basis) ** 2
        # every third row: its images folded once, then tested on every column
        for i in range(0, len(basis), 3):
            images = list(folded_images(spec, basis[i], H))
            for j, V in enumerate(basis):
                hits = bits(n for n, img in images if ht._meets(spec.space, img, V))
                assert masks[(i, j)] == hits, (i, j)

    @given(st.data(), st.sampled_from(["tail", "iterate"]), st.integers(2, 4), st.integers(1, 6),
           DELTAS)
    @settings(max_examples=12, deadline=None)
    def test_separation_masks_match_the_per_time_fold(self, kinds, r, data, shape, k, H, delta):
        product = data.draw(product_parts(kinds))
        spec = mp.TailSpec(product, k) if shape == "tail" else mp.IterateSpec(product, k)
        basis, mask = ck._sep_masks(spec, r, H, delta)
        assert mask == separation_fold(spec, basis[0], delta, H)


def masks_by_rectangle(spec, r, H) -> dict:
    """A product's pair masks one rectangle pair at a time: the AND of the
    component masks at each pair of sides, in (i, j) order."""
    parts = [ck._pair_masks(p, r, H) for p in ht._components(spec)]
    index = list(product(*(range(len(part_basis)) for part_basis, _ in parts)))
    return {
        (i, j): reduce(and_, (part[(a, b)] for (_, part), a, b in zip(parts, u, v)))
        for i, u in enumerate(index)
        for j, v in enumerate(index)
    }


@pytest.mark.parametrize("kinds, r", [
    (("shift", "shift"), 1), (("shift", "finite", "shift"), 1), (("finite", "shift"), 1),
    (("circle", "shift"), 2),
])
@given(data=st.data(), shape=st.sampled_from(["product", "tail", "iterate"]),
       k=st.integers(2, 4), H=st.integers(1, 12))
@settings(max_examples=10, deadline=None)
def test_product_rows_match_the_per_rectangle_and(kinds, r, data, shape, k, H):
    """The spread rows of _pair_masks give the per-rectangle AND, in the
    same (i, j) order, for products, their tails and their iterates."""
    parts = data.draw(product_parts(kinds))
    spec = {"product": parts, "tail": mp.TailSpec(parts, k), "iterate": mp.IterateSpec(parts, k)}[shape]
    _, masks = ck._pair_masks(spec, r, H)
    oracle = masks_by_rectangle(spec, r, H)
    assert list(masks) == list(oracle) and masks == oracle


# every derived shape over a shift or circle rule system: (tail index a,
# iterate order b) -> system
SHAPES = {
    "rules": lambda spec, a, b: spec,
    "nested-tail": lambda spec, a, b: mp.TailSpec(mp.TailSpec(spec, a), b),
    "iterate": lambda spec, a, b: mp.IterateSpec(spec, b),
    "iterate-of-tail": lambda spec, a, b: mp.IterateSpec(mp.TailSpec(spec, a), b),
}

power_rules = st.one_of(shift_ap(), shift_pow(), circle_systems())


def power_of(m) -> int:
    return m.exponent if isinstance(m, mp.ShiftPowMap) else m.coefficient


@pytest.mark.parametrize("shape", SHAPES)
class TestPrefixExponentArray:
    @given(power_rules, st.integers(2, 5), st.integers(2, 3), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_prefix_exponents_match_the_composition_walk(self, shape, rules, a, b, H):
        spec = SHAPES[shape](rules, a, b)
        walk = [power_of(mp.prefix_compose(spec, n)) for n in range(H + 1)]
        assert mp.prefix_exponents(spec, H) == walk

    @given(power_rules, st.integers(2, 5), st.integers(2, 3), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_array_classes_match_the_composition_walk(self, shape, rules, a, b, H):
        # the same maps, the same times and the same order of first occurrence
        spec = SHAPES[shape](rules, a, b)
        classes = ht.prefix_classes(spec, H)
        assert list(classes.items()) == list(ht._composed_classes(spec, H).items())


def composition_walk(spec, H) -> list:
    """prefix_classes as (map, mask) pairs by composing f_1^n afresh for
    every n, in order of first occurrence."""
    classes = {}
    for n in range(1, H + 1):
        m = mp.prefix_compose(spec, n)
        classes[m] = classes.get(m, 0) | 1 << n
    return list(classes.items())


# every shape whose prefix classes are composed, not read off an array
composed_systems = st.one_of(
    st.builds(mp.TailSpec, finite_systems(), st.integers(2, 5)),
    st.builds(mp.IterateSpec, finite_systems(), st.integers(2, 3)),
    product_parts(("finite", "shift")),
    product_parts(("shift", "circle")),
    st.builds(mp.TailSpec, product_parts(("finite", "shift")), st.integers(2, 5)),
    st.builds(mp.TailSpec, product_parts(("shift", "shift")), st.integers(2, 5)),
)


class TestFoldedClasses:
    @given(composed_systems, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_folded_classes_match_the_composition_walk(self, spec, H):
        # the same maps, the same times and the same order of first occurrence
        assert list(ht.prefix_classes(spec, H).items()) == composition_walk(spec, H)

    def test_a_finite_tail_composes_a_bounded_number_of_times_per_time(self):
        """Recomposing f_1^n from the start for every n costs about H^2 / 2
        composes on a tail of a finite system; the fold costs a few per time."""
        H = 2000
        cycle = mp.NdsSpec(sp.FiniteSpace(5), (), mp.FiniteFnTerm((2, 3, 4, 5, 1)))
        spec = mp.TailSpec(cycle, 3)
        with mock.patch.object(mp, "compose", wraps=mp.compose) as compose:
            classes = ht.prefix_classes(spec, H)
        assert compose.call_count <= 3 * H
        assert list(classes.values()) == [bits(range(t, H + 1, 5)) for t in range(1, 6)]


def constant_power(space):
    term = mp.ShiftPowTerm if isinstance(space, sp.ShiftSpace) else mp.RotPowTerm
    return st.integers(-3, 3).map(lambda c: mp.NdsSpec(space, (), term(c)))


# systems whose exponent law mostly derives: telescoping progressions and
# constant powers (their nested tails too) and telescoping power patterns
lawful_systems = st.one_of(
    shift_pow(),
    st.builds(
        lambda spec, a, b: mp.TailSpec(mp.TailSpec(spec, a), b),
        st.one_of(shift_ap().map(lambda spec: mp.NdsSpec(SHIFT, spec.rules)),
                  constant_power(SHIFT), constant_power(sp.CircleSpace())),
        st.integers(1, 5), st.integers(1, 5),
    ),
)


@given(lawful_systems, st.integers(1, 64), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_a_planted_wrong_law_still_raises(spec, n, off):
    """A law off by `off` at n alone fails validation at exactly n, with the
    text an index-by-index check gives."""
    law = mp.derive_exponent_law(spec, 64)
    assume(law is not None)  # some tails cut a telescoping pair out of step
    right = law.value(n)
    wrong = mp.LawPiece(mp.EqualsPattern(n), 0, right + off)
    with mock.patch.object(mp, "_law_candidate", lambda source: [wrong, *law.pieces]):
        with pytest.raises(mp.LawValidationError) as caught:
            mp.derive_exponent_law(spec, 64)
    assert str(caught.value) == (
        f"derived law disagrees with composition at n={n}: {right + off} vs {right}"
    )


def with_overlaps(space, rules, default) -> mp.NdsSpec:
    """An NdsSpec built without the disjointness check, so patterns may
    share indices and the first matching rule decides them."""
    with mock.patch.object(mp, "_patterns_overlap", lambda p, q: None):
        return mp.NdsSpec(space, tuple(rules), default)


patterns = st.one_of(
    st.integers(1, 80).map(mp.EqualsPattern),
    st.builds(mp.ArithProgPattern, st.integers(1, 12), st.integers(1, 9)),
    st.builds(mp.PowerPattern, st.integers(2, 4), st.integers(0, 6)),
    st.just(mp.ElsePattern()),
)
# coefficients and constants: zero, negative and 40-digit ones
amounts = st.one_of(st.integers(-3, 3), st.sampled_from([10**40, -(10**40) + 1]))
rule_terms = st.one_of(
    st.builds(mp.FamilyTerm, st.just("shift"), amounts, amounts),
    amounts.map(mp.ShiftPowTerm),
)


def stepwise_exponents(spec, upto) -> list:
    """E(0..upto) summed one eval_term dispatch at a time."""
    steps = (mp.term_exponent(mp.eval_term(spec, i)) for i in range(1, upto + 1))
    return list(accumulate(steps, initial=0))


class TestExponentFill:
    @given(st.lists(st.tuples(patterns, rule_terms), max_size=5), amounts,
           st.lists(st.integers(0, 90), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_fill_matches_the_stepwise_dispatch(self, rules, default, stops):
        spec = with_overlaps(SHIFT, (mp.Rule(p, t) for p, t in rules), mp.ShiftPowTerm(default))
        mp._CUM._exponents.pop(spec, None)
        # grown in several steps, each extension filled from the last entry
        for upto in sorted(stops):
            assert mp._CUM.exponents(spec, upto)[: upto + 1] == stepwise_exponents(spec, upto)

    @given(st.lists(st.tuples(patterns, rule_terms), max_size=4), st.integers(-3, 3),
           st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_circle_and_derived_arrays_match_the_stepwise_dispatch(self, rules, default, H):
        rot = [(p, mp.FamilyTerm("rot", t.coeff, t.add) if isinstance(t, mp.FamilyTerm)
                else mp.RotPowTerm(t.exponent)) for p, t in rules]
        spec = with_overlaps(sp.CircleSpace(), (mp.Rule(p, t) for p, t in rot), mp.RotPowTerm(default))
        base = stepwise_exponents(spec, 3 * H + 4)
        assert mp.prefix_exponents(spec, H) == base[: H + 1]
        assert mp.prefix_exponents(mp.TailSpec(spec, 4), H) == [e - base[3] for e in base[3: H + 4]]
        assert mp.prefix_exponents(mp.IterateSpec(spec, 3), H) == base[: 3 * H + 1: 3]

    def test_a_law_missing_an_index_raises_the_uncovered_text(self):
        spec = mp.NdsSpec(SHIFT, (), mp.ShiftPowTerm(0))
        partial = [mp.LawPiece(mp.ArithProgPattern(1, 2), 0, 0)]  # n = 2 is uncovered
        with mock.patch.object(mp, "_law_candidate", lambda source: partial):
            with pytest.raises(mp.LawValidationError) as caught:
                mp.derive_exponent_law(spec, 8)
        assert str(caught.value) == "law has no piece covering index 2"


def test_arrays_and_laws_need_no_index_dispatch(monkeypatch):
    """The exponent fill and a passing law validation call neither
    eval_term nor ExponentLaw.value: both read closed forms."""
    ap = mp.NdsSpec(SHIFT, (
        mp.Rule(mp.ArithProgPattern(1, 2), mp.FamilyTerm("shift", 2, 1)),
        mp.Rule(mp.ArithProgPattern(2, 2), mp.FamilyTerm("shift", -2, -1)),
    ), name="pinned-ap")
    power = mp.NdsSpec(sp.CircleSpace(), (
        mp.Rule(mp.PowerPattern(3, 0), mp.FamilyTerm("rot", 1)),
        mp.Rule(mp.PowerPattern(3, 1), mp.FamilyTerm("rot", -1)),
    ), name="pinned-power")
    constant = mp.NdsSpec(SHIFT, (), mp.ShiftPowTerm(3), name="pinned-constant")
    systems = [ap, power, constant, mp.TailSpec(ap, 3), mp.TailSpec(mp.TailSpec(constant, 2), 3),
               mp.IterateSpec(power, 2), mp.IterateSpec(mp.TailSpec(ap, 2), 3)]
    expected = [mp.prefix_exponents(spec, 300) for spec in systems]
    for spec in (ap, power, constant):
        mp._CUM._exponents.pop(spec, None)

    def dispatch(*args):
        raise AssertionError("index dispatch on a closed-form path")

    monkeypatch.setattr(mp, "eval_term", dispatch)
    monkeypatch.setattr(mp.ExponentLaw, "value", dispatch)
    assert [mp.prefix_exponents(spec, 300) for spec in systems] == expected
    laws = [mp.derive_exponent_law(spec, 300) for spec in systems]
    assert all(law is not None for law in laws[:5])  # iterates derive no law


def test_prefix_exponents_need_a_power_system():
    finite = mp.NdsSpec(sp.FiniteSpace(2), (), mp.FiniteFnTerm((2, 1)))
    product = mp.ProductSpec((mp.NdsSpec(SHIFT), mp.NdsSpec(SHIFT)))
    for spec in (finite, product, mp.TailSpec(product, 2)):
        with pytest.raises(sp.SpaceMismatch):
            mp.prefix_exponents(spec, 4)


def cover_fold(spec, U, horizon):
    """The first n at which f_1^1(U), ..., f_1^n(U) cover the space, folding
    one step map at a time and testing every time; None within the horizon."""
    images = []
    for n, img in folded_images(spec, U, horizon):
        images.append(img)
        if ck._cover_space(spec.space, images):
            return n
    return None


class TestCoverSearch:
    @given(st.one_of(
        # the default angle keeps every arc endpoint comparison decidable
        st.tuples(circle_systems().filter(lambda spec: spec.space == sp.CircleSpace()),
                  st.integers(2, 4), st.integers(1, 40)),
        st.tuples(finite_systems(), st.just(1), st.integers(1, 16)),
    ))
    @settings(max_examples=60, deadline=None)
    def test_strongly_transitive_cover_bounds_match_the_stepwise_fold(self, case):
        spec, r, H = case
        basis = sp.enumerate_basis(spec.space, r)
        bounds = [cover_fold(spec, U, H) for U in basis]
        ev = ck.check_property(spec, ck.PropertyKind("strongly-transitive"), r, H).evidence
        if None in bounds:
            uncovered = ev.get("uncovered_open", ev.get("refuting_open"))
            assert uncovered == ck._label(basis, bounds.index(None))
        else:
            assert ev["cover_bound_per_open"] == {str(i): n for i, n in enumerate(bounds)}


# ---------------------------------------------------------------------------
# the hitting module's sets, evidence included


def opens(space, r):
    return st.sampled_from(sp.enumerate_basis(space, r))


class TestHittingSets:
    @given(st.data(), system_cases())
    @settings(max_examples=60, deadline=None)
    def test_hitting_set_matches_per_time_reference(self, data, case):
        spec, r, H = case
        U = data.draw(opens(spec.space, r))
        V = data.draw(opens(spec.space, r))
        assert ht.hitting_set(spec, U, V, H) == reference_set("hitting", spec, U, H, V=V)

    @given(st.data(), system_cases(), DELTAS)
    @settings(max_examples=60, deadline=None)
    def test_separation_set_matches_per_time_reference(self, data, case, delta):
        spec, r, H = case
        U = data.draw(opens(spec.space, r))
        got = ht.separation_set(spec, U, delta, H)
        assert got == reference_set("separation", spec, U, H, delta=delta)

    def test_partial_cylinders_match_the_fold(self):
        spec = mp.NdsSpec(SHIFT, (
            mp.Rule(mp.ArithProgPattern(1, 2), mp.FamilyTerm("shift", 1)),
            mp.Rule(mp.ArithProgPattern(2, 2), mp.FamilyTerm("shift", -1)),
        ))
        U, V = sp.Cylinder(-2, (0, None, 1)), sp.Cylinder(0, (1, None, 0))
        assert ht.hitting_set(spec, U, V, 40) == reference_set("hitting", spec, U, 40, V=V)
        got = ht.separation_set(spec, U, Fraction(5, 2), 40)
        assert got == reference_set("separation", spec, U, 40, delta=Fraction(5, 2))

    def test_one_class_per_time_matches_the_fold(self):
        """Example 3.6 moves to a new exponent at every odd time, so nearly
        every member is its own class."""
        spec = mp.NdsSpec(SHIFT, (
            mp.Rule(mp.ArithProgPattern(1, 2), mp.FamilyTerm("shift", 1)),
            mp.Rule(mp.ArithProgPattern(2, 2), mp.FamilyTerm("shift", -1)),
        ))
        U, V = sp.Cylinder(-1, (0, 1, 0)), sp.Cylinder(-1, (1, 0, 1))
        got = ht.hitting_set(spec, U, V, 1024)
        assert len(ht.prefix_classes(spec, 1024)) == 513
        assert got == reference_set("hitting", spec, U, 1024, V=V)
        assert len(got.members) > 500


def test_mask_members_walks_the_set_bits():
    assert ht._mask_members(0) == ()
    assert ht._mask_members(0b101100) == (2, 3, 5)
    assert ht._mask_members(1 << 1000 | 2) == (1, 1000)


# ---------------------------------------------------------------------------
# orbit questions read off the prefix classes


def points(space):
    if isinstance(space, sp.ShiftSpace):
        tails = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
        window = st.lists(st.integers(0, 1), max_size=5).map(tuple)
        return st.builds(sp.BiWord, st.integers(-4, 4), window, tails, tails)
    if isinstance(space, sp.FiniteSpace):
        return st.integers(1, space.point_count).map(sp.FiniteId)
    if isinstance(space, sp.CircleSpace):
        return st.builds(sp.AffineAngle, st.fractions(0, 1, max_denominator=8), st.integers(-2, 2))
    return st.tuples(*(points(p) for p in space.parts)).map(sp.ProductPoint)


def folded_points(spec, x, horizon):
    """f_1^n(x) for n = 1..horizon, one step map at a time."""
    for n in range(1, horizon + 1):
        x = mp.apply(mp.step_normal(spec, n), x)
        yield n, x


def first_visits_fold(spec, x, basis, H):
    """The first n <= H with f_1^n(x) in B_i, for each basis open the
    stepwise orbit visits (n = 0 is x itself)."""
    hit_at = {}
    for n, point in [(0, x), *folded_points(spec, x, H)]:
        for i, B in enumerate(basis):
            try:
                if i not in hit_at and sp.contains(spec.space, B, point):
                    hit_at[i] = n
            except sp.EnclosureUndecided:
                pass
    return hit_at


def returns_fold(spec, x, eps, H) -> int:
    """Bitmask of the n <= H with d(f_1^n x, x) < eps, stepwise."""
    mask = 0
    for n, point in folded_points(spec, x, H):
        try:
            if sp.value_cmp(sp.distance(spec.space, point, x), eps) < 0:
                mask |= 1 << n
        except sp.EnclosureUndecided:
            pass
    return mask


def slot_walk(common, j, H) -> int:
    """The l in [1, H] with j*l in `common`, one bit at a time."""
    return bits(l for l in range(1, H + 1) if common >> (j * l) & 1)


def universal_walk(masks, m, H) -> int:
    common = reduce(and_, masks, -1)
    return reduce(and_, (slot_walk(common, j, H) for j in range(1, m + 1)), -1)


def equicontinuity_fold(spec, epsilon, k, horizon):
    """equicontinuity_modulus on a shift system, summing the step exponents
    of every window by hand."""
    worst = worst_first_half = 0
    for n in range(1, horizon + 1):
        cum = 0
        for j in range(k):
            cum += mp.step_normal(spec, n + j).exponent
            worst = max(worst, abs(cum))
            if n <= horizon // 2:
                worst_first_half = max(worst_first_half, abs(cum))
    if worst > worst_first_half:
        return None, f"window exponents still growing at the horizon (max |E| = {worst})"
    return epsilon / (2 ** (worst + 1)), f"Lipschitz constant 2^{worst} over all windows, safety factor 2"


def equicontinuity_window_loop(spec, epsilon, k, horizon):
    """equicontinuity_modulus with each window's exponent taken in a double
    loop over n and j, off the prefix exponents."""
    E = mp.prefix_exponents(spec, horizon + k - 1)
    window = [max(abs(E[n + j] - E[n - 1]) for j in range(k)) for n in range(1, horizon + 1)]
    worst, worst_first_half = max(window, default=0), max(window[: horizon // 2], default=0)
    if worst > worst_first_half:
        return None, f"window exponents still growing at the horizon (max |E| = {worst})"
    return epsilon / (1 << (worst + 1)), f"Lipschitz constant 2^{worst} over all windows, safety factor 2"


class TestOrbitQuestions:
    @given(st.data(), system_cases())
    @settings(max_examples=60, deadline=None)
    def test_minimal_first_visits_match_the_stepwise_orbit(self, data, case):
        spec, r, H = case
        basis = sp.enumerate_basis(spec.space, r)
        x = data.draw(points(spec.space))
        got = ck._first_visits(spec, x, basis, ht.prefix_classes(spec, H))
        assert got == first_visits_fold(spec, x, basis, H)

    @given(st.data(), system_cases())
    @settings(max_examples=60, deadline=None)
    def test_almost_periodic_returns_match_the_stepwise_orbit(self, data, case):
        spec, r, H = case
        x = data.draw(points(spec.space))
        verdict = ck.check_property(spec, ck.PropertyKind("almost-periodic-point", point=x), r, H)
        out = {}
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            returns = returns_fold(spec, x, eps, H)
            if not returns:
                assert (verdict.status, verdict.evidence) == (ck.INCONCLUSIVE, {"epsilon": str(eps)})
                return
            out[str(eps)] = {"max_gap": ht._frequency(returns, H)[0], "returns": returns.bit_count()}
        assert (verdict.status, verdict.evidence) == (ck.WITNESSED, {"per_epsilon": out})

    @given(system_cases(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_slots_of_the_pair_masks_match_the_per_bit_walk(self, case, m):
        spec, r, H = case
        _, masks = ck._pair_masks(spec, r, m * H)
        common = reduce(and_, masks.values())
        for j in range(1, m + 1):
            assert ck._slot(common, j, H) == slot_walk(common, j, H)
        assert ck._universal_l(masks.values(), m, H) == universal_walk(masks.values(), m, H)

    @given(st.lists(st.integers(0, 2**200), min_size=1, max_size=4), st.integers(1, 6),
           st.integers(1, 40))
    @settings(deadline=None)
    def test_slots_of_any_masks_match_the_per_bit_walk(self, masks, m, H):
        assert ck._universal_l(masks, m, H) == universal_walk(masks, m, H)

    @given(shift_systems, st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 8)]),
           st.integers(1, 4), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_equicontinuity_modulus_matches_the_step_exponent_sum(self, spec, eps, k, H):
        assert cv.equicontinuity_modulus(spec, eps, k, H) == equicontinuity_fold(spec, eps, k, H)

    # horizons 0 and 1, and windows longer than the horizon
    @given(shift_systems, st.sampled_from([Fraction(1), Fraction(1, 8)]), st.integers(1, 12),
           st.one_of(st.integers(0, 1), st.integers(2, 64)))
    @settings(max_examples=150, deadline=None)
    def test_equicontinuity_modulus_matches_the_window_double_loop(self, spec, eps, k, H):
        assert cv.equicontinuity_modulus(spec, eps, k, H) == equicontinuity_window_loop(spec, eps, k, H)

    @given(st.data(), st.one_of(
        # the default angle keeps every distance comparison decidable
        circle_systems().filter(lambda spec: spec.space == sp.CircleSpace()),
        finite_systems(),
        product_systems,
        st.tuples(circle_systems().filter(lambda spec: spec.space == sp.CircleSpace()),
                  st.one_of(finite_systems(), shift_systems)).map(mp.ProductSpec),
    ), st.integers(1, 24), st.sampled_from([
        (Fraction(1, 1024), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 4)), (Fraction(1, 3), Fraction(2, 5)),
    ]))
    @settings(max_examples=80, deadline=None)
    def test_li_yorke_off_the_shift_matches_the_orbit_trace(self, data, spec, H, thresholds):
        x, y = data.draw(points(spec.space)), data.draw(points(spec.space))
        tail = chaos.orbit_distance_trace(spec, x, y, H)[max(1, H // 2) - 1 :]
        ordered = sorted(tail, key=cmp_to_key(sp.value_cmp))
        lo, hi = ordered[0], ordered[-1]
        eps_low, delta_high = thresholds
        rep = chaos.li_yorke_scan(spec, [(x, y)], H, eps_low, delta_high)[0]
        assert (rep.liminf_estimate, rep.limsup_estimate) == (lo, hi)
        assert rep.qualifies == (sp.value_cmp(lo, eps_low) < 0 and sp.value_cmp(hi, delta_high) > 0)


# the stepwise oracles, the per-step questions (surjectivity, the uniform
# convergence term distances), the table law's lead walk and step_normal itself
STEP_FOLDS = {
    "orbit_distance_trace", "_verify_itineraries", "brute_force_hitting", "_check_surjective",
    "_first_divergent_index", "check_uniform_convergence", "step_normal", "derive_table_law",
}


# the functions that compose f_1^n one time at a time: the walk behind the
# product and finite prefix classes, the evidence re-check and one corpus
# structure check; laws, shift and circle classes, equicontinuity, the shift
# Li-Yorke tail and the lemma-2.1 time search read prefix_exponents, and the
# Li-Yorke tail off the shift reads prefix_classes
PREFIX_WALKS = {"_composed_classes", "recheck_verdict", "_all_pairs_meet", "_run_interleave"}


def readers_of(name: str) -> set:
    """The functions of the package (or "<file> (module level)") whose body
    names `name`, as a call or a reference."""
    readers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == name or (
            isinstance(node, ast.Name) and node.id == name
        ):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.name} (module level)")
    return readers


def test_only_the_oracles_and_per_step_questions_read_step_maps():
    """Verdict and scan paths take f_1^n from prefix_compose or prefix_classes;
    a function that reads step_normal is one of the named stepwise paths."""
    assert readers_of("step_normal") == STEP_FOLDS


def test_only_the_named_walks_compose_prefix_maps():
    """derive_exponent_law and the shift and circle prefix classes read the
    one prefix-exponent array; a function that calls prefix_compose is one of
    the named walks."""
    assert readers_of("prefix_compose") == PREFIX_WALKS
