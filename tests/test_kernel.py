"""The exponent-class mask kernel and the orbit questions read off the
prefix classes, against independent step-fold oracles.

The kernel decides each prefix class once; the oracles fold the step maps
one index at a time and test every time separately, so any class that is
keyed too coarsely (or any shortcut that is not exact) shows up as a mask
that differs from the fold."""

import ast
from fractions import Fraction
from functools import reduce
from itertools import accumulate, product
from operator import and_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from pairs import by_pair

from ndslab import chaos
from ndslab import checkers as ck
from ndslab import convergence as cv
from ndslab import hitting as ht
from ndslab import maps as mp
from ndslab import ndsl
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
        return mp.tail(spec, draw(st.integers(2, 5)))
    if kind == "iterate":
        return mp.iterate(spec, draw(st.integers(2, 3)))
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
        for (i, j), mask in by_pair(masks, len(basis)).items():
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
        assert all(mask & 0b110 == 0b110 for mask in masks)
        assert not all(mask & 0b1000 for mask in masks)
        for (i, j), mask in by_pair(masks, len(basis)).items():
            assert mask == bits(ht.brute_force_hitting(spec, basis[i], basis[j], 3))

    def test_undecided_circle_indices_are_dropped(self):
        alpha = sp.AlphaEnclosure.custom(Fraction(1, 4), Fraction(1, 2**70))
        spec = mp.NdsSpec(sp.CircleSpace(alpha), (), mp.RotPowTerm(1))
        basis, masks = ck._pair_masks(spec, 2, 8)
        undecided = ht.hitting_set(spec, basis[0], basis[0], 8).inconclusive
        assert undecided  # the oracle below really meets undecided times
        for (i, j), mask in by_pair(masks, len(basis)).items():
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


def meets_pairs(space, m, opens, targets=None) -> set:
    """The pairs (i, j) with m(opens[i]) meeting targets[j] (default: the
    opens), one intersection test each."""
    targets = opens if targets is None else targets
    return {
        (i, j) for i, U in enumerate(opens)
        for j, V in enumerate(targets) if ht._meets(space, mp.image(m, U), V)
    }


def class_pairs(spec, opens, targets, n=1) -> tuple:
    """(met, undecided): the sets of pairs pair_masks reports at time n."""
    hits, undecided = ht.pair_masks(spec, opens, targets, n)
    return tuple({pair for pair, mask in by_pair(masks, len(opens), len(targets)).items() if mask >> n & 1}
                 for masks in (hits, undecided))


class TestClassPairs:
    @pytest.mark.parametrize("alphabet", [2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_overlap_join_matches_the_intersection_tests(self, alphabet, r):
        space = sp.ShiftSpace(alphabet)
        basis = sp.enumerate_basis(space, r)
        # evenly spaced rows, about 10^5 intersection tests per basis
        rows = basis[::max(1, len(basis) ** 2 * (4 * r + 1) // 100_000)]
        # E(n) = n - 1 - 2r: times 1 .. 4r+1 run through every exponent
        # whose image window still overlaps [-r, r]
        spec = mp.NdsSpec(space, (mp.Rule(mp.EqualsPattern(1), mp.ShiftPowTerm(-2 * r)),),
                          mp.ShiftPowTerm(1))
        for n in range(1, 4 * r + 2):
            m = mp.ShiftPowTerm(n - 1 - 2 * r)
            assert class_pairs(spec, rows, basis, n) == (meets_pairs(space, m, rows, basis), set()), n

    @given(st.integers(2, 3), st.integers(1, 2), st.integers(-12, 12))
    @settings(max_examples=60, deadline=None)
    def test_shift_pairs_clear_of_the_window_are_every_pair(self, alphabet, r, e):
        space = sp.ShiftSpace(alphabet)
        basis = sp.enumerate_basis(space, r)
        met, _ = class_pairs(mp.NdsSpec(space, (), mp.ShiftPowTerm(e)), basis, basis)
        assert (len(met) == len(basis) ** 2) == (abs(e) > 2 * r)

    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple)))
    @settings(max_examples=60, deadline=None)
    def test_table_pairs_match_the_intersection_tests(self, table):
        space = sp.FiniteSpace(len(table))
        basis = sp.enumerate_basis(space, 1)
        m = mp.FiniteFnTerm(table)
        assert class_pairs(mp.NdsSpec(space, (), m), basis, basis) == (meets_pairs(space, m, basis), set())

    def test_a_product_class_is_read_off_its_parts(self, monkeypatch):
        # no class is ever decided as one product map
        keyed = []
        key_map = ht.key_map
        monkeypatch.setattr(ht, "key_map", lambda space, key: keyed.append(space) or key_map(space, key))
        spec = mp.ProductSpec((mp.NdsSpec(SHIFT, (), mp.ShiftPowTerm(1)), mp.NdsSpec(SHIFT, ())))
        basis = sp.enumerate_basis(spec.space, 1)
        ht.pair_masks(spec, basis, basis, 8)
        assert keyed and SHIFT in keyed and spec.space not in keyed


def offset_pairs(space, m, basis) -> tuple:
    """(met, undecided) of the circle class from one intersection test per
    offset d, rot^c(B_d) against B_0, spread over every i."""
    r = len(basis)
    outcome = [ht._meets(space, mp.image(m, basis[d]), basis[0]) for d in range(r)]
    return tuple(
        {(i, (i - d) % r) for d in range(r) if outcome[d] is verdict for i in range(r)}
        for verdict in (True, None)
    )


def rotation(space, c):
    """A system whose first prefix map is rot^c."""
    return mp.NdsSpec(space, (), mp.RotPowTerm(c))


CIRCLE_COEFFICIENTS = [0, 10**40, -10**40] + [s * c for c in range(1, 301) for s in (1, -1)]


class TestCircleClassPairs:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_builtin_angle_offsets_match_the_intersection_tests(self, r):
        space = sp.CircleSpace()
        basis = sp.enumerate_basis(space, r)
        for c in CIRCLE_COEFFICIENTS:
            m = mp.RotPowTerm(c)
            assert class_pairs(rotation(space, c), basis, basis) == offset_pairs(space, m, basis), c

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_builtin_angle_offsets_match_every_pair(self, r):
        space = sp.CircleSpace()
        basis = sp.enumerate_basis(space, r)
        for c in [0, 10**40, -10**40] + list(range(-20, 21)):
            m = mp.RotPowTerm(c)
            assert class_pairs(rotation(space, c), basis, basis) == (meets_pairs(space, m, basis), set()), c

    @pytest.mark.parametrize("alpha", CUSTOM_ALPHAS, ids=lambda a: str(a.center))
    def test_a_declared_angle_drops_exactly_the_undecided_offsets(self, alpha):
        space = sp.CircleSpace(alpha)
        dropped = 0
        for r in range(2, 9):
            basis = sp.enumerate_basis(space, r)
            for c in range(-24, 25):
                met, undecided = offset_pairs(space, mp.RotPowTerm(c), basis)
                dropped += len(undecided)
                assert class_pairs(rotation(space, c), basis, basis) == (met, undecided), (r, c)
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
    """A tail or iterate of a product is the product of its parts' tails or
    iterates: its masks must equal the per-time test."""

    @given(st.data(), st.sampled_from(["tail", "iterate"]), st.integers(2, 4), st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_pair_masks_match_the_per_time_oracle(self, kinds, r, data, shape, k, H):
        product = data.draw(product_parts(kinds))
        spec = mp.tail(product, k) if shape == "tail" else mp.iterate(product, k)
        basis, masks = ck._pair_masks(spec, r, H)
        assert len(masks) == len(basis) ** 2
        masks = by_pair(masks, len(basis))
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
        spec = mp.tail(product, k) if shape == "tail" else mp.iterate(product, k)
        basis, mask = ck._sep_masks(spec, r, H, delta)
        assert mask == separation_fold(spec, basis[0], delta, H)


def masks_by_rectangle(spec, r, H) -> dict:
    """A product's pair masks one rectangle pair at a time: the AND of the
    component masks at each pair of sides, in (i, j) order."""
    parts = [(len(part_basis), by_pair(part, len(part_basis)))
             for part_basis, part in (ck._pair_masks(p, r, H) for p in spec.parts)]
    index = list(product(*(range(size) for size, _ in parts)))
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
    """The spread rows of the product kernel give the per-rectangle AND, in
    the same (i, j) order, for products, their tails and their iterates."""
    parts = data.draw(product_parts(kinds))
    spec = {"product": parts, "tail": mp.tail(parts, k), "iterate": mp.iterate(parts, k)}[shape]
    basis, masks = ck._pair_masks(spec, r, H)
    masks, oracle = by_pair(masks, len(basis)), masks_by_rectangle(spec, r, H)
    assert list(masks) == list(oracle) and masks == oracle


# every derived shape over a shift or circle rule system: (tail index a,
# iterate order b) -> system
SHAPES = {
    "rules": lambda spec, a, b: spec,
    "nested-tail": lambda spec, a, b: mp.tail(mp.tail(spec, a), b),
    "iterate": lambda spec, a, b: mp.iterate(spec, b),
    "iterate-of-tail": lambda spec, a, b: mp.iterate(mp.tail(spec, a), b),
}

power_rules = st.one_of(shift_ap(), shift_pow(), circle_systems())


def power_of(m) -> int:
    return m.exponent if isinstance(m, mp.ShiftPowTerm) else m.coefficient


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
        assert list(ht.prefix_classes(spec, H).items()) == composition_walk(spec, H)


def composition_walk(spec, H) -> list:
    """prefix_classes as (map, mask) pairs by composing f_1^n afresh for
    every n, in order of first occurrence."""
    classes = {}
    for n in range(1, H + 1):
        m = mp.prefix_compose(spec, n)
        classes[m] = classes.get(m, 0) | 1 << n
    return list(classes.items())


@st.composite
def finite_rule_systems(draw):
    """Finite systems with literal, progression and power rules, and the
    identity or a table by default."""
    size = draw(st.integers(1, 4))
    table = st.lists(st.integers(1, size), min_size=size, max_size=size).map(mp.FiniteFnTerm)
    patterns = draw(st.lists(st.one_of(
        st.builds(mp.EqualsPattern, st.integers(1, 12)),
        st.integers(1, 4).flatmap(
            lambda step: st.builds(mp.ArithProgPattern, st.integers(1, step + 2), st.just(step))),
        st.builds(mp.PowerPattern, st.integers(2, 3), st.integers(0, 2)),
    ), max_size=3))
    rules = tuple(mp.Rule(pattern, draw(table)) for pattern in patterns)
    default = draw(st.one_of(table, st.just(mp.IDENTITY)))
    try:
        return mp.NdsSpec(sp.FiniteSpace(size), rules, default)
    except mp.OverlappingRules:
        assume(False)


class TestStepTables:
    @given(finite_rule_systems(), st.integers(1, 40), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_step_tables_match_eval_term(self, spec, lo, width):
        tables = [mp.term_to_normal(spec.space, mp.eval_term(spec, i)).table
                  for i in range(lo, lo + width)]
        assert mp.step_tables(spec, lo, lo + width - 1) == tables

    @pytest.mark.parametrize("shape", SHAPES)
    @given(finite_rule_systems(), st.integers(2, 5), st.integers(2, 3), st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_prefix_tables_match_the_composition_walk(self, shape, spec, a, b, H):
        spec = SHAPES[shape](spec, a, b)
        walk = [mp.prefix_compose(spec, n).table for n in range(H + 1)]
        assert list(mp.prefix_tables(spec, H)) == walk


# every shape whose prefix classes are keyed by tables or by the parts' keys
composed_systems = st.one_of(
    st.builds(mp.tail, finite_systems(), st.integers(2, 5)),
    st.builds(mp.iterate, finite_systems(), st.integers(2, 3)),
    product_parts(("finite", "shift")),
    product_parts(("shift", "circle")),
    st.builds(mp.tail, product_parts(("finite", "shift")), st.integers(2, 5)),
    st.builds(mp.tail, product_parts(("shift", "shift")), st.integers(2, 5)),
)


# finite, shift and circle systems, their products and the products' tails
keyed_systems = st.one_of(
    finite_rule_systems(), shift_systems, circle_systems(),
    product_parts(("finite", "shift")), product_parts(("shift", "circle")),
    product_parts(("finite", "circle", "finite")),
    st.builds(mp.tail, product_parts(("finite", "circle")), st.integers(2, 5)),
    st.builds(mp.tail, product_parts(("shift", "finite")), st.integers(2, 5)),
)


class TestFoldedClasses:
    @given(composed_systems, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_folded_classes_match_the_composition_walk(self, spec, H):
        # the same maps, the same times and the same order of first occurrence
        assert list(ht.prefix_classes(spec, H).items()) == composition_walk(spec, H)

    @given(keyed_systems, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_group_keys_name_the_walked_maps(self, spec, H):
        """Each prefix_groups key stands for its walked map (key_map), with
        its times in order; prefix_classes holds those maps and masks."""
        walk = composition_walk(spec, H)
        groups = ht.prefix_groups(spec, H)
        assert [(ht.key_map(spec.space, key), times) for key, times in groups.items()] == walk
        assert list(ht.prefix_classes(spec, H).items()) == walk

    @pytest.mark.parametrize("spec", [
        mp.tail(mp.iterate(mp.NdsSpec(sp.FiniteSpace(4), (
            mp.Rule(mp.ArithProgPattern(3, 3), mp.FiniteFnTerm((2, 3, 1, 1))),
            mp.Rule(mp.PowerPattern(2, 0), mp.FiniteFnTerm((4, 4, 1, 2))),
        ), mp.FiniteFnTerm((2, 1, 4, 3))), 3), 4),
        mp.ProductSpec((
            mp.NdsSpec(sp.FiniteSpace(2), (), mp.FiniteFnTerm((2, 1))),
            mp.tail(mp.NdsSpec(sp.FiniteSpace(3), (
                mp.Rule(mp.EqualsPattern(7), mp.FiniteFnTerm((1, 1, 2))),
            ), mp.FiniteFnTerm((2, 3, 1))), 5),
        )),
    ], ids=["tail-of-iterate", "product"])
    def test_finite_classes_compose_no_maps(self, spec):
        """Finite tables are filled and folded as tuples: no time reaches
        eval_term, window_compose or compose."""
        with (mock.patch.object(mp, "eval_term", wraps=mp.eval_term) as eval_term,
              mock.patch.object(mp, "window_compose", wraps=mp.window_compose) as window,
              mock.patch.object(mp, "compose", wraps=mp.compose) as compose):
            classes = ht.prefix_classes(spec, 300)
        assert eval_term.call_count == window.call_count == compose.call_count == 0
        assert list(classes.items()) == composition_walk(spec, 300)

    def test_a_finite_tail_composes_a_bounded_number_of_times_per_time(self):
        """Recomposing f_1^n from the start for every n costs about H^2 / 2
        composes on a tail of a finite system; the fold costs a few per time."""
        H = 2000
        cycle = mp.NdsSpec(sp.FiniteSpace(5), (), mp.FiniteFnTerm((2, 3, 4, 5, 1)))
        spec = mp.tail(cycle, 3)
        with mock.patch.object(mp, "compose", wraps=mp.compose) as compose:
            classes = ht.prefix_classes(spec, H)
        assert compose.call_count <= 3 * H
        assert list(classes.values()) == [bits(range(t, H + 1, 5)) for t in range(1, 6)]


def constant_power(space):
    term = mp.ShiftPowTerm if isinstance(space, sp.ShiftSpace) else mp.RotPowTerm
    return st.integers(-3, 3).map(lambda c: mp.NdsSpec(space, (), term(c)))


# systems whose exponent law derives: telescoping progressions and constant
# powers (their nested tails too) and telescoping power patterns
lawful_systems = st.one_of(
    shift_pow(),
    st.builds(
        lambda spec, a, b: mp.tail(mp.tail(spec, a), b),
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
    assert law is not None
    right = law.value(n)
    wrong = mp.LawPiece(mp.EqualsPattern(n), 0, right + off)
    with mock.patch.object(mp, "law_candidate", lambda spec, horizon: [wrong, *law.pieces]):
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
    st.just(mp.ArithProgPattern(1, 1)),
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
        for upto in sorted(stops):
            assert mp.prefix_exponents(spec, upto) == stepwise_exponents(spec, upto)

    @given(st.lists(st.tuples(patterns, rule_terms), max_size=4), st.integers(-3, 3),
           st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_circle_and_derived_arrays_match_the_stepwise_dispatch(self, rules, default, H):
        rot = [(p, mp.FamilyTerm("rot", t.coeff, t.add) if isinstance(t, mp.FamilyTerm)
                else mp.RotPowTerm(t.exponent)) for p, t in rules]
        spec = with_overlaps(sp.CircleSpace(), (mp.Rule(p, t) for p, t in rot), mp.RotPowTerm(default))
        base = stepwise_exponents(spec, 3 * H + 4)
        assert mp.prefix_exponents(spec, H) == base[: H + 1]
        assert mp.prefix_exponents(mp.tail(spec, 4), H) == [e - base[3] for e in base[3: H + 4]]
        assert mp.prefix_exponents(mp.iterate(spec, 3), H) == base[: 3 * H + 1: 3]

    def test_a_law_missing_an_index_raises_the_uncovered_text(self):
        spec = mp.NdsSpec(SHIFT, (), mp.ShiftPowTerm(0))
        partial = [mp.LawPiece(mp.ArithProgPattern(1, 2), 0, 0)]  # n = 2 is uncovered
        with mock.patch.object(mp, "law_candidate", lambda spec, horizon: partial):
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
    systems = [ap, power, constant, mp.tail(ap, 3), mp.tail(mp.tail(constant, 2), 3),
               mp.iterate(power, 2), mp.iterate(mp.tail(ap, 2), 3)]
    expected = [mp.prefix_exponents(spec, 300) for spec in systems]

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
    for spec in (finite, product, mp.tail(product, 2)):
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


def open_sets(space):
    """Opens beyond the basis: off-centre cylinders and centred words of
    any odd width, finite sets of several points, arcs of any centre and
    radius, and rectangles of these."""
    if isinstance(space, sp.ShiftSpace):
        word = st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple)
        centred = word.filter(lambda w: len(w) % 2).map(lambda w: sp.Cylinder(-(len(w) // 2), w))
        return st.one_of(st.builds(sp.Cylinder, st.integers(-5, 5), word), centred)
    if isinstance(space, sp.FiniteSpace):
        return st.frozensets(st.integers(1, space.point_count), min_size=1).map(sp.FiniteSet)
    if isinstance(space, sp.CircleSpace):
        centre = st.builds(sp.AffineAngle, st.fractions(0, 1, max_denominator=8), st.integers(-2, 2))
        return st.builds(sp.Arc, centre, st.fractions(Fraction(1, 64), Fraction(1, 4), max_denominator=64))
    return st.tuples(*(open_sets(part) for part in space.parts)).map(sp.ProductOpen)


def open_lists(space):
    """One to three opens beyond the basis (open_sets); on the shift half
    the draws put them all on one window, which the overlap join reads."""
    anywhere = st.lists(open_sets(space), min_size=1, max_size=3)
    if not isinstance(space, sp.ShiftSpace):
        return anywhere
    words = st.integers(1, 4).flatmap(lambda w: st.lists(
        st.lists(st.integers(0, 1), min_size=w, max_size=w), min_size=1, max_size=3))
    shared = st.builds(lambda start, ws: [sp.Cylinder(start, w) for w in ws], st.integers(-4, 4), words)
    return st.one_of(anywhere, shared)


mixed_products = st.tuples(shift_systems, finite_systems()).map(mp.ProductSpec)
derived_products = st.one_of(product_systems, mixed_products).flatmap(
    lambda spec: st.one_of(
        st.just(spec),
        st.integers(2, 5).map(lambda k: mp.tail(spec, k)),
        st.integers(2, 3).map(lambda k: mp.iterate(spec, k)),
    )
)


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

    @given(st.data(), st.one_of(
        st.tuples(shift_systems, st.integers(1, 24)),
        st.tuples(circle_systems(), st.integers(1, 24)),
        st.tuples(finite_systems(), st.integers(1, 16)),
        st.tuples(derived_products, st.integers(1, 5)),
    ), st.one_of(DELTAS, st.just(Fraction(3))))
    @settings(max_examples=100, deadline=None)
    def test_separation_set_of_any_open_matches_per_time_reference(self, data, case, delta):
        spec, H = case
        U = data.draw(open_sets(spec.space))
        got = ht.separation_set(spec, U, delta, H)
        assert got == reference_set("separation", spec, U, H, delta=delta)

    @given(st.data(), st.one_of(
        st.tuples(shift_systems, st.integers(1, 16)),
        st.tuples(circle_systems(), st.integers(1, 16)),
        st.tuples(finite_systems(), st.integers(1, 12)),
        st.tuples(derived_products, st.integers(1, 5)),
        st.tuples(product_parts(("circle", "finite")), st.integers(1, 5)),
        st.tuples(product_parts(("shift", "circle")), st.integers(1, 5)),
    ))
    @settings(max_examples=100, deadline=None)
    def test_many_opens_by_many_targets_match_the_per_time_reference(self, data, case):
        spec, H = case
        us, vs = data.draw(open_lists(spec.space)), data.draw(open_lists(spec.space))
        hits, undecided = ht.pair_masks(spec, us, vs, H)
        assert len(hits) == len(us) * len(vs) and set(undecided) <= set(range(len(hits)))
        assert all(undecided.values())
        hits, undecided = (by_pair(masks, len(us), len(vs)) for masks in (hits, undecided))
        assert list(hits) == list(product(range(len(us)), range(len(vs))))
        for (i, j), mask in hits.items():
            reference = reference_set("hitting", spec, us[i], H, V=vs[j])
            assert mask == bits(reference.members) == bits(ht.brute_force_hitting(spec, us[i], vs[j], H))
            assert undecided.get((i, j), 0) == bits(reference.inconclusive), (i, j)

    @given(st.data(), system_cases())
    @settings(max_examples=60, deadline=None)
    def test_a_basis_against_one_target_matches_the_per_time_reference(self, data, case):
        """The corpus gap bound's shape: the basis against one target, a
        column of one mask per open."""
        spec, r, H = case
        basis = sp.enumerate_basis(spec.space, r)
        target = data.draw(st.one_of(opens(spec.space, r), open_sets(spec.space)))
        hits, undecided = ht.pair_masks(spec, basis, (target,), H)
        assert len(hits) == len(basis) and set(undecided) <= set(range(len(basis)))
        undecided = by_pair(undecided, len(basis), 1)
        for (i, _), mask in by_pair(hits, len(basis), 1).items():
            reference = reference_set("hitting", spec, basis[i], H, V=target)
            assert mask == bits(reference.members)
            assert undecided.get((i, 0), 0) == bits(reference.inconclusive), i

    @pytest.mark.parametrize("alpha", CUSTOM_ALPHAS, ids=lambda a: str(a.center))
    def test_a_declared_angle_part_folds_its_undecided_times_by_index(self, alpha):
        """A product's undecided times come from its declared-angle part,
        folded pair index by pair index in part order."""
        circle = mp.NdsSpec(sp.CircleSpace(alpha), (), mp.RotPowTerm(1))
        finite = mp.NdsSpec(sp.FiniteSpace(2), (mp.Rule(mp.EqualsPattern(3), mp.FiniteFnTerm((1, 1))),),
                            mp.FiniteFnTerm((2, 1)))
        H = 12
        for spec in (mp.ProductSpec((circle, finite)), mp.ProductSpec((finite, circle))):
            basis = sp.enumerate_basis(spec.space, 2)
            hits, undecided = ht.pair_masks(spec, basis, basis, H)
            assert undecided  # the fold really meets undecided times
            undecided = by_pair(undecided, len(basis))
            for (i, j), mask in by_pair(hits, len(basis)).items():
                reference = reference_set("hitting", spec, basis[i], H, V=basis[j])
                assert mask == bits(reference.members), (i, j)
                assert undecided.get((i, j), 0) == bits(reference.inconclusive), (i, j)

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

    @given(system_cases())
    @settings(max_examples=60, deadline=None)
    def test_almost_periodic_returns_match_the_stepwise_orbit(self, case):
        spec, r, H = case
        x = ck._representatives(spec.space)[0]
        verdict = ck.check_property(spec, ck.PropertyKind("almost-periodic-point"), r, H)
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
        common = reduce(and_, masks)
        for j in range(1, m + 1):
            assert ck._slot(common, j, H) == slot_walk(common, j, H)
        assert ck._universal_l(masks, m, H) == universal_walk(masks, m, H)

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

    # the scale of the orbit-scan benchmark: horizons 1024 and 2048, windows 1..4
    @pytest.mark.parametrize("name", ["Shift", "Back2", "Telescoping", "TelescopingTail", "Mod3"])
    def test_equicontinuity_modulus_matches_the_window_double_loop_at_scale(self, name):
        doc = ndsl.parse(
            "space shift(2);\n"
            "system Shift { else: sigma^1; }\n"
            "system Back2 { else: sigma^-2; }\n"
            "system Telescoping { at ap(3,2,k): sigma^k; at ap(4,2,k): sigma^-k; }\n"
            "system TelescopingTail = tail(Telescoping, 2);\n"
            "system Mod3 { at ap(1,3): sigma^1; at ap(2,3): sigma^2; else: sigma^-1; }\n"
        )
        spec, eps = doc.system(name), Fraction(1, 8)
        for H in (1024, 2048):
            for k in range(1, 5):
                assert cv.equicontinuity_modulus(spec, eps, k, H) == equicontinuity_window_loop(spec, eps, k, H)


# the stepwise oracles, the per-step question of surjectivity, the orbit fold
# that re-checks a minimal refutation, the table law's lead walk and
# step_normal itself
STEP_FOLDS = {
    "orbit_distance_trace", "_verify_itineraries", "brute_force_hitting", "_check_surjective",
    "_orbit_misses", "step_normal",
}


# the functions that compose f_1^n one time at a time: the table fold behind
# the finite prefix classes (off step_tables) and the evidence re-check
# (off prefix_compose); laws, shift and circle classes, equicontinuity, the
# Li-Yorke tail and the lemma-2.1 time search read prefix_exponents,
# products zip their parts' keys, and the corpus interleave check reads
# prefix_classes
PREFIX_WALKS = {"prefix_tables", "_all_meet"}


def owned_nodes():
    """(owner, node) for every AST node of the package: owner is the
    innermost function around the node, or "<file> (module level)"."""

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        yield owner, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        yield from visit(ast.parse(path.read_text()), f"{path.name} (module level)")


def names(node, name: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == name or (
        isinstance(node, ast.Name) and node.id == name
    )


def readers_of(name: str) -> set:
    """The functions of the package (or "<file> (module level)") whose body
    names `name`, as a call or a reference."""
    return {owner for owner, node in owned_nodes() if names(node, name)}


def callers_of(name: str) -> set:
    """The functions of the package (or "<file> (module level)") whose body
    calls `name`."""
    return {
        owner for owner, node in owned_nodes() if isinstance(node, ast.Call) and names(node.func, name)
    }


def test_only_the_oracles_and_per_step_questions_read_step_maps():
    """Verdict and scan paths take f_1^n from prefix_compose or prefix_classes;
    a function that reads step_normal is one of the named stepwise paths."""
    assert readers_of("step_normal") == STEP_FOLDS


def test_only_the_named_walks_compose_prefix_maps():
    """derive_exponent_law and the shift and circle prefix classes read the
    one prefix-exponent array; a function that calls prefix_compose or folds
    step_tables is one of the named walks."""
    assert readers_of("prefix_compose") | readers_of("step_tables") == PREFIX_WALKS


def test_only_check_property_makes_a_verdict():
    """A checker returns (status, evidence, caveats) and takes no
    configuration; check_property adds the property's rendering and the
    configuration in the one Verdict call.  A checker that defers to another
    passes its own property, and builds none."""
    assert callers_of("Verdict") == {"check_property"}
    assert not {owner for owner in callers_of("PropertyKind") if owner.startswith("_check_")}
    checkers = [node for _, node in owned_nodes() if isinstance(node, ast.FunctionDef)
                and node.name.startswith(("_check_", "_refute_"))]
    assert checkers
    assert not [node.name for node in checkers if "cfg" in (arg.arg for arg in node.args.args)]


def test_only_the_position_method_makes_a_diagnostic():
    """A diagnostic's line and column are counted from a token's offset in
    one place, _Parser.diagnostic; the lexer and every other parse rule pass
    it an offset ("document declares no space" passes 0, which is 1:1)."""
    assert callers_of("Diagnostic") == {"diagnostic"}


def test_chaos_reads_only_maps_and_spaces():
    """The Li-Yorke scan and the lemma-2.1 construction run on the shift:
    chaos imports no hit kernel and no checker."""
    tree = ast.parse(Path(chaos.__file__).read_text())
    package = {node.module or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    assert package == {"maps", "spaces", "record"}


def test_only_the_named_kernels_walk_prefix_groups():
    """Every hit question reads pair_masks: a function that walks the
    prefix groups is the hit kernel, the separation kernel or the orbit
    readers' prefix_classes."""
    assert readers_of("prefix_groups") == {"pair_masks", "separation_mask", "prefix_classes"}
