"""Verdict engine: witnessed/refuted semantics, structural soundness, and
the hierarchy coherence between properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndslab import checkers as ck
from ndslab import hitting as ht
from ndslab import maps as mp
from ndslab import ndsl
from ndslab import spaces as sp

SHIFT = sp.ShiftSpace()


def ex31():
    return mp.NdsSpec(SHIFT, (
        mp.Rule(mp.ArithProgPattern(3, 2), mp.FamilyTerm("shift", 1)),
        mp.Rule(mp.ArithProgPattern(4, 2), mp.FamilyTerm("shift", -1)),
    ), name="example-3.1")


def ex36():
    return mp.NdsSpec(SHIFT, (
        mp.Rule(mp.ArithProgPattern(1, 2), mp.FamilyTerm("shift", 1)),
        mp.Rule(mp.ArithProgPattern(2, 2), mp.FamilyTerm("shift", -1)),
    ), name="example-3.6")


def ex38():
    return mp.NdsSpec(sp.CircleSpace(), (
        mp.Rule(mp.PowerPattern(3, 0), mp.FamilyTerm("rot", 1)),
        mp.Rule(mp.PowerPattern(3, 1), mp.FamilyTerm("rot", -1)),
    ), name="example-3.8")


def ex35():
    cyc = mp.FiniteFnTerm((2, 3, 1))
    return mp.NdsSpec(sp.FiniteSpace(3),
                      tuple(mp.Rule(mp.EqualsPattern(i), cyc) for i in (1, 2, 3)),
                      name="example-3.5")


CONST_SIGMA = mp.NdsSpec(SHIFT, (), mp.ShiftPowTerm(1), name="constant-shift")
CONST_ID_FINITE = mp.NdsSpec(sp.FiniteSpace(3), (), mp.IDENTITY, name="constant-id")


def recheck_witness_entries(spec, verdict):
    """Soundness oracle: re-run the exact membership test behind every
    recorded witness entry."""
    basis = sp.enumerate_basis(spec.space, verdict.config["basis"])
    for key, n in verdict.evidence.get("witness_times", {}).items():
        i, j = (int(p) for p in key.split("->"))
        m = mp.prefix_compose(spec, n)
        assert sp.intersects(spec.space, mp.image(m, basis[i]), basis[j])


def recheck_refutation(spec, verdict):
    """Soundness oracle: a structural refutation must cite a law that
    re-validates, and its open-set conflict must re-check."""
    text = str(verdict.evidence)
    assert "structural" in verdict.evidence or "structural" in text
    law = mp.derive_exponent_law(spec, verdict.config["law_horizon"]) if not isinstance(
        spec, mp.ProductSpec
    ) else None
    if "validated to" in text and law is not None:
        assert f"validated to {law.validated_up_to}" in law.describe()
    pair = verdict.evidence.get("refuting_pair")
    if pair:
        basis = sp.enumerate_basis(spec.space, verdict.config["basis"])
        idx = [int(lbl.split(":")[0][1:]) for lbl in pair]
        assert not sp.intersects(spec.space, basis[idx[0]], basis[idx[1]])


class TestTransitive:
    def test_witnessed_entries_recheck(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("transitive"), 1, 32)
        assert v.witnessed
        recheck_witness_entries(CONST_SIGMA, v)

    def test_identity_refuted_structurally(self):
        spec = mp.NdsSpec(SHIFT, (), mp.IDENTITY)
        v = ck.check_property(spec, ck.PropertyKind("transitive"), 1, 32)
        assert v.refuted
        recheck_refutation(spec, v)

    def test_finite_identity_refuted(self):
        v = ck.check_property(CONST_ID_FINITE, ck.PropertyKind("transitive"), 1, 16)
        assert v.refuted

    def test_deterministic(self):
        a = ck.check_property(ex36(), ck.PropertyKind("transitive"), 2, 64)
        b = ck.check_property(ex36(), ck.PropertyKind("transitive"), 2, 64)
        assert a == b


class TestMultiTransitive:
    def test_example_31_refuted_with_even_law(self):
        v = ck.check_property(ex31(), ck.PropertyKind("multi-transitive", order=2), 1, 64)
        assert v.refuted
        assert "multiple of 2" in v.evidence["structural"]
        recheck_refutation(ex31(), v)

    def test_tail_witnessed_at_low_resolution(self):
        v = ck.check_property(mp.TailSpec(ex31(), 2), ck.PropertyKind("multi-transitive", order=3),
                              1, 512)
        assert v.witnessed

    def test_example_36_refuted(self):
        v = ck.check_property(ex36(), ck.PropertyKind("multi-transitive", order=2), 1, 64)
        assert v.refuted


class TestWeaklyMixing:
    def test_order_above_the_pair_count_reads_every_pair(self):
        # 4 basis pairs, hit on alternate times: no m-tuple of pairs shares
        # a time once it holds (1, 1) and (1, 2), whatever m is
        swap = mp.NdsSpec(sp.FiniteSpace(2), (), mp.FiniteFnTerm((2, 1)))
        v = ck.check_property(swap, ck.PropertyKind("weakly-mixing", order=5), 1, 16)
        assert v.status == ck.INCONCLUSIVE
        assert v.evidence["failing_tuple"] == ["(0, 0)", "(0, 1)", "(1, 0)", "(1, 1)"]


class TestMinimal:
    def test_finite_examples(self):
        t1, t2 = mp.FiniteFnTerm((1, 1)), mp.FiniteFnTerm((2, 2))
        ex33 = mp.NdsSpec(sp.FiniteSpace(2), (mp.Rule(mp.EqualsPattern(1), t1),), t2)
        assert ck.check_property(ex33, ck.PropertyKind("minimal"), 1, 10).witnessed
        limit = mp.NdsSpec(sp.FiniteSpace(2), (), t2)
        assert ck.check_property(limit, ck.PropertyKind("minimal"), 1, 10).refuted

    def test_shift_fixed_point_refutes(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("minimal"), 1, 64)
        assert v.refuted
        assert "shift-invariant" in v.evidence["structural"]


class TestMixingFamily:
    def test_constant_shift_mixing(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("mixing"), 1, 32)
        assert v.witnessed
        assert any("censored" in c for c in v.caveats)

    def test_example_36_mixing_refuted(self):
        v = ck.check_property(ex36(), ck.PropertyKind("mixing"), 1, 64)
        assert v.refuted
        assert "mod 2" in v.evidence["structural"]

    def test_mildly_mixing_tracks_mixing_without_isolated_points(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("mildly-mixing"), 1, 32)
        assert v.witnessed
        assert any("equivalence" in c for c in v.caveats)

    def test_mildly_mixing_on_finite_space_inconclusive_or_refuted(self):
        v = ck.check_property(ex35(), ck.PropertyKind("mildly-mixing"), 1, 16)
        assert v.status in (ck.REFUTED, ck.INCONCLUSIVE)
        assert any("isolated" in c for c in v.caveats)


class TestSensitivity:
    def test_delta_above_diameter_trivially_refuted(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("sensitive", delta=Fraction(4)), 1, 16)
        assert v.refuted
        assert any("trivial" in c for c in v.caveats)

    def test_finite_spaces_never_sensitive(self):
        v = ck.check_property(ex35(), ck.PropertyKind("sensitive", delta=Fraction(1, 2)), 1, 16)
        assert v.refuted
        assert "singleton" in v.evidence["structural"]

    def test_rotations_below_delta_refuted(self):
        # arcs at resolution 4 have diameter 1/4 < 1/3 < the space diameter
        v = ck.check_property(ex38(), ck.PropertyKind("sensitive", delta=Fraction(1, 3)), 4, 16)
        assert v.refuted
        assert "preserve" in v.evidence["structural"]

    def test_multi_sensitive_on_shift(self):
        prop = ck.PropertyKind("multi-sensitive", delta=Fraction(1, 2), order=3)
        v = ck.check_property(ex36(), prop, 2, 64)
        assert v.witnessed

    def test_thickly_sensitive_refuted_by_parity(self):
        prop = ck.PropertyKind("thickly-sensitive", delta=Fraction(1, 2))
        v = ck.check_property(ex36(), prop, 3, 64)
        assert v.refuted

    def test_thickly_sensitive_witnessed_on_mixing_shift(self):
        prop = ck.PropertyKind("thickly-sensitive", delta=Fraction(1, 4))
        v = ck.check_property(CONST_SIGMA, prop, 2, 64)
        assert v.witnessed


class TestStronglyTransitive:
    def test_three_cycle(self):
        spec = mp.NdsSpec(sp.FiniteSpace(3), (), mp.FiniteFnTerm((2, 3, 1)))
        v = ck.check_property(spec, ck.PropertyKind("strongly-transitive"), 1, 32)
        assert v.witnessed and v.evidence["cover_bound"] == 3

    def test_two_cycles_refuted(self):
        spec = mp.NdsSpec(sp.FiniteSpace(4), (), mp.FiniteFnTerm((2, 1, 4, 3)))
        v = ck.check_property(spec, ck.PropertyKind("strongly-transitive"), 1, 32)
        assert v.refuted

    def test_shift_refuted_by_constant_point(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("strongly-transitive"), 1, 32)
        assert v.refuted
        assert "constant" in v.evidence["structural"]

    def test_finite_product_cover_witnessed(self):
        # prefixes are (swap^(n-1), cycle^n): by n = 6 every id pair is reached
        swap_late = mp.NdsSpec(sp.FiniteSpace(2), (
            mp.Rule(mp.EqualsPattern(1), mp.IDENTITY),
        ), mp.FiniteFnTerm((2, 1)))
        cycle = mp.NdsSpec(sp.FiniteSpace(3), (), mp.FiniteFnTerm((2, 3, 1)))
        v = ck.check_property(mp.ProductSpec((swap_late, cycle)),
                              ck.PropertyKind("strongly-transitive"), 1, 16)
        assert v.witnessed
        assert v.evidence["cover_bound_per_open"] == {str(i): 6 for i in range(6)}

    def test_shift_product_inconclusive(self):
        v = ck.check_property(
            mp.ProductSpec((CONST_SIGMA, CONST_SIGMA)), ck.PropertyKind("strongly-transitive"), 1, 16
        )
        assert v.status == ck.INCONCLUSIVE
        assert v.caveats == ("no exact cover check for products with a shift or circle factor",)


class TestDensePeriodic:
    def test_circle_two_periodicity(self):
        v = ck.check_property(ex38(), ck.PropertyKind("dense-periodic-points"), 4, 32, law_horizon=2200)
        assert v.witnessed and v.evidence["period"] == 2

    def test_constant_shift_periodic_words(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("dense-periodic-points"), 2, 32)
        assert v.witnessed


class TestSurjectiveAndFeeble:
    def test_shift_powers_surjective(self):
        assert ck.check_property(ex31(), ck.PropertyKind("surjective-sequence"), 1, 16).witnessed

    def test_non_surjective_table_refuted(self):
        bad = mp.NdsSpec(sp.FiniteSpace(2), (mp.Rule(mp.EqualsPattern(1), mp.FiniteFnTerm((1, 1))),))
        v = ck.check_property(bad, ck.PropertyKind("surjective-sequence"), 1, 16)
        assert v.refuted and v.evidence["index"] == 1

    def test_feeble_open_everywhere(self):
        for spec in (ex31(), ex35(), ex38()):
            assert ck.check_property(spec, ck.PropertyKind("feeble-open"), 1, 8).witnessed


class TestGapAdversary:
    def test_law_matches_step_fold(self):
        miss = [4, 8, 16, 32, 64]
        adv, law = ck.build_gap_adversary(miss, law_horizon=128)
        acc = mp.identity_map(SHIFT)
        for n in range(1, 129):
            acc = mp.compose(mp.step_normal(adv, n), acc)
            want = n if n in miss else 0
            assert acc.exponent == want
            assert law.value(n) == want

    def test_empty_miss_list(self):
        adv, law = ck.build_gap_adversary([], law_horizon=16)
        assert mp.prefix_compose(adv, 10) == mp.ShiftPowMap(0)

    def test_gap_precondition(self):
        with pytest.raises(ValueError):
            ck.build_gap_adversary([4, 6])

    def test_product_with_base_refuted(self):
        adv, _ = ck.build_gap_adversary(list(range(4, 130, 4)), law_horizon=160)
        prod = mp.ProductSpec((ex36(), adv))
        v = ck.check_property(prod, ck.PropertyKind("transitive"), 1, 128, law_horizon=160)
        assert v.refuted
        assert "parity" in v.evidence["structural"]


class TestConsistency:
    def test_tail_31_multi_transitive(self):
        rep = ck.hitting_infinity_consistency(
            mp.TailSpec(ex31(), 2), ck.PropertyKind("multi-transitive", order=2), 1, 256, 5
        )
        assert rep.ok and rep.kth_common_time is not None

    def test_constant_shift_weak_mixing(self):
        rep = ck.hitting_infinity_consistency(
            CONST_SIGMA, ck.PropertyKind("weakly-mixing", order=2), 1, 128, 10)
        assert rep.ok

    def test_precondition_failure_reported(self):
        two_id = mp.NdsSpec(sp.FiniteSpace(2), (), mp.IDENTITY)
        rep = ck.hitting_infinity_consistency(
            two_id, ck.PropertyKind("weakly-mixing", order=2), 1, 32, 3)
        assert not rep.ok and "precondition" in rep.detail


class TestHierarchyCoherence:
    SYSTEMS = None

    def _systems(self):
        return [CONST_SIGMA, ex36(), ex31(), mp.TailSpec(ex31(), 2)]

    def test_mixing_implies_weak_mixing_not_refuted(self):
        for spec in self._systems():
            mix = ck.check_property(spec, ck.PropertyKind("mixing"), 1, 128)
            if mix.witnessed:
                wm = ck.check_property(spec, ck.PropertyKind("weakly-mixing", order=2), 1, 128)
                assert wm.status != ck.REFUTED

    def test_higher_weak_mixing_implies_lower(self):
        for spec in self._systems():
            wm3 = ck.check_property(spec, ck.PropertyKind("weakly-mixing", order=3), 1, 128)
            if wm3.witnessed:
                wm2 = ck.check_property(spec, ck.PropertyKind("weakly-mixing", order=2), 1, 128)
                assert wm2.witnessed

    def test_multi_transitive_implies_transitive(self):
        for spec in self._systems():
            mt = ck.check_property(spec, ck.PropertyKind("multi-transitive", order=2), 1, 256)
            if mt.witnessed:
                assert ck.check_property(spec, ck.PropertyKind("transitive"), 1, 512).witnessed

    def test_tail_verdicts_are_independent(self):
        base_refuted = ck.check_property(
            ex31(), ck.PropertyKind("multi-transitive", order=2), 1, 64).refuted
        tail_witnessed = ck.check_property(
            mp.TailSpec(ex31(), 2), ck.PropertyKind("multi-transitive", order=2), 1, 256
        ).witnessed
        assert base_refuted and tail_witnessed


class TestAlmostPeriodic:
    def test_rotation_orbit_returns(self):
        spec = mp.NdsSpec(sp.CircleSpace(), (), mp.RotPowTerm(1))
        v = ck.check_property(
            spec, ck.PropertyKind("almost-periodic-point", point=sp.AffineAngle(Fraction(0), 0)), 1, 128
        )
        assert v.witnessed
        assert "per_epsilon" in v.evidence

    def test_escaping_orbit_inconclusive(self):
        x = sp.BiWord.from_window(0, (1,), 0)
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("almost-periodic-point", point=x), 1, 64)
        assert v.status in (ck.WITNESSED, ck.INCONCLUSIVE)


class TestParameterValidation:
    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            ck.PropertyKind("weakly-mixing", order=1)
        with pytest.raises(ValueError):
            ck.PropertyKind("multi-transitive", order=0)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            ck.PropertyKind("sensitive", delta=Fraction(0))

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            ck.check_property(CONST_SIGMA, ck.PropertyKind("nonsense"), 1, 8)


TAIL_OF_PRODUCT = """space shift(2);
system F { at ap(1,2,k): sigma^k; at ap(2,2,k): sigma^-k; }
system G { else: sigma^1; }
system P = product(F, G);
system T = tail(P, 3);
system I = iterate(P, 2);
"""


@pytest.mark.parametrize("name", ["T", "I"])
def test_derived_products_get_verdicts_that_recheck(name):
    """A tail or iterate of a product keys its classes by product maps; its
    pair masks come from the parts' tails or iterates, as the per-time test
    decides them."""
    spec = ndsl.parse(TAIL_OF_PRODUCT).system(name)
    v = ck.check_property(spec, ck.PropertyKind("transitive"), 1, 16)
    assert ck.recheck_verdict(spec, v)
    basis, masks = ck._pair_masks(spec, 1, 16)
    for (i, j), mask in sorted(masks.items())[::17]:  # 241 of the 4096 pairs
        hits = sum(
            1 << n for n in range(1, 17)
            if sp.intersects(spec.space, mp.image(mp.prefix_compose(spec, n), basis[i]), basis[j])
        )
        assert mask == hits, (i, j)


# ---------------------------------------------------------------------------
# structural reasons decided once per group of pairs


@st.composite
def ap_shifts(draw):
    """Paired progressions sigma^(ck) / sigma^(-ck): exponent laws that are
    zero on some residues, so parity coverage can or cannot be claimed."""
    step = draw(st.integers(2, 3))
    a, b = draw(st.lists(st.integers(1, step), min_size=2, max_size=2, unique=True))
    c = draw(st.integers(1, 2))
    return mp.NdsSpec(SHIFT, (
        mp.Rule(mp.ArithProgPattern(a, step), mp.FamilyTerm("shift", c)),
        mp.Rule(mp.ArithProgPattern(b, step), mp.FamilyTerm("shift", -c)),
    ))


circles = st.integers(-2, 2).map(lambda c: mp.NdsSpec(sp.CircleSpace(), (), mp.RotPowTerm(c)))

products = st.one_of(
    st.tuples(ap_shifts(), ap_shifts()).map(mp.ProductSpec),
    st.tuples(ap_shifts(), circles).map(mp.ProductSpec),
    st.tuples(ap_shifts(), st.just(mp.NdsSpec(SHIFT, (), mp.IDENTITY))).map(mp.ProductSpec),
)


class TestGroupedReasons:
    @given(products)
    @settings(max_examples=25, deadline=None)
    def test_product_pairs_with_one_signature_share_one_reason(self, spec):
        laws = mp.derive_laws(spec, 256)
        basis = sp.enumerate_basis(spec.space, sp.min_resolution(spec.space))
        sides, reasons = {}, {}
        for U in basis[::3]:
            for V in basis:
                signature = ck._pair_signature(spec, laws, U, V, sides)
                reasons.setdefault(signature, set()).add(ck._never_hits(spec, laws, U, V))
        assert all(len(found) == 1 for found in reasons.values())

    @given(products, st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_transitive_refutes_with_the_first_pair_a_walk_refutes(self, spec, H):
        laws = mp.derive_laws(spec, 256)
        prop = ck.PropertyKind("transitive")
        r = sp.min_resolution(spec.space)
        v = ck.check_property(spec, prop, r, H, laws=laws)
        basis, masks = ck._pair_masks(spec, r, H)
        walk = (
            ck._refute_pair(spec, laws, prop, v.config, basis, i, j)
            for (i, j), mask in sorted(masks.items()) if mask == 0
        )
        first = next((refuted for refuted in walk if refuted), None)
        if first is None:
            assert v.status != ck.REFUTED
        else:
            assert v == first

    @given(st.one_of(ap_shifts(), circles), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_without_a_table_law_tags_read_only_disjointness(self, spec, r):
        laws = mp.derive_laws(spec, 256)
        basis = sp.enumerate_basis(spec.space, max(r, sp.min_resolution(spec.space)))
        tags = {}
        for U in basis:
            for V in basis:
                disjoint = ck._disjoint(spec.space, U, V)
                tags.setdefault(disjoint, set()).add(ht._structural_tag("hitting", spec, laws, U, V))
        assert all(len(found) == 1 for found in tags.values())
