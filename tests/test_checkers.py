"""Verdict engine: witnessed/refuted semantics, structural soundness, and
the hierarchy coherence between properties."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_, or_
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st
from pairs import by_pair

from ndslab import checkers as ck
from ndslab import corpus
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
CYCLE = mp.NdsSpec(sp.FiniteSpace(3), (), mp.FiniteFnTerm((2, 3, 1)), name="3-cycle")


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


def replace(obj, **changes):
    """A copy of the record `obj` with some fields changed."""
    return type(obj)(**{**vars(obj), **changes})


def with_evidence(verdict, **changes):
    """The verdict with some evidence fields replaced."""
    return replace(verdict, evidence={**verdict.evidence, **changes})


class TestRecheckVerdict:
    """recheck_verdict accepts true evidence and rejects each corruption.
    At resolution 1 on the shift, sigma(B0) (cells -1..1 all 0) still pins
    cells -1 and 0 to 0, so time 1 never moves B0 onto B7 (all 1)."""

    @pytest.mark.parametrize("prop", ["transitive", "mixing", "weakly-mixing", "multi-transitive:2"])
    def test_witnessed_evidence_rechecks(self, prop):
        v = ck.check_property(CONST_SIGMA, ndsl.read_property(prop), 1, 64)
        assert v.witnessed and ck.recheck_verdict(CONST_SIGMA, v)

    @pytest.mark.parametrize("prop, field, value", [
        ("transitive", "witness_times", {"0->7": 1}),
        ("mixing", "tail_start_per_pair", {"0->7": 1}),
        ("multi-transitive:2", "witness_l_per_order", {"2": 1}),
        ("weakly-mixing", "common_time_all_pairs", 1),
    ])
    def test_a_corrupted_witness_fails(self, prop, field, value):
        v = ck.check_property(CONST_SIGMA, ndsl.read_property(prop), 1, 64)
        assert field in v.evidence
        assert not ck.recheck_verdict(CONST_SIGMA, with_evidence(v, **{field: value}))

    @pytest.mark.parametrize("law_horizon", [256, 2048])
    def test_a_refutation_cites_the_law_at_its_own_law_horizon(self, law_horizon):
        # one law horizon reaches the law and the config: the refutation
        # cites the law validated to it, and the re-check derives that law
        F = ndsl.parse("space shift(2);\nsystem F { at 3: sigma^1; at 4: sigma^-1; }\n").system("F")
        v = ck.check_property(F, ck.PropertyKind("mixing"), 1, 64, law_horizon=law_horizon)
        assert v.refuted and v.config["law_horizon"] == law_horizon
        assert f"[validated to {law_horizon}]" in v.evidence["structural"]
        assert ck.recheck_verdict(F, v)

    def test_a_refuting_pair_of_one_open_fails(self):
        v = ck.check_property(ex31(), ck.PropertyKind("multi-transitive", order=2), 1, 64)
        assert v.refuted and ck.recheck_verdict(ex31(), v)
        first = v.evidence["refuting_pair"][0]
        assert not ck.recheck_verdict(ex31(), with_evidence(v, refuting_pair=[first, first]))

    def test_a_law_cited_for_a_system_without_one_fails(self):
        v = ck.check_property(ex31(), ck.PropertyKind("multi-transitive", order=2), 1, 64)
        assert "validated to" in v.evidence["structural"]
        # sigma^k at the k-th odd index: E is quadratic on the odd class
        lawless = mp.NdsSpec(sp.ShiftSpace(), (mp.Rule(mp.ArithProgPattern(1, 2), mp.FamilyTerm("shift", 1)),))
        assert mp.derive_exponent_law(lawless, v.config["law_horizon"]) is None
        assert not ck.recheck_verdict(lawless, v)

    @pytest.mark.parametrize("spec", [ex36(), mp.ProductSpec((ex36(), CONST_SIGMA))], ids=["F", "product"])
    def test_a_made_up_law_fails(self, spec):
        # the same pair and residue, cited with a law no derivation gives
        true = ck.check_property(spec, ck.PropertyKind("mixing"), 1, 32)
        law = mp.derive_exponent_law(ex36(), true.config["law_horizon"]).describe()
        assert true.refuted and law in true.evidence["structural"]
        assert ck.recheck_verdict(spec, true)
        forged = true.evidence["structural"].replace(law, law.replace("1*k+0", "7*k+0"))
        assert forged != true.evidence["structural"]
        assert not ck.recheck_verdict(spec, with_evidence(true, structural=forged))

    @pytest.mark.parametrize("prop", ["transitive", "weakly-mixing"])
    def test_a_refuting_pair_that_a_time_hits_fails(self, prop):
        # the cycle moves {1} onto {2} at time 1, so no argument refutes that pair
        true = ck.check_property(CONST_ID_FINITE, ndsl.read_property(prop), 1, 16)
        assert true.refuted and ck.recheck_verdict(CONST_ID_FINITE, true)
        forged = replace(true, evidence={**true.evidence, "refuting_pair": ["B0:{1}", "B1:{2}"]})
        assert not ck.recheck_verdict(CYCLE, forged)
        assert not ck.recheck_verdict(CYCLE, with_evidence(forged, refuting_pair=None))

    def test_a_finite_support_may_cite_one_open_twice_and_holds_every_hit(self):
        # {1} x {1} is hit at n = 1 only: the finite(2) factor's table law
        # proves it, and the product's hitting set lies in the factor's
        one = mp.NdsSpec(sp.FiniteSpace(1), (), mp.FiniteFnTerm((1,)))
        two = mp.NdsSpec(sp.FiniteSpace(2), (mp.Rule(mp.EqualsPattern(1), mp.FiniteFnTerm((1, 1))),),
                         mp.FiniteFnTerm((2, 2)))
        spec = mp.ProductSpec((one, two))
        true = ck.check_property(spec, ck.PropertyKind("syndetically-transitive"), 1, 64)
        assert true.refuted and true.evidence["refuting_pair"] == ["B0:{1}x{1}", "B0:{1}x{1}"]
        assert "only prefix indices [1] can ever hit" in true.evidence["structural"]
        assert ck.recheck_verdict(spec, true)
        forged = true.evidence["structural"].replace("[1]", "[2]")
        assert not ck.recheck_verdict(spec, with_evidence(true, structural=forged))

    def test_an_excluded_residue_a_time_hits_fails(self):
        # example 3.6 moves only at odd n, so its pairs miss every even n
        true = ck.check_property(ex36(), ck.PropertyKind("mixing"), 1, 64)
        assert true.refuted and "n≡0 (mod 2)" in true.evidence["structural"]
        assert ck.recheck_verdict(ex36(), true)
        forged = true.evidence["structural"].replace("n≡0", "n≡1")
        assert not ck.recheck_verdict(ex36(), with_evidence(true, structural=forged))

    def test_a_minimal_refutation_needs_a_point_whose_orbit_misses(self):
        true = ck.check_property(CONST_ID_FINITE, ck.PropertyKind("minimal"), 1, 16)
        assert true.refuted and "missed_open" not in true.evidence
        assert ck.recheck_verdict(CONST_ID_FINITE, true)
        cited_open = replace(true, evidence={"refuting_open": "B1:{2}", "structural": "forged"})
        assert not ck.recheck_verdict(CYCLE, cited_open)
        # the cycle's orbit of 1 visits every point
        assert not ck.recheck_verdict(CYCLE, true)
        assert not ck.recheck_verdict(CYCLE, with_evidence(true, missed_open="B1:{2}"))
        assert not ck.recheck_verdict(CONST_ID_FINITE, with_evidence(true, point="FiniteId(index=9)"))

    def test_a_missed_open_the_orbit_visits_fails(self):
        identity = mp.NdsSpec(SHIFT, (), mp.IDENTITY)
        true = ck.check_property(identity, ck.PropertyKind("minimal"), 1, 16)
        assert true.refuted and ck.recheck_verdict(identity, true)
        # the all-zeros point sits in B0 at every time
        assert not ck.recheck_verdict(identity, with_evidence(true, missed_open="B0:cyl@-1:000"))


class TestMultiTransitive:
    def test_example_31_refuted_with_even_law(self):
        v = ck.check_property(ex31(), ck.PropertyKind("multi-transitive", order=2), 1, 64)
        assert v.refuted
        assert "multiple of 2" in v.evidence["structural"]
        recheck_refutation(ex31(), v)

    def test_tail_witnessed_at_low_resolution(self):
        v = ck.check_property(mp.tail(ex31(), 2), ck.PropertyKind("multi-transitive", order=3),
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

    def test_too_many_tuples_without_a_common_time_stay_inconclusive(self):
        # a 20-cycle hits all 400 pairs, never at one time: C(400, 3) triples
        ring = mp.NdsSpec(sp.FiniteSpace(20), (), mp.FiniteFnTerm(tuple(k % 20 + 1 for k in range(1, 21))))
        v = ck.check_property(ring, ck.PropertyKind("weakly-mixing", order=3), 1, 64)
        assert v.status == ck.INCONCLUSIVE
        assert v.evidence == {"note": "tuple space too large without a universal common time"}


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

    def test_identity_law_refutes_on_the_circle(self):
        # no shift-invariant point here: the identity law is the reason
        spec = ndsl.parse("space circle(sqrt2m1);\nsystem F { else: id; }\n").system("F")
        v = ck.check_property(spec, ck.PropertyKind("minimal"), 2)
        assert v.refuted and v.evidence["structural"] == (
            "every prefix map is the identity: E(otherwise)=0 [validated to 2048]"
        )
        assert ck.recheck_verdict(spec, v)

    def test_every_product_point_is_a_representative(self):
        # the orbit of (1,2) never reaches a point (x,1); the point (1,1)
        # alone reaches every point
        spec = ndsl.parse(
            "space finite(2);\nsystem A { else: table{1->2,2->1}; }\n"
            "system B { at ap(1,2): table{1->1,2->2}; else: table{1->2,2->2}; }\n"
            "system P = product(A, B);\n"
        ).system("P")
        assert len(ck._representatives(spec.space)) == 4
        v = ck.check_property(spec, ck.PropertyKind("minimal"), 1, 64)
        assert not v.witnessed
        assert v.evidence == {
            "point": "ProductPoint(parts=(FiniteId(index=1), FiniteId(index=2)))",
            "missed_open": "B0:{1}x{1}",
        }

    def test_only_a_point_on_a_short_loop_builds_its_orbit(self, monkeypatch):
        # one 50-cycle's loop holds every point: no point's orbit is unioned;
        # a 49-cycle beside a fixed point builds the orbit of point 1 only
        calls, reach = [], mp.TableLaw.reach
        monkeypatch.setattr(mp.TableLaw, "reach", lambda law, ids: calls.append(ids) or reach(law, ids))
        assert ck.check_property(cycles_permutation(50), ck.PropertyKind("minimal"), 1, 8).witnessed
        assert calls == []
        v = ck.check_property(cycles_permutation(49, 1), ck.PropertyKind("minimal"), 1, 8)
        assert v.refuted and v.evidence["structural"].startswith(f"exact orbit {list(range(1, 50))} ")
        assert calls == [{1}]


def cycles_permutation(*lengths) -> mp.NdsSpec:
    """The permutation of finite(sum of lengths) that turns each block of
    consecutive points round one cycle of that length."""
    table, start = [], 1
    for length in lengths:
        table += [start + (k + 1) % length for k in range(length)]
        start += length
    return mp.NdsSpec(sp.FiniteSpace(len(table)), (), mp.FiniteFnTerm(tuple(table)))


class TestMixingFamily:
    def test_constant_shift_mixing(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("mixing"), 1, 32)
        assert v.witnessed
        assert any("censored" in c for c in v.caveats)

    def test_example_36_mixing_refuted(self):
        v = ck.check_property(ex36(), ck.PropertyKind("mixing"), 1, 64)
        assert v.refuted
        assert "mod 2" in v.evidence["structural"]

    @pytest.mark.parametrize("name", ["mixing", "mildly-mixing"])
    def test_a_pair_without_a_tail_falls_back_on_the_unhit_pairs(self, name):
        # order 27720: no pair gets a tail by horizon 64, and the first such
        # pair, 0->0, has no reason; 0->5 joins two cycles, so no time hits it
        spec = cycles_permutation(5, 7, 8, 9, 11)
        v = ck.check_property(spec, ck.PropertyKind(name), 1, 64)
        assert v.refuted and v.evidence["refuting_pair"] == ["B0:{1}", "B5:{6}"]
        assert ck.recheck_verdict(spec, v)

    def test_mildly_mixing_tracks_mixing_without_isolated_points(self):
        v = ck.check_property(CONST_SIGMA, ck.PropertyKind("mildly-mixing"), 1, 32)
        assert v.witnessed
        assert any("equivalence" in c for c in v.caveats)

    def test_mildly_mixing_on_finite_space_inconclusive_or_refuted(self):
        # mixing is refuted by a finite support, and mildly mixing implies it
        v = ck.check_property(ex35(), ck.PropertyKind("mildly-mixing"), 1, 16)
        assert v.refuted and v.evidence["refuting_pair"] == ["B0:{1}", "B1:{2}"]
        assert v.evidence["structural"].startswith("only prefix indices [1] can ever hit")
        assert any("implies mixing" in c for c in v.caveats)
        assert ck.recheck_verdict(ex35(), v)


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

    @pytest.mark.parametrize("alphabet, r", [(2, 1), (3, 2), (2, 7)])
    def test_shift_refuted_by_constant_point(self, monkeypatch, alphabet, r):
        # the refutation cites B0 and builds no other open of the basis
        spec = mp.NdsSpec(sp.ShiftSpace(alphabet), (), mp.ShiftPowTerm(1))
        first = ck._label(sp.enumerate_basis(spec.space, r), 0)

        def refuse(*args):
            raise AssertionError("the shift refutation enumerated the basis")

        monkeypatch.setattr(ck.sp, "enumerate_basis", refuse)
        v = ck.check_property(spec, ck.PropertyKind("strongly-transitive"), r, 32)
        assert v.refuted and v.evidence["refuting_open"] == first
        assert "the constant-1 point avoids each image" in v.evidence["structural"]

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
        assert mp.prefix_compose(adv, 10) == mp.ShiftPowTerm(0)

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
            mp.tail(ex31(), 2), ck.PropertyKind("multi-transitive", order=2), 1, 256, 5
        )
        assert rep.ok and rep.kth_common_time is not None

    def test_constant_shift_weak_mixing(self):
        rep = ck.hitting_infinity_consistency(
            CONST_SIGMA, ck.PropertyKind("weakly-mixing", order=2), 1, 128, 10)
        assert rep.ok

    def test_a_short_tuple_is_named_by_its_pairs(self):
        """The detail names each pair of the first failing tuple as its
        (i, j) tuple prints."""
        rep = ck.hitting_infinity_consistency(
            CONST_SIGMA, ck.PropertyKind("weakly-mixing", order=2), 1, 128, 200)
        basis, masks = ck._pair_masks(CONST_SIGMA, 1, 128)
        pairs = by_pair(masks, len(basis))
        keys, values = list(pairs), list(pairs.values())
        (a, b), _ = plain_subset_search(values, 2, 200)
        count = (values[a] & values[b]).bit_count()
        assert not rep.ok and rep.detail == f"tuple ({keys[a]}, {keys[b]}) has only {count} common times"

    def test_precondition_failure_reported(self):
        two_id = mp.NdsSpec(sp.FiniteSpace(2), (), mp.IDENTITY)
        rep = ck.hitting_infinity_consistency(
            two_id, ck.PropertyKind("weakly-mixing", order=2), 1, 32, 3)
        assert not rep.ok and "precondition" in rep.detail


def plain_subset_search(masks, m, k=1):
    """Every m-subset ANDed on its own, in combinations order: the oracle
    for `checkers._subset_search`."""
    worst = None
    for subset in combinations(range(len(masks)), m):
        inter = reduce(and_, (masks[idx] for idx in subset), -1)
        if inter.bit_count() < k:
            return subset, None
        t = ck._nth_bit(inter, k)
        if worst is None or t > worst[0]:
            worst = (t, subset)
    return None, worst


def test_pair_labels_are_the_pairs_in_row_major_order():
    for n in range(1, 71):
        assert list(ck._pair_labels(n)) == [f"{i}->{j}" for i in range(n) for j in range(n)]


class TestSubsetSearch:
    @given(st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=5), st.data(),
           st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_repeated_masks_give_the_plain_search(self, values, data, m, k):
        # few distinct values spread over many positions, as pair masks share them
        masks = data.draw(st.lists(st.sampled_from(values), min_size=0, max_size=12))
        assert ck._subset_search(masks, m, k) == plain_subset_search(masks, m, k)

    def test_constant_shift_pair_masks(self):
        _, masks = ck._pair_masks(CONST_SIGMA, 1, 128)
        pair_masks = list(masks)
        assert len(set(pair_masks)) < len(pair_masks)
        for k in (1, 10, 200):
            assert ck._subset_search(pair_masks, 2, k) == plain_subset_search(pair_masks, 2, k)


class TestHierarchyCoherence:
    SYSTEMS = None

    def _systems(self):
        return [CONST_SIGMA, ex36(), ex31(), mp.tail(ex31(), 2)]

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
            mp.tail(ex31(), 2), ck.PropertyKind("multi-transitive", order=2), 1, 256
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
        x = sp.BiWord(0, (1,), (0,), (0,))
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

    @pytest.mark.parametrize("basis, horizon", [(0, 8), (1, 0), (-1, -1)])
    def test_basis_and_horizon_below_one_rejected(self, basis, horizon):
        with pytest.raises(ValueError, match="must be positive"):
            ck.check_property(CONST_SIGMA, ck.PropertyKind("transitive"), basis, horizon)


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
    for (i, j), mask in sorted(by_pair(masks, len(basis)).items())[::17]:  # 241 of the 4096 pairs
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

# table laws on finite(2): a lead at n = 1, then one settled table
finite_tables = st.tuples(*[st.sampled_from(list(product((1, 2), repeat=2)))] * 2).map(
    lambda ab: mp.NdsSpec(sp.FiniteSpace(2), (mp.Rule(mp.EqualsPattern(1), mp.FiniteFnTerm(ab[0])),),
                          mp.FiniteFnTerm(ab[1]))
)

products = st.one_of(
    st.tuples(ap_shifts(), ap_shifts()).map(mp.ProductSpec),
    st.tuples(finite_tables, ap_shifts()).map(mp.ProductSpec),
    st.tuples(ap_shifts(), circles).map(mp.ProductSpec),
    st.tuples(ap_shifts(), st.just(mp.NdsSpec(SHIFT, (), mp.IDENTITY))).map(mp.ProductSpec),
)


class TestGroupedReasons:
    @given(products)
    @settings(max_examples=25, deadline=None)
    def test_product_pairs_with_one_signature_share_one_reason(self, spec):
        laws = mp.derive_laws(spec, 256)
        r = sp.min_resolution(spec.space)
        basis = sp.enumerate_basis(spec.space, r)
        key, reps = ck._reason_keys(spec, laws, r)
        reasons = {}
        for i in range(0, len(basis), 3):
            for j in range(len(basis)):
                reason = ht.pair_reason(spec, laws, basis[i], basis[j], i != j)
                reasons.setdefault(key(i, j), set()).add(reason)
        assert reasons.pop(None, {None}) == {None}
        assert all(len(found) == 1 for found in reasons.values())
        if reps is not None:  # every key is listed, with a pair that has it
            assert set(reasons) <= set(reps)
            assert all(key(i, j) == k for k, (i, j) in reps.items())

    @given(products, st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_transitive_refutes_with_the_first_pair_a_walk_refutes(self, spec, H):
        laws = mp.derive_laws(spec, 256)
        prop = ck.PropertyKind("transitive")
        r = sp.min_resolution(spec.space)
        v = ck.check_property(spec, prop, r, H, law_horizon=256)
        basis, masks = ck._pair_masks(spec, r, H)
        walk = (
            (i, j, ht.pair_reason(spec, laws, basis[i], basis[j], i != j, ("never",)))
            for (i, j), mask in sorted(by_pair(masks, len(basis)).items()) if mask == 0
        )
        first = next(((i, j, reason) for i, j, reason in walk if reason), None)
        if first is None:
            assert v.status != ck.REFUTED
        else:
            i, j, (grade, reason) = first
            assert grade == "never"
            assert (v.status, v.evidence, v.caveats) == ck._refute_pair(basis, i, j, reason)

    @given(st.one_of(ap_shifts(), circles), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_without_a_table_law_tags_read_only_disjointness(self, spec, r):
        laws = mp.derive_laws(spec, 256)
        basis = sp.enumerate_basis(spec.space, max(r, sp.min_resolution(spec.space)))
        reasons = {}
        for U in basis:
            for V in basis:
                disjoint = ht._meets(spec.space, U, V) is False
                reasons.setdefault(disjoint, set()).add(ht.pair_reason(spec, laws, U, V, disjoint))
        assert reasons.get(False, {None}) == {None}
        assert all(len(found) == 1 for found in reasons.values())


# ---------------------------------------------------------------------------
# the basis partition: disjointness, index reads and the separation threshold


DECLARED = sp.AlphaEnclosure.custom(Fraction(1, 3), Fraction(1, 2**70))
PART_SPACES = st.sampled_from([SHIFT, sp.FiniteSpace(3), sp.CircleSpace(), sp.CircleSpace(DECLARED)])


def spaces_with_resolutions():
    """(space, resolution) over every space kind and products of two."""
    single = st.one_of(
        st.tuples(st.integers(2, 3).map(sp.ShiftSpace), st.just(1)),
        st.tuples(st.just(SHIFT), st.just(2)),
        st.tuples(st.integers(1, 5).map(sp.FiniteSpace), st.just(1)),
        st.tuples(st.sampled_from([sp.CircleSpace(), sp.CircleSpace(DECLARED)]), st.integers(2, 5)),
    )
    products = st.tuples(PART_SPACES, PART_SPACES).map(sp.ProductSpace)
    return st.one_of(single, products.map(lambda space: (space, sp.min_resolution(space))))


def space_points(space):
    """Points of every space kind: shifted BiWords with periodic tails,
    finite ids, circle angles on and off the arc endpoints, and tuples."""
    if isinstance(space, sp.ShiftSpace):
        symbols = st.integers(0, space.alphabet_size - 1)
        tails = st.lists(symbols, min_size=1, max_size=3).map(tuple)
        words = st.builds(
            sp.BiWord, st.integers(-6, 6), st.lists(symbols, max_size=6).map(tuple), tails, tails
        )
        return st.tuples(words, st.integers(-9, 9)).map(lambda we: we[0].shifted(we[1]))
    if isinstance(space, sp.FiniteSpace):
        return st.integers(1, space.point_count).map(sp.FiniteId)
    if isinstance(space, sp.CircleSpace):
        return st.builds(sp.AffineAngle, st.fractions(0, 1, max_denominator=20), st.integers(-2, 2))
    return st.tuples(*(space_points(p) for p in space.parts)).map(sp.ProductPoint)


def contains_walk(space, basis, p):
    """The first basis open decidedly holding p, one membership test each."""
    for i, B in enumerate(basis):
        try:
            if sp.contains(space, B, p):
                return i
        except sp.EnclosureUndecided:
            pass
    return None


def sep_mask_per_class(spec, r, H, delta) -> int:
    """The separation mask one prefix class at a time: the image diameter of
    B0 under each class, the fold the threshold walk replaces."""
    if isinstance(spec.space, sp.ProductSpace):
        return reduce(or_, (sep_mask_per_class(p, r, H, delta) for p in spec.parts))
    B0 = sp.enumerate_basis(spec.space, r)[0]
    wide = 0
    for m, times in ht.prefix_classes(spec, H).items():
        if sp.diameter_exceeds(spec.space, mp.image(m, B0), delta):
            wide |= times
    return wide


def window_weight(r: int, e: int) -> Fraction:
    """W(e): the constrained weight of the basis window moved to [-r-e, r-e]."""
    return sum(Fraction(1, 1 << abs(i)) for i in range(-r - e, r - e + 1))


@st.composite
def boundary_deltas(draw, r):
    """3 - W(e), where the shift mask changes, or one of its neighbours."""
    base = 3 - window_weight(r, draw(st.integers(0, 2 * r + 4)))
    return base + draw(st.sampled_from([0, 1, -1])) * Fraction(1, 1 << draw(st.integers(1, 12)))


@st.composite
def shift_families(draw):
    """Paired progressions and the growing sigma^(c*k + a), whose exponents
    leave the basis window for good."""
    step = draw(st.integers(2, 3))
    c, a = draw(st.integers(-3, 3)), draw(st.integers(-2, 2))
    if draw(st.booleans()):
        return mp.NdsSpec(SHIFT, (mp.Rule(mp.ArithProgPattern(1, 1), mp.FamilyTerm("shift", c, a)),))
    return mp.NdsSpec(SHIFT, (
        mp.Rule(mp.ArithProgPattern(1, step), mp.FamilyTerm("shift", c, a)),
        mp.Rule(mp.ArithProgPattern(2, step), mp.FamilyTerm("shift", -c, draw(st.integers(-2, 2)))),
    ))


def finite_system(size: int, table: tuple):
    return mp.NdsSpec(sp.FiniteSpace(size), (), mp.FiniteFnTerm(list(table)))


class TestBasisPartition:
    @given(spaces_with_resolutions())
    @settings(max_examples=40, deadline=None)
    def test_basis_opens_meet_exactly_themselves(self, case):
        space, r = case
        basis = sp.enumerate_basis(space, r)
        for i, A in enumerate(basis):
            for j, B in enumerate(basis):
                assert sp.intersects(space, A, B) is (i == j), (i, j)

    @given(spaces_with_resolutions(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_index_read_matches_the_contains_walk(self, case, data):
        space, r = case
        basis = sp.enumerate_basis(space, r)
        read = sp.basis_reader(space, basis)
        for p in data.draw(st.lists(space_points(space), min_size=1, max_size=8)):
            assert read(p) == contains_walk(space, basis, p), p

    @given(st.integers(1, 2), st.integers(-40, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_shift_point_lies_in_an_open(self, r, e, data):
        basis = sp.enumerate_basis(SHIFT, r)
        x = data.draw(space_points(SHIFT)).shifted(e)
        index = sp.basis_reader(SHIFT, basis)(x)
        assert index is not None and index == contains_walk(SHIFT, basis, x)

    @given(st.integers(1, 2), st.integers(1, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_threshold_walk_matches_the_per_class_fold(self, r, H, data):
        spec = data.draw(st.one_of(shift_families(), shift_families().map(lambda s: mp.tail(s, 3))))
        delta = data.draw(boundary_deltas(r))
        assert ck._sep_masks(spec, r, H, delta)[1] == sep_mask_per_class(spec, r, H, delta)

    @given(st.integers(2, 4), st.integers(1, 16), st.data())
    @settings(max_examples=40, deadline=None)
    def test_circle_finite_and_product_masks_match_the_fold(self, r, H, data):
        delta = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(2)]))
        alpha = data.draw(st.sampled_from([sp.DEFAULT_ALPHA, DECLARED]))
        circle = mp.NdsSpec(sp.CircleSpace(alpha), (), mp.RotPowTerm(data.draw(st.integers(-2, 2))))
        table = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
        finite = finite_system(3, tuple(table))
        shift = data.draw(shift_families())
        for spec, res in ((circle, r), (finite, 1), (mp.ProductSpec((shift, finite)), 1),
                          (mp.ProductSpec((circle, shift)), r)):
            assert ck._sep_masks(spec, res, H, delta)[1] == sep_mask_per_class(spec, res, H, delta)

    @pytest.mark.parametrize("delta", [Fraction(3), Fraction(7, 2), Fraction(10**6)])
    def test_delta_of_at_least_three_separates_nothing_without_a_walk(self, monkeypatch, delta):
        # no cylinder is that wide: a walk towards |e| = 10^40 would never end
        count_calls(monkeypatch, "diameter_exceeds", limit=0)
        growing = mp.NdsSpec(SHIFT, (mp.Rule(mp.ArithProgPattern(1, 1), mp.FamilyTerm("shift", 10**40)),))
        assert ck._sep_masks(growing, 2, 2000, delta)[1] == 0


def count_calls(monkeypatch, name: str, limit: Optional[int] = None) -> list:
    """Patch spaces.<name> to record each call's arguments in the list
    returned, failing at once on a call past `limit`."""
    calls, real = [], getattr(sp, name)

    def counted(*args):
        calls.append(args)
        assert limit is None or len(calls) <= limit, f"more than {limit} {name} calls"
        return real(*args)

    monkeypatch.setattr(sp, name, counted)
    return calls


class TestCountedCalls:
    @pytest.mark.parametrize("delta", [Fraction(1, 8), Fraction(1), Fraction(5, 2),
                                       3 - window_weight(2, 1), Fraction(3) - Fraction(1, 2**20)])
    @pytest.mark.parametrize("spec", [ex36(), mp.NdsSpec(SHIFT, (
        mp.Rule(mp.ArithProgPattern(1, 1), mp.FamilyTerm("shift", 1)),))], ids=["example-3.6", "sigma^k"])
    def test_separation_walk_is_bounded(self, monkeypatch, spec, delta):
        r = 2
        count_calls(monkeypatch, "diameter_exceeds", limit=r + 3 + (3 - delta).denominator.bit_length())
        ck._sep_masks(spec, r, 2000, delta)

    def test_first_visits_read_opens_without_membership_tests(self, monkeypatch):
        shift = ex36()
        finite = finite_system(4, (2, 3, 4, 1))
        cases = [(shift, 2), (finite, 1), (mp.ProductSpec((shift, finite)), 1),
                 (mp.ProductSpec((finite, finite)), 1)]
        count_calls(monkeypatch, "contains", limit=0)
        for spec, r in cases:
            basis = sp.enumerate_basis(spec.space, r)
            classes = ht.prefix_classes(spec, 64)
            for x in ck._representatives(spec.space):
                ck._first_visits(spec, x, basis, classes)

    def test_product_separation_builds_one_basis(self, monkeypatch):
        """The product builds its sides' bases itself; each side's mask
        reads its part of B0 and builds none."""
        spec = mp.ProductSpec((ex36(), CONST_SIGMA))
        calls = count_calls(monkeypatch, "enumerate_basis")
        ck._sep_masks(spec, 2, 64, Fraction(1, 2))
        assert [args[0] for args in calls] == [spec.space, *spec.space.parts]

    @pytest.mark.parametrize("spec", [ex31(), ex36()], ids=["example-3.1", "example-3.6"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_syndetic_tags_test_no_basis_pair(self, monkeypatch, spec, r):
        laws = mp.derive_laws(spec, 256)
        assert laws.exponent is not None
        count_calls(monkeypatch, "intersects", limit=0)
        ck.check_property(spec, ck.PropertyKind("syndetically-transitive"), r, 100, law_horizon=256)

    def test_a_refutation_asks_for_the_reason_it_cites_once(self, monkeypatch):
        """The corpus's example-3.8 is refuted syndetically transitive by the
        one reason its listed keys were asked for, not asked again."""
        spec = ndsl.parse(corpus.scenario_sources()["example-3.8"]).system("F")
        calls, real = [], ht.pair_reason

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ht, "pair_reason", counted)
        prop = ck.PropertyKind("syndetically-transitive")
        assert ck.check_property(spec, prop, 4, 512, law_horizon=2200).refuted
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# totally-transitive: every iterate read off one set of base masks


def totally_transitive_per_iterate(spec, prop, r, H) -> ck.Verdict:
    """The check one iterate system at a time, each with its own pair masks
    over max(1, H // s) times and no law past s = 1: the loop the stride-s
    slices of the base masks replace."""
    law_horizon = ck.DEFAULT_LAW_HORIZON
    laws = mp.derive_laws(spec, law_horizon)
    cfg = {"basis": r, "horizon": H, "law_horizon": law_horizon}
    per = {}
    for s in range(1, prop.order + 1):
        derived = mp.iterate(spec, s) if s > 1 else spec
        sub_laws = mp.SystemLaws() if s > 1 else laws
        status, evidence, _ = ck._check_transitive(
            derived, ck.PropertyKind("transitive"), r, max(1, H // s), sub_laws
        )
        per[s] = status
        if status != ck.WITNESSED:
            return ck.Verdict(prop.render(), status, cfg, {"iterate_order": s, "inner": evidence})
    return ck.Verdict(
        prop.render(), ck.WITNESSED, cfg,
        {"iterates_checked": prop.order, "statuses": {str(k): v for k, v in per.items()}},
        (ck._quantifier_note(r, H),),
    )


@st.composite
def single_systems(draw):
    """A shift, circle (builtin or declared angle) or finite(2..3) system
    whose steps alternate between two maps on a progression."""
    kind = draw(st.sampled_from(("shift", "circle", "finite")))
    if kind == "shift":
        return draw(st.one_of(shift_families(), ap_shifts()))
    if kind == "circle":
        space = draw(st.sampled_from([sp.CircleSpace(), sp.CircleSpace(DECLARED)]))
        terms = st.integers(-2, 2).map(mp.RotPowTerm)
    else:
        space = sp.FiniteSpace(draw(st.integers(2, 3)))
        terms = st.permutations(range(1, space.point_count + 1)).map(tuple).map(mp.FiniteFnTerm)
        terms = st.one_of(terms, st.just(mp.FiniteFnTerm((1,) * space.point_count)))
    step = draw(st.integers(1, 3))
    rule = mp.Rule(mp.ArithProgPattern(draw(st.integers(1, step)), step), draw(terms))
    return mp.NdsSpec(space, (rule,), draw(terms))


tt_systems = st.one_of(
    single_systems(), st.tuples(single_systems(), single_systems()).map(mp.ProductSpec)
)


class TestTotallyTransitive:
    @given(tt_systems, st.integers(1, 6), st.integers(1, 24))
    @settings(max_examples=120, deadline=None)
    def test_slices_match_the_per_iterate_checks(self, spec, m, H):
        r = sp.min_resolution(spec.space)
        prop = ck.PropertyKind("totally-transitive", order=m)
        assert ck.check_property(spec, prop, r, H) == totally_transitive_per_iterate(spec, prop, r, H)

    @given(tt_systems)
    @settings(max_examples=40, deadline=None)
    def test_iterates_past_the_horizon_match_the_per_iterate_checks(self, spec):
        r = sp.min_resolution(spec.space)
        prop = ck.PropertyKind("totally-transitive", order=9)
        assert ck.check_property(spec, prop, r, 4) == totally_transitive_per_iterate(spec, prop, r, 4)

    @pytest.mark.parametrize("spec", [ex36(), CYCLE, mp.ProductSpec((ex36(), CYCLE))],
                             ids=["shift", "finite", "product"])
    def test_one_set_of_base_masks_past_the_first_iterate(self, spec):
        ck._MASK_CACHE.clear()
        r = sp.min_resolution(spec.space)
        ck.check_property(spec, ck.PropertyKind("totally-transitive", order=9), r, 4)
        keys = list(ck._MASK_CACHE)
        # no iterate system is built: every set belongs to the system or one of its parts
        assert all(key[0] == spec or key[0] in getattr(spec, "parts", ()) for key in keys)
        assert {key[2] for key in keys} <= {4, 9}
        assert sum(key[0] == spec for key in keys) <= 2


class TestDerivedProducts:
    """A tail or iterate of a product is the product of its parts' tails or
    iterates, so it reads its parts' laws as the product does."""

    SOURCE = """space shift(2);
system I { else: id; }
system S { else: sigma^1; }
system P = product(I, S);
system T = tail(P, 2);
system J = iterate(P, 2);
"""

    @pytest.mark.parametrize("system, rendered", [
        ("P", "transitive"), ("T", "transitive"), ("J", "transitive"), ("T", "syndetically-transitive"),
    ])
    def test_the_identity_factor_refutes_and_the_refutation_rechecks(self, system, rendered):
        spec = ndsl.parse(self.SOURCE).system(system)
        v = ck.check_property(spec, ndsl.read_property(rendered), 1, 64)
        assert v.status == ck.REFUTED and "structural" in v.evidence
        assert ck.recheck_verdict(spec, v)

    def test_the_derived_parts_carry_their_own_laws(self):
        doc = ndsl.parse(self.SOURCE)
        for name, derive in (("T", mp.tail), ("J", mp.iterate)):
            spec = doc.system(name)
            assert spec == mp.ProductSpec((derive(doc.system("I"), 2), derive(doc.system("S"), 2)))
            laws = mp.derive_laws(spec, 64)
            assert [part.exponent is not None for part in laws.components] == [True, True]


def held_by_a_minimal_check(n: int) -> int:
    """The bytes a `minimal` check of one n-cycle on finite(n) leaves held
    with its law until its cache scope ends, by tracemalloc."""
    import tracemalloc

    ring = ",".join(f"{k}->{k % n + 1}" for k in range(1, n + 1))
    spec = ndsl.parse(f"space finite({n}); system F {{ else: table{{{ring}}}; }}").system("F")
    with ck.scoped_caches():
        tracemalloc.start()
        try:
            v = ck.check_property(spec, ck.PropertyKind("minimal"), 1, 8)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert v.status == ck.WITNESSED
    return held


def test_a_minimal_check_holds_bytes_linear_in_the_cycle_length():
    # the reach sets of a cycle's points share its one value set: a set per
    # point held n^2 entries, 16 times the bytes for 4 times the length
    small, large = held_by_a_minimal_check(300), held_by_a_minimal_check(1200)
    assert large < 6 * small
