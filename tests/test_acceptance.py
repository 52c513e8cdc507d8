"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Derived expectations are recomputed here by independent oracles
(step folds, cylinder-compatibility enumeration, truncated metric sums)
before being asserted against the engine.
"""

import random
from fractions import Fraction

import pytest
from ndsl_printer import print_document, random_document

from ndslab import chaos
from ndslab import checkers as ck
from ndslab import corpus
from ndslab import hitting as ht
from ndslab import maps as mp
from ndslab import ndsl
from ndslab import spaces as sp

SHIFT = sp.ShiftSpace()


def _verdict(done, criterion, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if done else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert done, criterion


def _scenario_doc(name):
    return ndsl.parse(corpus.scenario_sources()[name])


def _sigma_mixing_bound(resolution: int) -> int:
    """Independent enumeration of the mixing bound for the full shift on the
    cylinders at this resolution: the smallest M with every pair hitting at
    every power p > M."""
    basis = sp.enumerate_basis(SHIFT, resolution)
    worst = 0
    for p in range(1, 8 * resolution + 8):
        m = mp.ShiftPowTerm(p)
        for U in basis:
            for V in basis:
                if not sp.intersects(SHIFT, mp.image(m, U), V):
                    worst = max(worst, p)
    return worst


class TestAcceptance:
    def test_criterion_01_example_31(self):
        doc = _scenario_doc("example-3.1")
        base, tail = doc.system("F"), doc.system("T2")
        refuted = ck.check_property(base, ck.PropertyKind("multi-transitive", order=2), 2, 64,
                                    law_horizon=2048)
        ok = refuted.refuted and "validated to 2048" in refuted.evidence["structural"]
        witnessed = ck.check_property(tail, ck.PropertyKind("multi-transitive", order=3), 2, 512,
                                      law_horizon=2048)
        ok = ok and witnessed.witnessed
        mixing_bound = _sigma_mixing_bound(2)
        allowed = 2 * (mixing_bound + 1)
        reported = max(witnessed.evidence["witness_l_per_order"].values())
        ok = ok and reported <= allowed
        _verdict(ok, "01 example-3.1 reproduction",
                 f"witness l = {reported} <= 2(M+1) = {allowed}")

    def test_criterion_02_example_32(self):
        doc = _scenario_doc("example-3.2")
        witnessed = ck.check_property(doc.system("F"), ck.PropertyKind("multi-transitive", order=3),
                                      2, 512, law_horizon=2048)
        refuted = ck.check_property(doc.system("T2"), ck.PropertyKind("multi-transitive", order=2),
                                    2, 64, law_horizon=2048)
        _verdict(witnessed.witnessed and refuted.refuted, "02 example-3.2 mirror")

    def test_criterion_03_examples_33_35(self):
        from ndslab import convergence as cv

        doc33 = _scenario_doc("example-3.3")
        f33, lim33 = doc33.system("F"), doc33.system("LIMIT")
        ok = ck.check_property(f33, ck.PropertyKind("minimal"), 1, 10).witnessed
        ok = ok and ck.check_property(lim33, ck.PropertyKind("minimal"), 1, 10).refuted
        limit33 = mp.FiniteFnTerm((2, 2))
        ok = ok and cv.check_uniform_convergence(f33, limit33, 64).witnessed
        ok = ok and cv.check_collective_convergence(f33, limit33, 64, 6).witnessed

        doc35 = _scenario_doc("example-3.5")
        f35, lim35 = doc35.system("F"), doc35.system("LIMIT")
        ok = ok and ck.check_property(f35, ck.PropertyKind("minimal"), 1, 10).witnessed
        ok = ok and ck.check_property(f35, ck.PropertyKind("transitive"), 1, 10).witnessed
        ok = ok and ck.check_property(lim35, ck.PropertyKind("transitive"), 1, 10).refuted
        ok = ok and ck.check_property(lim35, ck.PropertyKind("minimal"), 1, 10).refuted
        hs = ht.hitting_set(f35, sp.FiniteSet(frozenset({1})), sp.FiniteSet(frozenset({2})), 100)
        fe = ht.classify_frequency(hs, mp.derive_laws(f35, 100))
        ok = ok and hs.members == (1,) and fe.structural == "finite-support"
        ok = ok and cv.check_uniform_convergence(f35, mp.FiniteFnTerm((1, 2, 3)), 64).witnessed
        ok = ok and cv.check_collective_convergence(f35, mp.FiniteFnTerm((1, 2, 3)), 64, 6).witnessed
        _verdict(ok, "03 examples 3.3 and 3.5 exact")

    def test_criterion_04_theorem_35_adversary(self):
        doc = _scenario_doc("example-3.6")
        base = doc.system("F")
        miss = list(range(4, 513, 4))  # even, gaps 4 > 2; the base misses every even time
        adv, law = ck.build_gap_adversary(miss, law_horizon=520)
        witnessed = ck.check_property(adv, ck.PropertyKind("transitive"), 1, 512)
        product = mp.ProductSpec((base, adv))
        U = sp.ProductOpen((sp.Cylinder(0, (0,)), sp.Cylinder(0, (0,))))
        V = sp.ProductOpen((sp.Cylinder(0, (1,)), sp.Cylinder(0, (1,))))
        hs = ht.hitting_set(product, U, V, 512)
        claim = ht.product_structural_miss(product, mp.derive_laws(product, 520), U, V)
        ok = (
            witnessed.witnessed
            and hs.members == ()
            and claim is not None
            and "n≡0 (mod 2)" in claim
            and "n≡1 (mod 2)" in claim
        )
        _verdict(ok, "04 mixing-gap adversary", "product rectangle empty on [1,512]")

    def test_criterion_05_example_36(self):
        doc = _scenario_doc("example-3.6")
        f = doc.system("F")
        synd = ck.check_property(f, ck.PropertyKind("syndetically-transitive"), 2, 200)
        ok = synd.witnessed and synd.evidence["eventual_max_gap"] == 2
        ok = ok and ck.check_property(f, ck.PropertyKind("weakly-mixing", order=2), 2, 200).witnessed
        mt = ck.check_property(f, ck.PropertyKind("multi-transitive", order=2), 2, 64, law_horizon=2048)
        ok = ok and mt.refuted and "structural" in mt.evidence
        _verdict(ok, "05 example-3.6", "eventual max gap exactly 2")

    def test_criterion_06_example_38_circle(self):
        doc = _scenario_doc("example-3.8")
        f = doc.system("F")
        dense = ck.check_property(f, ck.PropertyKind("dense-periodic-points"), 4, 64, law_horizon=2200)
        ok = dense.witnessed and dense.evidence["period"] == 2
        trans = ck.check_property(f, ck.PropertyKind("transitive"), 4, 2200, law_horizon=2200)
        ok = ok and trans.witnessed
        powers = {3**k for k in range(1, 8)}
        basis = sp.enumerate_basis(f.space, 4)
        for key, n in trans.evidence["witness_times"].items():
            i, j = (int(p) for p in key.split("->"))
            if not sp.intersects(f.space, basis[i], basis[j]):
                ok = ok and n in powers
        synd = ck.check_property(f, ck.PropertyKind("syndetically-transitive"), 4, 512, law_horizon=2200)
        ok = ok and synd.refuted and "power" in str(synd.evidence)
        _verdict(ok, "06 example-3.8 circle",
                 f"disjoint pairs first hit inside {{3^k, k <= 7}}")

    def test_criterion_07_example_39(self):
        doc = _scenario_doc("example-3.9")
        f = doc.system("F")
        multi = ck.check_property(f, ck.PropertyKind("multi-sensitive", delta=Fraction(1, 2), order=3),
                                  2, 64)
        ok = multi.witnessed
        thick = ck.check_property(f, ck.PropertyKind("thickly-sensitive", delta=Fraction(1, 2)), 3, 64,
                                  law_horizon=2048)
        # basis resolution 3: diam(U) = 2^(1-3) = 1/4 < 1/2
        basis = sp.enumerate_basis(SHIFT, 3)
        ok = ok and sp.diameter(SHIFT, basis[0]) < Fraction(1, 2)
        ok = ok and thick.refuted and "residue" in str(thick.evidence)
        _verdict(ok, "07 example-3.9 sensitivity split")

    def test_criterion_08_hitting_infinity(self):
        doc = _scenario_doc("consistency")
        checks = [
            (doc.system("F36"), ck.PropertyKind("weakly-mixing", order=2)),
            (doc.system("CS"), ck.PropertyKind("weakly-mixing", order=2)),
            (doc.system("F32"), ck.PropertyKind("multi-transitive", order=2)),
            (mp.TailSpec(_scenario_doc("example-3.1").system("F"), 2),
             ck.PropertyKind("multi-transitive", order=2)),
        ]
        ok = True
        worst = 0
        for spec, prop in checks:
            rep = ck.hitting_infinity_consistency(spec, prop, 1, 2048, 10)
            ok = ok and rep.ok
            worst = max(worst, rep.kth_common_time or 0)
        _verdict(ok, "08 common hitting sets stay infinite",
                 f">= 10 members within 2048; worst 10th member {worst}")

    def test_criterion_09_construction_and_scan(self):
        cs = _scenario_doc("constant-shift").system("CS")
        res = chaos.lemma21_construct(cs, sp.all_zeros(), sp.all_ones(), 4, 256)
        ok = isinstance(res, chaos.ItineraryConstruction)
        ok = ok and len(res.witnesses) == 16 and res.verified
        pairs = chaos.proximal_scrambled_candidates(sp.all_zeros(), sp.all_ones(), 6)
        reports = chaos.li_yorke_scan(cs, pairs, 4096, Fraction(1, 1024), Fraction(1, 2))
        qualifying = sum(1 for r in reports if r.qualifies)
        ok = ok and qualifying >= 4
        _verdict(ok, "09 itinerary construction and scan",
                 f"16 witnesses; {qualifying} qualifying pairs")

    def test_criterion_10_syndetic_sensitivity_bound(self):
        reports = corpus.run_corpus("theorem-3.18-constant-shift")
        ok = bool(reports) and reports[0].passed
        detail = next(
            (r.detail for r in reports[0].results if "gap-bound" in r.description
             or "sensitivity-gap" in r.description),
            "",
        )
        _verdict(ok, "10 syndetic sensitivity gap bound", detail[:80])

    def test_criterion_11_strong_transitivity_transfer(self):
        reports = corpus.run_corpus("theorem-final-strong")
        ok = bool(reports) and reports[0].passed
        cyc = _scenario_doc("three-cycle").system("C3")
        v = ck.check_property(cyc, ck.PropertyKind("strongly-transitive"), 1, 64)
        ok = ok and v.witnessed and v.evidence["cover_bound"] == 3
        for k in range(1, 5):
            vt = ck.check_property(mp.TailSpec(cyc, k + 1), ck.PropertyKind("strongly-transitive"),
                                   1, 64)
            ok = ok and vt.witnessed
            ok = ok and abs(vt.evidence["cover_bound"] - v.evidence["cover_bound"]) <= k
        _verdict(ok, "11 strong transitivity transfer", "cover bounds within k")

    def test_criterion_12_engine_oracles(self):
        ok = True
        # prefix composition equals the stepwise fold on every corpus system
        systems = []
        for scenario in corpus.scenarios():
            doc = ndsl.parse(scenario.source)
            systems.extend(spec for _, spec in doc.systems)
        seen = []
        for spec in systems:
            if any(spec == s for s in seen):
                continue
            seen.append(spec)
            acc = mp.identity_map(spec.space)
            for n in range(1, 1025):
                acc = mp.compose(mp.step_normal(spec, n), acc)
                if mp.prefix_compose(spec, n) != acc:
                    ok = False
                    break
        # hitting sets equal brute-force per-index testing
        shift_pairs = (sp.Cylinder(0, (0,)), sp.Cylinder(-1, (1, 0)))
        for spec in seen:
            if not isinstance(spec.space, sp.ShiftSpace):
                continue
            hs = ht.hitting_set(spec, *shift_pairs, 256)
            if hs.members != ht.brute_force_hitting(spec, *shift_pairs, 256):
                ok = False
        # round-trip identity on 10^4 random documents
        rng = random.Random(424242)
        for _ in range(10_000):
            doc = random_document(rng)
            if ndsl.parse(print_document(doc)) != doc:
                ok = False
                break
        # hierarchy coherence across the shift corpus systems
        for spec in seen:
            if not isinstance(spec.space, sp.ShiftSpace) or isinstance(spec, mp.ProductSpec):
                continue
            mix = ck.check_property(spec, ck.PropertyKind("mixing"), 1, 128)
            wm2 = ck.PropertyKind("weakly-mixing", order=2)
            if mix.witnessed:
                if ck.check_property(spec, wm2, 1, 128).refuted:
                    ok = False
            wm3 = ck.check_property(spec, ck.PropertyKind("weakly-mixing", order=3), 1, 128)
            if wm3.witnessed and not ck.check_property(spec, wm2, 1, 128).witnessed:
                ok = False
            mt = ck.check_property(spec, ck.PropertyKind("multi-transitive", order=2), 1, 256)
            trans = ck.PropertyKind("transitive")
            if mt.witnessed and not ck.check_property(spec, trans, 1, 512).witnessed:
                ok = False
        _verdict(ok, "12 engine oracles",
                 "prefix fold, hitting brute force, 10k round-trips, hierarchy")
