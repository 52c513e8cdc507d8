"""Executable corpus: every counterexample system and theorem demonstration,
with pinned configurations and expected verdict statuses as the regression
surface.

Each scenario carries its NDSL source (read from its file under
scenarios/), a list of expectations with catalog citations, and notes on
which convergence/openness hypotheses the system meets or violates, so the
corpus doubles as documentation of why each example behaves as it does.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from functools import cache

from . import chaos
from . import checkers as ck
from . import convergence as cv
from . import hitting as ht
from . import maps as mp
from . import ndsl
from . import spaces as sp
from .record import record


@record
class Expectation:
    kind: str  # "property" | "uniform-convergence" | ... | custom ops
    target: str  # system name inside the scenario document
    expected: str  # "witnessed" | "refuted" | "pass"
    params: dict
    citation: str

    def describe(self) -> str:
        extra = ""
        if self.kind == "property":
            extra = " " + self.params["property"]
        return f"{self.kind}{extra} on {self.target} expects {self.expected}"


@record
class Scenario:
    name: str
    source: str
    expectations: tuple
    hypothesis_notes: str


def _mk_open(space, spec):
    kind = spec[0]
    if kind == "cyl":
        return sp.Cylinder(spec[1], tuple(int(c) for c in spec[2]))
    if kind == "ids":
        return sp.FiniteSet(frozenset(spec[1]))
    if kind == "rect":
        return sp.ProductOpen(tuple(_mk_open(s, part) for s, part in zip(space.parts, spec[1])))
    raise ValueError(f"unknown open spec {spec!r}")


def _limit(doc):
    """The map of the scenario's LIMIT system, which has no rules."""
    limit = doc.system("LIMIT")
    if limit.rules:
        raise ValueError("a LIMIT system states its map as its default alone")
    return limit.default


# ---------------------------------------------------------------------------
# expectation executors


def _run_property(doc, exp):
    system = doc.system(exp.target)
    prop = ndsl.read_property(exp.params["property"])
    v = ck.check_property(
        system,
        prop,
        basis_resolution=exp.params.get("basis", ck.DEFAULT_BASIS),
        horizon=exp.params.get("horizon", ck.DEFAULT_HORIZON),
        law_horizon=exp.params.get("law_horizon", ck.DEFAULT_LAW_HORIZON),
    )
    return v.status, {"evidence": v.evidence, "caveats": list(v.caveats)}


def _run_uniform(doc, exp):
    system = doc.system(exp.target)
    v = cv.check_uniform_convergence(system, _limit(doc), exp.params["horizon"])
    detail = {"stabilization_index": v.stabilization_index, "detail": v.detail}
    if v.stabilization_index != exp.params["stabilization_index"]:
        return "wrong-index", detail
    return v.status, detail


def _run_collective(doc, exp):
    system = doc.system(exp.target)
    v = cv.check_collective_convergence(system, _limit(doc), exp.params["horizon"],
                                        exp.params["max_window"])
    return v.status, {"detail": v.detail, "refuting_pair": v.refuting_pair}


def _run_hitting(doc, exp):
    system = doc.system(exp.target)
    space = system.space
    U = _mk_open(space, exp.params["u"])
    V = _mk_open(space, exp.params["v"])
    hs = ht.hitting_set(system, U, V, exp.params["horizon"])
    laws = ck.system_laws(system, exp.params.get("law_horizon", ck.DEFAULT_LAW_HORIZON))
    fe = ht.classify_frequency(hs, laws)
    ok = hs.members == tuple(exp.params["members"]) and fe.structural == exp.params["structural_tag"]
    return "pass" if ok else "fail", {
        "members": list(hs.members), "structural": fe.structural, "detail": fe.structural_detail
    }


def _run_separation(doc, exp):
    system = doc.system(exp.target)
    U = _mk_open(system.space, exp.params["u"])
    ss = ht.separation_set(system, U, Fraction(exp.params["delta"]), exp.params["horizon"])
    want = tuple(exp.params["members"])
    ok = ss.members == want
    return "pass" if ok else "fail", {"members": list(ss.members)}


def _run_adversary(doc, exp):
    base = doc.system(exp.target)
    miss = list(exp.params["miss_times"])
    horizon = exp.params["horizon"]
    adv, law = ck.build_gap_adversary(miss, law_horizon=horizon + 2)
    v = ck.check_property(adv, ck.PropertyKind("transitive"), exp.params["basis"], horizon)
    if v.status != ck.WITNESSED:
        return "fail", {"adversary_transitive": v.status}
    product = mp.ProductSpec((base, adv))
    U = _mk_open(product.space, exp.params["u"])
    V = _mk_open(product.space, exp.params["v"])
    hs = ht.hitting_set(product, U, V, horizon)
    # the adversary's law is the one build_gap_adversary validated
    laws = mp.SystemLaws(components=(ck.system_laws(base, horizon + 2), mp.SystemLaws(exponent=law)))
    claim = ht.product_structural_miss(product, laws, U, V)
    ok = hs.members == () and claim is not None
    return "pass" if ok else "fail", {
        "adversary_law": law.describe()[:120],
        "product_members": list(hs.members),
        "parity_claim": claim,
    }


def _run_consistency(doc, exp):
    system = doc.system(exp.target)
    prop = ndsl.read_property(exp.params["property"])
    report = ck.hitting_infinity_consistency(
        system, prop, exp.params["basis"], exp.params["horizon"], exp.params["members_required"]
    )
    detail = {"kth_common_time": report.kth_common_time, "detail": report.detail}
    return "pass" if report.ok else "fail", detail


def _run_gap_bound(doc, exp):
    """Gap-bound demonstration: for a syndetically transitive, non-minimal
    system, observed sensitivity gaps stay within the sum of the two
    transitivity gap bounds from the separation construction."""
    system = doc.system(exp.target)
    r = exp.params["basis"]
    H = exp.params["horizon"]
    delta = Fraction(exp.params["delta"])
    basis = sp.enumerate_basis(system.space, r)

    def max_gap(target):  # the largest gap of N(U, target) over U, None when one is empty
        values = ht.pair_masks(system, basis, (target,), H)[0]  # each some open's
        return max(ht._frequency(hits, H)[0] for hits in values) if all(values) else None

    # fixed reference orbit (all-zeros is invariant) and a far point in the all-ones open
    m1 = max_gap(sp.Cylinder(-r, (1,) * (2 * r + 1)))
    if m1 is None:
        return "fail", {"reason": "reference target never hit"}
    # tracking neighborhood of the reference point, sized by the modulus
    xi, note = cv.equicontinuity_modulus(system, delta, max(1, m1), H)
    if xi is None:
        return "fail", {"reason": "no modulus: " + note}
    w = 1
    while Fraction(2, 1 << w) > xi:
        w += 1
    m2 = max_gap(sp.Cylinder(-w, tuple([0] * (2 * w + 1))))
    if m2 is None:
        return "fail", {"reason": "tracking neighborhood never hit"}
    # every basis open shares one separation mask
    sens_gap = ht._frequency(ht.separation_mask(system, basis[0], delta, H), H)[0]
    ok = sens_gap <= m1 + m2
    detail = {"sensitivity_max_gap": sens_gap, "m1": m1, "m2": m2, "modulus_note": note}
    return "pass" if ok else "fail", detail


def _run_strong_agreement(doc, exp):
    """Strong-transitivity transfer on constant surjective finite systems:
    verdicts agree between the system and its tails, cover bounds within k."""
    rng = random.Random(exp.params["seed"])
    systems = [doc.system(exp.target)]
    for count in (5, 6):
        perm = list(range(1, count + 1))
        rng.shuffle(perm)
        systems.append(
            mp.NdsSpec(sp.FiniteSpace(count), (), mp.FiniteFnTerm(tuple(perm)),
                       name=f"random-perm-{count}")
        )
    rows = []
    strong, H = ck.PropertyKind("strongly-transitive"), exp.params["horizon"]
    for system in systems:
        base_v = ck.check_property(system, strong, 1, H)
        for k in range(1, exp.params["max_tail"] + 1):
            tail_v = ck.check_property(mp.tail(system, k + 1), strong, 1, H)
            agree = base_v.status == tail_v.status
            bound_ok = True
            if base_v.status == ck.WITNESSED and tail_v.status == ck.WITNESSED:
                mb = base_v.evidence["cover_bound"]
                mt = tail_v.evidence["cover_bound"]
                bound_ok = abs(mb - mt) <= k
                rows.append({"system": system.name, "k": k, "M": mb, "M_tail": mt})
            if not (agree and bound_ok):
                return "fail", {"system": system.name, "k": k,
                                "base": base_v.status, "tail": tail_v.status}
    return "pass", {"bounds": rows[:8], "systems": [s.name for s in systems]}


def _run_lemma21(doc, exp):
    system = doc.system(exp.target)
    levels = exp.params["levels"]
    res = chaos.lemma21_construct(system, sp.all_zeros(), sp.all_ones(), levels, exp.params["horizon"])
    if not isinstance(res, chaos.ItineraryConstruction):
        return "fail", {"failure": repr(res)}
    ok = res.verified and len(res.witnesses) == 2**levels
    return "pass" if ok else "fail", {"times": list(res.times), "witnesses": len(res.witnesses)}


def _run_li_yorke(doc, exp):
    system = doc.system(exp.target)
    pairs = chaos.proximal_scrambled_candidates(sp.all_zeros(), sp.all_ones(), exp.params["candidates"])
    reports = chaos.li_yorke_scan(system, pairs, exp.params["horizon"])
    qualifying = sum(1 for r in reports if r.qualifies)
    ok = qualifying >= exp.params["required"]
    return "pass" if ok else "fail", {"qualifying": qualifying, "scanned": len(reports)}


def _run_interleave(doc, exp):
    """Structure check for the interleaved sequence {f, id, f, id, id, f, ...}
    (f at the triangular indices): between consecutive f-firings the prefix
    map is constant, making long identity runs; this holds whatever f is."""
    system = doc.system(exp.target)
    H = exp.params["horizon"]
    firings = exp.params["firings"]
    # the times a..min(b, H)-1 share one prefix map when one class holds them
    classes = ht.prefix_classes(system, H).values()
    runs_ok = True
    for a, b in zip(firings, firings[1:]):
        window = (1 << min(b, H)) - (1 << a)
        if window <= 0 or not any(times & window == window for times in classes):
            runs_ok = False
    # identity runs grow without bound between firings
    growth = all(b - a < c - b for a, b, c in zip(firings, firings[1:], firings[2:]))
    ok = runs_ok and growth
    return "pass" if ok else "fail", {"runs_constant": runs_ok, "gap_growth": growth}


_EXECUTORS = {
    "property": _run_property,
    "uniform-convergence": _run_uniform,
    "collective-convergence": _run_collective,
    "hitting-set": _run_hitting,
    "separation-set": _run_separation,
    "gap-adversary-product": _run_adversary,
    "hitting-consistency": _run_consistency,
    "sensitivity-gap-bound": _run_gap_bound,
    "strong-transfer-agreement": _run_strong_agreement,
    "itinerary-construction": _run_lemma21,
    "li-yorke-scan": _run_li_yorke,
    "interleave-structure": _run_interleave,
}


# ---------------------------------------------------------------------------
# the scenarios


def _prop(target, rendered, expected, citation, **params):
    params = {"property": rendered, **params}
    return Expectation("property", target, expected, params, citation)


@cache
def scenarios() -> tuple:
    """Every scenario, built from the shipped sources the first time it is
    asked for: `ndslab check` never reads them."""
    src = scenario_sources()
    out = []

    out.append(Scenario(
        "example-3.1",
        src["example-3.1"],
        (
            _prop("F", "multi-transitive:2", "refuted",
                  "even prefixes are the identity, so slot 2 never connects disjoint sets",
                  basis=2, horizon=64, law_horizon=2048),
            _prop("T2", "multi-transitive:3", "witnessed",
                  "the tail system carries growing powers on even indices",
                  basis=2, horizon=512, law_horizon=2048),
            _prop("F", "feeble-open", "witnessed", "shift powers are homeomorphisms"),
            _prop("F", "surjective-sequence", "witnessed", "every term is a shift power"),
        ),
        "base system refutes multi-transitivity; its tail witnesses it: "
        "the property does not transfer backward from tails",
    ))

    out.append(Scenario(
        "example-3.2",
        src["example-3.2"],
        (
            _prop("F", "multi-transitive:3", "witnessed",
                  "even prefixes carry growing powers",
                  basis=2, horizon=512, law_horizon=2048),
            _prop("T2", "multi-transitive:2", "refuted",
                  "the tail's even prefixes collapse to the identity",
                  basis=2, horizon=64, law_horizon=2048),
        ),
        "mirror image of example-3.1: the property does not transfer forward to tails",
    ))

    out.append(Scenario(
        "example-3.3",
        src["example-3.3"],
        (
            _prop("F", "minimal", "witnessed",
                  "every orbit visits both points", basis=1, horizon=10),
            _prop("F", "feeble-open", "witnessed", "discrete spaces make every map feeble open"),
            Expectation("uniform-convergence", "F", "witnessed", {"horizon": 64, "stabilization_index": 2},
                        "all terms from index 2 on equal the limit"),
            Expectation("collective-convergence", "F", "witnessed", {"horizon": 64, "max_window": 6},
                        "windows beyond the stabilization index are limit iterates"),
            _prop("LIMIT", "minimal", "refuted",
                  "the limit map fixes the point 2, whose orbit is not dense",
                  basis=1, horizon=10),
        ),
        "satisfies feeble openness, uniform and collective convergence, yet "
        "minimality does not pass to the limit map; the space is discrete "
        "(isolated points), so no-isolated-point hypotheses fail",
    ))

    out.append(Scenario(
        "example-3.5",
        src["example-3.5"],
        (
            _prop("F", "minimal", "witnessed", "three applications of the cycle visit everything",
                  basis=1, horizon=10),
            _prop("F", "transitive", "witnessed", "the cycle connects every pair of points",
                  basis=1, horizon=10),
            Expectation("hitting-set", "F", "pass",
                        {"u": ("ids", (1,)), "v": ("ids", (2,)), "horizon": 100,
                         "members": (1,), "structural_tag": "finite-support"},
                        "the only time moving 1 onto 2 is the first step; later prefixes are the identity"),
            Expectation("uniform-convergence", "F", "witnessed", {"horizon": 64, "stabilization_index": 4},
                        "terms from index 4 on are the identity"),
            Expectation("collective-convergence", "F", "witnessed", {"horizon": 64, "max_window": 6},
                        "windows beyond index 4 are identity iterates"),
            _prop("LIMIT", "transitive", "refuted", "the identity moves nothing",
                  basis=1, horizon=10),
            _prop("LIMIT", "minimal", "refuted", "identity orbits are singletons",
                  basis=1, horizon=10),
        ),
        "feeble open, surjective, uniformly and collectively convergent, "
        "but transitivity and minimality fail for the limit; hitting sets "
        "can be finite because the space has isolated points",
    ))

    out.append(Scenario(
        "example-3.6",
        src["example-3.6"],
        (
            _prop("F", "syndetically-transitive", "witnessed",
                  "odd prefixes carry every large power: gaps settle at 2",
                  basis=2, horizon=200),
            _prop("F", "weakly-mixing", "witnessed",
                  "a single large odd time serves every pair simultaneously",
                  basis=2, horizon=200),
            _prop("F", "multi-transitive:2", "refuted",
                  "even prefixes are the identity",
                  basis=2, horizon=64, law_horizon=2048),
            Expectation("collective-convergence", "F", "refuted", {"horizon": 64, "max_window": 4},
                        "windows keep producing unboundedly large powers"),
        ),
        "syndetically transitive and weakly mixing do not give multi-transitivity "
        "here: the sequence does not converge (collective convergence refuted)",
    ))

    out.append(Scenario(
        "example-3.7",
        src["example-3.7"],
        (
            _prop("P", "transitive", "refuted",
                  "at odd times the second factor idles, at even times the first: "
                  "the rectangle pair never connects",
                  basis=1, horizon=64, law_horizon=1024),
            _prop("P", "syndetically-transitive", "refuted",
                  "an empty hitting set has no gaps to bound",
                  basis=1, horizon=64, law_horizon=1024),
            _prop("P", "weakly-mixing", "refuted",
                  "the product is not even transitive",
                  basis=1, horizon=64, law_horizon=1024),
        ),
        "both factors are syndetically transitive and weakly mixing, yet the "
        "product is neither: alternating identity components cover both parities",
    ))

    out.append(Scenario(
        "example-3.8",
        src["example-3.8"],
        (
            _prop("F", "dense-periodic-points", "witnessed",
                  "even prefixes rotate by nothing, making every point 2-periodic",
                  basis=4, horizon=64, law_horizon=2200),
            _prop("F", "transitive", "witnessed",
                  "prefix rotations at the power indices equidistribute",
                  basis=4, horizon=2200, law_horizon=2200),
            _prop("F", "syndetically-transitive", "refuted",
                  "hits live only on the sparse power indices: gaps grow without bound",
                  basis=4, horizon=512, law_horizon=2200),
        ),
        "transitive with dense periodic points but not syndetically transitive; "
        "the sequence does not converge uniformly, so the sufficient condition "
        "for syndetic transitivity does not apply",
    ))

    out.append(Scenario(
        "example-3.9",
        src["example-3.9"],
        (
            _prop("F", "multi-sensitive:1/2", "witnessed",
                  "odd prefixes stretch every cylinder past any constant",
                  basis=2, horizon=64),
            _prop("F", "thickly-sensitive:1/2", "refuted",
                  "even times never separate small cylinders, so runs stop at length 1",
                  basis=3, horizon=64, law_horizon=2048),
            Expectation("separation-set", "F", "pass",
                        {"u": ("cyl", -4, "000000000"), "delta": Fraction(1, 2),
                         "horizon": 64,
                         "members": tuple(2 * m - 1 for m in range(3, 33))},
                        "image windows drift left; the free-coordinate weight "
                        "passes 1/2 from the third odd time on"),
        ),
        "multi-sensitive but not thickly sensitive: even prefixes are the identity",
    ))

    out.append(Scenario(
        "example-3.9-interleaved",
        src["example-3.9-interleaved"],
        (
            Expectation("interleave-structure", "G", "pass",
                        {"horizon": 128, "firings": (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 78, 91, 105)},
                        "identity runs between firings grow without bound, whatever map fires"),
        ),
        "parameterized second half: the witnessing map is not pinned down, so "
        "only consequences independent of its identity are asserted (here the "
        "growing identity runs that drive thick behaviour)",
    ))

    out.append(Scenario(
        "theorem-3.5-adversary",
        src["example-3.6"],
        (
            Expectation("gap-adversary-product", "F", "pass",
                        {"miss_times": tuple(range(4, 513, 4)), "horizon": 512, "basis": 1,
                         "u": ("rect", (("cyl", 0, "0"), ("cyl", 0, "0"))),
                         "v": ("rect", (("cyl", 0, "1"), ("cyl", 0, "1")))},
                        "the adversary hits exactly where the base misses; the "
                        "product rectangle pair never connects, covering both parities"),
        ),
        "a system missing at arbitrarily sparse times times its tailored "
        "adversary is not transitive: non-mixing systems are not mildly mixing",
    ))

    out.append(Scenario(
        "theorem-3.2-3.3-consistency",
        src["consistency"],
        (
            Expectation("hitting-consistency", "F36", "pass",
                        {"property": "weakly-mixing:2", "basis": 1, "horizon": 2048,
                         "members_required": 10},
                        "witnessed weak mixing comes with infinitely many common times"),
            Expectation("hitting-consistency", "F32", "pass",
                        {"property": "multi-transitive:2", "basis": 1, "horizon": 2048,
                         "members_required": 10},
                        "witnessed multi-transitivity comes with infinitely many common l"),
            Expectation("hitting-consistency", "CS", "pass",
                        {"property": "weakly-mixing:2", "basis": 1, "horizon": 2048,
                         "members_required": 10},
                        "a mixing constant system has cofinite common-time sets"),
        ),
        "desk-scale consistency evidence for the infinitude of common hitting "
        "sets behind witnessed weak-mixing / multi-transitivity",
    ))

    out.append(Scenario(
        "theorem-3.18-constant-shift",
        src["constant-shift"],
        (
            _prop("CS", "syndetically-transitive", "witnessed",
                  "the full shift mixes: hitting sets are cofinite",
                  basis=2, horizon=200),
            _prop("CS", "syndetically-sensitive:1/4", "witnessed",
                  "images of any cylinder eventually stretch past 1/4 at every step",
                  basis=2, horizon=200),
            _prop("CS", "minimal", "refuted",
                  "the all-zeros point is fixed, its orbit is a singleton",
                  basis=1, horizon=64),
            Expectation("sensitivity-gap-bound", "CS", "pass",
                        {"basis": 2, "horizon": 200, "delta": Fraction(1, 4)},
                        "observed sensitivity gaps stay within the two transitivity "
                        "gap bounds combined, as the separation construction predicts"),
        ),
        "syndetically transitive but not minimal forces syndetic sensitivity; "
        "the demonstration rebuilds the construction's gap bound M1 + M2",
    ))

    out.append(Scenario(
        "theorem-final-strong",
        src["three-cycle"],
        (
            _prop("C3", "strongly-transitive", "witnessed",
                  "three steps of the cycle cover the space from any point",
                  basis=1, horizon=64),
            Expectation("strong-transfer-agreement", "C3", "pass",
                        {"horizon": 64, "max_tail": 4, "seed": 20240811},
                        "for constant surjective systems the cover bounds of "
                        "tails stay within k of the base bound"),
        ),
        "transfer demonstrated on constant systems, where tails coincide with "
        "the base; non-constant sequences can break the forward transfer "
        "(an eventually-identity cycle is strongly transitive while its tail "
        "is not), so the corpus pins the constant case",
    ))

    out.append(Scenario(
        "lemma-2.1-construction",
        src["constant-shift"],
        (
            Expectation("itinerary-construction", "CS", "pass",
                        {"levels": 4, "horizon": 256},
                        "shifted target blocks land on disjoint coordinates, so "
                        "every itinerary of length 4 is realized and verified"),
            Expectation("li-yorke-scan", "CS", "pass", {"horizon": 4096, "candidates": 6, "required": 4},
                        "block candidates oscillate: near the reference on most "
                        "of each period, far apart when the block crosses the origin"),
        ),
        "constructive core of the chaos argument at desk scale: itinerary "
        "witnesses plus scan evidence for proximal-yet-separated pairs",
    ))

    return tuple(out)


def scenario_sources() -> dict:
    """NDSL source text per scenario, keyed by the name of its .ndsl file
    shipped under scenarios/ (the only copy of each source).  The files are
    read off the package folder: importlib.resources would add a quarter of
    the import time (pathlib, tempfile, and inspect from Python 3.12)."""
    folder = os.path.join(os.path.dirname(__file__), "scenarios")
    sources = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".ndsl"):
            with open(os.path.join(folder, name), encoding="utf-8") as f:
                sources[name.removesuffix(".ndsl")] = f.read()
    return sources


def run_corpus(name_filter: str | None = None) -> list:
    """Execute scenarios (optionally filtered by a substring/glob prefix on
    the name) and return the rows `ndslab corpus` reports: one per scenario
    in name order, with its name, whether it passed, and its results."""
    rows = []
    # the checks of one run share pair masks and laws, and keep none after it
    with ck.scoped_caches():
        for scenario in sorted(scenarios(), key=lambda s: s.name):
            if name_filter and not _matches(scenario.name, name_filter):
                continue
            doc = ndsl.parse(scenario.source)
            results = []
            for exp in scenario.expectations:
                actual, payload = _EXECUTORS[exp.kind](doc, exp)
                text = json.dumps(payload, sort_keys=True, default=_as_json)
                results.append({
                    "description": exp.describe(),
                    "expected": exp.expected,
                    "actual": actual,
                    "passed": actual == exp.expected,
                    "citation": exp.citation,
                    "evidence_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
                })
            rows.append({
                "name": scenario.name,
                "passed": all(r["passed"] for r in results),
                "results": results,
            })
    return rows


def _as_json(obj):
    """json.dumps's default for an evidence digest: a checkers.PairTable as
    its dict, so the digest is the one of the dict it replaces, and any
    other value as str."""
    return dict(obj.items()) if isinstance(obj, ck.PairTable) else str(obj)


def _matches(name: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return pattern in name
