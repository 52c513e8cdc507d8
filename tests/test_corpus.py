"""Corpus completeness, reproducibility, and verdict soundness."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndslab import checkers as ck
from ndslab import convergence as cv
from ndslab import corpus, ndsl
from ndslab import hitting as ht
from ndslab import maps as mp
from ndslab import spaces as sp

REQUIRED_SCENARIOS = {
    "example-3.1",
    "example-3.2",
    "example-3.3",
    "example-3.5",
    "example-3.6",
    "example-3.7",
    "example-3.8",
    "example-3.9",
    "example-3.9-interleaved",
    "theorem-3.5-adversary",
    "theorem-3.18-constant-shift",
    "theorem-3.2-3.3-consistency",
    "theorem-final-strong",
    "lemma-2.1-construction",
}


class TestCompleteness:
    def test_checklist(self):
        names = {s.name for s in corpus.scenarios()}
        missing = REQUIRED_SCENARIOS - names
        assert not missing, f"missing scenarios: {sorted(missing)}"

    def test_every_expectation_has_citation_and_notes(self):
        for scenario in corpus.scenarios():
            assert scenario.hypothesis_notes
            for exp in scenario.expectations:
                assert exp.citation


class TestFirstUse:
    def test_check_reads_no_scenario_file(self, tmp_path):
        """The scenario table is built on first use: `ndslab check` in a
        fresh process opens its input and none of the shipped sources."""
        source = tmp_path / "one.ndsl"
        source.write_text("space shift(2);\nsystem F { else: sigma^1; }\ncheck F transitive;\n")
        code = (
            "import sys\nopened = []\n"
            "sys.addaudithook(lambda event, args: opened.append(str(args[0])) "
            "if event == 'open' and str(args[0]).endswith('.ndsl') else None)\n"
            "from ndslab import cli, corpus\n"
            "rc = cli.main(['check', sys.argv[1]])\n"
            "print(rc, opened, corpus.scenarios.cache_info().currsize, file=sys.stderr)"
        )
        src = os.path.dirname(os.path.dirname(corpus.__file__))
        done = subprocess.run([sys.executable, "-c", code, str(source)], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.stderr.strip() == f"0 {[str(source)]} 0"


class TestExecution:
    def test_full_corpus_reproduces_every_expectation(self):
        rows = corpus.run_corpus()
        assert {row["name"] for row in rows} == {s.name for s in corpus.scenarios()}
        failures = [
            f"{row['name']}: {r['description']} -> {r['actual']}"
            for row in rows
            for r in row["results"]
            if not r["passed"]
        ]
        assert not failures, failures
        assert all(row["passed"] for row in rows)

    def test_filtered_run(self):
        rows = corpus.run_corpus("example-3.5")
        assert len(rows) == 1 and rows[0]["passed"]

    def test_prefix_filter(self):
        rows = corpus.run_corpus("example-3.*")
        assert {row["name"] for row in rows} >= {"example-3.1", "example-3.9"}

    def test_no_match_is_empty(self):
        assert corpus.run_corpus("nonexistent") == []

    def test_a_limit_is_the_default_of_a_rule_free_limit_system(self):
        doc = ndsl.parse(corpus.scenario_sources()["example-3.3"])
        assert corpus._limit(doc) == mp.FiniteFnTerm((2, 2))
        ruled = ndsl.parse("space finite(2);\nsystem LIMIT { at 1: id; else: table{1->2,2->2}; }\n")
        with pytest.raises(ValueError, match="LIMIT"):
            corpus._limit(ruled)

    def test_reports_are_reproducible(self):
        first = corpus.run_corpus("example-3.5")
        second = corpus.run_corpus("example-3.5")
        assert first == second


class TestNameFilter:
    NAMES = [s.name for s in corpus.scenarios()]

    def selected(self, pattern):
        return {name for name in self.NAMES if corpus._matches(name, pattern)}

    def test_star_selects_every_name_with_the_prefix(self):
        assert self.selected("example-3.9*") == {"example-3.9", "example-3.9-interleaved"}

    def test_dot_star_selects_the_whole_family(self):
        family = {name for name in self.NAMES if name.startswith("example-3.")}
        assert len(family) >= 9
        assert self.selected("example-3.*") == family

    def test_plain_pattern_is_a_substring(self):
        assert self.selected("adversary") == {"theorem-3.5-adversary"}
        assert self.selected("3.9-inter") == {"example-3.9-interleaved"}


class TestVerdictSoundness:
    def test_every_corpus_property_verdict_rechecks(self):
        for scenario in corpus.scenarios():
            doc = ndsl.parse(scenario.source)
            for exp in scenario.expectations:
                if exp.kind != "property":
                    continue
                rendered = exp.params["property"]
                head, _, tail = rendered.partition(":")
                prop = ndsl.parse_property(
                    head, [__import__("fractions").Fraction(p) for p in tail.split(",")]
                    if tail else [],
                )
                spec = doc.system(exp.target)
                verdict = ck.check_property(
                    spec, prop,
                    basis_resolution=exp.params.get("basis", 2),
                    horizon=exp.params.get("horizon", 512),
                    law_horizon=exp.params.get("law_horizon", 2048),
                )
                assert ck.recheck_verdict(spec, verdict), (scenario.name, rendered)


def gap_bound_per_open(system, r, H, delta):
    """The sensitivity-gap-bound payload with every hitting and separation
    set decided open by open through the hitting module."""
    basis = sp.enumerate_basis(system.space, r)
    laws = mp.derive_laws(system, H)
    V = sp.Cylinder(-r, tuple([1] * (2 * r + 1)))
    m1 = 0
    for U in basis:
        fe = ht.classify_frequency(ht.hitting_set(system, U, V, H), laws)
        if fe.first_member is None:
            return "fail", {"reason": "reference target never hit"}
        m1 = max(m1, fe.max_gap)
    xi, note = cv.equicontinuity_modulus(system, delta, max(1, m1), H)
    if xi is None:
        return "fail", {"reason": "no modulus: " + note}
    w = 1
    while Fraction(2, 1 << w) > xi:
        w += 1
    W = sp.Cylinder(-w, tuple([0] * (2 * w + 1)))
    m2 = 0
    for U in basis:
        fe = ht.classify_frequency(ht.hitting_set(system, U, W, H), laws)
        if fe.first_member is None:
            return "fail", {"reason": "tracking neighborhood never hit"}
        m2 = max(m2, fe.max_gap)
    sens_gap = 0
    for U in basis:
        fe = ht.classify_frequency(ht.separation_set(system, U, delta, H), laws)
        sens_gap = max(sens_gap, fe.max_gap)
    detail = {"sensitivity_max_gap": sens_gap, "m1": m1, "m2": m2, "modulus_note": note}
    return "pass" if sens_gap <= m1 + m2 else "fail", detail


class OneSystem:
    """A stand-in document holding one system under every name."""

    def __init__(self, system):
        self._system = system

    def system(self, name):
        return self._system


def gap_bound(system, r, H, delta):
    exp = corpus.Expectation(
        "sensitivity-gap-bound", "X", "pass", {"basis": r, "horizon": H, "delta": delta}, "",
    )
    return corpus._run_gap_bound(OneSystem(system), exp)


SHIFT = sp.ShiftSpace()
CS = ndsl.parse(corpus.scenario_sources()["constant-shift"]).system("CS")
# systems reaching every outcome: bounded drifts pass (and miss the tracking
# neighborhood at short horizons), the identity never hits the target, and
# the growing exponents of example 3.6 have no modulus
GAP_SYSTEMS = {
    "CS": CS,
    "sigma^2": mp.NdsSpec(SHIFT, (), mp.ShiftPowTerm(2)),
    "alternating": mp.NdsSpec(
        SHIFT, (mp.Rule(mp.ArithProgPattern(1, 2), mp.ShiftPowTerm(3)),), mp.ShiftPowTerm(-1),
    ),
    "identity": mp.NdsSpec(SHIFT, (), mp.IdentityTerm()),
    "example-3.6": ndsl.parse(corpus.scenario_sources()["example-3.6"]).system("F"),
}


class TestGapBound:
    """The demonstration reads the pair and separation masks; the oracle asks
    the hitting module about each basis open."""

    @pytest.mark.parametrize("name, r, H, delta", [
        ("CS", 1, 200, Fraction(1, 4)),
        ("CS", 2, 200, Fraction(1, 4)),
        ("alternating", 2, 200, Fraction(1, 4)),
    ])
    def test_payload_matches_the_per_open_oracle(self, name, r, H, delta):
        system = GAP_SYSTEMS[name]
        assert gap_bound(system, r, H, delta) == gap_bound_per_open(system, r, H, delta)

    @given(st.sampled_from(sorted(GAP_SYSTEMS)), st.integers(1, 2), st.integers(1, 80),
           st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    @settings(max_examples=40, deadline=None)
    def test_payload_matches_at_any_horizon(self, name, r, H, delta):
        system = GAP_SYSTEMS[name]
        assert gap_bound(system, r, H, delta) == gap_bound_per_open(system, r, H, delta)

    def test_the_pinned_demonstration_passes(self):
        status, payload = gap_bound(CS, 2, 200, Fraction(1, 4))
        assert status == "pass" and payload["sensitivity_max_gap"] <= payload["m1"] + payload["m2"]


class TestInterleave:
    """The interleave check reads one set of prefix classes; the oracle asks
    prefix_compose at each time of each window between two firings."""

    DOC = ndsl.parse(corpus.scenario_sources()["example-3.9-interleaved"])

    def run(self, horizon, firings):
        exp = corpus.Expectation("interleave-structure", "G", "pass",
                                 {"horizon": horizon, "firings": firings}, "")
        return corpus._run_interleave(self.DOC, exp)[1]["runs_constant"]

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=8, unique=True), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_runs_match_the_prefix_maps_at_each_time(self, firings, horizon):
        firings = tuple(sorted(firings))
        system = self.DOC.system("G")
        expected = all(
            len({mp.prefix_compose(system, n) for n in range(a, min(b, horizon))}) == 1
            for a, b in zip(firings, firings[1:])
        )
        assert self.run(horizon, firings) == expected

    def test_a_window_past_the_horizon_holds_no_run(self):
        assert self.run(11, (1, 3, 6, 10, 15))
        assert not self.run(10, (1, 3, 6, 10, 15))
