"""Corpus completeness, reproducibility, and verdict soundness."""

from ndslab import checkers as ck
from ndslab import corpus, ndsl

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
        names = {s.name for s in corpus.SCENARIOS}
        missing = REQUIRED_SCENARIOS - names
        assert not missing, f"missing scenarios: {sorted(missing)}"

    def test_every_expectation_has_citation_and_notes(self):
        for scenario in corpus.SCENARIOS:
            assert scenario.hypothesis_notes
            for exp in scenario.expectations:
                assert exp.citation


class TestExecution:
    def test_full_corpus_reproduces_every_expectation(self):
        reports = corpus.run_corpus()
        assert {r.name for r in reports} == {s.name for s in corpus.SCENARIOS}
        failures = [
            f"{rep.name}: {r.description} -> {r.actual}"
            for rep in reports
            for r in rep.results
            if not r.passed
        ]
        assert not failures, failures

    def test_filtered_run(self):
        reports = corpus.run_corpus("example-3.5")
        assert len(reports) == 1 and reports[0].passed

    def test_prefix_filter(self):
        reports = corpus.run_corpus("example-3.*")
        assert {r.name for r in reports} >= {"example-3.1", "example-3.9"}

    def test_no_match_is_empty(self):
        assert corpus.run_corpus("nonexistent") == []

    def test_reports_are_reproducible(self):
        first = corpus.run_corpus("example-3.5")
        second = corpus.run_corpus("example-3.5")
        assert first == second


class TestNameFilter:
    NAMES = [s.name for s in corpus.SCENARIOS]

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
        for scenario in corpus.SCENARIOS:
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
