"""NDSL front end: parsing, diagnostics, canonical printing, round-trips."""

import pathlib
import random
import re
import string
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from ndsl_printer import print_document, random_document

from ndslab import checkers as ck
from ndslab import corpus, ndsl
from ndslab.maps import (
    ArithProgPattern,
    FamilyTerm,
    IndexPattern,
    NdsSpec,
    PowerPattern,
    ProductSpec,
    Rule,
    iterate,
    tail,
)
from ndslab.spaces import AlphaEnclosure, CircleSpace, ShiftSpace


class TestParsing:
    def test_alternating_system(self):
        doc = ndsl.parse(
            "space shift(2); system F { at odd(k): sigma^k; at even(k): sigma^-k; }"
        )
        assert doc.system("F") == NdsSpec(ShiftSpace(2), (
            Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
            Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1)),
        ))

    def test_circle_powers(self):
        doc = ndsl.parse(
            "space circle(sqrt2m1); system G { at pow(3,0,k): rot^k; "
            "at pow(3,1,k): rot^-k; else: id; }"
        )
        g = doc.system("G")
        assert isinstance(g.space, CircleSpace)
        assert g.rules == (
            Rule(PowerPattern(3, 0), FamilyTerm("rot", 1)),
            Rule(PowerPattern(3, 1), FamilyTerm("rot", -1)),
        )

    def test_the_parser_builds_every_index_pattern_and_no_other(self):
        # one system per pattern form; `else:` sets the default, not a rule
        doc = ndsl.parse(
            "space shift(2); system A { at 3: sigma^1; else: sigma^2; } "
            "system B { at ap(4,5): sigma^1; } system C { at pow(2,0,k): sigma^k; } "
            "system D { at odd(k): sigma^k; } system G { at even(k): sigma^-k; }"
        )
        assert len(doc.system("A").rules) == 1
        built = {type(r.pattern) for name in "ABCDG" for r in doc.system(name).rules}
        assert built == set(typing.get_args(IndexPattern))

    def test_derived_systems(self):
        doc = ndsl.parse(
            "space shift(2); system F { else: sigma^1; } "
            "system T = tail(F, 2); system I = iterate(F, 3); "
            "system P = product(F, T);"
        )
        assert doc.system("T") == tail(doc.system("F"), 2)
        assert doc.system("I") == iterate(doc.system("F"), 3)
        assert doc.system("P") == ProductSpec((doc.system("F"), doc.system("T")))

    def test_custom_alpha(self):
        doc = ndsl.parse("space circle(alpha(1/3 +- 1/2^70)); system R { else: rot^1; }")
        alpha = doc.space.alpha
        assert alpha == AlphaEnclosure.custom(Fraction(1, 3), Fraction(1, 2**70))

    def test_check_directives(self):
        doc = ndsl.parse(
            "space shift(2); system F { else: sigma^1; } "
            "check F syndetically-transitive horizon 200 basis 2; "
            "check F multi-sensitive:1/2,3;"
        )
        assert doc.checks[0].prop.name == "syndetically-transitive"
        assert doc.checks[0].horizon == 200 and doc.checks[0].basis == 2
        assert doc.checks[1].prop.delta == Fraction(1, 2)

    def test_sizes_in_either_order(self):
        doc = ndsl.parse(
            "space shift(2); system F { else: sigma^1; } check F transitive basis 1 horizon 9;"
        )
        assert (doc.checks[0].horizon, doc.checks[0].basis) == (9, 1)


class TestDiagnostics:
    def test_missing_map_expression(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space shift(2); system H { at 1: }")
        diag = err.value.diagnostics[0]
        assert diag.kind == "syntax"
        assert diag.line == 1 and diag.column > 25
        assert "sigma" in diag.expected

    def test_overlap_names_both_rules(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space shift(2); system H { at ap(1,2): sigma^1; at 5: sigma^2; }")
        assert "matches both" in err.value.diagnostics[0].message
        assert err.value.diagnostics[0].kind == "semantic"

    def test_unknown_reference(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space shift(2); system D = tail(NOPE, 2);")
        assert "unknown system" in err.value.diagnostics[0].message

    def test_lexical_diagnostic(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space shift(2); system F { at 1: sigma^1; } $$$")
        assert any(d.kind == "lexical" for d in err.value.diagnostics)

    def test_duplicate_name(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space shift(2); system F { else: id; } system F { else: id; }")
        assert "duplicate" in err.value.diagnostics[0].message

    def test_unbound_ordinal(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space shift(2); system F { at ap(1,2): sigma^k; }")
        assert "ordinal" in err.value.diagnostics[0].message

    def test_missing_space(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("system F { else: id; }")
        assert any(d.kind == "semantic" for d in err.value.diagnostics)

    def test_diagnostics_json_shape(self):
        try:
            ndsl.parse("space shift(2); system H { at 1: }")
        except ndsl.NdslParseError as err:
            payload = err.diagnostics[0].to_json()
            assert set(payload) == {"kind", "line", "column", "message", "expected"}

    @pytest.mark.parametrize("sizes", ["horizon 5 horizon 9", "basis 1 horizon 5 basis 2"])
    def test_size_set_twice_in_a_directive(self, sizes):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse(f"space shift(2); system F {{ else: sigma^1; }} check F transitive {sizes};")
        diag = err.value.diagnostics[0]
        assert diag.kind == "semantic" and "set twice" in diag.message

    @pytest.mark.parametrize("prop", [
        "sensitive:1/2,7", "weakly-mixing:2,9", "thickly-sensitive:1/4,5/2",
        "multi-sensitive:1/2,3/2", "thickly-sensitive:1/4,0",
    ])
    def test_bad_property_parameters(self, prop):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse(f"space shift(2); system F {{ else: sigma^1; }} check F {prop};")
        assert [d.kind for d in err.value.diagnostics] == ["semantic"]

    def test_overlong_integer_literal(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space finite(" + "9" * (ndsl.MAX_INT_DIGITS + 1) + ");")
        diag = err.value.diagnostics[0]
        assert diag.kind == "semantic" and "digits" in diag.message

    def test_longest_integer_literal_parses(self):
        doc = ndsl.parse("space shift(" + "0" * (ndsl.MAX_INT_DIGITS - 1) + "2);")
        assert doc.space == ShiftSpace(2)

    def test_oversized_power_denominator(self):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse("space circle(alpha(1/2 +- 1/3^4000));")
        diag = err.value.diagnostics[0]
        assert diag.kind == "semantic" and "exceeds 2^4096" in diag.message

    def test_power_denominator_at_the_bound_parses(self):
        doc = ndsl.parse("space circle(alpha(1/2 +- 1/2^4096));")
        assert doc.space.alpha.halfwidth == Fraction(1, 1 << 4096)

    def test_power_bound_decided_exactly(self):
        for base in range(0, 40):
            for exp in range(0, 30):
                for bits in (1, 16, 64):
                    assert ndsl._power_exceeds(base, exp, bits) == (base**exp > 1 << bits)
        # decided from bit lengths alone: the power is never built
        assert ndsl._power_exceeds(3, 10**12, ndsl.MAX_DENOMINATOR_BITS)

    def test_parser_is_total_on_junk(self):
        rng = random.Random(7)
        alphabet = string.ascii_letters + string.digits + "{}();:,^/=- \n#" + "->"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            try:
                ndsl.parse(text)
            except ndsl.NdslParseError:
                pass


class TestPrinting:
    def test_normalizes_rule_order_and_whitespace(self):
        messy = (
            "space   shift(2);\n\nsystem F {\n   at even(k):sigma^-k;"
            "  at odd(k): sigma^k;\n}"
        )
        doc = ndsl.parse(messy)
        text = print_document(doc)
        assert "at ap(1,2,k): sigma^k;" in text
        assert text.index("ap(1,2,k)") < text.index("ap(2,2,k)")
        assert ndsl.parse(text) == doc

    def test_product_rendering(self):
        doc = ndsl.parse(
            "space shift(2); system F { else: sigma^1; } system G { else: id; } "
            "system P = product(F, G);"
        )
        assert "system P = product(F, G);" in print_document(doc)

    def test_round_trip_on_corpus_sources(self):
        for name, source in corpus.scenario_sources().items():
            doc = ndsl.parse(source)
            assert ndsl.parse(print_document(doc)) == doc, name

    def test_corpus_sources_equal_programmatic_specs(self):
        shift = ShiftSpace(2)
        fam = FamilyTerm
        programmatic = {
            ("example-3.1", "F"): NdsSpec(shift, (
                Rule(ArithProgPattern(3, 2), fam("shift", 1)),
                Rule(ArithProgPattern(4, 2), fam("shift", -1)),
            )),
            ("example-3.6", "F"): NdsSpec(shift, (
                Rule(ArithProgPattern(1, 2), fam("shift", 1)),
                Rule(ArithProgPattern(2, 2), fam("shift", -1)),
            )),
            ("example-3.8", "F"): NdsSpec(CircleSpace(), (
                Rule(PowerPattern(3, 0), fam("rot", 1)),
                Rule(PowerPattern(3, 1), fam("rot", -1)),
            )),
        }
        sources = corpus.scenario_sources()
        for (file, name), spec in programmatic.items():
            assert ndsl.parse(sources[file]).system(name) == spec


class TestPropertyRendering:
    @pytest.mark.parametrize("prop", [
        *(ck.PropertyKind(name) for name, (_, params) in ck.PROPERTIES.items() if not params),
        *(ck.PropertyKind(name, order=k)
          for name in ("weakly-mixing", "multi-transitive", "totally-transitive")
          for k in (2, 3, 5)),
        *(ck.PropertyKind(name, delta=d)
          for name in ("sensitive", "syndetically-sensitive")
          for d in (Fraction(1, 2), Fraction(3), Fraction(5, 1024))),
        *(ck.PropertyKind("thickly-sensitive", delta=Fraction(1, 4), run_length=run)
          for run in (1, 3, 7)),
        *(ck.PropertyKind("multi-sensitive", delta=Fraction(1, 4), order=m) for m in (1, 2, 3, 4)),
    ], ids=repr)
    def test_parse_reads_back_the_rendering(self, prop):
        assert ndsl.read_property(prop.render()) == prop

    def test_docs_list_exactly_the_checkable_properties(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        listed = readme.split("Checkable properties:")[1].split("\n\n")[0]
        grammar = (root / "docs" / "ndsl-grammar.ebnf").read_text()
        alternatives = grammar.split("property-name =")[1].split(";")[0]
        names = sorted(ck.PROPERTIES)
        assert sorted(n.split(":")[0] for n in re.findall(r"`([^`]+)`", listed)) == names
        assert sorted(re.findall(r'"([a-z-]+)"', alternatives)) == names


# the lexer before it read one token per match: one match a token, whitespace
# run or comment, and the line and column carried from token to token.  A
# line ends at each break str.splitlines splits at, "\r\n" counted once;
# an integer is ASCII digits
_REFERENCE_BREAK_RE = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*)
  | (?P<arrow>->)
  | (?P<pm>\+-)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z][A-Za-z0-9]*)*)
  | (?P<sym>[{}();:,^/=\-])
    """,
    re.VERBOSE,
)


def reference_lex(text: str):
    """(kind, text, line, column) of each token, ending in "eof", and
    (line, column, message) of each unexpected character."""
    tokens, diags = [], []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            diags.append((line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind if kind in ("int", "ident") else chunk, chunk, line, col))
        breaks = list(_REFERENCE_BREAK_RE.finditer(chunk))
        if breaks:
            line += len(breaks)
            col = len(chunk) - breaks[-1].end() + 1
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens, diags


LEXER_PIECES = st.sampled_from([
    *"{}();:,^/=-+@#>.x9", "->", "+-", "->-", "sigma", "a-b", "a--b", "12", "\u0663", "\uff13",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u2029",
    "\u00a0", "é", "# comment -> 1\n", "#\n", "# c\r", "#\u2028",
])
LEXER_ENDS = st.sampled_from(["", "# a comment at the end", "#", "  ", " \n\t", "\r\n", "x"])


class TestLexer:
    @given(st.lists(LEXER_PIECES, max_size=40).map("".join), LEXER_ENDS)
    @settings(max_examples=2000, deadline=None)
    def test_tokens_and_positions_match_the_reference_lexer(self, body, end):
        text = body + end
        parser = ndsl._Parser(text)
        tokens = []
        for t in parser.tokens:
            place = parser.diagnostic("lexical", t.at, "")
            tokens.append((t.kind, t.text, place.line, place.column))
        diags = [(d.line, d.column, d.message) for d in parser.diags]
        assert (tokens, diags) == reference_lex(text)
        assert all(d.kind == "lexical" for d in parser.diags)

    def test_line_breaks_are_those_splitlines_splits_at(self):
        splits = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2]
        assert sorted(ndsl.LINE_BREAKS) == splits

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13", "\u0969"], ids=ascii)
    def test_a_digit_outside_ascii_is_a_lexical_error(self, digit):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse(f"space shift({digit});")
        assert err.value.diagnostics[0].kind == "lexical"
        assert err.value.diagnostics[0].column == 13

    @pytest.mark.parametrize("br", ["\r\n", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"], ids=ascii)
    def test_a_diagnostic_counts_every_line_break(self, br):
        with pytest.raises(ndsl.NdslParseError) as err:
            ndsl.parse(f"space shift(2);{br}system F {{ at 1: }}{br}")
        assert err.value.diagnostics[0].render().startswith("2:18: syntax:")

    @pytest.mark.parametrize("br", ["\r\n", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"], ids=ascii)
    def test_a_comment_ends_at_every_line_break(self, br):
        doc = ndsl.parse(br.join(["space shift(2);", "# c", "system F { else: sigma^1; }",
                                  "check F transitive;", ""]))
        assert doc.names == ["F"] and len(doc.checks) == 1


class TestOneGrammar:
    ACCEPTED = {"thickly-sensitive:1/4,2", "weakly-mixing:3", "mixing"}

    @pytest.mark.parametrize("text", [
        "sensitive:0.5", "sensitive:1e-5000", "sensitive:-1/2", "sensitive:1/0",
        "sensitive:1/2^4097", "multi-transitive:" + "7" * (ndsl.MAX_INT_DIGITS + 1),
        "thickly-sensitive:1/4,2", "weakly-mixing:3", "mixing",
    ], ids=lambda text: text if len(text) < 40 else f"{text[:20]}...{len(text)}-chars")
    def test_a_directive_parses_exactly_when_the_flag_reads(self, text):
        try:
            flag = ndsl.read_property(text)
        except ValueError:
            flag = None
        try:
            doc = ndsl.parse(f"space shift(2); system F {{ else: sigma^1; }} check F {text};")
            directive = doc.checks[0].prop
        except ndsl.NdslParseError:
            directive = None
        assert flag == directive
        assert (flag is not None) == (text in self.ACCEPTED)


class TestRandomRoundTrip:
    def test_two_thousand_documents(self):
        rng = random.Random(20240809)
        for _ in range(2000):
            doc = random_document(rng)
            assert ndsl.parse(print_document(doc)) == doc


class TestCorpusSources:
    # scenarios whose source file is named differently from the scenario
    FILE_OF = {
        "theorem-3.5-adversary": "example-3.6",
        "theorem-3.2-3.3-consistency": "consistency",
        "theorem-3.18-constant-shift": "constant-shift",
        "theorem-final-strong": "three-cycle",
        "lemma-2.1-construction": "constant-shift",
    }

    def test_scenario_sources_are_the_shipped_files(self):
        from importlib import resources

        folder = resources.files("ndslab") / "scenarios"
        shipped = {
            ref.name[: -len(".ndsl")]: ref.read_text()
            for ref in folder.iterdir() if ref.name.endswith(".ndsl")
        }
        assert len(shipped) == 12
        assert corpus.scenario_sources() == shipped
        for scenario in corpus.scenarios():
            file = self.FILE_OF.get(scenario.name, scenario.name)
            assert scenario.source == shipped[file], scenario.name

    def test_sources_compile_to_scenario_systems(self):
        for scenario in corpus.scenarios():
            doc = ndsl.parse(scenario.source)
            for exp in scenario.expectations:
                doc.system(exp.target)  # raises KeyError if missing
