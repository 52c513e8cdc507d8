"""Command-line contract: exit codes, report schema, determinism."""

import json
import pathlib
import re
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ndslab import cli

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "docs" / "report-schema.json").read_text()
)

EX36 = """space shift(2);
system F {
  at odd(k): sigma^k;
  at even(k): sigma^-k;
}
"""

EX36_WITH_DIRECTIVE = EX36 + "check F syndetically-transitive horizon 100 basis 1;\n"

EX38_WITH_PRODUCT = """space circle(sqrt2m1);
system F {
  at pow(3,0,k): rot^k;
  at pow(3,1,k): rot^-k;
}
system P = product(F, F);
"""


@pytest.fixture
def ndsl_file(tmp_path):
    def write(text, name="input.ndsl"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheckCommand:
    def test_witnessed_exit_zero(self, ndsl_file, capsys):
        code, out, _ = run(capsys, [
            "check", ndsl_file(EX36), "--property", "syndetically-transitive",
            "--horizon", "100", "--basis", "1",
        ])
        assert code == 0 and "witnessed" in out

    def test_refuted_exit_one(self, ndsl_file, capsys):
        code, out, _ = run(capsys, [
            "check", ndsl_file(EX36), "--property", "multi-transitive:2",
            "--horizon", "64",
        ])
        assert code == 1 and "refuted" in out

    def test_inconclusive_exit_two(self, ndsl_file, capsys):
        # unpaired one-shot powers admit no law; after they cancel the tail is
        # silent and nothing can refute within the horizon
        source = "space shift(2);\nsystem F { at 1: sigma^2; at 4: sigma^-2; }\n"
        code, out, _ = run(capsys, [
            "check", ndsl_file(source), "--property", "mixing", "--horizon", "8",
            "--basis", "1",
        ])
        assert code == 2

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run(capsys, ["check", "does-not-exist.ndsl"])
        assert code == 3 and "cannot read" in err

    def test_parse_error_exit_three(self, ndsl_file, capsys):
        code, _, err = run(capsys, ["check", ndsl_file("space shift(2); system H { at 1: }")])
        assert code == 3 and "syntax" in err

    def test_diagnostics_json_lines(self, ndsl_file, capsys):
        code, _, err = run(capsys, [
            "check", ndsl_file("space shift(2); system H { at 1: }"),
            "--diagnostics-json",
        ])
        assert code == 3
        line = json.loads(err.strip().splitlines()[0])
        assert line["kind"] == "syntax" and line["line"] == 1

    def test_directives_drive_default_run(self, ndsl_file, capsys):
        code, out, _ = run(capsys, ["check", ndsl_file(EX36_WITH_DIRECTIVE)])
        assert code == 0 and "syndetically-transitive" in out

    def test_system_flag_selects_target(self, ndsl_file, capsys):
        source = EX36 + "system T = tail(F, 2);\n"
        code, out, _ = run(capsys, [
            "check", ndsl_file(source), "--system", "T",
            "--property", "multi-transitive:2", "--horizon", "256", "--basis", "1",
        ])
        assert code == 0 and "witnessed" in out

    def test_unknown_system_exit_three(self, ndsl_file, capsys):
        code, _, err = run(capsys, [
            "check", ndsl_file(EX36), "--system", "NOPE", "--property", "transitive",
        ])
        assert code == 3 and "no system named" in err

    def test_json_report_validates_and_reproduces(self, ndsl_file, capsys):
        path = ndsl_file(EX36)
        argv = ["check", path, "--property", "weakly-mixing:2", "--horizon", "64",
                "--format", "json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        rep1, rep2 = json.loads(out1), json.loads(out2)
        jsonschema.validate(rep1, SCHEMA)
        for rep in (rep1, rep2):
            for chk in rep["checks"]:
                chk.pop("timing_ms", None)
            rep.pop("timing_ms", None)
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


    def test_report_states_the_precision_in_force(self, ndsl_file, capsys):
        # the builtin angle is decided exactly: no precision setting to report
        code, out, _ = run(capsys, [
            "check", ndsl_file(EX38_WITH_PRODUCT), "--property", "transitive", "--horizon", "16",
            "--format", "json",
        ])
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert code == 0 and "alpha_bits" not in report["configuration"]


def _long_period_source() -> str:
    # finite(40) permutation of order 15015: cycles 3, 5, 7, 11, 13 and a fixed point
    table, first = {}, 1
    for length in (3, 5, 7, 11, 13):
        for k in range(length):
            table[first + k] = first + (k + 1) % length
        first += length
    table[40] = 40
    maplets = ", ".join(f"{s}->{t}" for s, t in sorted(table.items()))
    return f"space finite(40);\nsystem F {{\n  else: table {{ {maplets} }};\n}}\n"


class TestExitCodes:
    def test_long_period_permutation_gets_a_verdict(self, ndsl_file, capsys):
        # the table law reads each point's loop and never lists the 15015 tables
        code, out, err = run(capsys, [
            "check", ndsl_file(_long_period_source()), "--property", "transitive",
            "--horizon", "64", "--basis", "1", "--format", "json",
        ])
        assert (code, err) == (1, "")
        (check,) = json.loads(out)["checks"]
        assert check["status"] == "refuted" and "a cycle of 15015" in check["evidence"]["structural"]

    def test_steps_settling_past_the_lead_walk_get_a_verdict(self, ndsl_file, capsys):
        # the steps settle at index 20001, past the 10,000-step lead walk:
        # no table law, so the check stays within its horizon
        source = "space finite(2);\nsystem F { at 20000: table{1->2,2->1}; }\n"
        code, out, err = run(capsys, [
            "check", ndsl_file(source), "--property", "transitive", "--format", "json",
        ])
        assert (code, err) == (2, "")
        (check,) = json.loads(out)["checks"]
        assert check["status"] == "inconclusive"
        assert check["evidence"] == {"unhit_count": 2, "unhit_pairs": ["0->1", "1->0"]}

    def test_power_rule_meeting_a_progression_late_is_an_input_error(self, ndsl_file, capsys):
        source = ("space finite(2);\n"
                  "system F { at pow(2,0,k): table{1->2,2->1}; at ap(5000,1): id; }\n")
        code, out, err = run(capsys, ["check", ndsl_file(source), "--property", "transitive"])
        assert (code, out) == (3, "")
        assert "index 8192 matches both" in err

    def test_power_rules_first_meeting_past_the_walk_bound_are_an_input_error(
        self, ndsl_file, capsys
    ):
        source = ("space finite(2);\n"
                  "system F { at pow(2,0,k): table{1->2,2->1}; at pow(8192,0,k): id; }\n")
        code, out, err = run(capsys, ["check", ndsl_file(source), "--property", "transitive"])
        assert (code, out) == (3, "")
        assert "index 8192 matches both" in err

    def test_forty_digit_shift_of_a_constant_point_gets_verdicts(self, ndsl_file, capsys):
        source = (
            f"space shift(2);\nsystem S {{ at 5: sigma^{10**40}; }}\n"
            "check S almost-periodic-point horizon 10 basis 1;\n"
            "check S minimal horizon 10 basis 1;\n"
        )
        code, out, err = run(capsys, ["check", ndsl_file(source), "--format", "json"])
        assert (code, err) == (1, "")
        assert [c["status"] for c in json.loads(out)["checks"]] == ["witnessed", "refuted"]

    @pytest.mark.parametrize("delta, first, longest_run", [("1/2", 1, 10), ("5/2", 5, 6)])
    def test_forty_digit_shift_gets_sensitivity_verdicts(
        self, ndsl_file, capsys, delta, first, longest_run
    ):
        # from n = 5 on the basis window sits 10^40 cells out: every image
        # there is wider than either delta, and the basis itself (diameter
        # 1) only wider than 1/2
        source = f"space shift(2);\nsystem S {{ at 5: sigma^{10**40}; }}\n"
        names = ("sensitive", "syndetically-sensitive", "thickly-sensitive", "multi-sensitive")
        flags = [arg for name in names for arg in ("--property", f"{name}:{delta}")]
        code, out, err = run(capsys, [
            "check", ndsl_file(source), *flags, "--horizon", "10", "--basis", "1",
            "--format", "json",
        ])
        assert (code, err) == (0, "")
        checks = json.loads(out)["checks"]
        assert [c["status"] for c in checks] == ["witnessed"] * 4
        sensitive, syndetic, thick, multi = (c["evidence"] for c in checks)
        assert sensitive["per_open"]["0"] == {"first": first}
        assert syndetic["per_open"]["0"]["max_gap"] == first
        assert thick["per_open"]["0"] == {"longest_run": longest_run}
        assert multi["common_separation_time"] == first

    def test_any_escaping_exception_exits_four(self, ndsl_file, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("broken\nkernel")

        monkeypatch.setattr(cli.ck, "check_property", broken)
        code, _, err = run(capsys, ["check", ndsl_file(EX36_WITH_DIRECTIVE)])
        assert code == 4
        assert re.fullmatch(
            r"ndslab: internal error: ZeroDivisionError: broken kernel \(at test_cli\.py:\d+\)\n", err
        )

    @pytest.mark.parametrize("flag", ["--horizon", "--basis", "--law-horizon"])
    def test_nonpositive_size_flag_exits_three(self, ndsl_file, capsys, flag):
        code, _, err = run(capsys, [
            "check", ndsl_file(EX36), "--property", "transitive", flag, "0",
        ])
        assert code == 3 and "must be at least 1" in err

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fail fast instead of filling arrays and masks up to the bound,
        should a size past it ever get through."""
        def refuse(*args, **kwargs):
            raise AssertionError("a size past the bound reached the kernels")

        monkeypatch.setattr(cli.mp, "derive_laws", refuse)
        monkeypatch.setattr(cli.ck, "check_property", refuse)

    @pytest.mark.parametrize("flag", ["--horizon", "--law-horizon"])
    def test_horizon_flag_past_the_bound_exits_three(self, ndsl_file, capsys, no_work, flag):
        over = str(cli.MAX_HORIZON + 1)
        code, out, err = run(capsys, [
            "check", ndsl_file(EX36), "--property", "transitive", "--basis", "1", flag, over,
        ])
        assert code == 3 and out == ""
        assert err == f"ndslab: {flag} must be at most {cli.MAX_HORIZON}, got {over}\n"

    def test_directive_horizon_past_the_bound_exits_three(self, ndsl_file, capsys, no_work):
        over = cli.MAX_HORIZON + 1
        code, out, err = run(capsys, [
            "check", ndsl_file(EX36 + f"check F transitive horizon {over} basis 1;\n"),
        ])
        assert code == 3 and out == ""
        assert err == (f"ndslab: check F transitive: horizon must be at most "
                       f"{cli.MAX_HORIZON}, got {over}\n")

    def test_help_gives_the_horizon_bound(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["check", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert text.count(f"1 to {cli.MAX_HORIZON}") == 2 and cli.MAX_HORIZON >= 10**6

    @pytest.mark.parametrize("system", ["F", "P"])
    def test_circle_basis_one_exits_three(self, ndsl_file, capsys, system):
        # arcs at resolution 1 would have radius 1/2: not an open arc
        code, out, err = run(capsys, [
            "check", ndsl_file(EX38_WITH_PRODUCT), "--system", system, "--property", "transitive",
            "--basis", "1", "--horizon", "16",
        ])
        assert code == 3 and out == ""
        assert err == f"ndslab: check {system} transitive: basis must be at least 2, got 1\n"

    @pytest.mark.parametrize("sizes", ["horizon 0", "basis 0", "horizon 0 basis 0"])
    def test_zero_sizes_in_a_directive_exit_three(self, ndsl_file, capsys, sizes):
        code, out, err = run(capsys, ["check", ndsl_file(EX36 + f"check F transitive {sizes};\n")])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "must be at least 1, got 0" in err

    @pytest.mark.parametrize("argv", [
        ["--horizon", "abc"], ["--basis", "1.5"], ["--format", "xml"], ["--no-such-flag"],
    ])
    def test_flags_argparse_rejects_exit_three(self, ndsl_file, capsys, argv):
        code, out, err = run(capsys, ["check", ndsl_file(EX36), "--property", "transitive", *argv])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ndslab: ")

    def test_zero_denominator_property_exits_three(self, ndsl_file, capsys):
        code, _, err = run(capsys, ["check", ndsl_file(EX36), "--property", "sensitive:1/0"])
        assert code == 3 and err == "ndslab: zero denominator in 'sensitive:1/0'\n"

    def test_overlong_literal_exits_three(self, ndsl_file, capsys):
        source = "space finite(" + "9" * 5000 + ");\nsystem F { else: id; }\n"
        code, _, err = run(capsys, ["check", ndsl_file(source), "--property", "transitive"])
        assert code == 3 and "semantic" in err and "Traceback" not in err

    def test_oversized_denominator_exits_three(self, ndsl_file, capsys):
        source = "space circle(alpha(1/2 +- 1/2^5000));\nsystem F { else: rot^1; }\n"
        code, _, err = run(capsys, ["check", ndsl_file(source), "--property", "transitive"])
        assert code == 3 and "exceeds 2^4096" in err


class TestSpaceDeclarations:
    @pytest.mark.parametrize("source", [
        "space shift(2);\nsystem F { else: rot^1; }\n",
        "space circle(sqrt2m1);\nsystem F { at odd(k): sigma^k; }\n",
        "space finite(3);\nsystem F { else: table{1->2,2->1}; }\n",
        "space finite(2);\nsystem F { else: sigma^1; }\n",
    ], ids=["rotation-on-shift", "shift-family-on-circle", "short-table", "shift-on-finite"])
    def test_map_that_does_not_fit_the_space_exits_three(self, ndsl_file, capsys, source):
        code, out, err = run(capsys, ["check", ndsl_file(source), "--property", "transitive"])
        assert code == 3 and out == ""
        assert "semantic" in err and "space" in err and "internal error" not in err

    @pytest.mark.parametrize("space", ["shift(1)", "shift(0)", "finite(0)"])
    def test_empty_or_one_letter_space_exits_three(self, ndsl_file, capsys, space):
        # one diagnostic, at the size literal; the system after it adds none
        source = f"space {space};\nsystem F {{ else: id; }}\n"
        code, out, err = run(capsys, ["check", ndsl_file(source), "--property", "transitive"])
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        column = len("space ") + space.index("(") + 2
        assert f":1:{column}: semantic:" in line and "internal error" not in line


HUGE_ROTATION = "space circle(sqrt2m1);\nsystem R { else: rot^1" + "0" * 60 + "; }\n"


def declared_rotation(alpha: str) -> str:
    return f"space circle(alpha({alpha}));\nsystem R {{ else: rot^1; }}\n"


class TestCircleAngles:
    @pytest.mark.parametrize("prop", [
        "transitive", "minimal", "weakly-mixing", "almost-periodic-point", "strongly-transitive",
    ])
    def test_huge_rotation_exponent_is_witnessed(self, ndsl_file, capsys, prop):
        # 10^60 * alpha lies far past any fixed enclosure precision
        code, out, err = run(capsys, [
            "check", ndsl_file(HUGE_ROTATION), "--property", prop, "--horizon", "64",
        ])
        assert code == 0 and out.startswith("witnessed") and err == ""

    @pytest.mark.parametrize("alpha, prop", [
        ("1/3 +- 1/2^80", "almost-periodic-point"),
        ("1/3 +- 1/2^80", "strongly-transitive"),
        ("1/4 +- 1/2^70", "almost-periodic-point"),
        ("2/5 +- 1/2^90", "almost-periodic-point"),
    ])
    def test_declared_enclosure_never_exits_four(self, ndsl_file, capsys, alpha, prop):
        code, out, err = run(capsys, [
            "check", ndsl_file(declared_rotation(alpha)), "--property", prop,
            "--horizon", "24", "--basis", "3",
        ])
        assert code in (0, 1, 2) and err == ""

    def test_undecided_cover_names_the_enclosure(self, ndsl_file, capsys):
        code, out, _ = run(capsys, [
            "check", ndsl_file(declared_rotation("1/3 +- 1/2^80")), "--property",
            "strongly-transitive", "--horizon", "24", "--basis", "3", "--format", "json",
        ])
        check = json.loads(out)["checks"][0]
        assert code == 2 and check["status"] == "inconclusive"
        assert f"alpha(1/3 +- 1/{2**80})" in check["caveats"][0]


class TestPropertyParameters:
    @pytest.mark.parametrize("prop", [
        "sensitive:1/2,7", "weakly-mixing:2,9", "thickly-sensitive:1/4,5/2",
        "multi-sensitive:1/2,3/2", "thickly-sensitive:1/4,0",
    ])
    def test_bad_property_flag_exits_three(self, ndsl_file, capsys, prop):
        code, out, err = run(capsys, ["check", ndsl_file(EX36), "--property", prop])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ndslab: ")

    @pytest.mark.parametrize("directive", [
        "check F thickly-sensitive:1/4,0;",
        "check F sensitive:1/2,7;",
        "check F transitive horizon 5 horizon 9 basis 1;",
        "check F transitive basis 1 horizon 5 basis 2;",
    ])
    def test_bad_directive_exits_three(self, ndsl_file, capsys, directive):
        code, out, err = run(capsys, ["check", ndsl_file(EX36 + directive + "\n")])
        assert code == 3 and out == "" and "semantic" in err


class TestCorpusCommand:
    def test_filtered_corpus_json_validates(self, capsys):
        code, out, _ = run(capsys, [
            "corpus", "--filter", "example-3.5", "--format", "json",
        ])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["scenarios"][0]["name"] == "example-3.5"
        assert all(r["passed"] for r in report["scenarios"][0]["results"])

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, ["corpus", "--filter", "example-3.3"])
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_empty_filter_warns_and_exits_zero(self, capsys):
        code, out, err = run(capsys, ["corpus", "--filter", "nonexistent"])
        assert code == 0 and "no scenario matches" in err


# strings with the characters an encoder must escape, and any others
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé≡\u2028'), st.characters()))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.fractions(), JSON_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


class TestReportText:
    @given(JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_indented_encoder(self, value):
        assert cli.report_text(value) == json.dumps(value, sort_keys=True, indent=2, default=str)

    def test_a_table_of_scalars_keeps_its_indent(self):
        report = {"checks": [{"evidence": {"witness_times": {"0->0": 1, "0->1": 2}},
                              "caveats": [], "delta": Fraction(1, 4)}], "schema": 1}
        assert cli.report_text(report) == json.dumps(report, sort_keys=True, indent=2, default=str)
        assert '\n        "witness_times": {\n          "0->0": 1,\n          "0->1": 2\n' in (
            cli.report_text(report))
