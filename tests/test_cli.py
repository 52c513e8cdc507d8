"""Command-line contract: exit codes, report schema, determinism."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from fractions import Fraction
from functools import partial

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ndslab import checkers as ck
from ndslab import cli, ndsl
from ndslab import spaces as sp

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

SHIFT_SQUARE = """space shift(2);
system A { else: sigma^1; }
system P = product(A, A);
"""

SIGMA = "space shift(2);\nsystem F { else: sigma^1; }\n"

FINITE_SWAP = "space finite(2);\nsystem F { else: table{1->2,2->1}; }\n"

FINITE_ONE = "space finite(1);\nsystem F { else: table{1->1}; }\n"

# a 300-cycle on finite(300): 90,000 pairs, whose tables over 64 times meet
# at most 64 * 300 pairs, so that set has at most 19,201 codes; over more
# than 300 times every pair may have a code of its own
RING300 = ("space finite(300);\nsystem F { else: table{"
           + ",".join(f"{k}->{k % 300 + 1}" for k in range(1, 301)) + "}; }\n")

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
        # a power rule outside a telescoping pair admits no law, and no
        # cofinite tail shows within the horizon
        source = "space shift(2);\nsystem F { at 1: sigma^2; at pow(2,3,k): sigma^-2; }\n"
        code, out, _ = run(capsys, [
            "check", ndsl_file(source), "--property", "mixing", "--horizon", "8",
            "--basis", "1",
        ])
        assert code == 2

    def test_unpaired_one_shots_get_a_law_that_refutes(self, ndsl_file, capsys):
        # E is 2 on 1..3 and 0 from 4 on: three literal pieces, so every
        # disjoint pair is hit at most there
        source = "space shift(2);\nsystem F { at 1: sigma^2; at 4: sigma^-2; }\n"
        code, out, _ = run(capsys, [
            "check", ndsl_file(source), "--property", "mixing", "--horizon", "8",
            "--basis", "1", "--format", "json",
        ])
        (check,) = json.loads(out)["checks"]
        assert code == 1 and check["status"] == "refuted"
        assert check["evidence"]["structural"].endswith(
            "E(n=1)=2; E(n=2)=2; E(n=3)=2; E(otherwise)=0 [validated to 2048]"
        )

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

    TWO_SYSTEMS = (
        "space shift(2);\nsystem A { else: sigma^1; }\nsystem B { else: sigma^1; }\n"
        "check A transitive horizon 16 basis 1;\n"
    )

    @pytest.mark.parametrize("name", ["Nope", ""])
    def test_unknown_system_exits_three_when_directives_run(self, ndsl_file, capsys, name):
        path = ndsl_file(self.TWO_SYSTEMS)
        code, out, err = run(capsys, ["check", path, "--system", name])
        assert (code, out) == (3, "")
        assert err == f"ndslab: no system named {name!r} in {path}\n"

    def test_system_flag_runs_the_directives_on_that_system(self, ndsl_file, capsys):
        both = ndsl_file(self.TWO_SYSTEMS + "check B mixing horizon 16 basis 1;\n", "both.ndsl")
        code, out, _ = run(capsys, ["check", both, "--system", "B", "--format", "json"])
        assert [(c["system"], c["property"]) for c in json.loads(out)["checks"]] == [("B", "mixing")]
        path = ndsl_file(self.TWO_SYSTEMS)
        code, out, err = run(capsys, ["check", path, "--system", "B"])
        assert (code, out) == (3, "")
        assert err == f"ndslab: {path} has no check directives on 'B' and no --property given\n"

    def test_document_without_a_system_exits_three(self, ndsl_file, capsys):
        path = ndsl_file("space shift(2);\n")
        code, out, err = run(capsys, ["check", path, "--property", "transitive"])
        assert (code, out) == (3, "")
        assert err == f"ndslab: {path} defines no system to check\n"

    def test_no_directives_and_no_property_exits_three(self, ndsl_file, capsys):
        path = ndsl_file(EX36)
        code, out, err = run(capsys, ["check", path])
        assert (code, out) == (3, "")
        assert err == f"ndslab: {path} has no check directives and no --property given\n"

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

    @pytest.fixture
    def no_masks(self, monkeypatch, no_work):
        def refuse(*args, **kwargs):
            raise AssertionError("an over-budget order reached the pair masks")

        monkeypatch.setattr(cli.ck, "_pair_masks", refuse)

    @pytest.mark.parametrize("via", ["flag", "directive"])
    def test_multi_transitive_span_past_the_bound_exits_three(self, ndsl_file, capsys, no_masks, via):
        # multi-transitive:m builds its pair masks over m times the horizon
        order, horizon = 4, cli.MAX_HORIZON // 4 + 1
        prop = f"multi-transitive:{order}"
        if via == "flag":
            argv = ["check", ndsl_file(EX36), "--property", prop, "--basis", "1",
                    "--horizon", str(horizon)]
        else:
            argv = ["check", ndsl_file(EX36 + f"check F {prop} horizon {horizon} basis 1;\n")]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == (f"ndslab: check F {prop}: order {order} times horizon {horizon} must be "
                       f"at most {cli.MAX_HORIZON}, got {order * horizon}\n")

    def test_multi_transitive_span_at_the_bound_is_accepted(self):
        # estimated only: a span of exactly MAX_HORIZON passes the size check
        # on a system with one prefix class, whose class mask is one int
        args = cli._parse_args(["check", "x.ndsl"])
        doc = ndsl.parse("space shift(2);\nsystem F { else: id; }\n")
        requests = [("F", ndsl.read_property("multi-transitive:4"), cli.MAX_HORIZON // 4, 1)]
        assert cli._size_problem(args, doc, requests) is None
        requests = [("F", ndsl.read_property("multi-transitive:4"), cli.MAX_HORIZON // 4 + 1, 1)]
        assert "order 4 times horizon" in cli._size_problem(args, doc, requests)

    @pytest.mark.parametrize("via", ["flag", "directive"])
    def test_totally_transitive_iterates_over_the_budget_exit_three(
        self, ndsl_file, capsys, no_masks, via
    ):
        # totally-transitive:m keeps the set of transitive over the horizon and,
        # for m past it, the base masks over m times: 90,000 pairs of RING300,
        # at most 19,201 codes over 64 times and a code a pair over m
        prop = "totally-transitive:200000"
        if via == "flag":
            argv = ["check", ndsl_file(RING300), "--property", prop, "--horizon", "64", "--basis", "1"]
        else:
            argv = ["check", ndsl_file(RING300 + f"check F {prop} horizon 64 basis 1;\n")]
        code, out, err = run(capsys, argv)
        need = (90000 * cli.PAIR_CODE_BYTES + 19201 * (cli.CODE_BYTES + 4 * 64 // 15)
                + 90000 * (cli.PAIR_CODE_BYTES + cli.CODE_BYTES + 4 * 200000 // 15))
        assert code == 3 and out == "" and need > cli.MAX_MASK_BYTES
        assert err == (f"ndslab: check F {prop}: basis 1 gives 300 opens, whose 90000 pair masks "
                       f"over 64 times and 90000 pair masks over 200000 times need an estimated "
                       f"{need} bytes, over the budget of MAX_MASK_BYTES = {cli.MAX_MASK_BYTES} bytes\n")

    def test_totally_transitive_iterates_within_the_budget_are_accepted(self):
        # estimated only: on RING300 at horizon 64 the two sets and the class
        # masks fit up to m = 9892; from m = 9942 the sets alone pass the budget
        args = cli._parse_args(["check", "x.ndsl"])
        doc = ndsl.parse(RING300)
        for order in (3, 64, 9892):
            request = ("F", ndsl.read_property(f"totally-transitive:{order}"), 64, 1)
            assert cli._size_problem(args, doc, [request]) is None
        request = ("F", ndsl.read_property("totally-transitive:9942"), 64, 1)
        assert "90000 pair masks over 9942 times need" in cli._size_problem(args, doc, [request])

    def test_totally_transitive_up_to_the_horizon_is_priced_as_the_set_of_transitive(self):
        # estimated only: the 2^24 rectangle pairs of PROD at basis 1 over 64
        # times are one 151274496-byte set, which transitive and every iterate
        # up to 64 share; two such sets would pass the budget
        args = cli._parse_args(["check", "x.ndsl"])
        doc = ndsl.parse(self.PROD)
        assert 4096**2 * cli.PAIR_CODE_BYTES + 1024 * (cli.CODE_BYTES + 4 * 64 // 15) == 151_274_496
        assert 151_274_496 > cli.MAX_MASK_BYTES // 2
        requests = [("PROD", ndsl.read_property(prop), 64, 1)
                    for prop in ("transitive", "totally-transitive:2", "totally-transitive:3")]
        for request in requests:
            assert cli._size_problem(args, doc, [request]) is None
        assert cli._size_problem(args, doc, requests) is None

    def test_iterates_past_the_horizon_get_a_verdict(self, ndsl_file, capsys):
        # 1300 iterates at basis 2 and horizon 512: a set over 512 times and one over 1300
        code, out, _ = run(capsys, [
            "check", ndsl_file(SIGMA), "--property", "totally-transitive:1300", "--horizon", "512",
            "--basis", "2", "--format", "json",
        ])
        (check,) = json.loads(out)["checks"]
        assert code < 3 and check["status"] in ("witnessed", "refuted", "inconclusive")

    @pytest.mark.parametrize("flags", [
        ["--property", "transitive", "--horizon", "1000000", "--basis", "1"],
        ["--property", "weakly-mixing:5", "--horizon", "1000000", "--basis", "1"],
        ["--property", "multi-transitive:1000000", "--horizon", "1"],
    ], ids=["transitive", "weakly-mixing", "multi-transitive"])
    def test_class_masks_over_the_budget_exit_three(self, ndsl_file, capsys, no_work, flags):
        # estimated only: sigma^1 has one prefix class a time, whose masks
        # take about span^2/15 bytes, some 62 GB at a span of 10^6
        code, out, err = run(capsys, ["check", ndsl_file(SIGMA), *flags])
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith("ndslab: check F ") and "prefix-class masks over 1000000 times" in err
        assert f"over the budget of MAX_MASK_BYTES = {cli.MAX_MASK_BYTES} bytes" in err

    def test_class_masks_are_estimated_from_the_worst_case_up_to_thousands_of_times(self, monkeypatch):
        # no prefix key is read where span(span + 1)/15 fits the budget: the
        # horizons and orders of every benchmark request
        def refuse(*args, **kwargs):
            raise AssertionError("the estimate read the prefix classes")

        monkeypatch.setattr(cli.ht, "prefix_groups", refuse)
        monkeypatch.setattr(cli.ht, "_prefix_keys", refuse)
        args = cli._parse_args(["check", "x.ndsl"])
        doc = ndsl.parse(EX36)
        for prop in ["transitive", "mixing", "multi-transitive:4", "totally-transitive:3", "sensitive:1/2",
                     "minimal", "almost-periodic-point"]:
            for horizon in (64, 512, 4096):
                assert cli._size_problem(args, doc, [("F", ndsl.read_property(prop), horizon, 2)]) is None

    @pytest.mark.parametrize("source", [
        SIGMA, FINITE_SWAP, SHIFT_SQUARE, EX38_WITH_PRODUCT,
        "space finite(3);\nsystem F { at 1: table{1->2,2->2,3->1}; else: table{1->2,2->3,3->1}; }\n",
        "space finite(2);\nsystem A { else: table{1->2,2->1}; }\nsystem P = product(A, A);\n",
    ], ids=["shift", "finite", "shift-product", "circle", "finite-lead", "finite-product"])
    def test_every_check_that_walks_the_prefix_classes_is_estimated(self, monkeypatch, source):
        # each row of checkers.PROPERTIES states what its check builds: the
        # spans of the pair-mask sets it keeps, and whether it walks the classes
        walked, spans = [], []
        groups, pair_masks = cli.ht.prefix_groups, ck._pair_masks

        def recorded(spec, horizon):
            walked.append(horizon)
            return groups(spec, horizon)

        def kept(spec, resolution, horizon):
            spans.append(horizon)
            return pair_masks(spec, resolution, horizon)

        monkeypatch.setattr(cli.ht, "prefix_groups", recorded)
        monkeypatch.setattr(ck, "_pair_masks", kept)
        doc = ndsl.parse(source)
        for name in doc.names:
            for prop in ["transitive", "weakly-mixing", "mixing", "mildly-mixing", "totally-transitive",
                         "totally-transitive:2", "totally-transitive:40", "strongly-transitive",
                         "multi-transitive", "multi-transitive:3", "syndetically-transitive", "minimal",
                         "feeble-open", "dense-periodic-points", "almost-periodic-point", "sensitive:1/2",
                         "syndetically-sensitive:1/4", "thickly-sensitive:1/4", "multi-sensitive:1/4",
                         "surjective-sequence"]:
                walked.clear()
                spans.clear()
                kind = ndsl.read_property(prop)
                _, _, row_spans, walks = ck.PROPERTIES[kind.name]
                with ck.scoped_caches():
                    verdict = ck.check_property(doc.system(name), kind, basis_resolution=2, horizon=16)
                assert not walked or walks(doc.system(name)), (name, prop)
                # a check that ends early without a witness keeps the first of its sets only
                row, sets = row_spans(kind, 16), tuple(dict.fromkeys(spans))
                assert bool(sets) == bool(row) and sets == row[:len(sets)], (name, prop)
                assert sets == row or not verdict.witnessed, (name, prop)

    @pytest.mark.parametrize("rules, span", [
        ("else: sigma^1;", 4000), ("at odd(k): sigma^k; at even(k): sigma^-k;", 4000),
        ("at ap(1,3): sigma^1; else: sigma^-1;", 20000), ("else: id;", 20000),
    ])
    def test_the_class_mask_count_is_near_what_tracemalloc_reads(self, rules, span):
        # with no room left the keys are read, and the count stops after a
        # chunk; with room for the count, it is within a quarter of the masks'
        # bytes, and never below them when the worst case is returned
        spec = ndsl.parse(f"space shift(2);\nsystem F {{ {rules} }}\n").system("F")
        tracemalloc.start()
        try:
            groups = cli.ht.prefix_groups(spec, span)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        worst = cli._class_mask_bytes(spec, span, 1 << 40)
        counted = cli._class_mask_bytes(spec, span, worst - 1)
        assert held <= worst and 0.75 * held <= counted <= 1.25 * held
        assert cli._class_mask_bytes(spec, span, 0) > 0
        assert len(groups) * cli.CLASS_MASK_BYTES <= counted

    @pytest.mark.parametrize("span", [300, 3000])
    def test_the_class_count_prices_the_prefix_tables_of_finite_keys(self, span):
        # a 300-cycle on finite(300) has 300 classes, each keyed by a prefix
        # table of 300 entries: the keys hold far more than the masks
        ring = ",".join(f"{k}->{k % 300 + 1}" for k in range(1, 301))
        spec = ndsl.parse(f"space finite(300);\nsystem F {{ else: table{{{ring}}}; }}\n").system("F")
        tracemalloc.start()
        try:
            groups = cli.ht.prefix_groups(spec, span)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        worst = cli._class_mask_bytes(spec, span, 1 << 40)
        counted = cli._class_mask_bytes(spec, span, worst - 1)
        assert len(groups) == 300 and held <= worst and 0.75 * held <= counted <= 1.25 * held
        assert len(groups) * (cli.TABLE_KEY_BYTES + 300 * cli.LEAD_ENTRY_BYTES) <= counted

    def test_a_class_mask_lower_bound_stops_the_count_early(self, monkeypatch):
        # the keys of sigma^1 at a span of 10^6 are read only until their count passes the budget
        read = []
        keys = cli.ht._prefix_keys

        def counted(spec, horizon):
            for key in keys(spec, horizon):
                read.append(key)
                yield key

        monkeypatch.setattr(cli.ht, "_prefix_keys", counted)
        spec = ndsl.parse(SIGMA).system("F")
        assert cli._class_mask_bytes(spec, cli.MAX_HORIZON, cli.MAX_MASK_BYTES) > cli.MAX_MASK_BYTES
        assert len(read) < cli.MAX_HORIZON // 4

    def test_totally_transitive_counts_the_base_times_of_its_last_iterate(
        self, ndsl_file, capsys, no_masks
    ):
        # iterate m reads base time m, past the horizon 8; one point keeps the mask estimate small
        over = cli.MAX_HORIZON + 1
        code, out, err = run(capsys, [
            "check", ndsl_file(FINITE_ONE), "--property", f"totally-transitive:{over}", "--horizon", "8",
        ])
        assert code == 3 and out == ""
        assert err == (f"ndslab: check F totally-transitive:{over}: fills {over} indices of its base "
                       f"system, over the budget of MAX_HORIZON = {cli.MAX_HORIZON}\n")
        args = cli._parse_args(["check", "x.ndsl"])
        request = ("F", ndsl.read_property(f"totally-transitive:{cli.MAX_HORIZON}"), 8, 2)
        assert cli._size_problem(args, ndsl.parse(FINITE_ONE), [request]) is None

    def test_four_thousand_iterates_past_the_horizon_are_witnessed(self, ndsl_file, capsys):
        # each iterate is a slice of one set of base masks: no work per iterate and time
        code, out, _ = run(capsys, [
            "check", ndsl_file(FINITE_ONE), "--property", "totally-transitive:4000", "--horizon", "8",
            "--format", "json",
        ])
        (check,) = json.loads(out)["checks"]
        assert code == 0 and check["status"] == "witnessed"
        assert check["evidence"]["iterates_checked"] == 4000

    @pytest.mark.parametrize("source, system, fill", [
        # a reading fills s indices a time past its cut, wherever the cut is
        (SIGMA + "system I = iterate(F, 2000);\nsystem T = tail(I, 1000000000);\n", "T", 2000 * 512),
        (SIGMA + "system I = iterate(F, 1000000);\n", "I", 512 * 10**6),
        (FINITE_SWAP + "system I = iterate(F, 1000000);\n", "I", 512 * 10**6),
        (SIGMA + "system I = iterate(F, 2000);\nsystem T = tail(I, 1000000000);\n"
         "system P = product(T, F);\n", "P", 2000 * 512),
        (SHIFT_SQUARE + "system I = iterate(P, 2000);\nsystem T = tail(I, 1000000000);\n", "T",
         2000 * 512),
        (SIGMA + "system T = tail(F, 1000000000);\nsystem I = iterate(T, 2000);\n", "I", 2000 * 512),
    ])
    def test_derived_fill_past_the_bound_exits_three(self, ndsl_file, capsys, no_work, source, system, fill):
        code, out, err = run(capsys, [
            "check", ndsl_file(source), "--system", system, "--property", "transitive",
        ])
        assert code == 3 and out == ""
        assert err == (f"ndslab: check {system} transitive: fills {fill} indices of its base "
                       f"system, over the budget of MAX_HORIZON = {cli.MAX_HORIZON}\n")

    @pytest.mark.parametrize("source, system, accepted", [
        # an iterate's law is validated over 2048 base entries, 3 of its steps
        (SIGMA + "system I = iterate(F, 600);\n", "I", True),
        # an iterate of order s fills s * 512 base indices: past the bound from s = 1954
        (SIGMA + "system I = iterate(F, 1953);\n", "I", True),
        (SIGMA + "system I = iterate(F, 1954);\n", "I", False),
        # a tail fills past its cut only, the law's validation too
        (SIGMA + "system T = tail(F, 1000000000);\n", "T", True),
        # power rules that do not re-index give no law: only the horizon counts
        (EX38_WITH_PRODUCT + "system T = tail(F, 1000000000);\n", "T", True),
        # a finite tail steps once per time
        (FINITE_SWAP + "system T = tail(F, 1000000000);\n", "T", True),
    ])
    def test_derived_fill_at_the_bound_is_accepted(self, source, system, accepted):
        # estimated only
        args = cli._parse_args(["check", "x.ndsl"])
        request = (system, ndsl.read_property("transitive"), 512, 2)
        assert (cli._size_problem(args, ndsl.parse(source), [request]) is None) is accepted

    @pytest.mark.parametrize("rules, fill", [
        # a telescoping pair on a prime step: M = 3, L = 999983
        ("at ap(1,999983,k): sigma^k; at ap(2,999983,k): sigma^-k;", 2999951),
        # a literal at the law horizon: M = 10^6, L = 1
        ("at 999999: sigma^1;", 1000002),
    ])
    def test_the_law_readers_read_is_estimated_before_it_runs(self, ndsl_file, capsys, no_work,
                                                              monkeypatch, rules, fill):
        monkeypatch.setattr(cli.mp, "_step_exponents", None)  # nothing may be filled
        source = f"space shift(2);\nsystem F {{ {rules} }}\ncheck F transitive;\n"
        code, out, err = run(capsys, ["check", ndsl_file(source), "--law-horizon", "1000000"])
        assert code == 3 and out == ""
        assert err == (f"ndslab: check F transitive: fills {fill} indices of its base "
                       f"system, over the budget of MAX_HORIZON = {cli.MAX_HORIZON}\n")

    def test_each_system_is_read_once(self, ndsl_file, capsys, monkeypatch):
        read, real = [], cli.mp.law_candidate

        def recorded(spec, horizon):
            read.append(spec)
            return real(spec, horizon)

        monkeypatch.setattr(cli.mp, "law_candidate", recorded)
        source = (EX36 + "system T = tail(F, 3);\ncheck F transitive;\ncheck F mixing;\n"
                  "check T transitive;\n")
        assert run(capsys, ["check", ndsl_file(source), "--horizon", "16"])[0] < 3
        doc = ndsl.parse(source)
        assert read == [doc.system("F"), doc.system("T")]

    @pytest.mark.parametrize("source, system", [
        (SIGMA + "system T = tail(F, 40);\n", "T"),
        (EX36 + "system T = tail(F, 40);\n", "T"),
        (SIGMA + "system I = iterate(F, 7);\n", "I"),
        (SIGMA + "system I = iterate(F, 3);\nsystem T = tail(I, 9);\n", "T"),
        (SIGMA + "system T = tail(F, 9);\nsystem I = iterate(T, 3);\n", "I"),
        (SIGMA + "system T = tail(F, 50);\nsystem I = iterate(F, 3);\nsystem P = product(T, I);\n", "P"),
        (SHIFT_SQUARE + "system T = tail(P, 30);\n", "T"),
    ])
    def test_the_base_fill_is_the_measured_one(self, ndsl_file, capsys, monkeypatch, source, system):
        filled, real = [], cli.mp._step_exponents

        def recorded(spec, lo, hi):
            filled.append(hi - lo + 1)
            return real(spec, lo, hi)

        monkeypatch.setattr(cli.mp, "_step_exponents", recorded)
        args = ["check", ndsl_file(source), "--system", system, "--property", "transitive",
                "--horizon", "16", "--law-horizon", "24", "--basis", "1"]
        assert run(capsys, args)[0] < 3
        doc = ndsl.parse(source)
        spec = doc.system(system)
        assert max(filled) == max(cli._base_fill(spec, 16), cli._law_fill(spec, 24))

    @pytest.fixture
    def no_basis(self, monkeypatch, no_masks):
        def refuse(*args, **kwargs):
            raise AssertionError("an over-budget basis was enumerated")

        monkeypatch.setattr(cli.sp, "enumerate_basis", refuse)

    def test_pair_masks_over_the_budget_exit_three(self, ndsl_file, capsys, no_basis):
        # 2^7 words a side at basis 3: 16384 rectangles and 268 M pairs; a
        # side meets 6 classes of exponent within 6, so 2^6 codes a side
        code, out, err = run(capsys, [
            "check", ndsl_file(SHIFT_SQUARE), "--system", "P", "--property", "transitive",
            "--basis", "3", "--horizon", "8",
        ])
        need = 16384**2 * cli.PAIR_CODE_BYTES + 64 * 64 * (cli.CODE_BYTES + 4 * 8 // 15)
        assert code == 3 and out == "" and need > cli.MAX_MASK_BYTES
        assert err == (f"ndslab: check P transitive: basis 3 gives 16384 opens, whose 268435456 "
                       f"pair masks over 8 times need an estimated {need} bytes, over the budget "
                       f"of MAX_MASK_BYTES = {cli.MAX_MASK_BYTES} bytes\n")

    @pytest.mark.parametrize("source, system, basis", [
        (SHIFT_SQUARE, "A", 8), (SHIFT_SQUARE, "P", 4), (SHIFT_SQUARE, "A", 10**9),
        (EX38_WITH_PRODUCT, "F", 10**5),
    ])
    def test_a_basis_over_the_budget_exits_three(self, ndsl_file, capsys, no_basis, source, system, basis):
        code, out, err = run(capsys, [
            "check", ndsl_file(source), "--system", system, "--property", "minimal",
            "--basis", str(basis),
        ])
        assert code == 3 and out == ""
        assert err == (f"ndslab: check {system} minimal: basis {basis} gives more than the budget "
                       f"of MAX_BASIS_OPENS = {cli.MAX_BASIS_OPENS} opens\n")

    def test_only_pair_mask_properties_are_held_to_the_mask_budget(self):
        # estimated only: 8192 words at basis 6, 2^26 pairs over 2^12 times
        doc = ndsl.parse(SIGMA)
        args = cli._parse_args(["check", "x.ndsl"])
        for name, (_, params, spans, _) in ck.PROPERTIES.items():
            needs_delta = any(p.field == "delta" for p in params)
            prop = ck.PropertyKind(name, delta=Fraction(1, 2) if needs_delta else None)
            problem = cli._size_problem(args, doc, [("F", prop, 4096, 6)])
            if spans(prop, 4096):
                assert "MAX_MASK_BYTES" in problem
            else:
                assert problem is None
        assert cli._size_problem(args, doc, [("F", ndsl.read_property("transitive"), 4096, 5)]) is None

    # 4096 rectangles at basis 1 and 2^24 pairs; CS has 4 codes and ALT 8
    PROD = """space shift(2);
system CS { else: sigma^1; }
system ALT { at ap(1,2,k): sigma^k; at ap(2,2,k): sigma^-k; }
system PROD = product(CS, ALT, CS, ALT);
"""

    def test_the_cached_masks_of_one_command_share_the_budget(self, ndsl_file, capsys, no_masks):
        # estimated only: 2^24 pair masks over 64 times for transitive and
        # weakly-mixing (one set) and over 128 for multi-transitive:2, each
        # set under the budget alone
        doc = ndsl.parse(self.PROD)
        args = cli._parse_args(["check", "x.ndsl"])
        one_set, other_set = (4096**2 * cli.PAIR_CODE_BYTES + 1024 * (cli.CODE_BYTES + 4 * span // 15)
                              for span in (64, 128))
        assert (one_set, other_set) == (151_274_496, 151_291_904)
        checks = {name: ("PROD", ndsl.read_property(name), 64, 1)
                  for name in ("transitive", "weakly-mixing", "multi-transitive:2")}
        for request in checks.values():
            assert cli._size_problem(args, doc, [request]) is None
        assert cli._size_problem(args, doc, [checks["transitive"], checks["weakly-mixing"]]) is None
        directives = "".join(f"check PROD {name} horizon 64 basis 1;\n"
                             for name in ("transitive", "multi-transitive:2"))
        code, out, err = run(capsys, ["check", ndsl_file(self.PROD + directives)])
        need = one_set + other_set
        assert code == 3 and out == "" and need > cli.MAX_MASK_BYTES
        assert err == (f"ndslab: the 2 sets of pair masks the checks keep until the command ends "
                       f"need an estimated {need} bytes together, over the budget of "
                       f"MAX_MASK_BYTES = {cli.MAX_MASK_BYTES} bytes\n")

    @staticmethod
    def late_lead(n: int, checks: str) -> str:
        """finite(n) with a path k -> min(k+1, n) at index 10000 and an
        n-cycle elsewhere: the table law settles at r0 = 10001, so its lead
        keeps 10000 tables of n entries."""
        ring = ",".join(f"{k}->{k % n + 1}" for k in range(1, n + 1))
        path = ",".join(f"{k}->{min(k + 1, n)}" for k in range(1, n + 1))
        return f"space finite({n});\nsystem F {{ at 10000: table{{{path}}}; else: table{{{ring}}}; }}\n{checks}"

    def test_a_table_law_lead_over_the_budget_exits_three_before_any_fold(self, ndsl_file, capsys,
                                                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an over-budget lead was folded")

        monkeypatch.setattr(cli.mp, "prefix_tables", refuse)
        code, out, err = run(capsys, ["check", ndsl_file(self.late_lead(4000, "check F minimal horizon 8;\n"))])
        need = 10000 * 4000 * cli.LEAD_ENTRY_BYTES
        assert code == 3 and out == "" and need > cli.MAX_MASK_BYTES
        assert err == (f"ndslab: the table laws' leads of 40000000 prefix-table entries the checks keep "
                       f"until the command ends need an estimated {need} bytes together, over the "
                       f"budget of MAX_MASK_BYTES = {cli.MAX_MASK_BYTES} bytes\n")

    def test_the_leads_share_the_budget_with_the_pair_masks(self):
        # estimated only: 10^7 lead entries (80 MB) and 10^6 pair masks over
        # 512 times (210 MB: 512 tables meet at most 512,000 pairs, so at
        # most 512,001 codes), each under the budget alone
        args = cli._parse_args(["check", "x.ndsl"])
        doc = ndsl.parse(self.late_lead(1000, ""))
        minimal, transitive = (("F", ndsl.read_property(name), 512, 1) for name in ("minimal", "transitive"))
        assert cli._size_problem(args, doc, [minimal]) is None
        masks = 1000**2 * cli.PAIR_CODE_BYTES + 512001 * (cli.CODE_BYTES + 4 * 512 // 15)
        need = masks + 10000 * 1000 * cli.LEAD_ENTRY_BYTES
        assert masks < cli.MAX_MASK_BYTES < need
        assert cli._size_problem(args, doc, [minimal, transitive]) == (
            f"the table laws' leads of 10000000 prefix-table entries and the 1 set of pair masks "
            f"the checks keep until the command ends need an estimated {need} bytes together, "
            f"over the budget of MAX_MASK_BYTES = {cli.MAX_MASK_BYTES} bytes")
        # the lead of finite(300) at r0 = 10001 is 24 MB: it gets its verdict
        doc = ndsl.parse(self.late_lead(300, ""))
        assert cli._size_problem(args, doc, [minimal, transitive]) is None

    def test_the_budget_reports_ranges_then_each_check_in_order_then_the_held_total(
        self, ndsl_file, capsys, no_masks
    ):
        def error(source):
            code, out, err = run(capsys, ["check", ndsl_file(source)])
            assert code == 3 and out == ""
            return err

        opens = (f"basis 9 gives more than the budget of MAX_BASIS_OPENS = {cli.MAX_BASIS_OPENS} "
                 "opens\n")
        # every flag's and directive's range comes before the work of any check:
        # basis 9 (2^19 opens) is over its budget, the later horizon out of its range
        over = cli.MAX_HORIZON + 1
        assert error(SIGMA + f"check F transitive basis 9;\ncheck F transitive horizon {over};\n") == (
            f"ndslab: check F transitive: horizon must be at most {cli.MAX_HORIZON}, got {over}\n")
        # among work problems the first check in order is named, whatever its kind
        deep = SIGMA + "system I = iterate(F, 1000000);\n"
        fills = (f"fills {512 * 10**6} indices of its base system, over the budget of "
                 f"MAX_HORIZON = {cli.MAX_HORIZON}\n")
        assert error(deep + "check I transitive;\ncheck F transitive basis 9;\n") == (
            f"ndslab: check I transitive: {fills}")
        assert error(deep + "check F transitive basis 9;\ncheck I transitive;\n") == (
            f"ndslab: check F transitive: {opens}")
        # the pair masks the checks hold together come last: the two PROD
        # checks pass the budget together, yet the later basis is named
        held = "".join(f"check PROD {name} horizon 64 basis 1;\n"
                       for name in ("transitive", "multi-transitive:2"))
        assert error(self.PROD + held + "check CS transitive basis 9;\n") == (
            f"ndslab: check CS transitive: {opens}")
        assert error(self.PROD + held).startswith("ndslab: the 2 sets of pair masks")

    def test_the_lead_bytes_per_entry_cover_the_measured_ones(self):
        spec = ndsl.parse(self.late_lead(200, "")).system("F")
        tracemalloc.start()
        try:
            law = cli.mp.derive_table_law(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = cli._lead_entries(spec)
        assert entries == (law.stabilized_from - 1) * 200 == 10000 * 200
        assert entries * cli.LEAD_ENTRY_BYTES <= held <= 1.1 * entries * cli.LEAD_ENTRY_BYTES

    @pytest.mark.parametrize("space", [
        sp.ShiftSpace(), sp.ShiftSpace(3), sp.FiniteSpace(5), sp.CircleSpace(),
        sp.ProductSpace((sp.ShiftSpace(), sp.FiniteSpace(3))),
        sp.ProductSpace((sp.CircleSpace(), sp.ShiftSpace(), sp.CircleSpace())),
    ])
    def test_the_basis_size_counts_the_enumerated_opens(self, space):
        for r in range(sp.min_resolution(space), 4):
            assert cli._basis_size(space, r) == len(sp.enumerate_basis(space, r))

    def test_the_mask_bytes_per_pair_cover_the_measured_ones(self):
        # the peak while pair_masks builds a set, beside the class masks its
        # walk reads, within the estimate with the codes bounded either way:
        # a code a pair, or _code_bound, which the codes never pass
        # pair-table-1m's set: a product at basis 2, 1,048,576 pairs
        pair_table = ("space shift(2);\nsystem F { at ap(2,2,k): sigma^-k; at ap(5,2,k): sigma^k; }\n"
                      "system G { at ap(1,2,k): sigma^k; at ap(2,2,k): sigma^-k; }\nsystem P = product(F, G);\n")
        cases = [(SHIFT_SQUARE, "A", 2, 64), (SHIFT_SQUARE, "A", 3, 8), (SHIFT_SQUARE, "P", 1, 200),
                 (SIGMA, "F", 4, 64), (EX36, "F", 2, 512), (RING300, "F", 1, 512), (RING300, "F", 1, 64),
                 (pair_table, "P", 2, 32),
                 (FINITE_SWAP + "system P = product(F, F, F);\n", "P", 1, 300),
                 (self.late_lead(20, "system P = product(F, F);\n"), "P", 1, 64),
                 ("space circle(alpha(1/3 +- 1/2^12));\nsystem F { else: rot^1; }\n", "F", 8, 256),
                 (EX38_WITH_PRODUCT, "F", 40, 256), (EX38_WITH_PRODUCT, "P", 6, 128)]
        for source, name, r, H in cases:
            spec = ndsl.parse(source).system(name)
            basis = sp.enumerate_basis(spec.space, r)
            tracemalloc.start()
            try:
                values, codes, _ = cli.ht.pair_masks(spec, basis, basis, H)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            pairs, code = len(codes), cli.CODE_BYTES + 4 * H // 15
            bound = cli._code_bound(spec, r, H, pairs)
            assert len(values) <= bound <= pairs, (name, r, H)
            beside = peak - cli._class_mask_bytes(spec, H, cli.MAX_MASK_BYTES)
            assert beside <= pairs * cli.PAIR_CODE_BYTES + bound * code, (name, r, H, peak)
            assert beside <= cli._mask_set_bytes(spec, r, len(basis), H)

    def test_coprime_thirty_digit_steps_exit_three_at_the_crt_index(self, tmp_path):
        a, b = 10**29 + 1, 10**29 + 7
        path = tmp_path / "crt.ndsl"
        path.write_text(f"space shift(2);\nsystem F {{ at ap(1,{a}): sigma^1; at ap(2,{b}): sigma^-1; }}\n"
                        "check F transitive;\n")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "ndslab.cli", "check", str(path)],
                              capture_output=True, text=True, timeout=20, env=env)
        assert done.returncode == 3 and done.stdout == ""
        n = 8333333333333333333333333333983333333333333333333333333340
        assert (n % a, n % b) == (1, 2)
        assert f"semantic: index {n} matches both ArithProgPattern(first=1, step={a})" in done.stderr

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
        "multi-sensitive:1/2,3/2", "thickly-sensitive:1/4,0", "sensitive",
        # read by the directive grammar: no decimal or exponent, and the
        # literal limits hold before any number is built or printed
        "sensitive:0.5", "sensitive:1e-5000", "multi-transitive:" + "9" * 4299,
    ], ids=lambda prop: prop if len(prop) < 40 else f"{prop[:20]}...{len(prop)}-chars")
    def test_bad_property_flag_exits_three(self, ndsl_file, capsys, prop):
        code, out, err = run(capsys, ["check", ndsl_file(EX36), "--property", prop])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ndslab: ")

    @pytest.mark.parametrize("directive", [
        "check F thickly-sensitive:1/4,0;",
        "check F sensitive:1/2,7;",
        "check F sensitive;",
        "check F transitive horizon 5 horizon 9 basis 1;",
        "check F transitive basis 1 horizon 5 basis 2;",
    ])
    def test_bad_directive_exits_three(self, ndsl_file, capsys, directive):
        code, out, err = run(capsys, ["check", ndsl_file(EX36 + directive + "\n")])
        assert code == 3 and out == "" and "semantic" in err


FINITE_DECL = "space finite(2);\n"
SYSTEM_A = FINITE_DECL + "system A { else: id; }\n"


class TestParserDiagnostics:
    # each input and the first diagnostic `ndslab check` prints for it
    @pytest.mark.parametrize("source, diagnostic", [
        (FINITE_DECL + "space finite(3);\n", "3:1: semantic: a document declares exactly one space"),
        (SYSTEM_A + "system P = product(A);\n", "3:22: semantic: a product needs at least two systems"),
        (SYSTEM_A + "system T = tail(A, 0);\n", "3:22: semantic: derivation order must be at least 1"),
        (FINITE_DECL + "system A { else: id; else: id; }\n", "2:22: semantic: duplicate else rule"),
        (FINITE_DECL + "system A { at ap(0,2): id; }\n",
         "2:22: semantic: progression needs start >= 1 and step >= 1"),
        (FINITE_DECL + "system A { at 0: id; }\n", "2:15: semantic: index pattern needs index >= 1"),
        ("space shift(2);\nsystem A { at pow(1,0,k): sigma^k; }\n",
         "2:25: semantic: power pattern needs base >= 2 and offset >= 0"),
        (FINITE_DECL + "system A { else: table{1->2,1->1}; }\n",
         "2:33: semantic: duplicate table entry for 1"),
        (FINITE_DECL + "system A { else: table{1->2,3->1}; }\n",
         "2:34: semantic: table must map exactly the ids 1..n"),
        (FINITE_DECL + "system A { else: table{1->3,2->1}; }\n",
         "2:34: semantic: table targets must stay within 1..n"),
        ("space circle(alpha(1/0 +- 1/8));\n", "1:24: semantic: zero denominator"),
        (FINITE_DECL + "system table { else: id; }\n", "2:14: semantic: 'table' is a keyword"),
        (FINITE_DECL + "system A { else: id;\n", "3:1: syntax: unterminated system body (expected })"),
    ], ids=[
        "second-space", "product-of-one", "tail-zero", "duplicate-else", "progression-from-zero",
        "index-zero", "power-base-one", "duplicate-entry", "ids-not-1-to-n", "target-out-of-range",
        "zero-denominator", "keyword-name", "unterminated-body",
    ])
    def test_each_diagnostic_exits_three(self, ndsl_file, capsys, source, diagnostic):
        path = ndsl_file(source)
        code, out, err = run(capsys, ["check", path])
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == f"{path}:{diagnostic}"


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

    def test_a_filter_matching_nothing_is_an_input_error(self, capsys):
        code, out, err = run(capsys, ["corpus", "--filter", "nonexistent"])
        assert (code, out, err) == (3, "", "ndslab: no scenario matches 'nonexistent'\n")


class TestOneCommandInAProcess:
    @pytest.mark.parametrize("count, over", [(3, False), (200, True)], ids=["under-64KB", "over-64KB"])
    @pytest.mark.parametrize("read", [0, 10])
    def test_a_reader_closing_the_pipe_early_gets_the_exit_code(self, ndsl_file, capsys,
                                                                count, over, read):
        # a pipe buffers 64 KB: past it the writer is still writing when the
        # reader closes, under it the reader may close before the write
        path = ndsl_file(FINITE_SWAP + "check F mixing horizon 8;\ncheck F transitive horizon 8;\n" * count)
        code, out, _ = run(capsys, ["check", path, "--format", "json"])
        assert code == 2 and (len(out.encode()) > 1 << 16) == over
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "ndslab.cli", "check", path, "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            proc.stdout.read(read)
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=20), err) == (code, b"")
        finally:
            proc.kill()
            proc.wait()

    @pytest.mark.parametrize("closed", ["reader-gone", "descriptor-closed"])
    @pytest.mark.parametrize("source, argv", [
        ("space shift(2); system H { at 1: }", []),
        (EX36, []),
        (None, []),
        (EX36, ["--property", "bogus"]),
        (EX36, None),
    ], ids=["syntax-error", "no-check-directives", "missing-file", "bad-property", "unknown-command"])
    def test_a_closed_stderr_keeps_exit_three(self, tmp_path, source, argv, closed):
        path = tmp_path / "input.ndsl"
        if source is not None:
            path.write_text(source)
        command = ["frobnicate", str(path)] if argv is None else ["check", str(path), *argv]
        # either a pipe whose reader is gone before the command starts, so
        # every write to stderr fails, or no descriptor 2 at all (`2>&-`)
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        process = [sys.executable, "-m", "ndslab.cli", *command]
        if closed == "descriptor-closed":
            process = ["sh", "-c", 'exec "$@" 2>&-', "sh", *process]
        try:
            done = subprocess.run(process, stdout=subprocess.PIPE, stderr=write_end, timeout=20, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stdout) == (3, b"")

    def test_a_closed_stdout_keeps_the_verdict_code(self, ndsl_file, capsys):
        path = ndsl_file(FINITE_SWAP + "check F mixing horizon 8;\n")
        code, _, _ = run(capsys, ["check", path])
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ndslab.cli",
                               "check", path], capture_output=True, timeout=20, env=env)
        assert (done.returncode, done.stderr) == (code, b"") and code == 2

    def test_pair_masks_are_kept_for_one_command(self, ndsl_file, capsys, monkeypatch):
        first = ndsl_file(SIGMA + "check F transitive horizon 40;\n", "first.ndsl")
        second = ndsl_file(FINITE_SWAP + "check F transitive horizon 8;\n", "second.ndsl")
        held = []  # the mask keys as each command returns, inside its scope

        def keeping_keys(command):
            def run_command(args):
                code = command(args)
                held.append(set(ck._MASK_CACHE))
                return code
            return run_command

        for name in ("cmd_check", "cmd_corpus"):
            monkeypatch.setattr(cli, name, keeping_keys(getattr(cli, name)))
        run(capsys, ["check", second])
        alone = held[-1]
        run(capsys, ["check", first])
        assert held[-1] and held[-1].isdisjoint(alone)
        run(capsys, ["check", second])
        assert held[-1] == alone
        run(capsys, ["corpus", "--filter", "example-3.3"])
        assert held[-1].isdisjoint(alone)
        assert not ck._MASK_CACHE

    def test_a_scope_leaves_both_caches_empty(self, ndsl_file, capsys):
        doc = ndsl.parse(EX36)
        stale = (object(), 0)
        ck._MASK_CACHE[stale] = ck._LAW_CACHE[stale] = None
        # a library check inside a scope: stale entries go on entry, its own on exit
        with ck.scoped_caches():
            assert not ck._MASK_CACHE and not ck._LAW_CACHE
            ck.check_property(doc.system("F"), ck.PropertyKind("transitive"), 1, 8)
            assert ck._MASK_CACHE and ck._LAW_CACHE
        assert not ck._MASK_CACHE and not ck._LAW_CACHE
        # so does a command, and a scope that ends in an exception
        run(capsys, ["check", ndsl_file(EX36 + "check F mixing horizon 8 basis 1;\n")])
        assert not ck._MASK_CACHE and not ck._LAW_CACHE
        with pytest.raises(KeyError), ck.scoped_caches():
            ck.system_laws(doc.system("F"), 256)
            raise KeyError
        assert not ck._MASK_CACHE and not ck._LAW_CACHE

    def test_library_checks_outside_a_scope_keep_nothing(self):
        for k in range(1, 21):
            spec = ndsl.parse(f"space shift(2);\nsystem F {{ else: sigma^{k}; }}\n").system("F")
            assert ck.check_property(spec, ck.PropertyKind("transitive"), 2, 64).witnessed
        assert not ck._MASK_CACHE and not ck._LAW_CACHE

    def test_laws_are_derived_once_per_system_in_a_command(self, ndsl_file, capsys, monkeypatch):
        checks = ["F transitive", "G mixing", "F mixing", "G transitive", "F syndetically-transitive"]
        text = EX36 + "system G { else: sigma^1; }\n" + "".join(f"check {c} horizon 8 basis 1;\n" for c in checks)
        F, G = map(ndsl.parse(text).system, "FG")
        derived = []
        real = cli.mp.derive_laws
        monkeypatch.setattr(cli.mp, "derive_laws", lambda spec, H: derived.append((spec, H)) or real(spec, H))
        run(capsys, ["check", ndsl_file(text)])
        assert derived == [(F, 2048), (G, 2048)]
        # a second command in the same process derives them again
        run(capsys, ["check", ndsl_file(text)])
        assert derived[2:] == [(F, 2048), (G, 2048)]
        run(capsys, ["check", ndsl_file(text), "--law-horizon", "256"])
        assert derived[4:] == [(F, 256), (G, 256)]


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


class Row(list):
    """A list subclass, which both encoders write as a list."""


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

    @pytest.mark.parametrize("value", [
        {"witness_times": {f"{i}->{j}": i * 64 + j for i in range(64) for j in range(64)}},
        {"outer": {"empty": {}, "none": [], "rows": [[1, [2, {}]], (), [[]]]}, "last": {"a": {}}},
        {"pair": (1, 2), "pairs": [(1, 2), (3, (4,))], "row": (Fraction(1, 3), None)},
        {"ordered": OrderedDict([("b", 1), ("a", 2)]), "listed": Row([1, 2, Row([3])])},
        [OrderedDict(), Row(), OrderedDict(a=OrderedDict(b=1)), Row([OrderedDict(c=2)])],
    ], ids=["4096-entry-table", "nested-and-empty", "tuples", "subclasses", "subclasses-in-a-list"])
    def test_report_shapes_match_the_indented_encoder(self, value):
        """A container holds containers exactly when one of its value types
        is a subclass of dict, list or tuple."""
        assert cli.report_text(value) == json.dumps(value, sort_keys=True, indent=2, default=str)

    def test_a_json_report_is_written_without_its_text(self):
        """A report goes to the stream in chunks as it is made: writing the
        6.4 MB report of sigma^1 at basis 4 (262,144 pairs) holds a small
        part of it, and the chunks are report_text and its newline."""

        class Sink:
            def __init__(self):
                self.size, self.digest = 0, hashlib.sha256()

            def write(self, text):
                self.size += len(text)
                self.digest.update(text.encode())

            def flush(self):
                pass

        spec = ndsl.parse(SIGMA).system("F")
        verdict = ck.check_property(spec, ndsl.read_property("transitive"), basis_resolution=4, horizon=64)
        report = {"checks": [{"evidence": verdict.evidence, "status": verdict.status}], "schema": 1}
        sink = Sink()
        tracemalloc.start()
        try:
            cli._write(sink, partial(cli._put_report, report))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = cli.report_text(report) + "\n"
        assert sink.size == len(text) > 6_000_000
        assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
        assert peak < sink.size // 16, peak
