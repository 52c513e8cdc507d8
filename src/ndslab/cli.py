"""Command-line front end: run property checks on NDSL files and execute the
scenario corpus, with human-readable tables or machine-readable JSON reports.

Exit codes: 0 all witnessed / all expectations met, 1 a check came back
refuted, 2 a check stayed inconclusive (widen the horizon), 3 input errors
(unreadable or invalid files, flags argparse rejects, sizes out of range),
4 an internal error (a fault in ndslab, never a verdict).
The JSON report is byte-identical across runs for identical inputs and
configuration, apart from the timing fields; its configuration lists the
flags in force (empty for the corpus, whose scenarios pin their own).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import lru_cache
from itertools import repeat

from . import __version__
from . import checkers as ck
from . import corpus as corpus_mod
from . import maps as mp
from . import ndsl
from . import spaces as sp

SCHEMA_VERSION = 1

# the largest horizon or law horizon a check accepts: the prefix-exponent
# array and every hit mask are filled eagerly up to it
MAX_HORIZON = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a rejected flag is an input error (exit 3), not argparse's exit 2,
        # which would read as "inconclusive"
        raise _UsageError(message)


def _check_arguments(chk: argparse.ArgumentParser) -> None:
    chk.add_argument("file", help="NDSL source file")
    chk.add_argument(
        "--property", action="append", default=[],
        help="property to check, e.g. transitive or multi-transitive:2 "
        "(repeatable; defaults to the file's check directives)",
    )
    chk.add_argument("--system", default=None, help="system name (default: first defined)")
    chk.add_argument(
        "--horizon", type=int, default=ck.DEFAULT_HORIZON,
        help=f"times checked, 1 to {MAX_HORIZON} (check directives may set their own)",
    )
    chk.add_argument("--basis", type=int, default=ck.DEFAULT_BASIS)
    chk.add_argument(
        "--law-horizon", type=int, default=ck.DEFAULT_LAW_HORIZON,
        help=f"indices each derived law is validated to, 1 to {MAX_HORIZON}",
    )
    chk.add_argument("--format", choices=("table", "json"), default="table")
    chk.add_argument(
        "--diagnostics-json", action="store_true",
        help="emit parse diagnostics as JSON lines on stderr",
    )


def _corpus_arguments(cor: argparse.ArgumentParser) -> None:
    cor.add_argument("--filter", default=None, help="scenario name filter (substring or prefix*)")
    cor.add_argument("--format", choices=("table", "json"), default="table")


# each subcommand: its help line and the function adding its arguments
_SUBCOMMANDS = {
    "check": ("run property checks on an NDSL file", _check_arguments),
    "corpus": ("run the scenario corpus", _corpus_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ndslab",
        description="verification toolkit for non-autonomous map sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), building only the subcommand's own
    parser when argv names one: that parser is the one build_parser gives
    the subcommand, so its help and its errors read the same."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _SUBCOMMANDS:
        return build_parser().parse_args(argv)
    parser = _Parser(prog=f"ndslab {argv[0]}")
    _SUBCOMMANDS[argv[0]][1](parser)
    args = parser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _report_envelope(mode: str, digest: str, configuration: dict) -> dict:
    return {
        "tool": "ndslab",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "input_digest": digest,
        "configuration": configuration,
    }


_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _encoder(depth: int):
    """The C encoder's encode for the items of a container at `depth`: its
    item separator carries the newline and the indent that indent=2 puts
    between them."""
    return json.JSONEncoder(
        sort_keys=True, default=str, separators=(",\n" + "  " * depth, ": ")
    ).encode


def report_text(obj, depth: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, default=str), byte for byte,
    for dict keys that are str.  That call runs the pure-Python encoder (the
    C encoder does not indent), so this frames each level itself and hands
    every container of scalars, such as a table of per-pair times, to the C
    encoder whole."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _encoder(depth)(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    inner = "\n" + "  " * (depth + 1)
    if not any(map(isinstance, values, repeat(_CONTAINERS))):
        body = _encoder(depth + 1)(obj)[1:-1]
    elif isinstance(obj, dict):
        body = ("," + inner).join(
            f"{json.encoder.encode_basestring_ascii(key)}: {report_text(value, depth + 1)}"
            for key, value in sorted(obj.items())
        )
    else:
        body = ("," + inner).join(report_text(value, depth + 1) for value in obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + inner + body + "\n" + "  " * depth + brackets[1]


def cmd_check(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"ndslab: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
        return 3
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = ndsl.parse(raw.decode("utf-8", errors="replace"))
    except ndsl.NdslParseError as exc:
        for diag in exc.diagnostics:
            if args.diagnostics_json:
                print(json.dumps(diag.to_json(), sort_keys=True), file=sys.stderr)
            else:
                print(f"{args.file}:{diag.render()}", file=sys.stderr)
        return 3
    requests = []
    if args.property:
        name = args.system or doc.names[0]
        try:
            system = doc.system(name)
        except KeyError:
            print(f"ndslab: no system named {name!r} in {args.file}", file=sys.stderr)
            return 3
        for rendered in args.property:
            try:
                prop = ndsl.read_property(rendered)
            except ValueError as exc:
                print(f"ndslab: {exc}", file=sys.stderr)
                return 3
            requests.append((name, prop, args.horizon, args.basis))
    else:
        if not doc.checks:
            print(f"ndslab: {args.file} has no check directives and no --property given",
                  file=sys.stderr)
            return 3
        for chk in doc.checks:
            requests.append((
                chk.system, chk.prop,
                args.horizon if chk.horizon is None else chk.horizon,
                args.basis if chk.basis is None else chk.basis,
            ))
    problem = _size_problem(args, doc, requests)
    if problem:
        print(f"ndslab: {problem}", file=sys.stderr)
        return 3
    checks = []
    worst = 0
    laws = {}  # each named system's laws, derived at its first check
    for name, prop, horizon, basis in requests:
        t0 = time.perf_counter()
        system = doc.system(name)
        if name not in laws:
            laws[name] = mp.derive_laws(system, args.law_horizon)
        verdict = ck.check_property(
            system, prop, basis_resolution=basis, horizon=horizon,
            law_horizon=args.law_horizon, laws=laws[name],
        )
        ms = (time.perf_counter() - t0) * 1000
        checks.append(
            {
                "system": name,
                "property": prop.render(),
                "status": verdict.status,
                "basis": basis,
                "horizon": horizon,
                "evidence": verdict.evidence,
                "caveats": list(verdict.caveats),
                "timing_ms": round(ms, 3),
            }
        )
        if verdict.status == ck.REFUTED:
            worst = max(worst, 1)
        elif verdict.status == ck.INCONCLUSIVE:
            worst = max(worst, 2)
    report = _report_envelope(
        "check", digest,
        {
            "basis": args.basis,
            "horizon": args.horizon,
            "law_horizon": args.law_horizon,
        },
    )
    report["checks"] = checks
    if args.format == "json":
        # evidence keys are all str; Fractions and other exact values print as str
        print(report_text(report))
    else:
        for c in checks:
            print(f"{c['status']:<13} {c['system']:<10} {c['property']:<28} "
                  f"basis={c['basis']} horizon={c['horizon']}")
            for caveat in c["caveats"]:
                print(f"              note: {caveat}")
    return worst


def _size_problem(args, doc, requests):
    """The first size out of its range, over the flags and every check
    request: horizons and the law horizon run from 1 to MAX_HORIZON, a basis
    needs at least the resolution its space admits (spaces.min_resolution),
    and the pair masks of multi-transitive:m span m times the horizon, so
    that product may not pass MAX_HORIZON either."""
    sizes = [("--horizon", args.horizon, 1, MAX_HORIZON), ("--basis", args.basis, 1, None),
             ("--law-horizon", args.law_horizon, 1, MAX_HORIZON)]
    for name, prop, horizon, basis in requests:
        where = f"check {name} {prop.render()}:"
        sizes.append((f"{where} horizon", horizon, 1, MAX_HORIZON))
        sizes.append((f"{where} basis", basis, sp.min_resolution(doc.system(name).space), None))
        if prop.name == "multi-transitive":
            span = f"{where} order {prop.order} times horizon {horizon}"
            sizes.append((span, prop.order * horizon, 1, MAX_HORIZON))
    for label, value, least, most in sizes:
        if value < least:
            return f"{label} must be at least {least}, got {value}"
        if most is not None and value > most:
            return f"{label} must be at most {most}, got {value}"
    return None


def cmd_corpus(args) -> int:
    t0 = time.perf_counter()
    reports = corpus_mod.run_corpus(args.filter)
    ms = (time.perf_counter() - t0) * 1000
    if args.filter and not reports:
        print(f"ndslab: no scenario matches {args.filter!r}", file=sys.stderr)
    scenarios = [
        {
            "name": rep.name,
            "passed": rep.passed,
            "results": [
                {
                    "description": r.description,
                    "expected": r.expected,
                    "actual": r.actual,
                    "passed": r.passed,
                    "citation": r.citation,
                    "evidence_digest": r.evidence_digest,
                }
                for r in rep.results
            ],
        }
        for rep in reports
    ]
    report = _report_envelope("corpus", args.filter or "all", {})
    report["scenarios"] = scenarios
    report["timing_ms"] = round(ms, 3)
    if args.format == "json":
        print(report_text(report))
    else:
        width = max((len(r.description) for rep in reports for r in rep.results), default=20)
        for rep in reports:
            for r in rep.results:
                flag = "PASS" if r.passed else "FAIL"
                print(f"{flag} {rep.name:<28} {r.description:<{width}} -> {r.actual}")
    return 0 if all(rep.passed for rep in reports) else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"ndslab: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "check":
            return cmd_check(args)
        return cmd_corpus(args)
    except Exception as exc:  # any escape is a fault in ndslab, never a verdict
        import traceback  # only on this path: keeps it off every start-up

        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = " ".join(str(exc).split())
        print(f"ndslab: internal error: {type(exc).__name__}: {detail} "
              f"(at {os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
