"""Command-line front end: run property checks on NDSL files and execute the
scenario corpus, with human-readable tables or machine-readable JSON reports.

Exit codes: 0 all witnessed / all expectations met, 1 a check came back
refuted, 2 a check stayed inconclusive (widen the horizon), 3 input errors
(unreadable or invalid files, flags argparse rejects, sizes out of range),
4 an internal error (a fault in ndslab, never a verdict).  A reader that
closes stdout or stderr early changes no exit code.
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
from math import prod

from . import __version__
from . import checkers as ck
from . import maps as mp
from . import ndsl
from . import spaces as sp

SCHEMA_VERSION = 1

# the largest horizon or law horizon a check accepts: the prefix-exponent
# array and every hit mask are filled eagerly up to it.  It also bounds the
# base indices past the cut a check and its laws fill (_base_fill, _law_fill)
MAX_HORIZON = 10**6

# the work a check may take on, estimated before it runs: the opens of its
# basis, and the bytes of the pair masks of the properties that build them
# (N^2 pairs of N opens, each an H-bit mask plus MASK_PAIR_BYTES of dict
# entry, key and int header) and of the table laws' leads (LEAD_ENTRY_BYTES
# an entry, a pointer in a table tuple), as tracemalloc measured
MAX_BASIS_OPENS = 1 << 16
MAX_MASK_BYTES = 1 << 28
MASK_PAIR_BYTES = 144
LEAD_ENTRY_BYTES = 8
PAIR_MASK_PROPERTIES = frozenset({
    "transitive", "weakly-mixing", "mixing", "mildly-mixing", "totally-transitive",
    "multi-transitive", "syndetically-transitive",
})


class _InputError(Exception):
    """An input ndslab does not check: main writes its args, the lines of
    the message, to stderr and exits 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a rejected flag is an input error (exit 3), not argparse's exit 2,
        # which would read as "inconclusive"
        raise _InputError(f"ndslab: {message}")


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
    encoder whole; whether one holds a container is asked once per type of
    its values."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _encoder(depth)(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    inner = "\n" + "  " * (depth + 1)
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
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


def _write(stream, lines) -> None:
    """Write `lines` to `stream`, stdout or stderr.  A reader that closes
    the pipe early (`| head`, `2>&1 | true`) ends the writing, not the
    command: the stream goes to os.devnull from then on, so neither a later
    write nor the flush at exit can fail and change the exit code.  A
    descriptor closed before start-up (`2>&-`) leaves the stream None, and
    nothing is written."""
    if stream is None:
        return
    try:
        stream.write("".join(line + "\n" for line in lines))
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


# the exit code of each verdict status; a check run exits with its worst
_EXIT = {ck.WITNESSED: 0, ck.REFUTED: 1, ck.INCONCLUSIVE: 2}


def cmd_check(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(f"ndslab: cannot read {args.file}: {exc.strerror}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = ndsl.parse(raw.decode("utf-8", errors="replace"))
    except ndsl.NdslParseError as exc:
        raise _InputError(*(
            json.dumps(diag.to_json(), sort_keys=True) if args.diagnostics_json
            else f"{args.file}:{diag.render()}"
            for diag in exc.diagnostics
        )) from None
    if args.system is not None and args.system not in doc.names:
        raise _InputError(f"ndslab: no system named {args.system!r} in {args.file}")
    if args.property:
        if not doc.names:
            raise _InputError(f"ndslab: {args.file} defines no system to check")
        name = args.system or doc.names[0]
        try:
            requests = [(name, ndsl.read_property(rendered), args.horizon, args.basis)
                        for rendered in args.property]
        except ValueError as exc:
            raise _InputError(f"ndslab: {exc}") from None
    else:  # the file's directives, those on --system alone when it is given
        requests = [(chk.system, chk.prop, args.horizon if chk.horizon is None else chk.horizon,
                     args.basis if chk.basis is None else chk.basis)
                    for chk in doc.checks if chk.system == (args.system or chk.system)]
        if not requests:
            on = f" on {args.system!r}" if args.system else ""
            raise _InputError(f"ndslab: {args.file} has no check directives{on} and no --property given")
    problem = _size_problem(args, doc, requests)
    if problem:
        raise _InputError(f"ndslab: {problem}")
    checks = []
    for name, prop, horizon, basis in requests:
        t0 = time.perf_counter()
        verdict = ck.check_property(doc.system(name), prop, basis_resolution=basis, horizon=horizon,
                                    law_horizon=args.law_horizon)
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
        _write(sys.stdout, [report_text(report)])
    else:
        lines = []
        for c in checks:
            lines.append(f"{c['status']:<13} {c['system']:<10} {c['property']:<28} "
                         f"basis={c['basis']} horizon={c['horizon']}")
            lines += [f"              note: {caveat}" for caveat in c["caveats"]]
        _write(sys.stdout, lines)
    return max(_EXIT[c["status"]] for c in checks)


def _size_problem(args, doc, requests):
    """The first size out of its range, over the flags and every check
    request: horizons and the law horizon run from 1 to MAX_HORIZON, a basis
    needs at least the resolution its space admits (spaces.min_resolution),
    and the pair masks of multi-transitive:m span m times the horizon, so
    that product may not pass MAX_HORIZON either.  Then the first request
    whose estimated work is over its budget: its basis has more than
    MAX_BASIS_OPENS opens, the bytes of its pair masks (N^2 masks a set for
    N opens, one set per iterate for totally-transitive) pass
    MAX_MASK_BYTES, or the base indices it fills (_base_fill, the order
    where totally-transitive's last iterate reads past the horizon, and the
    system's _law_fill) pass MAX_HORIZON.  Last, the pair masks of all the
    checks and the leads of their systems' table laws (_lead_entries)
    together against MAX_MASK_BYTES."""
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
    held = {}  # checkers._MASK_CACHE keeps each (system, basis, span) set to the end
    for name, prop, horizon, basis in requests:
        system, where = doc.system(name), f"check {name} {prop.render()}:"
        n = _basis_size(system.space, basis)
        if n > MAX_BASIS_OPENS:
            return (f"{where} basis {basis} gives more than the budget of "
                    f"MAX_BASIS_OPENS = {MAX_BASIS_OPENS} opens")
        span = prop.order * horizon if prop.name == "multi-transitive" else horizon
        sets = prop.order if prop.name == "totally-transitive" else int(prop.name in PAIR_MASK_PROPERTIES)
        need = sets * n * n * (span // 8 + MASK_PAIR_BYTES)
        if need > MAX_MASK_BYTES:
            per_iterate = f", one set for each of {sets} iterates," if sets > 1 else ""
            return (f"{where} basis {basis} gives {n} opens, whose {n * n} pair masks over {span} times"
                    f"{per_iterate} need an estimated {need} bytes, over the budget of "
                    f"MAX_MASK_BYTES = {MAX_MASK_BYTES} bytes")
        if need:
            held[name, basis, span] = max(held.get((name, basis, span), 0), need)
        if prop.name == "totally-transitive":  # iterate m reads base time m
            span = max(span, prop.order)
        fill = max(_base_fill(system, span), _law_fill(system, args.law_horizon))
        if fill > MAX_HORIZON:
            return (f"{where} fills {fill} indices of its base system, over the budget of "
                    f"MAX_HORIZON = {MAX_HORIZON}")
    # checkers._LAW_CACHE keeps each system's laws, so its leads too, to the end
    entries = sum(map(_lead_entries, {doc.system(name) for name, *_ in requests}))
    need = sum(held.values()) + LEAD_ENTRY_BYTES * entries
    if need > MAX_MASK_BYTES:
        kept = [f"the table laws' leads of {entries} prefix-table entries"] if entries else []
        kept += [f"the {len(held)} set{'s' * (len(held) > 1)} of pair masks"] if held else []
        return (f"{' and '.join(kept)} the checks keep until the command ends "
                f"need an estimated {need} bytes together, over the budget of "
                f"MAX_MASK_BYTES = {MAX_MASK_BYTES} bytes")
    return None


def _basis_size(space, r: int) -> int:
    """len(spaces.enumerate_basis(space, r)), counted without building it:
    a^(2r+1) words on the shift, n singletons, r arcs, and the product of
    the parts' counts; a count past MAX_BASIS_OPENS comes out as
    MAX_BASIS_OPENS + 1."""
    if isinstance(space, sp.ShiftSpace):
        # a >= 2, so a^(2r+1) passes the budget before 2r+1 passes its bit length
        n = space.alphabet_size ** min(2 * r + 1, MAX_BASIS_OPENS.bit_length())
    elif isinstance(space, sp.FiniteSpace):
        n = space.point_count
    elif isinstance(space, sp.CircleSpace):
        n = r
    else:
        n = prod(_basis_size(part, r) for part in space.parts)
    return min(n, MAX_BASIS_OPENS + 1)


def _leaves(spec) -> list:
    """The rule systems and tails and iterates of one that `spec` is made
    of: itself, or a product's parts' leaves."""
    if isinstance(spec, mp.ProductSpec):
        return [leaf for part in spec.parts for leaf in _leaves(part)]
    return [spec]


def _base_fill(spec, span: int) -> int:
    """The base indices a check over `span` times of `spec` fills or steps
    through: time n reads s indices of a leaf past its cut, s the stride it
    is read at (maps.reading), so s*span whatever its cut, for the leaf of
    widest stride."""
    return span * max(mp.reading(leaf)[2] for leaf in _leaves(spec))


def _law_fill(spec, law_horizon: int) -> int:
    """The base indices derive_laws fills for `spec`'s exponent laws, the
    most any leaf's (maps.law_reach, 0 where nothing is read)."""
    return max(mp.law_reach(leaf, law_horizon) or 0 for leaf in _leaves(spec))


def _lead_entries(spec) -> int:
    """The prefix-table entries derive_laws keeps as the leads of `spec`'s
    table laws, (r0 - 1)|X| a leaf with r0 read off its rules before any
    table is folded (maps.table_settling)."""
    leads = ((mp.table_settling(leaf), leaf.space) for leaf in _leaves(spec))
    return sum((settled[0] - 1) * space.point_count for settled, space in leads if settled)


def cmd_corpus(args) -> int:
    from . import corpus  # only this command runs the corpus

    t0 = time.perf_counter()
    scenarios = corpus.run_corpus(args.filter)
    ms = (time.perf_counter() - t0) * 1000
    if args.filter and not scenarios:
        raise _InputError(f"ndslab: no scenario matches {args.filter!r}")
    report = _report_envelope("corpus", args.filter or "all", {})
    report["scenarios"] = scenarios
    report["timing_ms"] = round(ms, 3)
    if args.format == "json":
        _write(sys.stdout, [report_text(report)])
    else:
        results = [(s["name"], r) for s in scenarios for r in s["results"]]
        width = max((len(r["description"]) for _, r in results), default=20)
        _write(sys.stdout, [f"{'PASS' if r['passed'] else 'FAIL'} {name:<28} "
                            f"{r['description']:<{width}} -> {r['actual']}"
                            for name, r in results])
    return 0 if all(s["passed"] for s in scenarios) else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # pair masks and laws live for one command, however many run in this process
        with ck.scoped_caches():
            return cmd_check(args) if args.command == "check" else cmd_corpus(args)
    except _InputError as exc:
        _write(sys.stderr, exc.args)
        return 3
    except Exception as exc:  # any escape is a fault in ndslab, never a verdict
        import traceback  # only on this path: keeps it off every start-up

        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = " ".join(str(exc).split())
        _write(sys.stderr, [f"ndslab: internal error: {type(exc).__name__}: {detail} "
                            f"(at {os.path.basename(where.filename)}:{where.lineno})"])
        return 4


if __name__ == "__main__":
    sys.exit(main())
