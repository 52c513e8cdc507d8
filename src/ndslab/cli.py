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
from functools import lru_cache, partial
from itertools import islice
from math import prod
from operator import itemgetter

from . import __version__
from . import checkers as ck
from . import hitting as ht
from . import maps as mp
from . import ndsl
from . import spaces as sp

SCHEMA_VERSION = 1

# the largest horizon or law horizon a check accepts: the prefix-exponent
# array and every hit mask are filled eagerly up to it.  It also bounds the
# base indices past the cut a check and its laws fill (_base_fill, _law_fill)
MAX_HORIZON = 10**6

# the work a check may take on, estimated before it runs: the opens of its
# basis, and the bytes of the sets of pair masks its property keeps
# (checkers.PROPERTIES; _mask_set_bytes: PAIR_CODE_BYTES a pair for its code
# and what its build holds a pair, CODE_BYTES and two masks a distinct
# mask), of the prefix-class masks a check
# walks (CLASS_MASK_BYTES a class of dict entry, key and int header, and 4
# bytes a 30-bit digit of its mask) and of the table laws' leads
# (LEAD_ENTRY_BYTES an entry, a pointer in a table tuple), as tracemalloc
# measured.  A class of a finite leaf has a prefix table in its key
# besides: a tuple, TABLE_KEY_BYTES of header and LEAD_ENTRY_BYTES an entry
MAX_BASIS_OPENS = 1 << 16
MAX_MASK_BYTES = 1 << 28
PAIR_CODE_BYTES = 9
CODE_BYTES = 256
CLASS_MASK_BYTES = 96
LEAD_ENTRY_BYTES = 8
TABLE_KEY_BYTES = 40


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
    for dict keys that are str, with each checkers.PairTable written as its
    dict.  That call runs the pure-Python encoder (the C encoder does not
    indent), so this frames each level itself and hands every container of
    scalars to the C encoder whole; whether one holds a container is asked
    once per type of its values.  The pieces are joined once, at the end:
    a text per level would copy a pair table's text once a level.  A
    command writes its report without this text (_put_report)."""
    pieces = []
    _put_text(obj, depth, pieces.append)
    return "".join(pieces)


def _put_report(report: dict, put) -> None:
    """put() the pieces of report_text(report) and its newline."""
    _put_text(report, 0, put)
    put("\n")


def _put_lines(lines, put) -> None:
    """put() each line and a newline after it."""
    for line in lines:
        put(line)
        put("\n")


def _put_text(obj, depth: int, put) -> None:
    """put() each piece of report_text(obj, depth), in order.  A PairTable
    is told by its type: isinstance would ask its abstract base class
    (Mapping) of every scalar."""
    if type(obj) is ck.PairTable:
        return _put_pair_table(obj, depth, put)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return put(_encoder(depth)(obj))
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (depth + 1)
    put(("{" if is_dict else "[") + inner)
    kinds = set(map(type, obj.values() if is_dict else obj))
    if ck.PairTable not in kinds and not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        put(_encoder(depth + 1)(obj)[1:-1])
    elif is_dict:
        for k, (key, value) in enumerate(sorted(obj.items())):
            put(f"{',' + inner if k else ''}{json.encoder.encode_basestring_ascii(key)}: ")
            _put_text(value, depth + 1, put)
    else:
        for k, value in enumerate(obj):
            if k:
                put("," + inner)
            _put_text(value, depth + 1, put)
    put("\n" + "  " * depth + ("}" if is_dict else "]"))


def _put_pair_table(table, depth: int, put) -> None:
    """_put_text of a checkers.PairTable, written as its dict a row at a
    time.  The sorted labels "i->j" run over the rows i and, within a row,
    the columns j in str order, since "-" sorts below every digit.  The
    value of each code is encoded once, and one % format a row fills the row's
    template, its labels joined around a "%s" a value."""
    n = table.n
    if not n:
        return put("{}")
    inner = "\n" + "  " * (depth + 1)
    encoded = [report_text(value, depth + 1) for value in table.by_code]
    order = sorted(range(n), key=str)
    columns = [*map(str, order)]
    # the row's values in column order; for n = 1 the one value, not a
    # tuple, which % takes alike
    pick = itemgetter(*order)
    for k, i in enumerate(order):
        put(("," if k else "{") + inner)
        template = f'"{i}->' + f'": %s,{inner}"{i}->'.join(columns) + '": %s'
        put(template % pick([*map(encoded.__getitem__, table.codes[i * n:(i + 1) * n])]))
    put("\n" + "  " * depth + "}")


def _write(stream, put_all) -> None:
    """Write to `stream`, stdout or stderr, each piece that put_all(put)
    puts, as it comes: the stream buffers them, so a report is never held
    whole (a JSON report of a million pairs is over 100 MB of text).  A
    reader that closes the pipe early (`| head`, `2>&1 | true`) ends the
    writing, not the command: the stream goes to os.devnull from then on,
    so neither a later write nor the flush at exit can fail and change the
    exit code.  A descriptor closed before start-up (`2>&-`) leaves the
    stream None, and nothing is written."""
    if stream is None:
        return
    try:
        put_all(stream.write)
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
        _write(sys.stdout, partial(_put_report, report))
    else:
        lines = []
        for c in checks:
            lines.append(f"{c['status']:<13} {c['system']:<10} {c['property']:<28} "
                         f"basis={c['basis']} horizon={c['horizon']}")
            lines += [f"              note: {caveat}" for caveat in c["caveats"]]
        _write(sys.stdout, partial(_put_lines, lines))
    return max(_EXIT[c["status"]] for c in checks)


def _size_problem(args, doc, requests):
    """The first size out of its range, over the flags and every check
    request: horizons and the law horizon run from 1 to MAX_HORIZON, a basis
    needs at least the resolution its space admits (spaces.min_resolution),
    and the pair masks of multi-transitive:m span m times the horizon, so
    that product may not pass MAX_HORIZON either.  Then the first request
    whose estimated work is over its budget: its basis has more than
    MAX_BASIS_OPENS opens, the bytes of the sets of pair masks its row of
    checkers.PROPERTIES keeps (_mask_set_bytes) pass
    MAX_MASK_BYTES, or the base indices it fills (_base_fill over its
    widest span, and the system's _law_fill) pass MAX_HORIZON, or the
    prefix-class masks its row walks (_class_mask_bytes) pass MAX_MASK_BYTES
    beside those sets.
    Last, the pair masks of all the checks and the leads of their systems'
    table laws (_lead_entries) together against MAX_MASK_BYTES."""
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
        _, _, spans, walks = ck.PROPERTIES[prop.name]
        n = _basis_size(system.space, basis)
        if n > MAX_BASIS_OPENS:
            return (f"{where} basis {basis} gives more than the budget of "
                    f"MAX_BASIS_OPENS = {MAX_BASIS_OPENS} opens")
        sets = {span: _mask_set_bytes(system, basis, n, span) for span in spans(prop, horizon)}
        need = sum(sets.values())
        if need > MAX_MASK_BYTES:
            masks = " and ".join(f"{n * n} pair masks over {span} times" for span in sets)
            return (f"{where} basis {basis} gives {n} opens, whose {masks} need an estimated {need} "
                    f"bytes, over the budget of MAX_MASK_BYTES = {MAX_MASK_BYTES} bytes")
        held.update({(name, basis, span): size for span, size in sets.items()})
        span = max((horizon, *sets))
        fill = max(_base_fill(system, span), _law_fill(system, args.law_horizon))
        if fill > MAX_HORIZON:
            return (f"{where} fills {fill} indices of its base system, over the budget of "
                    f"MAX_HORIZON = {MAX_HORIZON}")
        if walks(system):
            classes = _class_mask_bytes(system, span, MAX_MASK_BYTES - need)
            if need + classes > MAX_MASK_BYTES:
                kept = "a set" if len(sets) == 1 else f"{len(sets)} sets"
                beside = f", beside the {need} bytes of {kept} of its pair masks" if need else ""
                return (f"{where} its prefix-class masks over {span} times need an estimated "
                        f"{classes} bytes or more{beside}, over the budget of "
                        f"MAX_MASK_BYTES = {MAX_MASK_BYTES} bytes")
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


def _class_mask_bytes(spec, span: int, limit: int) -> int:
    """The bytes of the prefix-class masks of `spec` over `span` times,
    hitting.prefix_groups(spec, span): CLASS_MASK_BYTES a class, the prefix
    table of each finite leaf in its key, and 2t/15 for its mask (4 bytes a
    30-bit digit) up to its last time t.  The classes' last times are
    distinct, so they sum to at most span(span + 1)/2, and that worst case
    is returned when it is within `limit`, with no key read.  Otherwise the
    keys (hitting._prefix_keys) are read in chunks that double, each class's
    last time so far kept, and the count stops once it passes `limit`: it
    only grows, so it is a lower bound.  A product's classes refine each
    part's, so they bound the parts' classes that a pair-mask check walks in
    their place."""
    per_class = CLASS_MASK_BYTES + sum(TABLE_KEY_BYTES + LEAD_ENTRY_BYTES * leaf.space.point_count
                                       for leaf in mp.leaves(spec) if isinstance(leaf.space, sp.FiniteSpace))
    worst = span * (span + 1) // 15 + span * per_class
    if worst <= limit:
        return worst
    keys, last, n, size = islice(ht._prefix_keys(spec, span), 1, None), {}, 1, 1 << 12
    while n <= span:
        last.update(zip(islice(keys, size), range(n, n + size)))
        n, size = n + size, 2 * size
        need = sum(last.values()) * 2 // 15 + len(last) * per_class
        if need > limit:
            break
    return need


def _mask_set_bytes(spec, r: int, n: int, span: int) -> int:
    """The peak bytes of hitting.pair_masks(spec, basis, basis, span) for the
    n opens of the basis at r: PAIR_CODE_BYTES a pair, and a code CODE_BYTES
    (the lists, counts and dict entries keeping it, a product's entries of
    its table of part codes) and two masks of `span` bits.  A pair holds its
    4-byte code, and on the shift walk its cell in the array of cells one
    class meets (each array growing by a sixteenth); a product writes its
    codes in place from its parts' shorter arrays, a block row at a time,
    and a finite space a row of masks at a time, so neither holds more a
    pair.  There is at most a code a pair; past MAX_MASK_BYTES / 16 the
    codes are bounded off the prefix classes (_code_bound)."""
    pairs, code = n * n, CODE_BYTES + 4 * span // 15
    codes = pairs if pairs * code <= MAX_MASK_BYTES >> 4 else _code_bound(spec, r, span, pairs)
    return pairs * PAIR_CODE_BYTES + codes * code


def _code_bound(spec, r: int, span: int, most: int) -> int:
    """min(most, an upper bound on those codes).  A code is a set of prefix
    classes, so k classes give at most 2^k codes.  A shift class moving the
    window of 2r + 1 cells by more than 2r meets every pair alike, so only
    exponents within 2r count; a finite class moves each singleton into
    one, so a nonempty mask holds one of its k*N pairs met.  The circle's
    codes are the grid's r offsets, and a product's are pairs of its parts'
    codes.  The keys are read until the bound reaches `most`."""
    space = spec.space
    if isinstance(space, sp.ProductSpace):
        parts = (_code_bound(part, r, span, _basis_size(part.space, r) ** 2) for part in spec.parts)
        return min(most, prod(parts))
    if isinstance(space, sp.CircleSpace):
        return min(most, r)
    keys = islice(ht._prefix_keys(spec, span), 1, None)
    if isinstance(space, sp.ShiftSpace):
        keys = (e for e in keys if abs(e) <= 2 * r)
    met, classes = space.point_count if isinstance(space, sp.FiniteSpace) else most, set()
    for key in keys:
        classes.add(key)
        if min(1 << len(classes), 1 + len(classes) * met) >= most:
            return most
    return min(1 << len(classes), 1 + len(classes) * met)


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


def _base_fill(spec, span: int) -> int:
    """The base indices a check over `span` times of `spec` fills or steps
    through: time n reads s indices of a leaf past its cut, s the stride it
    is read at (maps.reading), so s*span whatever its cut, for the leaf of
    widest stride."""
    return span * max(mp.reading(leaf)[2] for leaf in mp.leaves(spec))


def _law_fill(spec, law_horizon: int) -> int:
    """The base indices derive_laws fills for `spec`'s exponent laws, the
    most any leaf's (maps.law_reach, 0 where nothing is read)."""
    return max(mp.law_reach(leaf, law_horizon) or 0 for leaf in mp.leaves(spec))


def _lead_entries(spec) -> int:
    """The prefix-table entries derive_laws keeps as the leads of `spec`'s
    table laws, (r0 - 1)|X| a leaf with r0 read off its rules before any
    table is folded (maps.table_settling)."""
    leads = ((mp.table_settling(leaf), leaf.space) for leaf in mp.leaves(spec))
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
        _write(sys.stdout, partial(_put_report, report))
    else:
        results = [(s["name"], r) for s in scenarios for r in s["results"]]
        width = max((len(r["description"]) for _, r in results), default=20)
        _write(sys.stdout, partial(_put_lines, [f"{'PASS' if r['passed'] else 'FAIL'} {name:<28} "
                                                f"{r['description']:<{width}} -> {r['actual']}"
                                                for name, r in results]))
    return 0 if all(s["passed"] for s in scenarios) else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # pair masks and laws live for one command, however many run in this process
        with ck.scoped_caches():
            return cmd_check(args) if args.command == "check" else cmd_corpus(args)
    except _InputError as exc:
        _write(sys.stderr, partial(_put_lines, exc.args))
        return 3
    except Exception as exc:  # any escape is a fault in ndslab, never a verdict
        import traceback  # only on this path: keeps it off every start-up

        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = " ".join(str(exc).split())
        _write(sys.stderr, partial(_put_lines, [f"ndslab: internal error: {type(exc).__name__}: {detail} "
                                                f"(at {os.path.basename(where.filename)}:{where.lineno})"]))
        return 4


if __name__ == "__main__":
    sys.exit(main())
