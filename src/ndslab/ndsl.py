"""Parser for the NDS specification language (NDSL), the textual front end
for map sequences, derived systems, and check requests.

The grammar is line-oriented with semicolon-terminated rules; the full EBNF
ships in docs/ndsl-grammar.ebnf.  Parsing is total: any input yields either a
document or a list of positioned diagnostics (lexical, syntax, or semantic).
Parsed rule blocks are canonicalized (rules ordered by first matching index),
so printing and reparsing reproduces the document structure exactly (the
canonical printer is tests/ndsl_printer.py, which only the tests use).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from . import checkers as ck
from . import maps as mp
from . import spaces as sp
from .record import record

KEYWORDS = {
    "space", "system", "at", "else", "tail", "iterate", "product", "check",
    "shift", "finite", "circle", "sqrt2m1", "alpha", "ap", "pow", "odd",
    "even", "id", "sigma", "rot", "table", "horizon", "basis",
}


@record
class Diagnostic:
    kind: str  # "lexical" | "syntax" | "semantic"
    line: int
    column: int
    message: str
    expected: tuple = ()

    def render(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.column}: {self.kind}: {self.message}{exp}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "expected": list(self.expected),
        }


class NdslParseError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


@record
class CheckDirective:
    system: str
    prop: ck.PropertyKind
    horizon: int | None = None
    basis: int | None = None


@record
class NdslDocument:
    space: sp.SpaceDesc
    systems: tuple  # (name, SystemSpec) in definition order
    checks: tuple = ()

    def system(self, name: str) -> mp.SystemSpec:
        for n, s in self.systems:
            if n == name:
                return s
        raise KeyError(name)

    @property
    def names(self):
        return [n for n, _ in self.systems]


# ---------------------------------------------------------------------------
# lexer

# the characters str.splitlines ends a line at ("\r\n" is one break): a
# comment runs to the first of them, and a diagnostic counts lines by them
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_TOKEN_RE = re.compile(
    rf"""
    \s*(?:\#[^{LINE_BREAKS}]*\s*)*  # the whitespace and comments before the token
    (?:
        (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z][A-Za-z0-9]*)*)
      | (?P<sym>->|\+-|[{{}}();:,^/=\-])
      | (?P<bad>.)  # an unexpected character
      | \Z
    )
    """,
    re.VERBOSE,
)


@record
class Token:
    kind: str  # "int" | "ident" | literal symbol | "eof"
    text: str
    at: int  # offset in the text


def _lex(text: str):
    """The tokens, ending in one "eof" token, and the offset of each
    unexpected character.  Every match skips to one token and reads it, so
    the first attempt at each position succeeds and nothing backtracks; the
    end-of-text alternative ends the scan, so no search resumes inside a
    trailing comment."""
    tokens, bad = [], []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            tokens.append(Token("eof", "", m.end()))
            return tokens, bad
        at = m.start(kind)
        if kind == "bad":
            bad.append(at)
        else:  # a symbol, -> or +- is its own kind
            chunk = m.group(kind)
            tokens.append(Token(chunk if kind == "sym" else kind, chunk, at))


# ---------------------------------------------------------------------------
# parser

MAX_INT_DIGITS = 4000
MAX_DENOMINATOR_BITS = 4096


def _power_exceeds(base: int, exp: int, bits: int) -> bool:
    """base**exp > 2**bits, decided without building an oversized power."""
    if base <= 1 or exp == 0:
        return False
    if (base.bit_length() - 1) * exp > bits:
        return True
    # here base**exp < 2**(base.bit_length() * exp) <= 2**(2 * bits)
    return base**exp > 1 << bits


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, bad = _lex(text)
        self.diags = [self.diagnostic("lexical", at, f"unexpected character {text[at]!r}")
                      for at in bad]
        self.pos = 0
        self.space: sp.SpaceDesc | None = None
        self.space_declared = False
        self.systems: list = []
        self.checks: list = []

    # token plumbing -------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    @cached_property
    def line_starts(self) -> list:
        """The offset where each line starts, lines split by str.splitlines."""
        return [0, *accumulate(map(len, (self.text + "_").splitlines(True)))][:-1]

    def diagnostic(self, kind: str, at: int, message: str, expected=()) -> Diagnostic:
        """The diagnostic at offset `at`, the one place a line and column are
        counted."""
        line = bisect_right(self.line_starts, at)
        return Diagnostic(kind, line, at - self.line_starts[line - 1] + 1, message, tuple(expected))

    def error(self, message: str, expected=(), kind="syntax", at: Token | None = None):
        self.diags.append(self.diagnostic(kind, (at or self.peek()).at, message, expected))
        raise _Recover()

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.error(f"found {t.text!r} while parsing {what}", expected=(kind,))
        return self.advance()

    def choose(self, *words, also=()) -> str:
        """The next word, consumed, when it is one of `words`; otherwise a
        syntax error expecting `words` and `also`."""
        t = self.peek()
        if t.kind != "ident" or t.text not in words:
            self.error(f"found {t.text!r}", expected=(*words, *also))
        return self.advance().text

    def take_int(self, what: str) -> int:
        t = self.peek()
        if t.kind == "int" and len(t.text) > MAX_INT_DIGITS:
            self.error(
                f"{what} has {len(t.text)} digits; integer literals are limited to "
                f"{MAX_INT_DIGITS}", kind="semantic",
            )
        return int(self.expect("int", what).text)

    # grammar --------------------------------------------------------------
    def parse(self) -> NdslDocument:
        while self.peek().kind != "eof":
            try:
                self.statement()
            except _Recover:
                self.skip_to_sync()
        if self.space is None and not self.diags:
            self.diags.append(self.diagnostic("semantic", 0, "document declares no space"))
        if self.diags:
            raise NdslParseError(self.diags)
        return NdslDocument(self.space, tuple(self.systems), tuple(self.checks))

    def skip_to_sync(self):
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof":
                return
            self.advance()
            if t.kind == "{":
                depth += 1
            elif t.kind == "}":
                if depth <= 1:
                    return
                depth -= 1
            elif t.kind == ";" and depth == 0:
                return

    def statement(self):
        t = self.peek()
        if self.space is None and self.space_declared and t.text in ("system", "check"):
            raise _Recover()  # the failed space declaration is the one diagnostic
        word = self.choose("space", "system", "check")
        {"space": self.space_decl, "system": self.system_def, "check": self.check_decl}[word]()

    def space_decl(self):
        self.space_declared = True
        kind = self.choose("shift", "finite", "circle")
        self.expect("(", "space declaration")
        if kind in ("shift", "finite"):
            size = self.peek()
            n = self.take_int("alphabet size" if kind == "shift" else "point count")
            try:
                space = sp.ShiftSpace(n) if kind == "shift" else sp.FiniteSpace(n)
            except ValueError as exc:
                self.error(str(exc), kind="semantic", at=size)
        else:
            space = sp.CircleSpace(self.alpha_expr())
        self.expect(")", "space declaration")
        self.expect(";", "space declaration")
        if self.space is not None:
            self.error("a document declares exactly one space", kind="semantic")
        self.space = space

    def alpha_expr(self) -> sp.AlphaEnclosure:
        if self.choose("sqrt2m1", "alpha") == "sqrt2m1":
            return sp.AlphaEnclosure.sqrt2_minus_1()
        self.expect("(", "alpha enclosure")
        center = self.fraction("enclosure center")
        self.expect("+-", "alpha enclosure")
        halfwidth = self.fraction("enclosure halfwidth")
        self.expect(")", "alpha enclosure")
        try:
            return sp.AlphaEnclosure.custom(center, halfwidth)
        except ValueError as exc:
            self.error(str(exc), kind="semantic")

    def fraction(self, what: str) -> Fraction:
        num = self.take_int(what)
        if self.peek().kind != "/":
            return Fraction(num)
        self.advance()
        den = self.take_int(what)
        if self.peek().kind == "^":
            self.advance()
            exp = self.take_int(what)
            if _power_exceeds(den, exp, MAX_DENOMINATOR_BITS):
                self.error(f"denominator power exceeds 2^{MAX_DENOMINATOR_BITS}", kind="semantic")
            den = den**exp
        if den == 0:
            self.error("zero denominator", kind="semantic")
        return Fraction(num, den)

    def system_def(self):
        name_tok = self.expect("ident", "system name")
        name = name_tok.text
        if name in KEYWORDS:
            self.error(f"{name!r} is a keyword", kind="semantic")
        if any(n == name for n, _ in self.systems):
            self.diags.append(self.diagnostic("semantic", name_tok.at, f"duplicate system name {name!r}"))
        t = self.peek()
        if t.kind == "=":
            self.advance()
            spec = self.derived_expr()
            self.expect(";", "derived system")
        elif t.kind == "{":
            spec = self.rule_block(name_tok)
        else:
            self.error(f"found {t.text!r}", expected=("{", "="))
        self.systems.append((name, spec))

    def derived_expr(self) -> mp.SystemSpec:
        kind = self.choose("tail", "iterate", "product")
        self.expect("(", "derived system")
        refs = [self.system_ref()]
        if kind == "product":
            while self.peek().kind == ",":
                self.advance()
                refs.append(self.system_ref())
            self.expect(")", "derived system")
            if len(refs) < 2:
                self.error("a product needs at least two systems", kind="semantic")
            return mp.ProductSpec(tuple(refs))
        self.expect(",", "derived system")
        k = self.take_int("derivation order")
        self.expect(")", "derived system")
        if k < 1:
            self.error("derivation order must be at least 1", kind="semantic")
        return mp.tail(refs[0], k) if kind == "tail" else mp.iterate(refs[0], k)

    def system_ref(self) -> mp.SystemSpec:
        t = self.expect("ident", "system reference")
        for n, s in self.systems:
            if n == t.text:
                return s
        self.error(f"unknown system {t.text!r}", kind="semantic", at=t)

    def rule_block(self, name_tok: Token) -> mp.NdsSpec:
        if self.space is None:
            self.error("declare the space before defining systems", kind="semantic")
        self.expect("{", "system body")
        rules = []
        default = None
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                self.error("unterminated system body", expected=("}",))
            t = self.peek()
            if self.choose("at", "else", also=("}",)) == "at":
                pattern, bound = self.pattern()
                self.expect(":", "rule")
                term = self.map_expr(bound)
                self.expect(";", "rule")
                rules.append(mp.Rule(pattern, term))
            else:
                self.expect(":", "rule")
                term = self.map_expr(None)
                self.expect(";", "rule")
                if default is not None:
                    self.diags.append(self.diagnostic("semantic", t.at, "duplicate else rule"))
                default = term
        self.advance()  # closing brace
        rules.sort(key=lambda r: (r.pattern.first_match(), repr(r.pattern)))
        try:
            return mp.NdsSpec(
                self.space, tuple(rules), default if default is not None else mp.IDENTITY
            )
        except (mp.OverlappingRules, sp.SpaceMismatch) as exc:
            self.error(str(exc), kind="semantic", at=name_tok)

    def pattern(self):
        t = self.peek()
        if t.kind == "int":
            index = self.take_int("index")
            if index < 1:
                self.error("index pattern needs index >= 1", kind="semantic", at=t)
            return mp.EqualsPattern(index), None
        word = self.choose("ap", "pow", "odd", "even", also=("index",))
        if word == "ap":
            self.expect("(", "pattern")
            first = self.take_int("progression start")
            self.expect(",", "pattern")
            step = self.take_int("progression step")
            bound = None
            if self.peek().kind == ",":
                self.advance()
                bound = self.expect("ident", "bound ordinal").text
            self.expect(")", "pattern")
            if first < 1 or step < 1:
                self.error("progression needs start >= 1 and step >= 1", kind="semantic")
            return mp.ArithProgPattern(first, step), bound
        if word == "pow":
            self.expect("(", "pattern")
            base = self.take_int("power base")
            self.expect(",", "pattern")
            offset = self.take_int("power offset")
            self.expect(",", "pattern")
            bound = self.expect("ident", "bound ordinal").text
            self.expect(")", "pattern")
            if base < 2 or offset < 0:
                self.error("power pattern needs base >= 2 and offset >= 0", kind="semantic")
            return mp.PowerPattern(base, offset), bound
        self.expect("(", "pattern")  # odd or even
        bound = self.expect("ident", "bound ordinal").text
        self.expect(")", "pattern")
        return mp.ArithProgPattern(1 if word == "odd" else 2, 2), bound

    def map_expr(self, bound: str | None):
        word = self.choose("id", "sigma", "rot", "table")
        if word == "id":
            return mp.IDENTITY
        if word in ("sigma", "rot"):
            self.expect("^", "map power")
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            kind = "shift" if word == "sigma" else "rot"
            t2 = self.peek()
            if t2.kind == "int":
                e = sign * self.take_int("exponent")
                return mp.ShiftPowTerm(e) if kind == "shift" else mp.RotPowTerm(e)
            if t2.kind == "ident":
                if bound is None or t2.text != bound:
                    self.error(
                        f"{t2.text!r} is not the ordinal bound by this rule's pattern",
                        kind="semantic",
                    )
                self.advance()
                return mp.FamilyTerm(kind, sign)
            self.error(f"found {t2.text!r}", expected=("integer", "bound ordinal"))
        self.expect("{", "table")  # the word is "table"
        entries = {}
        while True:
            src = self.take_int("table source")
            self.expect("->", "table")
            dst = self.take_int("table target")
            if src in entries:
                self.error(f"duplicate table entry for {src}", kind="semantic")
            entries[src] = dst
            if self.peek().kind != ",":
                break
            self.advance()
        self.expect("}", "table")
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            self.error("table must map exactly the ids 1..n", kind="semantic")
        if any(not (1 <= v <= n) for v in entries.values()):
            self.error("table targets must stay within 1..n", kind="semantic")
        return mp.FiniteFnTerm(tuple(entries[i] for i in range(1, n + 1)))

    def check_decl(self):
        ref = self.system_ref()
        name_tok = self.expect("ident", "property name")
        params = self.parameters()
        sizes = {}  # horizon and basis, in either order, each at most once
        while self.peek().kind == "ident" and self.peek().text in ("horizon", "basis"):
            if self.peek().text in sizes:
                self.error(f"{self.peek().text} is set twice in one check directive",
                           kind="semantic")
            which = self.advance().text
            sizes[which] = self.take_int(which)
        self.expect(";", "check directive")
        try:
            prop = parse_property(name_tok.text, params)
        except ValueError as exc:
            self.error(str(exc), kind="semantic", at=name_tok)
        sysname = next(n for n, s in self.systems if s is ref)
        horizon, basis = sizes.get("horizon"), sizes.get("basis")
        self.checks.append(CheckDirective(sysname, prop, horizon, basis))

    def parameters(self) -> list:
        """The fractions after a property name: a colon, then one or more
        separated by commas; none without the colon."""
        params, sep = [], ":"
        while self.peek().kind == sep:
            self.advance()
            params.append(self.fraction("property parameter"))
            sep = ","
        return params


class _Recover(Exception):
    pass


def parse(text: str) -> NdslDocument:
    """Parse NDSL source; raises NdslParseError carrying all diagnostics."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# property name handling shared with the CLI


def read_property(text: str) -> ck.PropertyKind:
    """The property a rendering `name[:p1[,p2]]` (PropertyKind.render, the
    --property flag, corpus expectations) names, read by the grammar of a
    check directive; ValueError naming the first diagnostic when it is bad."""
    parser = _Parser(text)
    try:
        name = parser.expect("ident", "property name").text
        params = parser.parameters()
        parser.expect("eof", "property")
    except _Recover:
        pass
    if parser.diags:
        raise ValueError(f"{parser.diags[0].message} in {text!r}")
    return parse_property(name, params)


def parse_property(name: str, params) -> ck.PropertyKind:
    """The property `name` with its parameters in checkers.PROPERTIES order;
    ValueError for an unknown name, a surplus or a bad parameter."""
    if name not in ck.PROPERTIES:
        raise ValueError(f"unknown property {name!r}")
    declared = ck.PROPERTIES[name][1]
    params = list(params)
    if len(params) > len(declared):
        fields = ", ".join(p.field.replace("_", " ") for p in declared)
        takes = f"only {fields}" if declared else "no parameters"
        raise ValueError(f"{name} takes {takes}, got {len(params)}")
    return ck.PropertyKind(name, **{p.field: v for p, v in zip(declared, params)})
