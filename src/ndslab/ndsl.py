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
from fractions import Fraction

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<pm>\+-)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z][A-Za-z0-9]*)*)
  | (?P<sym>[{}();:,^/=\-])
    """,
    re.VERBOSE,
)


@record
class Token:
    kind: str  # "int" | "ident" | literal symbol | "eof"
    text: str
    line: int
    column: int


def _lex(text: str):
    tokens, diags = [], []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diags.append(Diagnostic("lexical", line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            if kind == "sym":
                tokens.append(Token(chunk, chunk, line, col))
            elif kind in ("arrow", "pm"):
                tokens.append(Token(chunk if kind != "arrow" else "->", chunk, line, col))
            else:
                tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens, diags


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
        self.tokens, lex_diags = _lex(text)
        self.diags = list(lex_diags)
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

    def error(self, message: str, expected=(), kind="syntax", at: Token | None = None):
        t = at or self.peek()
        self.diags.append(Diagnostic(kind, t.line, t.column, message, tuple(expected)))
        raise _Recover()

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.error(f"found {t.text!r} while parsing {what}", expected=(kind,))
        return self.advance()

    def expect_word(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            self.error(f"found {t.text!r}", expected=(word,))
        return self.advance()

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
            self.diags.append(Diagnostic("semantic", 1, 1, "document declares no space"))
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
        if t.kind == "ident" and t.text == "space":
            self.space_decl()
        elif t.kind == "ident" and t.text == "system":
            self.system_def()
        elif t.kind == "ident" and t.text == "check":
            self.check_decl()
        else:
            self.error(f"found {t.text!r}", expected=("space", "system", "check"))

    def space_decl(self):
        self.expect_word("space")
        self.space_declared = True
        t = self.peek()
        if t.kind != "ident" or t.text not in ("shift", "finite", "circle"):
            self.error(f"found {t.text!r}", expected=("shift", "finite", "circle"))
        kind = self.advance().text
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
        t = self.peek()
        if t.kind == "ident" and t.text == "sqrt2m1":
            self.advance()
            return sp.AlphaEnclosure.sqrt2_minus_1()
        if t.kind == "ident" and t.text == "alpha":
            self.advance()
            self.expect("(", "alpha enclosure")
            center = self.fraction("enclosure center")
            self.expect("+-", "alpha enclosure")
            halfwidth = self.fraction("enclosure halfwidth")
            self.expect(")", "alpha enclosure")
            try:
                return sp.AlphaEnclosure.custom(center, halfwidth)
            except ValueError as exc:
                self.error(str(exc), kind="semantic")
        self.error(f"found {t.text!r}", expected=("sqrt2m1", "alpha"))

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
        self.expect_word("system")
        name_tok = self.expect("ident", "system name")
        name = name_tok.text
        if name in KEYWORDS:
            self.error(f"{name!r} is a keyword", kind="semantic")
        if any(n == name for n, _ in self.systems):
            self.diags.append(
                Diagnostic("semantic", name_tok.line, name_tok.column, f"duplicate system name {name!r}")
            )
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
        t = self.peek()
        if t.kind != "ident" or t.text not in ("tail", "iterate", "product"):
            self.error(f"found {t.text!r}", expected=("tail", "iterate", "product"))
        kind = self.advance().text
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
        return mp.TailSpec(refs[0], k) if kind == "tail" else mp.IterateSpec(refs[0], k)

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
            if t.kind == "ident" and t.text == "at":
                self.advance()
                pattern, bound = self.pattern()
                self.expect(":", "rule")
                term = self.map_expr(bound)
                self.expect(";", "rule")
                rules.append(mp.Rule(pattern, term))
            elif t.kind == "ident" and t.text == "else":
                self.advance()
                self.expect(":", "rule")
                term = self.map_expr(None)
                self.expect(";", "rule")
                if default is not None:
                    self.diags.append(
                        Diagnostic("semantic", t.line, t.column, "duplicate else rule")
                    )
                default = term
            else:
                self.error(f"found {t.text!r}", expected=("at", "else", "}"))
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
        if t.kind != "ident":
            self.error(f"found {t.text!r}", expected=("ap", "pow", "odd", "even", "index"))
        word = t.text
        if word == "ap":
            self.advance()
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
            self.advance()
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
        if word in ("odd", "even"):
            self.advance()
            self.expect("(", "pattern")
            bound = self.expect("ident", "bound ordinal").text
            self.expect(")", "pattern")
            first = 1 if word == "odd" else 2
            return mp.ArithProgPattern(first, 2), bound
        self.error(f"found {word!r}", expected=("ap", "pow", "odd", "even", "index"))

    def map_expr(self, bound: str | None):
        t = self.peek()
        if t.kind != "ident":
            self.error(f"found {t.text!r}", expected=("id", "sigma", "rot", "table"))
        word = t.text
        if word == "id":
            self.advance()
            return mp.IDENTITY
        if word in ("sigma", "rot"):
            self.advance()
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
        if word == "table":
            self.advance()
            self.expect("{", "table")
            entries = {}
            while True:
                src = self.take_int("table source")
                self.expect("->", "table")
                dst = self.take_int("table target")
                if src in entries:
                    self.error(f"duplicate table entry for {src}", kind="semantic")
                entries[src] = dst
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
            self.expect("}", "table")
            n = len(entries)
            if sorted(entries) != list(range(1, n + 1)):
                self.error("table must map exactly the ids 1..n", kind="semantic")
            if any(not (1 <= v <= n) for v in entries.values()):
                self.error("table targets must stay within 1..n", kind="semantic")
            return mp.FiniteFnTerm(tuple(entries[i] for i in range(1, n + 1)))
        self.error(f"found {word!r}", expected=("id", "sigma", "rot", "table"))

    def check_decl(self):
        self.expect_word("check")
        ref = self.system_ref()
        name_tok = self.expect("ident", "property name")
        params = []
        if self.peek().kind == ":":
            self.advance()
            params.append(self.fraction("property parameter"))
            while self.peek().kind == ",":
                self.advance()
                params.append(self.fraction("property parameter"))
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


class _Recover(Exception):
    pass


def parse(text: str) -> NdslDocument:
    """Parse NDSL source; raises NdslParseError carrying all diagnostics."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# property name handling shared with the CLI


def read_property(text: str) -> ck.PropertyKind:
    """The property a rendering `name[:p1[,p2]]` (PropertyKind.render, the
    --property flag, corpus expectations) names; ValueError when it is bad."""
    head, _, tail = text.partition(":")
    try:
        params = [Fraction(p) for p in tail.split(",")] if tail else []
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return parse_property(head, params)


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
