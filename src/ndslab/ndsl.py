"""Parser and canonical printer for the NDS specification language (NDSL),
the textual front end for map sequences, derived systems, and check requests.

The grammar is line-oriented with semicolon-terminated rules; the full EBNF
ships in docs/ndsl-grammar.ebnf.  Parsing is total: any input yields either a
document or a list of positioned diagnostics (lexical, syntax, or semantic).
Parsed rule blocks are canonicalized (rules ordered by first matching index),
so printing and reparsing reproduces the document structure exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

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
    horizon: Optional[int] = None
    basis: Optional[int] = None


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
        self.space: Optional[sp.SpaceDesc] = None
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

    def error(self, message: str, expected=(), kind="syntax", at: Optional[Token] = None):
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

    def map_expr(self, bound: Optional[str]):
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


# ---------------------------------------------------------------------------
# canonical printer


def print_document(doc: NdslDocument) -> str:
    out = [_print_space(doc.space)]
    named = {id(s): n for n, s in doc.systems}
    for name, spec in doc.systems:
        out.append("")
        out.append(_print_system(name, spec, named))
    for chk in doc.checks:
        out.append("")
        line = f"check {chk.system} {chk.prop.render()}"
        if chk.horizon is not None:
            line += f" horizon {chk.horizon}"
        if chk.basis is not None:
            line += f" basis {chk.basis}"
        out.append(line + ";")
    return "\n".join(out) + "\n"


def _print_space(space: sp.SpaceDesc) -> str:
    if isinstance(space, sp.ShiftSpace):
        return f"space shift({space.alphabet_size});"
    if isinstance(space, sp.FiniteSpace):
        return f"space finite({space.point_count});"
    if isinstance(space, sp.CircleSpace):
        if space.alpha.kind == "sqrt2m1":
            return "space circle(sqrt2m1);"
        c, h = space.alpha.center, space.alpha.halfwidth
        return f"space circle(alpha({Fraction(c)} +- {Fraction(h)}));"
    raise sp.SpaceMismatch("product spaces are declared through product systems")


def _print_system(name: str, spec: mp.SystemSpec, named: dict) -> str:
    if isinstance(spec, mp.TailSpec):
        return f"system {name} = tail({named[id(spec.base)]}, {spec.k});"
    if isinstance(spec, mp.IterateSpec):
        return f"system {name} = iterate({named[id(spec.base)]}, {spec.k});"
    if isinstance(spec, mp.ProductSpec):
        parts = ", ".join(named[id(p)] for p in spec.parts)
        return f"system {name} = product({parts});"
    lines = [f"system {name} {{"]
    for rule in spec.rules:
        binds = isinstance(rule.term, mp.FamilyTerm)
        lines.append(f"  at {_print_pattern(rule.pattern, binds)}: {_print_term(rule.term)};")
    if spec.default != mp.IDENTITY or not spec.rules:
        lines.append(f"  else: {_print_term(spec.default)};")
    lines.append("}")
    return "\n".join(lines)


def _print_pattern(pat: mp.IndexPattern, binds: bool = False) -> str:
    if isinstance(pat, mp.EqualsPattern):
        return str(pat.value)
    if isinstance(pat, mp.ArithProgPattern):
        return f"ap({pat.first},{pat.step},k)" if binds else f"ap({pat.first},{pat.step})"
    if isinstance(pat, mp.PowerPattern):
        return f"pow({pat.base},{pat.offset},k)"
    raise ValueError(f"unprintable pattern {pat!r}")


def _print_term(term: mp.RuleTerm) -> str:
    if isinstance(term, mp.IdentityTerm):
        return "id"
    if isinstance(term, mp.ShiftPowTerm):
        return f"sigma^{term.exponent}" if term.exponent >= 0 else f"sigma^-{-term.exponent}"
    if isinstance(term, mp.RotPowTerm):
        return f"rot^{term.coefficient}" if term.coefficient >= 0 else f"rot^-{-term.coefficient}"
    if isinstance(term, mp.FamilyTerm):
        head = "sigma" if term.kind == "shift" else "rot"
        if term.add != 0:
            raise ValueError("family offsets are internal and unprintable")
        return f"{head}^k" if term.coeff > 0 else f"{head}^-k"
    if isinstance(term, mp.FiniteFnTerm):
        inner = ",".join(f"{i + 1}->{v}" for i, v in enumerate(term.table))
        return "table{" + inner + "}"
    raise ValueError(f"unprintable term {term!r}")


# ---------------------------------------------------------------------------
# random documents (round-trip testing support)


def random_document(rng) -> NdslDocument:
    """A random valid document (disjoint rules, resolvable references)."""
    space_pick = rng.randrange(3)
    if space_pick == 0:
        space = sp.ShiftSpace(2)
    elif space_pick == 1:
        space = sp.FiniteSpace(rng.randint(1, 4))
    else:
        space = sp.CircleSpace()
    systems = []
    n_base = rng.randint(1, 2)
    for b in range(n_base):
        systems.append((f"S{b}", _random_rule_block(rng, space)))
    if rng.random() < 0.5 and systems:
        base_name, base = systems[rng.randrange(len(systems))]
        kind = rng.randrange(3)
        if kind == 0:
            systems.append((f"D{len(systems)}", mp.TailSpec(base, rng.randint(1, 4))))
        elif kind == 1:
            systems.append((f"D{len(systems)}", mp.IterateSpec(base, rng.randint(1, 3))))
        elif len(systems) >= 1:
            other = systems[rng.randrange(len(systems))][1]
            systems.append((f"D{len(systems)}", mp.ProductSpec((base, other))))
    checks = []
    if rng.random() < 0.6:
        name = systems[rng.randrange(len(systems))][0]
        prop = rng.choice(
            [
                ck.PropertyKind("transitive"),
                ck.PropertyKind("weakly-mixing", order=rng.randint(2, 3)),
                ck.PropertyKind("multi-transitive", order=rng.randint(1, 3)),
                ck.PropertyKind("sensitive", delta=Fraction(1, rng.choice([2, 4, 8]))),
                ck.PropertyKind("syndetically-transitive"),
            ]
        )
        checks.append(
            CheckDirective(
                name,
                prop,
                rng.choice([None, 64, 128]),
                rng.choice([None, 1, 2]),
            )
        )
    return NdslDocument(space, tuple(systems), tuple(checks))


def _random_term(rng, space, allow_family: bool):
    if isinstance(space, sp.ShiftSpace):
        choices = ["id", "pow", "fam"] if allow_family else ["id", "pow"]
        pick = rng.choice(choices)
        if pick == "id":
            return mp.IDENTITY
        if pick == "pow":
            return mp.ShiftPowTerm(rng.randint(-3, 3))
        return mp.FamilyTerm("shift", rng.choice([1, -1]))
    if isinstance(space, sp.CircleSpace):
        choices = ["id", "pow", "fam"] if allow_family else ["id", "pow"]
        pick = rng.choice(choices)
        if pick == "id":
            return mp.IDENTITY
        if pick == "pow":
            return mp.RotPowTerm(rng.randint(-3, 3))
        return mp.FamilyTerm("rot", rng.choice([1, -1]))
    n = space.point_count
    if rng.random() < 0.3:
        return mp.IDENTITY
    return mp.FiniteFnTerm(tuple(rng.randint(1, n) for _ in range(n)))


def _random_rule_block(rng, space) -> mp.NdsSpec:
    shape = rng.randrange(3)
    rules = []
    if shape == 0:
        for v in sorted(rng.sample(range(1, 12), k=rng.randint(0, 3))):
            rules.append(mp.Rule(mp.EqualsPattern(v), _random_term(rng, space, False)))
    elif shape == 1:
        rules.append(mp.Rule(mp.ArithProgPattern(1, 2), _random_term(rng, space, True)))
        rules.append(mp.Rule(mp.ArithProgPattern(2, 2), _random_term(rng, space, True)))
    else:
        base = rng.choice([2, 3])
        rules.append(mp.Rule(mp.PowerPattern(base, 0), _random_term(rng, space, True)))
        rules.append(mp.Rule(mp.PowerPattern(base, 1), _random_term(rng, space, True)))
    rules.sort(key=lambda r: (r.pattern.first_match(), repr(r.pattern)))
    return mp.NdsSpec(space, tuple(rules), _random_term(rng, space, False))
