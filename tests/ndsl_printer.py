"""The canonical NDSL printer and a random document generator, for the
round-trip tests: `ndsl.parse(print_document(doc)) == doc` for every
document `random_document` draws and for every shipped scenario."""

from __future__ import annotations

from fractions import Fraction

from ndslab import checkers as ck
from ndslab import maps as mp
from ndslab import ndsl
from ndslab import spaces as sp



def print_document(doc: ndsl.NdslDocument) -> str:
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
# random documents


def random_document(rng) -> ndsl.NdslDocument:
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
            ndsl.CheckDirective(
                name,
                prop,
                rng.choice([None, 64, 128]),
                rng.choice([None, 1, 2]),
            )
        )
    return ndsl.NdslDocument(space, tuple(systems), tuple(checks))


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
