"""An exhaustive decider for small finite systems and their products,
grading the checkers.

On a finite space, or a product of finite spaces, with eventually periodic
rules the prefix maps T(n) = f_n o ... o f_1 form an eventually periodic
sequence, so a walk to the first repeated (map, phase) state decides every
property exactly.  The decider follows the checkers' definitions: the basis
opens at resolution 1 are the singletons, hits count from n = 1, and
`minimal` counts the point itself (n = 0).  It shares no code with the
checkers but the step maps and their application (maps.apply)."""

import random
import sys
from itertools import product

from ndslab import checkers as ck
from ndslab import maps as mp
from ndslab import ndsl
from ndslab import spaces as sp

# past index LEAD every shape repeats with a period dividing PERIOD
LEAD, PERIOD = 3, 6

# finite(3) systems graded on every Tier-1 run; the full sweep runs as
# `python tests/test_finite_oracle.py 3`
SAMPLE, SAMPLE_SEED = 120, 27

# products of two finite(2) systems graded on every Tier-1 run; the full
# sweep runs as `python tests/test_finite_oracle.py 2x2`
PRODUCT_SAMPLE, PRODUCT_SEED = 300, 28


def shapes(space: sp.FiniteSpace) -> list:
    """Every system of the four shapes `at ap(1,1): A;`, `at ap(1,2): A; else: B;`,
    `at 1: A; else: B;` and `at ap(2,3): A; else: B;` on `space`."""
    n = space.point_count
    tables = [mp.FiniteFnTerm(t) for t in product(range(1, n + 1), repeat=n)]
    systems = [mp.NdsSpec(space, (mp.Rule(mp.ArithProgPattern(1, 1), a),)) for a in tables]
    for pattern in (mp.ArithProgPattern(1, 2), mp.EqualsPattern(1), mp.ArithProgPattern(2, 3)):
        systems += [mp.NdsSpec(space, (mp.Rule(pattern, a),), b) for a in tables for b in tables]
    return systems


def products(left: sp.FiniteSpace, right: sp.FiniteSpace) -> list:
    """product(A, B) for every shape A on `left` and every shape B on `right`."""
    return [mp.ProductSpec((a, b)) for a in shapes(left) for b in shapes(right)]


def points(space) -> list:
    """Every point of a finite space or of a product of finite spaces."""
    if isinstance(space, sp.FiniteSpace):
        return [sp.FiniteId(i) for i in range(1, space.point_count + 1)]
    return [sp.ProductPoint(parts) for parts in product(*map(points, space.parts))]


def phase(i: int) -> int:
    """Steps at indices of one phase are one map."""
    return i if i <= LEAD else LEAD + 1 + (i - LEAD - 1) % PERIOD


def prefix_walk(spec) -> tuple:
    """(tables, n0, p): tables[n] is T(n) for n < n0 + p, and T(n) =
    T(n0 + (n - n0) % p) from n0 on."""
    T = mp.identity_map(spec.space)
    tables, seen = [], {}
    while (T, phase(len(tables) + 1)) not in seen:
        seen[T, phase(len(tables) + 1)] = len(tables)
        tables.append(T)
        T = mp.compose(mp.step_normal(spec, len(tables)), T)
    n0 = seen[T, phase(len(tables) + 1)]
    return tables, n0, len(tables) - n0


def decide(spec) -> dict:
    """The exact answer of every graded property."""
    tables, n0, p = prefix_walk(spec)
    # points by position: images[n][i] is the position of T(n) of point i
    position = {x: i for i, x in enumerate(points(spec.space))}
    images = [[position[mp.apply(T, x)] for x in position] for T in tables]

    def at(n: int, i: int) -> int:
        return images[n if n < n0 + p else n0 + (n - n0) % p][i]

    pairs = list(product(range(len(position)), repeat=2))
    # past n0 every T(s*n), s = 1 or 2, repeats with period p
    times = range(1, n0 + p + 1)
    cycle = range(n0 + p, n0 + 2 * p)

    def hit(s: int, i: int, j: int) -> bool:
        return any(at(s * n, i) == j for n in times)

    transitive = all(hit(1, i, j) for i, j in pairs)
    return {
        "transitive": transitive,
        "mixing": all(all(at(n, i) == j for n in cycle) for i, j in pairs),
        "weakly-mixing:2": all(
            any(at(n, i) == j and at(n, k) == l for n in times)
            for (i, j), (k, l) in product(pairs, repeat=2)
        ),
        "minimal": all(any(at(n, i) == j for n in range(n0 + p)) for i, j in pairs),
        # with singleton opens, the images of {i} cover the space exactly
        # when {i} reaches every point
        "strongly-transitive": transitive,
        "syndetically-transitive": all(any(at(n, i) == j for n in cycle) for i, j in pairs),
        "totally-transitive:2": transitive and all(hit(2, i, j) for i, j in pairs),
        "multi-transitive:2": all(
            any(at(n, i) == j and at(2 * n, k) == l for n in times)
            for (i, j), (k, l) in product(pairs, repeat=2)
        ),
        # {i} holds a periodic point when T(kn)(i) = i for some k and every
        # n >= 1; the multiples of k past n0 repeat with period p, so m up to
        # n0 + p reads every one, and if any k works, the least multiple of
        # p past n0 does, so k up to n0 + p decides
        "dense-periodic-points": all(
            any(all(at(k * m, i) == i for m in range(1, n0 + p + 1)) for k in range(1, n0 + p + 1))
            for i in range(len(position))
        ),
    }


def grade(label: str, systems: list) -> list:
    """The verdicts on `systems` that contradict the decider, or that are
    decided but fail checkers.recheck_verdict; prints the share of verdicts
    decided."""
    wrong, decided, total = [], 0, 0
    for spec in systems:
        truth = decide(spec)
        for rendered, holds in truth.items():
            verdict = ck.check_property(spec, ndsl.read_property(rendered), 1, 64)
            total += 1
            decided += verdict.status != ck.INCONCLUSIVE
            if (verdict.witnessed and not holds) or (verdict.refuted and holds):
                wrong.append((spec, rendered, verdict.status))
            elif verdict.status != ck.INCONCLUSIVE and not ck.recheck_verdict(spec, verdict):
                wrong.append((spec, rendered, verdict.status + ", failing its re-check"))
    print(f"{label} oracle: {decided} of {total} verdicts decided ({decided / total:.1%}), "
          f"{len(wrong)} wrong")
    return wrong


def test_no_verdict_contradicts_the_exhaustive_decider():
    systems = shapes(sp.FiniteSpace(2))
    assert len(systems) == 52
    assert grade("finite(2)", systems) == []


def test_no_verdict_on_a_finite3_sample_contradicts_the_exhaustive_decider():
    systems = shapes(sp.FiniteSpace(3))
    assert len(systems) == 2214
    sample = random.Random(SAMPLE_SEED).sample(systems, SAMPLE)
    assert grade(f"finite(3) sample of {SAMPLE}", sample) == []


def test_no_verdict_on_a_one_point_product_contradicts_the_exhaustive_decider():
    # products of a one-point system and a finite(2) system: a one-point
    # factor changes no property, so each product answers as its finite(2)
    # factor does, which only the factor's laws can prove
    systems = products(sp.FiniteSpace(1), sp.FiniteSpace(2))
    assert len(systems) == 208
    assert grade("finite(1) x finite(2)", systems) == []


def test_no_verdict_on_a_product_sample_contradicts_the_exhaustive_decider():
    systems = products(sp.FiniteSpace(2), sp.FiniteSpace(2))
    assert len(systems) == 2704
    sample = random.Random(PRODUCT_SEED).sample(systems, PRODUCT_SAMPLE)
    assert grade(f"finite(2) x finite(2) sample of {PRODUCT_SAMPLE}", sample) == []


if __name__ == "__main__":
    # python tests/test_finite_oracle.py N: grade every system on finite(N);
    # python tests/test_finite_oracle.py NxM: every product of a system on
    # finite(N) and one on finite(M)
    n, _, m = sys.argv[1].partition("x")
    if m:
        wrong = grade(f"finite({n}) x finite({m})", products(sp.FiniteSpace(int(n)), sp.FiniteSpace(int(m))))
    else:
        wrong = grade(f"finite({n})", shapes(sp.FiniteSpace(int(n))))
    for spec, rendered, status in wrong:
        print(f"wrong: {rendered} {status} on {spec!r}")
    sys.exit(1 if wrong else 0)
