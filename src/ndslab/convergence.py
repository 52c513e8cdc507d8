"""Supremum-metric distances between normal maps, uniform and collective
convergence verdicts, and the equicontinuity modulus used by sensitivity
gap-bound arguments.

On the shift and on finite spaces the sup metric between distinct normal
maps is bounded below by a fixed constant (3 between distinct shift powers,
1 between distinct tables), so convergence verdicts reduce to eventual
equality of steps: `maps.eventual_step` proves from the rules that the
steps repeat a block from some index on, and a block of one map, the limit,
witnesses.  No silent extrapolation: without that structural argument a
verdict stays inconclusive.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from . import maps as mp
from . import spaces as sp
from .record import record


@record
class ConvergenceVerdict:
    status: str  # "witnessed" | "refuted" | "inconclusive"
    stabilization_index: int | None = None
    refuting_pair: tuple | None = None  # (r, k, distance lower bound)
    detail: str = ""

    @property
    def witnessed(self) -> bool:
        return self.status == "witnessed"


def sup_distance(space: sp.SpaceDesc, a: mp.NormalMap, b: mp.NormalMap):
    """D(f, g) = sup over x of d(f(x), g(x)); exact rational on shift and
    finite spaces, exact-or-enclosure on the circle."""
    if isinstance(space, sp.ShiftSpace):
        if not isinstance(a, mp.ShiftPowTerm) or not isinstance(b, mp.ShiftPowTerm):
            raise sp.SpaceMismatch("shift sup distance needs shift powers")
        # for m != 0 a word alternating on blocks of |m| disagrees with its
        # own m-shift at every coordinate, attaining the full weight 3
        return Fraction(0) if a.exponent == b.exponent else sp.TOTAL_WEIGHT
    if isinstance(space, sp.FiniteSpace):
        if not isinstance(a, mp.FiniteFnTerm) or not isinstance(b, mp.FiniteFnTerm):
            raise sp.SpaceMismatch("finite sup distance needs tables")
        return Fraction(0) if a.table == b.table else Fraction(1)
    if isinstance(space, sp.CircleSpace):
        if not isinstance(a, mp.RotPowTerm) or not isinstance(b, mp.RotPowTerm):
            raise sp.SpaceMismatch("circle sup distance needs rotations")
        # rotations differ by a rigid rotation, so the pointwise distance is
        # constant and equals the circle distance of the offset
        off = sp.AffineAngle(0, a.coefficient - b.coefficient)
        return sp.distance(space, off, sp.AffineAngle(0))
    if isinstance(space, sp.ProductSpace):
        return sp.value_max(
            [sup_distance(s, x, y) for s, x, y in zip(space.parts, a.parts, b.parts)]
        )
    raise sp.SpaceMismatch(f"unknown space {space!r}")


def _infinite_non_limit_rule(spec: mp.SystemSpec, limit_map: mp.NormalMap) -> str | None:
    """A structural reason why infinitely many step terms differ from the
    limit (family exponents grow without bound, a constant non-limit term
    fires on an infinite pattern, or the default does)."""
    spec, _, s = mp.reading(spec)
    if s > 1 or not isinstance(spec, mp.NdsSpec):
        return None
    space = spec.space
    for r in spec.rules:
        if isinstance(r.pattern, mp.EqualsPattern):
            continue
        m = mp.rule_map(space, r.term)
        if m is None:
            return f"rule {r.pattern} emits unboundedly growing powers"
        if m != limit_map:
            return f"rule {r.pattern} emits {r.term} infinitely often"
    if mp.rule_map(space, spec.default) != limit_map and mp.covered_from(spec) is None:
        return f"the default emits {spec.default} infinitely often"
    return None


def _divergent_windows(spec, limit_map, starts, max_window: int):
    """Each (r, k, d) with d = D(f_r^k, f^k) != 0, for the window lengths
    k = 1..max_window in turn and, within each, r over `starts`."""
    space = spec.space
    limit_pow = mp.identity_map(space)
    for k in range(1, max_window + 1):
        limit_pow = mp.compose(limit_map, limit_pow)
        for r in starts:
            d = sup_distance(space, mp.window_compose(spec, r, k), limit_pow)
            if sp.value_cmp(d, 0) != 0:
                yield r, k, d


def check_uniform_convergence(spec: mp.SystemSpec, limit: mp.MapTerm, horizon: int) -> ConvergenceVerdict:
    """Does D(f_n, f) -> 0?  On these discrete-valued sup metrics uniform
    convergence is eventual equality of terms: the windows of length 1."""
    return _convergence(spec, limit, horizon, 1, "uniform")


def check_collective_convergence(
    spec: mp.SystemSpec, limit: mp.MapTerm, horizon: int, max_window: int
) -> ConvergenceVerdict:
    """Does D(f_r^k, f^k) -> 0 uniformly in k?  Witnessed needs stabilized
    rules (windows beyond r0 are then limit iterates for every k); refuted
    exhibits a concrete (r, k) separation recurring structurally."""
    return _convergence(spec, limit, horizon, max_window, "collective")


def _convergence(spec, limit, horizon: int, max_window: int, mode: str) -> ConvergenceVerdict:
    """The verdict in `mode` read off the windows of length 1..max_window."""
    uniform = mode == "uniform"
    limit_map = mp.term_to_normal(spec.space, limit)
    r0, block = mp.eventual_step(spec) or (None, ())
    if block == (limit_map,):
        if next(_divergent_windows(spec, limit_map, range(r0, min(horizon, r0 + 8) + 1), max_window), None):
            raise mp.LawValidationError(
                "stabilization argument disagrees with " + ("terms" if uniform else "windows"))
        return ConvergenceVerdict(
            "witnessed", stabilization_index=r0,
            detail=f"every rule firing at n >= {r0} emits the limit term" if uniform else
            f"windows starting at r >= {r0} equal limit iterates for all k <= {max_window}, "
            "and rules beyond emit only the limit term",
        )
    reason = _infinite_non_limit_rule(spec, limit_map)
    if reason is not None:
        for r, k, d in _divergent_windows(spec, limit_map, range(1, horizon + 1), max_window):
            return ConvergenceVerdict(
                "refuted", refuting_pair=(r, k, d),
                detail=f"{reason}; " + (f"D(f_{r}, f) = {d}" if uniform else f"D(f_{r}^{k}, f^{k}) = {d}"),
            )
    return ConvergenceVerdict("inconclusive", detail="no structural argument either way")


def equicontinuity_modulus(
    spec: mp.SystemSpec, epsilon: Fraction, k: int, horizon: int
) -> tuple[Fraction | None, str]:
    """A xi > 0 with d(x, y) < xi forcing d(f_n^j x, f_n^j y) < epsilon/2 for
    every n <= horizon and j <= k.

    Shift powers are Lipschitz with constant 2^|exponent|, rotations and
    finite tables are nonexpanding.  Returns (None, flag) when the window
    exponents keep growing with n, since no single modulus can work, and
    raises ValueError when 2^|exponent| has too many digits for an integer."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0 or k < 1:
        raise ValueError("need epsilon > 0 and k >= 1")
    space = spec.space
    if isinstance(space, (sp.FiniteSpace, sp.CircleSpace)):
        return epsilon / 2, "nonexpanding maps; xi = epsilon/2"
    if not isinstance(space, sp.ShiftSpace):
        return None, "unsupported space"
    # the window f_n^(j+1) is sigma^(E(n+j) - E(n-1)) for the prefix exponents E;
    # one list of differences per window length j + 1, whose largest |d| on
    # each half is the larger of its max and -min there
    E = mp.prefix_exponents(spec, horizon + k - 1)
    half = horizon // 2
    before, worst, worst_first_half = E[:horizon], 0, 0
    for j in range(1, k + 1):
        d = list(map(sub, E[j : horizon + j], before))
        first, rest = d[:half], d[half:]
        worst_first_half = max(worst_first_half, max(first, default=0), -min(first, default=0))
        worst = max(worst, max(rest, default=0), -min(rest, default=0))
    worst = max(worst, worst_first_half)
    if worst > worst_first_half:
        return None, f"window exponents still growing at the horizon (max |E| = {worst})"
    try:
        xi = epsilon / (1 << (worst + 1))
    except OverflowError:
        raise ValueError(f"the modulus needs a 2^{worst + 1} denominator, "
                         "too many digits for an integer") from None
    return xi, f"Lipschitz constant 2^{worst} over all windows, safety factor 2"
