"""Hitting-time sets N(U, V), separation sets N(U, delta), and their
classification as syndetic / thick / cofinite.

Membership is exact on shift and finite spaces and on the circle with the
builtin angle.  Under a declared angle alpha(c +- w) an index whose
comparison that interval cannot decide is reported separately and excluded
from both members and gap statistics.

The separation test follows the sensitivity reading of the definition:
n is a member when two points of U can be driven more than delta apart by
the time-n prefix map, decided through the attained image diameter.  Gap
statistics use the boundary convention {0, H+1}: the member list is extended
by a virtual 0 on the left and H+1 on the right, and any gap touching the
horizon edge is reported as censored (a lower bound, never an exact gap).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import chain, islice
from operator import and_, or_

from . import maps as mp
from . import spaces as sp
from .record import record


@record
class HittingSet:
    """Times n <= horizon at which the test held; each member re-checks by
    testing f_1^n(u) against v or delta."""

    kind: str  # "hitting" | "separation"
    spec: mp.SystemSpec
    horizon: int
    members: tuple
    inconclusive: tuple = ()
    u: sp.BasicOpen | None = None
    v: sp.BasicOpen | None = None
    delta: Fraction | None = None


@record
class FrequencyEvidence:
    """Gap/run statistics of a hitting set over [1, H], with an optional
    structural upgrade backed by a validated law.

    max_gap follows the {0, H+1} boundary convention; eventual_max_gap is the
    largest gap between consecutive members opening in the second half of the
    horizon (the stabilized regime, clear of sporadic early witnesses)."""

    max_gap: int
    eventual_max_gap: int
    longest_run: int
    tail_start: int | None
    first_member: int | None
    censored_final_gap: bool
    structural: str | None = None  # the grade (see GRADES) of the law's claim
    structural_detail: str = ""


def _meets(space, A, B) -> bool | None:
    """Does A meet B?  None when the enclosure cannot decide."""
    try:
        return sp.intersects(space, A, B)
    except sp.EnclosureUndecided:
        return None


def _mask_members(mask: int) -> tuple:
    """The positions of the set bits of `mask`, lowest first."""
    return tuple(n for n, digit in enumerate(bin(mask)[:1:-1]) if digit == "1")


def prefix_groups(spec: mp.SystemSpec, horizon: int) -> dict:
    """The times 1..horizon grouped by the key of their prefix map f_1^n:
    {key: bitmask of those n}, in order of first occurrence.  Whether
    f_1^n(U) meets V or separates past delta depends on n only through
    f_1^n, so every mask kernel decides each class once instead of each
    time, and builds its map (key_map) only for a class it tests.

    The key is the prefix exponent or coefficient on the shift and the
    circle (maps.prefix_exponents), the prefix table on a finite space
    (maps.prefix_tables), and the tuple of the parts' keys on a product."""
    groups = {}
    for n, key in enumerate(islice(_prefix_keys(spec, horizon), 1, None), 1):
        groups[key] = groups.get(key, 0) | 1 << n
    return groups


def _prefix_keys(spec: mp.SystemSpec, horizon: int):
    """The prefix_groups key of f_1^n for n = 0 .. horizon, in order."""
    space = spec.space
    if isinstance(space, sp.ProductSpace):
        return zip(*(_prefix_keys(part, horizon) for part in spec.parts))
    if isinstance(space, sp.FiniteSpace):
        return mp.prefix_tables(spec, horizon)
    return mp.prefix_exponents(spec, horizon)


def key_map(space: sp.SpaceDesc, key) -> mp.NormalMap:
    """The prefix map on `space` that a prefix_groups key stands for."""
    if isinstance(space, sp.ShiftSpace):
        return mp.ShiftPowTerm(key)
    if isinstance(space, sp.CircleSpace):
        return mp.RotPowTerm(key)
    if isinstance(space, sp.FiniteSpace):
        return mp.FiniteFnTerm(key)
    return mp.ProductMap(tuple(map(key_map, space.parts, key)))


def prefix_classes(spec: mp.SystemSpec, horizon: int) -> dict:
    """prefix_groups keyed by the prefix maps themselves: {f_1^n: bitmask
    of those n}, in order of first occurrence."""
    space = spec.space
    return {key_map(space, key): times for key, times in prefix_groups(spec, horizon).items()}


def _describe_open(A) -> str:
    if isinstance(A, sp.Cylinder):
        return f"cyl@{A.start}:{''.join(map(str, A.word))}"
    if isinstance(A, sp.FiniteSet):
        return "{" + ",".join(str(i) for i in sorted(A.ids)) + "}"
    if isinstance(A, sp.Arc):
        return f"arc({A.center.q}+{A.center.c}a,r={A.radius})"
    if isinstance(A, sp.ProductOpen):
        return "x".join(_describe_open(p) for p in A.parts)
    return repr(A)


def pair_masks(spec: mp.SystemSpec, opens, targets, horizon: int) -> tuple:
    """(hits, undecided): hits[i * len(targets) + j] is the mask of
    N(opens[i], targets[j]) within [1, horizon] (bit n for time n), a list
    in row-major pair order; undecided maps the same index to the nonzero
    mask of the times a declared angle cannot decide.  One walk of the
    prefix classes decides every pair, a class in one join (_class_join),
    which ORs the class's times into the cells it meets: a pair each, or an
    offset each on the circle grid, spread to the pairs once at the end.
    Cylinders on disjoint windows always meet, so the shift classes that
    move the opens' window clear of the targets' hit every pair."""
    space = spec.space
    if isinstance(space, sp.ProductSpace):
        return _product_masks(spec, opens, targets, horizon)
    groups, clear = prefix_groups(spec, horizon), 0
    if isinstance(space, sp.ShiftSpace) and opens and targets:
        lo, hi = min(U.start for U in opens), max(U.end for U in opens)
        start, end = min(V.start for V in targets), max(V.end for V in targets)
        for e in [e for e in groups if lo - e >= end or hi - e <= start]:
            clear |= groups.pop(e)
    join, spread = _class_join(space, opens, targets)
    cells = len(opens) * len(targets) if spread is None else len(opens)  # the grid's cells: r offsets
    hits, undecided = [clear] * cells, {}
    for key, times in groups.items():
        met, unknown = join(key_map(space, key))
        for cell in met:
            hits[cell] |= times
        for cell in unknown:
            undecided[cell] = undecided.get(cell, 0) | times
    if spread is None:
        return hits, undecided
    return [hits[d] for d in spread], {k: undecided[d] for k, d in enumerate(spread) if d in undecided}


def _class_join(space: sp.SpaceDesc, opens, targets) -> tuple:
    """(join, spread): join(m) is (met, unknown), the cells where m(opens[i])
    meets targets[j] and where a declared angle cannot decide, and spread
    maps each pair index to its cell, or is None when the cells are the pair
    indices.  Finite image points are looked up among the targets holding
    them.  Cylinders on one window each meet where their words agree on the
    overlap of the image window with the targets' (not empty once
    pair_masks has popped the clear classes).  On the basis arcs rot^c(B_i)
    meets B_j by the offset (i - j) mod r alone, so the cells are the r
    offsets: closed-form on the builtin angle, one meet per offset on a
    declared one.  Other opens are tested pair by pair."""
    if isinstance(space, sp.FiniteSpace):
        holders = {}
        for j, V in enumerate(targets):
            for p in V.ids:
                holders.setdefault(p, []).append(j)
        points = [(i * len(targets), p - 1) for i, U in enumerate(opens) for p in U.ids]  # (row, table index)
        # a pair met at several image points is listed once for each
        return lambda m: ([row + j for row, p in points for j in holders.get(m.table[p], ())], ()), None
    if isinstance(space, sp.ShiftSpace) and all(
        len({(A.start, A.end) for A in side}) == 1 for side in (opens, targets)
    ):
        return partial(_overlap_join, opens, targets), None
    r = len(opens)
    if isinstance(space, sp.CircleSpace) and r > 1 and [*opens] == [*targets] == sp.enumerate_basis(space, r):
        return partial(_offset_join, space, opens), [(i - j) % r for i in range(r) for j in range(r)]
    return partial(_tested_join, space, opens, targets), None


def _overlap_join(opens, targets, m: mp.ShiftPowTerm) -> tuple:
    start, end = opens[0].start - m.exponent, opens[0].end - m.exponent  # the image window
    lo, hi = max(start, targets[0].start), min(end, targets[0].end)
    own, other = slice(lo - start, hi - start), slice(lo - targets[0].start, hi - targets[0].start)
    groups = {}
    for j, V in enumerate(targets):
        groups.setdefault(V.word[other], []).append(j)
    width = len(targets)
    return [i * width + j for i, U in enumerate(opens) for j in groups.get(U.word[own], ())], ()


def _offset_join(space: sp.CircleSpace, basis, m: mp.RotPowTerm) -> tuple:
    """The offsets d where rot^c(B_d) meets B_0, and where it is undecided."""
    if space.alpha.kind == "sqrt2m1":
        return _circle_offsets(m.coefficient, len(basis)), ()
    return _tested_join(space, basis, basis[:1], m)


def _circle_offsets(c: int, r: int) -> list:
    """The offsets d in [0, r), ascending, with rot^c(B_d) meeting B_0 on
    the builtin angle.  The arcs have radius 1/(2r), so they meet exactly
    when y = d + r*c*alpha lies within 1 of a multiple of r.  For c != 0, y
    is irrational, so that holds exactly when floor(y) = d + k is 0 or -1
    mod r, with k = floor(r*c*alpha) mod r, which is floor(r*c*sqrt2) - r*c
    in integers (spaces.floor_sqrt2); for c = 0 only d = 0 meets, the arcs
    at d = +-1 touching at one endpoint."""
    if c == 0:
        return [0]
    k = (sp.floor_sqrt2(r * c) - r * c) % r
    return sorted({-k % r, (-k - 1) % r})


def _tested_join(space: sp.SpaceDesc, opens, targets, m: mp.NormalMap) -> tuple:
    images = [mp.image(m, U) for U in opens]
    meets = [_meets(space, A, V) for A in images for V in targets]
    return [k for k, met in enumerate(meets) if met], [k for k, met in enumerate(meets) if met is None]


def _product_masks(spec: mp.ProductSpec, opens, targets, horizon: int) -> tuple:
    """pair_masks on a product.  A rectangle meets where all its sides do,
    so each part answers for its distinct sides and the row of open i is
    map(and_, ...) over its sides' rows, spread over the targets.  Where a
    part has undecided times they are folded in part order, as
    spaces.intersects reads the sides: a time stays alive while every side
    so far meets, and an undecided side leaves its alive times undecided."""
    parts = []
    for k, part in enumerate(spec.parts):
        sides, ends = {}, {}  # each distinct side: its index among them
        side_of = [sides.setdefault(U.parts[k], len(sides)) for U in opens]
        end_of = [ends.setdefault(V.parts[k], len(ends)) for V in targets]
        hits, undecided = pair_masks(part, [*sides], [*ends], horizon)
        spread = [[hits[a * len(ends) + b] for b in end_of] for a in range(len(sides))]
        parts.append((side_of, end_of, len(ends), spread, undecided))
    rows = (reduce(partial(map, and_), (spread[side_of[i]] for side_of, _, _, spread, _ in parts))
            for i in range(len(opens)))
    hits, undecided = [*chain.from_iterable(rows)], {}
    if any(part_undecided for *_, part_undecided in parts):
        for k in range(len(hits)):
            i, j = divmod(k, len(targets))
            alive, unknown = (1 << horizon + 1) - 2, 0
            for side_of, end_of, width, spread, part_undecided in parts:
                unknown |= alive & part_undecided.get(side_of[i] * width + end_of[j], 0)
                alive &= spread[side_of[i]][j]
            if unknown:
                undecided[k] = unknown
    return hits, undecided


def hitting_set(spec: mp.SystemSpec, U, V, horizon: int) -> HittingSet:
    """N(U, V) restricted to [1, horizon]: times n with f_1^n(U) meeting V."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    hits, undecided = pair_masks(spec, (U,), (V,), horizon)
    members, inconclusive = _mask_members(hits[0]), _mask_members(undecided.get(0, 0))
    return HittingSet("hitting", spec, horizon, members, inconclusive, u=U, v=V)


def separation_mask(spec: mp.SystemSpec, U, delta: Fraction, horizon: int) -> int:
    """The bitmask of N(U, delta) within [1, horizon] (bit n for time n) for
    any open U.  Diameters are exact, so no time is left undecided.

    A rectangle separates exactly when one of its sides does: a product
    mask is the OR of its parts' masks.  A rotated arc keeps its radius and
    a singleton's image is a singleton: every time or none.  No cylinder is
    3 wide.  For a cylinder centred on the origin diam sigma^e(U) depends
    on |e| only and strictly grows with it, so the wide classes are those
    with |e| >= t, the first wide |e|; the walk to t ends by r + 2 +
    bitlen(den(3 - delta)), where diameter_exceeds answers from its
    far-window bound.  Any other open decides each prefix class once."""
    space = spec.space
    if isinstance(space, sp.ProductSpace):
        parts = zip(spec.parts, U.parts)
        return reduce(or_, (separation_mask(p, side, delta, horizon) for p, side in parts))
    if isinstance(U, sp.Arc) or isinstance(U, sp.FiniteSet) and len(U.ids) == 1:
        return (1 << horizon + 1) - 2 if sp.diameter_exceeds(space, U, delta) else 0
    if delta >= sp.TOTAL_WEIGHT:
        return 0
    groups = prefix_groups(spec, horizon)
    if isinstance(U, sp.Cylinder) and U.start == 1 - U.end:
        top = max(map(abs, groups))
        t = 0
        while t <= top and not sp.diameter_exceeds(space, sp.Cylinder(U.start - t, U.word), delta):
            t += 1
        return reduce(or_, (times for e, times in groups.items() if abs(e) >= t), 0)
    return reduce(or_, (times for key, times in groups.items()
                        if sp.diameter_exceeds(space, mp.image(key_map(space, key), U), delta)), 0)


def separation_set(spec: mp.SystemSpec, U, delta: Fraction, horizon: int) -> HittingSet:
    """N(U, delta) restricted to [1, horizon]: times at which some pair in U
    is separated beyond delta, read off separation_mask."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    mask = separation_mask(spec, U, delta, horizon)
    return HittingSet("separation", spec, horizon, _mask_members(mask), u=U, delta=delta)


def _frequency(mask: int, H: int) -> tuple:
    """(max_gap, eventual_max_gap, longest_run, tail_start) of the members
    of `mask` (bit n for member n, all within [1, H]) under the {0, H+1}
    convention, read off its bit string instead of walking the members."""
    bits = format(mask >> 1, f"0{H}b")[::-1]  # bits[k] == "1" when k + 1 is a member
    max_gap = max(map(len, bits.split("1"))) + 1
    # gaps between members opening at or after (H+1)//2, the late regime
    late = bits[(H + 1) // 2 - 1:].strip("0")
    eventual = max(map(len, late.split("1"))) + 1 if late.count("1") > 1 else 0
    longest_run = max(map(len, bits.split("0")))
    return max_gap, eventual, longest_run, _tail_start(mask, H)


def _tail_start(mask: int, H: int) -> int | None:
    """The least t with every n in [t, H] a member of `mask` (bit n for
    member n), None when H is not one: one past the highest time in [1, H]
    that is not a member, that is, the highest set bit of ~mask there."""
    t = (~mask & ((2 << H) - 2)).bit_length() or 1
    return t if t <= H else None


def classify_frequency(hs: HittingSet, laws: mp.SystemLaws | None = None) -> FrequencyEvidence:
    """Gap and run statistics under the {0, H+1} boundary convention, with the
    grade and detail of the strongest claim a validated law makes about the
    set beyond the horizon (pair_reason, separation_reason)."""
    members = hs.members
    max_gap, eventual, longest, tail_start = _frequency(sum(1 << n for n in members), hs.horizon)
    reason = None
    if laws is not None and hs.kind == "hitting":
        reason = pair_reason(hs.spec, laws, hs.u, hs.v, _meets(hs.spec.space, hs.u, hs.v) is False)
    elif laws is not None:
        reason = separation_reason(hs.spec, laws, hs.u, hs.delta)
    # the gap ending at the H+1 boundary is only a lower bound: censored
    # exactly when there is no tail
    return FrequencyEvidence(
        max_gap, eventual, longest, tail_start, members[0] if members else None,
        tail_start is None, *(reason or (None, "")),
    )


# what a law can claim of N(U, V) or N(U, delta) for every n, strongest first:
# empty, within listed prefix indices, within the indices of power and
# one-shot rules (so with unbounded gaps), or clear of a residue class
GRADES = ("never", "finite-support", "sparse-support", "excluded-residue")


def pair_reason(spec, laws: mp.SystemLaws, U, V, disjoint: bool, grades=GRADES) -> tuple | None:
    """(grade, detail) of the strongest claim among `grades` that a
    validated law makes about N(U, V) for every n, or None; an exponent law
    claims nothing unless U and V are `disjoint`.  It is never hit when
    every prefix is the identity, sparse when only power and one-shot rules
    move, and excludes the first residue (mod 2, then 3) it forces to 0.  A
    table law is never hit when no reachable table moves U onto V, and
    finite, at the indices U's points visit V before their loops, when the
    loops miss V.  A product pair is never hit under the parity cover, and
    takes the strongest of its factor pairs' claims (the first factor on a
    tie): N(U1 x U2, V1 x V2) is in N(Uk, Vk)."""
    law, tab = laws.exponent, laws.table
    if law is not None and disjoint:
        if "never" in grades and law.is_identity():
            return "never", "every prefix is the identity and the sets are disjoint: " + law.describe()
        if "sparse-support" in grades and law.sparse_support():
            return "sparse-support", (
                "nonzero exponents only on power/one-shot indices; with disjoint sets "
                "the members inherit unbounded gaps: " + law.describe()
            )
        zero = law.first_zero_residue() if "excluded-residue" in grades else None
        if zero is not None:
            return "excluded-residue", (
                f"prefix exponent 0 on n≡{zero[1]} (mod {zero[0]}) with disjoint sets: "
                "infinitely many misses; " + law.describe()
            )
    if tab is not None:
        if "never" in grades and not tab.reach(U.ids) & V.ids:
            return "never", "no reachable prefix table moves U onto V: " + tab.describe()
        if "finite-support" in grades and not tab.recurrent(U.ids) & V.ids:
            pre_hits = sorted({n for i in U.ids for n in tab.visits(i, V.ids)[0]})
            return "finite-support", f"only prefix indices {pre_hits} can ever hit; " + tab.describe()
    if not laws.components:
        return None
    claim = product_structural_miss(spec, laws, U, V) if "never" in grades else None
    if claim is not None:
        return "never", "parity coverage: " + claim
    reasons = (
        pair_reason(part, part_laws, A, B, _meets(part.space, A, B) is False, grades)
        for part, part_laws, A, B in zip(spec.parts, laws.components, U.parts, V.parts)
    )
    found = min(((GRADES.index(r[0]), k, r) for k, r in enumerate(reasons) if r), default=None)
    if found is None:
        return None
    _, k, (grade, detail) = found
    return grade, f"the hitting set lies in factor {k + 1}'s: {detail}"


def separation_reason(spec, laws: mp.SystemLaws, U, delta: Fraction) -> tuple | None:
    """(grade, detail) of the strongest claim about N(U, delta) for every
    n, or None: a singleton's images are singletons;
    with diam(U) <= delta rotations (isometries) and identity prefixes
    never separate, and a shift law that is 0 on a residue excludes it."""
    space, law = spec.space, laws.exponent
    if isinstance(space, sp.FiniteSpace) and len(U.ids) == 1:
        return "never", "singleton opens have singleton images: separation is impossible"
    if sp.value_cmp(sp.diameter(space, U), delta) > 0:
        return None
    if isinstance(space, sp.CircleSpace):
        return "never", "rotations preserve the arc diameter, which does not exceed delta"
    if law is not None and law.is_identity():
        return "never", "every prefix is the identity and diam(U) <= delta: " + law.describe()
    zero = law.first_zero_residue() if law is not None and isinstance(space, sp.ShiftSpace) else None
    if zero is None:
        return None
    return "excluded-residue", (
        f"exponent 0 on n≡{zero[1]} (mod {zero[0]}) and diam(U) <= delta, "
        "so that class never separates: " + law.describe()
    )


def product_structural_miss(spec: mp.ProductSpec, laws: mp.SystemLaws, U, V) -> str | None:
    """For a product system with disjoint rectangle components, certify that
    every index misses by covering the parities: each residue class mod 2 is
    killed by some component whose law is zero there."""
    if not isinstance(spec, mp.ProductSpec) or not isinstance(U, sp.ProductOpen):
        return None
    # the components with a law whose sides are disjoint, in order
    disjoint = [(j, part_laws.exponent) for j, part_laws in enumerate(laws.components)
                if part_laws.exponent is not None
                and _meets(spec.parts[j].space, U.parts[j], V.parts[j]) is False]
    claims = [next((
        f"n≡{residue} (mod 2): component {j + 1} has exponent 0 there "
        f"and disjoint factors ({law.describe()})"
        for j, law in disjoint if law.zero_on_residue(2, residue)
    ), None) for residue in (1, 0)]
    return None if None in claims else "; ".join(claims)


def brute_force_hitting(spec: mp.SystemSpec, U, V, horizon: int) -> tuple:
    """Independent oracle: fold step maps one at a time instead of using the
    closed-form prefix composition."""
    space = spec.space
    members = []
    current = U
    for n in range(1, horizon + 1):
        current = mp.image(mp.step_normal(spec, n), current)
        try:
            if sp.intersects(space, current, V):
                members.append(n)
        except sp.EnclosureUndecided:
            pass
    return tuple(members)
