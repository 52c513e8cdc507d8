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
from functools import reduce
from operator import or_

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


def prefix_classes(spec: mp.SystemSpec, horizon: int) -> dict:
    """The times 1..horizon grouped by their prefix map: {f_1^n: bitmask of
    those n}, in order of first occurrence.  Whether f_1^n(U) meets V or
    separates past delta depends on n only through f_1^n, so every mask
    kernel decides each class once instead of each time.

    Shift and circle prefix maps are powers, so their classes group the one
    prefix-exponent array; products and finite spaces compose each map."""
    space = spec.space
    if not isinstance(space, (sp.ShiftSpace, sp.CircleSpace)):
        return _composed_classes(spec, horizon)
    by_exponent = {}
    exponents = mp.prefix_exponents(spec, horizon)
    for n in range(1, horizon + 1):
        e = exponents[n]
        by_exponent[e] = by_exponent.get(e, 0) | 1 << n
    power = mp.ShiftPowTerm if isinstance(space, sp.ShiftSpace) else mp.RotPowTerm
    return {power(e): times for e, times in by_exponent.items()}


def _composed_classes(spec: mp.SystemSpec, horizon: int) -> dict:
    """prefix_classes by folding one step per time, f_1^n = f_n o f_1^(n-1),
    so each time costs a step and one compose (recomposing f_1^n from the
    start would cost n on a tail of a finite system)."""
    classes = {}
    m = mp.prefix_compose(spec, 0)
    for n in range(1, horizon + 1):
        m = mp.compose(mp.window_compose(spec, n, 1), m)
        classes[m] = classes.get(m, 0) | 1 << n
    return classes


def _class_masks(classes: dict, opens, test) -> list:
    """[hits, undecided] masks for each open U of `opens`: `test(m, U)`
    (True, False, or None when undecided) is decided once per prefix class
    m of `classes` and spread over the class's times, in one walk."""
    masks = [[0, 0] for _ in opens]
    for m, times in classes.items():
        for mask, U in zip(masks, opens):
            verdict = test(m, U)
            if verdict is None:
                mask[1] |= times
            elif verdict:
                mask[0] |= times
    return masks


def _components(spec: mp.SystemSpec) -> tuple:
    """The component systems of a product system or of a tail or iterate of
    one.  A product steps every part at once, so its tail (or iterate) is
    the product of the parts' tails (or iterates)."""
    if isinstance(spec, mp.ProductSpec):
        return spec.parts
    return tuple(type(spec)(part, spec.k) for part in _components(spec.base))


def _describe_open(A) -> str:
    if isinstance(A, sp.Cylinder):
        word = "".join("." if s is None else str(s) for s in A.word)
        return f"cyl@{A.start}:{word}"
    if isinstance(A, sp.FiniteSet):
        return "{" + ",".join(str(i) for i in sorted(A.ids)) + "}"
    if isinstance(A, sp.Arc):
        return f"arc({A.center.q}+{A.center.c}a,r={A.radius})"
    if isinstance(A, sp.ProductOpen):
        return "x".join(_describe_open(p) for p in A.parts)
    return repr(A)


def hitting_masks(spec: mp.SystemSpec, opens, V, horizon: int) -> list:
    """[hits, undecided] masks of N(U, V) within [1, horizon] (bit n for
    time n) for every U of `opens`, from one walk of the prefix classes.

    Two cylinders on disjoint windows always meet, so a shift class that
    moves every open's window clear of V's hits every open without a test.
    A rectangle pair on a product is folded from its parts' masks in
    part order, as `spaces.intersects` reads the sides: a time stays alive
    while every side so far meets, and turns undecided at the first side
    that cannot decide while it is alive."""
    space = spec.space
    if isinstance(space, sp.ProductSpace) and all(
        isinstance(A, sp.ProductOpen) for A in (V, *opens)
    ):
        parts = [
            hitting_masks(part, [U.parts[k] for U in opens], V.parts[k], horizon)
            for k, part in enumerate(_components(spec))
        ]
        masks = []
        for sides in zip(*parts):
            alive, undecided = (1 << horizon + 1) - 2, 0
            for members_k, undecided_k in sides:
                undecided |= alive & undecided_k
                alive &= members_k
            masks.append([alive, undecided])
        return masks

    classes = prefix_classes(spec, horizon)
    clear = 0
    if isinstance(space, sp.ShiftSpace) and opens and all(
        isinstance(A, sp.Cylinder) for A in (V, *opens)
    ):
        lo, hi = min(U.start for U in opens), max(U.end for U in opens)
        for m in [m for m in classes if lo - m.exponent >= V.end or hi - m.exponent <= V.start]:
            clear |= classes.pop(m)
    masks = _class_masks(classes, opens, lambda m, U: _meets(space, mp.image(m, U), V))
    for mask in masks:
        mask[0] |= clear
    return masks


def hitting_set(spec: mp.SystemSpec, U, V, horizon: int) -> HittingSet:
    """N(U, V) restricted to [1, horizon]: times n with f_1^n(U) meeting V."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    [(hits, undecided)] = hitting_masks(spec, (U,), V, horizon)
    return HittingSet(
        "hitting", spec, horizon, _mask_members(hits), _mask_members(undecided), u=U, v=V,
    )


def separation_mask(spec: mp.SystemSpec, U, delta: Fraction, horizon: int) -> int:
    """The bitmask of N(U, delta) within [1, horizon] (bit n for time n) for
    any open U.  Diameters are exact, so no time is left undecided.

    A rectangle separates exactly when one of its sides does: a product
    mask is the OR of its parts' masks.  A rotated arc keeps its radius and
    a singleton's image is a singleton: every time or none.  No cylinder is
    3 wide.  For a full word centred on the origin diam sigma^e(U) depends
    on |e| only and strictly grows with it, so the wide classes are those
    with |e| >= t, the first wide |e|; the walk to t ends by r + 2 +
    bitlen(den(3 - delta)), where diameter_exceeds answers from its
    far-window bound.  Any other open decides each prefix class once."""
    space = spec.space
    if isinstance(space, sp.ProductSpace):
        parts = zip(_components(spec), U.parts)
        return reduce(or_, (separation_mask(p, side, delta, horizon) for p, side in parts))
    if isinstance(U, sp.Arc) or isinstance(U, sp.FiniteSet) and len(U.ids) == 1:
        return (1 << horizon + 1) - 2 if sp.diameter_exceeds(space, U, delta) else 0
    if delta >= sp.TOTAL_WEIGHT:
        return 0
    classes = prefix_classes(spec, horizon)
    if isinstance(U, sp.Cylinder) and U.start == 1 - U.end and None not in U.word:
        top = max(abs(m.exponent) for m in classes)
        t = 0
        while t <= top and not sp.diameter_exceeds(space, sp.Cylinder(U.start - t, U.word), delta):
            t += 1
        return reduce(or_, (times for m, times in classes.items() if abs(m.exponent) >= t), 0)
    return reduce(or_, (times for m, times in classes.items()
                        if sp.diameter_exceeds(space, mp.image(m, U), delta)), 0)


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
    head = len(bits.rstrip("1"))  # [head + 1, H] is the longest all-member tail
    return max_gap, eventual, longest_run, head + 1 if head < H else None


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
    finite when the loops of U's points miss V.  A product pair is never hit
    under the parity cover, and takes the strongest of its factor pairs'
    claims (the first factor on a tie): N(U1 x U2, V1 x V2) is in N(Uk, Vk)."""
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
        if "finite-support" in grades and not any(y in V.ids for i in U.ids for y in tab.orbit(i)[1]):
            pre_hits = [n + 1 for n, t in enumerate(tab.lead) if mp.image(t, U).ids & V.ids]
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
