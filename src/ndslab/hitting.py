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
from typing import Optional

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
    u: Optional[sp.BasicOpen] = None
    v: Optional[sp.BasicOpen] = None
    delta: Optional[Fraction] = None


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
    tail_start: Optional[int]
    first_member: Optional[int]
    censored_final_gap: bool
    structural: Optional[str] = None  # machine-readable reason tag
    structural_detail: str = ""


def _meets(space, A, B) -> Optional[bool]:
    """Does A meet B?  None when the enclosure cannot decide."""
    try:
        return sp.intersects(space, A, B)
    except sp.EnclosureUndecided:
        return None


def _wider_than(space, A, delta: Fraction) -> Optional[bool]:
    """Is diam A > delta?  None when the enclosure cannot decide."""
    try:
        return sp.diameter_exceeds(space, A, delta)
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
    power = mp.ShiftPowMap if isinstance(space, sp.ShiftSpace) else mp.RotPowMap
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


def separation_set(spec: mp.SystemSpec, U, delta: Fraction, horizon: int) -> HittingSet:
    """N(U, delta) restricted to [1, horizon]: times at which some pair in U
    is separated beyond delta.

    The image diameter is attained on cylinders and finite sets, so the
    strict comparison against delta decides membership exactly.  Arc images
    keep their radius under rotation, so circle membership is constant in n.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    space = spec.space
    [(wide, undecided)] = _class_masks(
        prefix_classes(spec, horizon), (U,), lambda m, U: _wider_than(space, mp.image(m, U), delta),
    )
    return HittingSet(
        "separation", spec, horizon, _mask_members(wide), _mask_members(undecided),
        u=U, delta=delta,
    )


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


def classify_frequency(hs: HittingSet, laws: Optional[mp.SystemLaws] = None) -> FrequencyEvidence:
    """Gap and run statistics under the {0, H+1} boundary convention, with a
    structural tag when a validated law pins behaviour beyond the horizon."""
    members = hs.members
    max_gap, eventual, longest, tail_start = _frequency(sum(1 << n for n in members), hs.horizon)
    structural, detail = _structural_tag(hs.kind, hs.spec, laws, hs.u, hs.v, hs.delta)
    return FrequencyEvidence(
        max_gap=max_gap,
        eventual_max_gap=eventual,
        longest_run=longest,
        tail_start=tail_start,
        first_member=members[0] if members else None,
        # the gap ending at the H+1 boundary is only a lower bound
        censored_final_gap=tail_start is None,
        structural=structural,
        structural_detail=detail,
    )


def _structural_tag(
    kind: str, spec, laws, u, v=None, delta=None, disjoint: Optional[bool] = None
) -> tuple[Optional[str], str]:
    """(tag, detail) when a validated law pins the hitting set N(u, v) or the
    separation set N(u, delta) beyond the horizon; (None, "") otherwise.
    `disjoint` says whether u and v are disjoint when the caller knows it
    (basis opens are disjoint exactly when they differ); None tests it."""
    if laws is None:
        return None, ""
    space = spec.space
    if kind == "hitting":
        law = laws.exponent
        if law is not None and disjoint is None:
            disjoint = _meets(space, u, v) is False
        if law is not None and disjoint:
            if law.sparse_support():
                return (
                    "sparse-support",
                    "nonzero exponents only on power/one-shot indices; with "
                    "disjoint sets the members inherit unbounded gaps: " + law.describe(),
                )
            zero = law.first_zero_residue()
            if zero is not None:
                modulus, residue = zero
                return (
                    "excluded-residue",
                    f"exponent 0 on n≡{residue} (mod {modulus}) and the sets are "
                    "disjoint, so that class never hits: " + law.describe(),
                )
        tab = laws.table
        if tab is not None and not any(y in v.ids for i in u.ids for y in tab.orbit(i)[1]):
            pre_hits = [n + 1 for n, t in enumerate(tab.lead) if mp.image(t, u).ids & v.ids]
            return (
                "finite-support",
                f"only prefix indices {pre_hits} can ever hit; " + tab.describe(),
            )
    if kind == "separation":
        law = laws.exponent
        if law is not None and isinstance(space, sp.ShiftSpace):
            diam_u = sp.diameter(space, u)
            zero = law.first_zero_residue() if sp.value_cmp(diam_u, delta) <= 0 else None
            if zero is not None:
                modulus, residue = zero
                return (
                    "excluded-residue",
                    f"exponent 0 on n≡{residue} (mod {modulus}) and diam(U) <= delta, "
                    "so that class never separates: " + law.describe(),
                )
    return None, ""


def product_structural_miss(spec: mp.ProductSpec, laws: mp.SystemLaws, U, V) -> Optional[str]:
    """For a product system with disjoint rectangle components, certify that
    every index misses by covering the parities: each residue class mod 2 is
    killed by some component whose law is zero there."""
    if not isinstance(spec, mp.ProductSpec) or not isinstance(U, sp.ProductOpen):
        return None
    claims = []
    for residue in (1, 0):
        found = None
        for j, (part, part_laws) in enumerate(zip(spec.parts, laws.components)):
            law = part_laws.exponent
            if law is None:
                continue
            disjoint = _meets(part.space, U.parts[j], V.parts[j]) is False
            if disjoint and law.zero_on_residue(2, residue):
                found = (
                    f"n≡{residue} (mod 2): component {j + 1} has exponent 0 there "
                    f"and disjoint factors ({law.describe()})"
                )
                break
        if found is None:
            return None
        claims.append(found)
    return "; ".join(claims)


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
