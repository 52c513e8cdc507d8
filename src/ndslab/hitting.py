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

from array import array
from collections import _count_elements, defaultdict
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, count, islice, repeat
from operator import add, itemgetter, or_

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
    """(values, codes, undecided): the masks of N(opens[i], targets[j])
    within [1, horizon] (bit n for time n), each distinct one once.  Pair
    i * len(targets) + j has code codes[i * len(targets) + j] (an
    array("I")), values[code] is its mask and undecided[code] the nonzero
    mask of the times a declared angle cannot decide.  Two pairs share a
    code exactly when they share both masks, and every code is some pair's.
    Each layout is read off its structure, with no step a pair: a product
    folds its parts' codes (_product_masks), a finite space reads each
    open's row off the transposed prefix tables (_finite_masks), and the
    circle grid decides a class per offset, whose r masks the pairs share
    (_grid_masks).  Otherwise one walk of the prefix classes decides every
    pair, a class in one join naming the pairs it meets, each join reading
    the class key: a pair's code is the set of classes meeting it
    (_refine), and the classes are disjoint, so distinct sets give distinct
    masks.  Cylinders on disjoint windows always meet, so the shift classes
    moving the opens' window clear of the targets' hit every pair."""
    space = spec.space
    if not opens or not targets:
        return [], array("I"), {}
    if isinstance(space, sp.ProductSpace):
        return _product_masks(spec, opens, targets, horizon)
    groups, clear = prefix_groups(spec, horizon), 0
    if isinstance(space, sp.FiniteSpace):
        return _finite_masks(groups, opens, targets)
    if isinstance(space, sp.CircleSpace) and len(opens) > 1 and [*opens] == [*targets] == sp.enumerate_basis(
            space, len(opens)):
        return _grid_masks(space, groups, opens)
    join = partial(_tested_join, space, opens, targets)
    if isinstance(space, sp.ShiftSpace):
        lo, hi = min(U.start for U in opens), max(U.end for U in opens)
        start, end = min(V.start for V in targets), max(V.end for V in targets)
        for e in [e for e in groups if lo - e >= end or hi - e <= start]:
            clear |= groups.pop(e)
        if all(len({(A.start, A.end) for A in side}) == 1 for side in (opens, targets)):
            join = partial(_overlap_join, opens, targets)
    cells = len(opens) * len(targets)
    codes, masks, sizes = array("I", [0]) * cells, ([clear], [0]), [cells]
    for key, times in groups.items():
        for kind, found in enumerate(join(key)):
            if found:
                _refine(codes, masks, sizes, found, kind, times)
    return masks[0], codes, {code: times for code, times in enumerate(masks[1]) if times}


def _distinct(masks) -> tuple:
    """(values, code_of, undecided) of a sequence of (hits, undecided) mask
    pairs: each distinct pair is a code, numbered in order of first
    occurrence, and code_of lists the code of each."""
    decided = {}
    code_of = [decided.setdefault(pair, len(decided)) for pair in masks]
    return [hits for hits, _ in decided], code_of, {code: u for code, (_, u) in enumerate(decided) if u}


def _refine(codes, masks, sizes, found, kind: int, times: int) -> None:
    """OR `times` into masks[kind] of the cells `found`, each listed once: a
    code whose sizes[code] cells are all found keeps its number, and the
    found cells of any other take a new code, a copy of its masks."""
    moved, hits, unknown, ored = {}, *masks, masks[kind]
    # the found cells of each code, by Counter's C loop without its constructor
    _count_elements(moved, map(codes.__getitem__, found))
    split = False
    for code, count in moved.items():
        if count < sizes[code]:
            sizes[code] -= count
            moved[code] = split = len(sizes)
            sizes.append(count)
            hits.append(hits[code])
            unknown.append(unknown[code])
            ored[split] |= times
        else:
            moved[code] = code
            ored[code] |= times
    if split:
        for cell in found:
            codes[cell] = moved[codes[cell]]


def _overlap_join(opens, targets, e: int) -> tuple:
    """The cells where sigma^e(opens[i]) meets targets[j], the opens on one
    window and the targets on another: they meet where their words agree on
    the overlap of the image window with the targets' (not empty once
    pair_masks has popped the clear classes), so each open is joined with
    the targets of its own slice there."""
    start, end = opens[0].start - e, opens[0].end - e  # the image window
    lo, hi = max(start, targets[0].start), min(end, targets[0].end)
    own, other = slice(lo - start, hi - start), slice(lo - targets[0].start, hi - targets[0].start)
    groups = {}
    for j, V in enumerate(targets):
        groups.setdefault(V.word[other], []).append(j)
    width = len(targets)
    columns = [groups.get(U.word[own], ()) for U in opens]
    # row i's cells: i * width plus each column of the targets agreeing with opens[i]
    rows = map(map, repeat(add), map(repeat, range(0, len(opens) * width, width)), columns)
    return array("I", chain.from_iterable(rows)), ()


def _tested_join(space: sp.SpaceDesc, opens, targets, key) -> tuple:
    """The cells where the map of class `key` takes opens[i] to meet
    targets[j], and where a declared angle cannot decide, one meet each."""
    m = key_map(space, key)
    images = [mp.image(m, U) for U in opens]
    meets = [_meets(space, A, V) for A in images for V in targets]
    return [k for k, met in enumerate(meets) if met], [k for k, met in enumerate(meets) if met is None]


def _grid_masks(space: sp.CircleSpace, groups: dict, basis) -> tuple:
    """pair_masks of the r basis arcs against themselves: rot^c(B_i) meets
    B_j by the offset (i - j) mod r alone, so a class ORs its times into the
    masks of the r offsets, met and undecided: in closed form on the builtin
    angle (_circle_offsets of the key) and one meet an offset on a declared
    one.  The distinct offset masks are the codes (_distinct, over the
    offsets), and pair (i, j) takes the code of offset (i - j) mod r: row i
    is a turned slice of the reversed offset codes."""
    r = len(basis)
    offsets = [0] * r, [0] * r
    if space.alpha.kind == "sqrt2m1":
        hits = offsets[0]
        for c, times in groups.items():
            for d in _circle_offsets(c, r):
                hits[d] |= times
    else:
        for c, times in groups.items():
            for found, masks in zip(_tested_join(space, basis, basis[:1], c), offsets):
                for d in found:
                    masks[d] |= times
    values, code_of, undecided = _distinct(zip(*offsets))
    turned, codes = array("I", code_of[::-1] * 2), array("I")
    for i in range(r):
        codes += turned[r - 1 - i:2 * r - 1 - i]
    return values, codes, undecided


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


def _finite_masks(groups: dict, opens, targets) -> tuple:
    """pair_masks on a finite space off its prefix groups {table: times}:
    f_1^n(U) meets V exactly when the prefix table sends a point of U into
    V.  A point's column of the transposed tables is its image under every
    class, read off the keys one point at a time; its classes are grouped
    by image, each group's times ORed into a slot a point, and its row of
    masks is read off the slots of each target's points (an open of several
    points ORs its points' rows).  Distinct masks are numbered in pair
    order as the rows are written, so no class refines any code."""
    keys, times = [*groups], [*groups.values()]
    points = [q for V in targets for q in V.ids] if all(len(V.ids) == 1 for V in targets) else None

    def row(p: int) -> list:
        images = [0] * (len(keys[0]) + 1)  # slot q: the times p goes to q
        for q, t in zip(map(itemgetter(p - 1), keys), times):
            images[q] |= t
        if points:
            return [*map(images.__getitem__, points)]
        return [reduce(or_, map(images.__getitem__, V.ids)) for V in targets]

    number, codes = defaultdict(count().__next__), array("I")
    for U in opens:
        codes.extend(map(number.__getitem__, reduce(partial(map, or_), map(row, U.ids))))
    return [*number], codes, {}


def _product_masks(spec: mp.ProductSpec, opens, targets, horizon: int) -> tuple:
    """pair_masks on a product: a rectangle meets where all its sides do.
    The distinct sides of the opens by the distinct ends of the targets, in
    itertools.product order (the basis's), form a grid of each part's
    pairs, so each part answers for its own sides and ends once and the
    parts' answers are folded from the last (_fold).  Opens or targets that
    are not that grid read their codes off it, picked a row at a time and
    renumbered in pair order, so every code stays some pair's."""
    parts, rows, columns = [], [0] * len(opens), [0] * len(targets)
    for k, part in enumerate(spec.parts):
        sides, side_of = _number_sides([U.parts[k] for U in opens])
        if targets is opens:  # the basis against itself: its sides once
            ends, end_of = sides, side_of
        else:
            ends, end_of = _number_sides([V.parts[k] for V in targets])
        rows = [row * len(sides) + a for row, a in zip(rows, side_of)]
        columns = [column * len(ends) + b for column, b in zip(columns, end_of)]
        parts.append((*pair_masks(part, [*sides], [*ends], horizon), len(sides), len(ends)))
    grid = parts.pop()
    while parts:
        grid = _fold(parts.pop(), grid)
    values, codes, undecided, height, width = grid
    if rows == [*range(height)] and columns == [*range(width)]:
        return values, codes, undecided
    picked = array("I")
    for row in rows:
        picked.extend(map(codes[row * width:row * width + width].__getitem__, columns))
    used = {code: k for k, code in enumerate(dict.fromkeys(picked))}
    return ([*map(values.__getitem__, used)], array("I", map(used.__getitem__, picked)),
            {used[code]: times for code, times in undecided.items() if code in used})


def _number_sides(sides: list) -> tuple:
    """({distinct side: its index among them}, the index of each side), in
    order of first occurrence.  Sides are grouped by object first (`id`, a
    C call; the list keeps every object alive), and one side of each group
    is hashed through the record's `__hash__`: a basis shares its side
    objects, so the 64 opens of a two-part basis hash 8 sides a part."""
    ids, distinct = [*map(id, sides)], {}
    index_of = {key: distinct.setdefault(side, len(distinct)) for key, side in dict(zip(ids, sides)).items()}
    return distinct, [*map(index_of.__getitem__, ids)]


def _fold(left: tuple, right: tuple) -> tuple:
    """The pair masks of the grid of left's opens by right's, row (i, k)
    against column (j, l) as in itertools.product, each side given as
    (values, codes, undecided, number of opens, number of targets) and so
    returned.  A pair
    meets where both its sides do, and spaces.intersects reads the sides in
    order: a time the left leaves undecided stays so, and one the right
    leaves undecided is undecided where the left met, so (a, u) and (b, w)
    give (a & b, u | a & w).  That fold is associative, so any grouping of
    the parts reads as the left-to-right one.  Every (left code, right
    code) is decided once, in a dense table, and the codes are written in
    place a row at a time from blocks: left code x against right row k is
    the block of table row x mapped over k's codes."""
    left_values, left_codes, left_undecided, height, width = left
    right_values, right_codes, right_undecided, right_height, right_width = right
    values, code_of, undecided = _distinct(
        (a & b, left_undecided.get(x, 0) | a & right_undecided.get(y, 0))
        for x, a in enumerate(left_values) for y, b in enumerate(right_values))
    n = len(right_values)
    table = [code_of[x * n:x * n + n] for x in range(len(left_values))]
    left_rows = [left_codes[i * width:(i + 1) * width] for i in range(height)]
    codes, row = array("I", [0]) * (height * right_height * width * right_width), 4 * width * right_width
    with memoryview(codes).cast("B") as out:
        for k in range(right_height):
            right_row = right_codes[k * right_width:(k + 1) * right_width]
            blocks = [array("I", map(table_row.__getitem__, right_row)).tobytes() for table_row in table]
            for i, left_row in enumerate(left_rows):
                at = (i * right_height + k) * row
                out[at:at + row] = b"".join(map(blocks.__getitem__, left_row))
    return values, codes, undecided, height * right_height, width * right_width


def hitting_set(spec: mp.SystemSpec, U, V, horizon: int) -> HittingSet:
    """N(U, V) restricted to [1, horizon]: times n with f_1^n(U) meeting V."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values, codes, undecided = pair_masks(spec, (U,), (V,), horizon)
    members, inconclusive = _mask_members(values[codes[0]]), _mask_members(undecided.get(codes[0], 0))
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
