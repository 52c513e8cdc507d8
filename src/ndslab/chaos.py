"""Li-Yorke pair scanning and the desk-scale inductive construction of
itinerary witnesses: points driven through arbitrary A/B target sequences at
increasing times.

Scan reports are finite evidence for liminf/limsup behaviour, not proofs;
the tail convention (n >= H/2) and the thresholds are configuration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product as iter_product, repeat
from math import lcm
from operator import attrgetter, eq, itemgetter

from . import hitting as ht
from . import maps as mp
from . import spaces as sp
from .record import record


@record
class LiYorkeReport:
    pair_label: str
    liminf_estimate: Fraction  # min over the tail of the orbit distances
    limsup_estimate: Fraction  # max over the tail
    qualifies: bool
    horizon: int
    eps_low: Fraction
    delta_high: Fraction


def orbit_distance_trace(spec: mp.SystemSpec, x: sp.Point, y: sp.Point, horizon: int) -> list:
    """d(f_1^n x, f_1^n y) for n = 1..horizon, computed stepwise (the same
    fold the verification oracle uses)."""
    space = spec.space
    out = []
    px, py = x, y
    for n in range(1, horizon + 1):
        m = mp.step_normal(spec, n)
        px, py = mp.apply(m, px), mp.apply(m, py)
        out.append(sp.distance(space, px, py))
    return out


def _shift_tail_extremes(x: sp.BiWord, y: sp.BiWord, exponents: list) -> tuple:
    """min and max of d(sigma^E x, sigma^E y) over the ascending distinct
    exponents E, exactly.

    With delta_j = [x_j != y_j] the distance splits at E into a right sum
    R(E) = sum_{i>=0} delta_{E+i} 2^-i and a left sum
    L(E) = sum_{i>=1} delta_{E-i} 2^-i, and one cell to the right
    R(E+1) = 2(R(E) - delta_E), L(E+1) = (L(E) + delta_E) / 2.  delta is
    periodic (lp) below lo and (rp) from hi on, so every value is an integer
    over Q = (2^lp - 1)(2^rp - 1) 2^K, with K = hi - lo plus the distance of
    the farthest exponent from the windows on a side whose tail correction
    (below) is non-zero.  Over a gap of g cells up to the pair's extent
    (hi - lo + lp + rp) the recurrence folds to R <- 2^g R - 2Q M_r and
    L <- (L + Q M_l) / 2^g, with M_r and M_l the gap's disagreement masks
    read in the two directions; a wider gap is re-seeded in closed form, so
    no cost grows with |E|.

    Past a window edge the sum is a part periodic in E (rp on the right, lp
    on the left) plus the edge's correction, halved once per cell, so it is
    monotone on each residue class and only the class's first and last
    exponent can be its minimum or maximum.  The fold keeps every exponent
    in [lo, hi] and those class ends, at most w + 1 + 2(lp + rp) of them;
    picking the ends is two C-level passes, so no fold or exact sum grows
    with the number of exponents.
    """
    for p in (x, y):
        if not isinstance(p, sp.BiWord):
            raise sp.SpaceMismatch(f"{type(p).__name__} is not a point of ShiftSpace")
    lo, hi = min(x.window_start, y.window_start), max(x.window_end, y.window_end)
    lp, rp = lcm(len(x.left), len(y.left)), lcm(len(x.right), len(y.right))
    lden, rden, w = (1 << lp) - 1, (1 << rp) - 1, hi - lo

    def bits(a, b, leftward=False):
        return sp.disagreement_mask(x, y, a, b, leftward)

    # [lo, hi) read rightward and leftward, and the tail blocks at its edges
    win_r, win_l = bits(lo, hi), bits(lo, hi, True)
    right_at_hi, left_at_lo = bits(hi, hi + rp), bits(lo - lp, lo, True)

    def inside(e, k):
        # (R, L) for lo <= e <= hi over Q with 2^k
        r = (2 * (win_r & ((1 << (hi - e)) - 1)) * rden + 2 * right_at_hi) * lden
        l = ((win_l & ((1 << (e - lo)) - 1)) * lden + left_at_lo) * rden
        return r << (k - (hi - e)), l << (k - (e - lo))

    def right_tail_l(e, k):
        # left sum at e of the right tail's pattern continued leftward forever
        e = hi + rp + (e - hi) % rp
        return (bits(e - rp, e, True) * lden) << k

    def left_tail_r(e, k):
        # right sum at e of the left tail's pattern continued rightward forever
        e = lo - lp - (lo - lp - e) % lp
        return (2 * bits(e, e + lp) * rden) << k

    # beyond a window edge a sum is its tail pattern's plus the edge's
    # correction, halved once per cell of distance; a zero correction keeps
    # the denominator free of that distance
    fix_l = inside(hi, w)[1] - right_tail_l(hi, w)
    fix_r = inside(lo, w)[0] - left_tail_r(lo, w)
    k = w + max(0, exponents[-1] - hi if fix_l else 0, lo - exponents[0] if fix_r else 0)
    fix_l, fix_r = fix_l << (k - w), fix_r << (k - w)
    q = lden * rden << k

    def seed(e):
        if e > hi:
            return (2 * bits(e, e + rp) * lden) << k, right_tail_l(e, k) + (fix_l >> (e - hi))
        if e < lo:
            return left_tail_r(e, k) + (fix_r >> (lo - e)), (bits(e - lp, e, True) * rden) << k
        return inside(e, k)

    a, b = bisect_left(exponents, lo), bisect_right(exponents, hi)
    below, above = exponents[:a], exponents[b:]
    # dict keeps a residue's last exponent: built forward, its class's
    # last; built backward, its first
    ends = [e for side, period in ((below, lp), (above, rp)) for run in (side, side[::-1])
            for e in dict(zip(map(period.__rmod__, run), run)).values()]
    exponents = sorted({*exponents[a:b], *ends})

    extent = w + lp + rp
    sums, i = [], 0
    while i < len(exponents):
        # a run of exponents at most the extent apart: seed its first one,
        # then step over each gap [E, E+g) at once off the run's one mask
        j = i
        while j + 1 < len(exponents) and exponents[j + 1] - exponents[j] <= extent:
            j += 1
        a, b = exponents[i], exponents[j]
        r, l = seed(a)
        sums.append(r + l)
        cells = format(bits(a, b), f"0{b - a}b")  # delta_E at index E - a
        for e0, e in zip(exponents[i:j], exponents[i + 1 : j + 1]):
            g, gap = e - e0, cells[e0 - a : e - a]
            # the masks of [E, E+g) with cell E high (M_r) and cell E+g-1 high (M_l)
            r = (r << g) - 2 * q * int(gap, 2)
            l = (l + q * int(gap[::-1], 2)) >> g
            sums.append(r + l)
        i = j + 1
    return Fraction(min(sums), q), Fraction(max(sums), q)


def li_yorke_scan(
    spec: mp.SystemSpec,
    candidates: list,
    horizon: int,
    eps_low: Fraction = Fraction(1, 1024),
    delta_high: Fraction = Fraction(1, 2),
) -> list:
    """Exact orbit-distance extremes for candidate pairs; a pair qualifies
    when its tail (n >= horizon/2) dips below eps_low and also exceeds
    delta_high.  The tail is read off its distinct prefix maps f_1^n: on
    shift systems through their exponents (`_shift_tail_extremes`), elsewhere
    as one distance per prefix class with a tail time
    (`hitting.prefix_classes`), ordered exactly (`spaces.value_cmp`)."""
    eps_low, delta_high = Fraction(eps_low), Fraction(delta_high)
    if not eps_low < delta_high:
        raise ValueError("eps_low must be below delta_high")
    if horizon < 1:
        raise ValueError(f"the Li-Yorke horizon must be at least 1, got {horizon}")
    space = spec.space
    start = max(1, horizon // 2)
    if isinstance(space, sp.ShiftSpace):
        exponents = sorted(set(mp.prefix_exponents(spec, horizon)[start:]))
    else:
        exponents = None
        tail = [m for m, times in ht.prefix_classes(spec, horizon).items() if times >> start]
    reports = []
    for idx, (x, y) in enumerate(candidates):
        if exponents is not None:
            try:
                lo, hi = _shift_tail_extremes(x, y, exponents)
            except OverflowError:
                raise ValueError(f"the exact tail distances of pair-{idx} need a denominator "
                                 "with too many digits for an integer") from None
        else:
            dists = [sp.distance(space, mp.apply(m, x), mp.apply(m, y)) for m in tail]
            lo, hi = sp.value_min(dists), sp.value_max(dists)
        reports.append(
            LiYorkeReport(
                pair_label=f"pair-{idx}",
                liminf_estimate=lo,
                limsup_estimate=hi,
                qualifies=sp.value_cmp(lo, eps_low) < 0 and sp.value_cmp(hi, delta_high) > 0,
                horizon=horizon,
                eps_low=eps_low,
                delta_high=delta_high,
            )
        )
    return reports


# right-tail period of the first scan candidate; the j-th adds 2j
CANDIDATE_PERIOD = 32


def proximal_scrambled_candidates(a: sp.BiWord, b: sp.BiWord, count: int) -> list:
    """Candidate pairs derived from two reference points: each pair is
    (a, mix) where mix follows b on one block per period of its right tail
    and a elsewhere.  Under shift dynamics the orbit distance oscillates
    between nearly 0 (block far from the origin) and a macroscopic gap
    (block astride it)."""
    if a == b:
        raise ValueError("reference points must differ")
    pairs = []
    for j in range(count):
        period = CANDIDATE_PERIOD + 2 * j
        block = max(4, period // 4)
        cells = tuple(b.coord(i) if i < block else a.coord(i) for i in range(period))
        mix = sp.BiWord(0, (), a.left, cells)
        pairs.append((a, mix))
    return pairs


# a construction of L levels builds 2^L witnesses
MAX_ITINERARY_LEVELS = 16


@record
class ItineraryConstruction:
    times: tuple  # p_1 < ... < p_K
    levels: tuple  # (A_i, B_i) cylinder pairs per level
    witnesses: dict  # itinerary word (e.g. "ABBA") -> BiWord
    verified: bool


@record
class ItineraryFailure:
    level: int
    itinerary: str
    reason: str


def _target_cylinder(point: sp.BiWord, level: int) -> sp.Cylinder:
    """Inside approximation of the radius-1/level ball around the point: its
    cylinder on [-w, w] with 2^(1-w) <= 1/level."""
    w = (level - 1).bit_length() + 1  # the least w >= 1 with 2^(w-1) >= level
    return sp.Cylinder(-w, tuple(point.coord(i) for i in range(-w, w + 1)))


def lemma21_construct(
    spec: mp.SystemSpec, a: sp.BiWord, b: sp.BiWord, levels: int, horizon: int
):
    """Build times p_1 < ... < p_levels and, for every A/B itinerary word C of
    that length, a point x_C with f_1^(p_i)(x_C) in C_i for all i, verified by
    an independent orbit computation over the step maps.

    Works on shift systems: the time-n prefix is a shift power, so the
    constraint at time p is the target word planted at coordinates shifted by
    the prefix exponent; times are chosen so the planted blocks are pairwise
    disjoint and clear of each other."""
    if not isinstance(spec.space, sp.ShiftSpace):
        raise sp.SpaceMismatch("the itinerary construction runs on shift systems")
    if a == b:
        raise ValueError("the two reference points must differ")
    if levels < 0:
        raise ValueError(f"the number of itinerary levels must be at least 0, got {levels}")
    if levels > MAX_ITINERARY_LEVELS:
        raise ValueError(f"the number of itinerary levels must be at most MAX_ITINERARY_LEVELS = "
                         f"{MAX_ITINERARY_LEVELS} ({1 << MAX_ITINERARY_LEVELS} witnesses), got {levels}")
    if levels == 0:
        return ItineraryConstruction((), (), {}, True)
    level_sets = [(_target_cylinder(a, i), _target_cylinder(b, i)) for i in range(1, levels + 1)]
    # every witness starts inside the level-1 cylinder of a; its window is a
    # claimed block that no later target may overwrite
    base = level_sets[0][0]
    blocks = [(base.start, base.end - 1)]
    times, shifts = [], []
    exps = [0]  # E(0..len-1), read in chunks that double as the search goes on
    for i, (A_i, _B_i) in enumerate(level_sets, start=1):
        chosen = None
        for p in range(times[-1] + 1 if times else 1, horizon + 1):
            if p == len(exps):
                exps = mp.prefix_exponents(spec, min(horizon, 2 * p))
            e = exps[p]
            lo, hi = A_i.start + e, A_i.end - 1 + e
            if all(hi < blo - 1 or lo > bhi + 1 for blo, bhi in blocks):
                chosen = (p, e, lo, hi)
                break
        if chosen is None:
            return ItineraryFailure(
                i, "", f"no time <= {horizon} moves the level-{i} targets clear of earlier blocks"
            )
        times.append(chosen[0])
        shifts.append(chosen[1])
        blocks.append(chosen[2:])
    lo = min(b0 for b0, _ in blocks)
    hi = max(b1 for _, b1 in blocks)
    # a level's two targets share the window [-w, w] and constrain every cell
    # of it, so each plants as one slice at its prefix exponent and replaces
    # the other.  In product order witness k differs from witness k - 1 in
    # its last z + 1 levels, z the trailing zeros of k, so one cell list is
    # rewritten there and copied once per witness: 2^(L+1) - 2 slice writes
    cells = [0] * (hi - lo + 1)
    cells[base.start - lo : base.end - lo] = base.word
    spans = [slice(A.start + e - lo, A.end + e - lo) for (A, _B), e in zip(level_sets, shifts)]
    words = [(A.word, B.word) for A, B in level_sets]
    for span, (word, _) in zip(spans, words):
        cells[span] = word
    witnesses, zero = {}, (0,)
    labels = map("".join, iter_product("AB", repeat=levels))
    for k, label in enumerate(labels):
        for i in range(levels - (k & -k).bit_length(), levels):
            cells[spans[i]] = words[i][k >> (levels - 1 - i) & 1]
        witnesses[label] = sp.BiWord(lo, tuple(cells), zero, zero)
    if not _verify_itineraries(spec, times, level_sets, witnesses):
        return ItineraryFailure(levels, "", "stepwise verification failed")
    return ItineraryConstruction(tuple(times), tuple(level_sets), witnesses, True)


def _verify_itineraries(spec, times, level_sets, witnesses) -> bool:
    """Independent check: compose the step maps up to each p_i, one segment
    (p_(i-1), p_i] after another, pull both level-i targets back through
    that map once, and test every witness against the pulled-back cylinders
    at every level.  It never reads prefix exponents or laws, and never
    moves a point.

    When the labels are exactly the A/B words of the levels' length in
    product order and the witnesses share one window, a level is tested for
    all of them at once: where its two pulled-back words span one stretch
    inside that window and constrain every cell of it, membership is
    equality of the stretch's slice with the label's word, and in product
    order those words are the A word and the B word in alternating blocks of
    2^(L-1-i).  Every other witness dict and level goes through
    `spaces.contains`."""
    space = spec.space
    pulled, m, n = [], mp.identity_map(space), 0
    for p, targets in zip(times, level_sets):
        for step in range(n + 1, p + 1):
            m = mp.compose(mp.step_normal(spec, step), m)
        n = p
        pulled.append(dict(zip("AB", (mp.preimage(m, t) for t in targets))))
    levels, points = len(pulled), list(witnesses.values())
    if not (isinstance(space, sp.ShiftSpace) and len(points) == 1 << levels
            and all(map(isinstance, points, repeat(sp.BiWord)))
            and all(map(eq, witnesses, map("".join, iter_product("AB", repeat=levels))))):
        return all(
            sp.contains(space, level[choice], x)
            for label, x in witnesses.items()
            for level, choice in zip(pulled, label)
        )
    windows = list(map(attrgetter("window"), points))
    lo, width = points[0].window_start, len(windows[0])
    shared = set(map(attrgetter("window_start"), points)) == {lo} and set(map(len, windows)) == {width}
    for i, level in enumerate(pulled):
        a, b = level["A"], level["B"]
        if (shared and isinstance(a, sp.Cylinder) and isinstance(b, sp.Cylinder)
                and (a.start, a.end) == (b.start, b.end) and None not in a.word + b.word
                and lo <= a.start and a.end <= lo + width):
            block = 1 << (levels - 1 - i)
            expected = ([a.word] * block + [b.word] * block) * (1 << i)
            cut = itemgetter(slice(a.start - lo, a.end - lo))
            held = all(map(eq, map(cut, windows), expected))
        else:
            held = all(sp.contains(space, level[label[i]], x) for label, x in witnesses.items())
        if not held:
            return False
    return True
