"""Li-Yorke pair scanning and the desk-scale inductive construction of
itinerary witnesses: points driven through arbitrary A/B target sequences at
increasing times.

Scan reports are finite evidence for liminf/limsup behaviour, not proofs;
the tail convention (n >= H/2) and the thresholds are configuration.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product as iter_product, repeat
from operator import attrgetter, eq, itemgetter

from . import hitting as ht
from . import maps as mp
from . import spaces as sp
from .record import record


@record
class LiYorkeReport:
    liminf_estimate: Fraction  # min over the tail of the orbit distances
    limsup_estimate: Fraction  # max over the tail
    qualifies: bool


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
    shift systems through their exponents
    (`spaces.shift_distance_extremes`), elsewhere as one distance per prefix
    class with a tail time (`hitting.prefix_classes`), ordered exactly
    (`spaces.value_cmp`)."""
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
                lo, hi = sp.shift_distance_extremes(x, y, exponents)
            except OverflowError:
                raise ValueError(f"the exact tail distances of pair-{idx} need a denominator "
                                 "with too many digits for an integer") from None
        else:
            dists = [sp.distance(space, mp.apply(m, x), mp.apply(m, y)) for m in tail]
            lo, hi = sp.value_min(dists), sp.value_max(dists)
        qualifies = sp.value_cmp(lo, eps_low) < 0 and sp.value_cmp(hi, delta_high) > 0
        reports.append(LiYorkeReport(lo, hi, qualifies))
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
    # the claimed blocks [starts[j], ends[j]], sorted: they are disjoint and
    # apart, so the ends are sorted too, and a candidate is clear of every
    # block once it is clear of the last block starting at or before hi + 1
    starts, ends = [base.start], [base.end - 1]
    times, shifts = [], []
    exps = [0]  # E(0..len-1), read in chunks that double as the search goes on
    for i, (A_i, _B_i) in enumerate(level_sets, start=1):
        chosen = None
        for p in range(times[-1] + 1 if times else 1, horizon + 1):
            if p == len(exps):
                exps = mp.prefix_exponents(spec, min(horizon, 2 * p))
            e = exps[p]
            lo, hi = A_i.start + e, A_i.end - 1 + e
            j = bisect_right(starts, hi + 1)
            if j == 0 or ends[j - 1] < lo - 1:
                chosen = (p, e, lo, hi, j)
                break
        if chosen is None:
            return ItineraryFailure(
                i, f"no time <= {horizon} moves the level-{i} targets clear of earlier blocks"
            )
        p, e, lo, hi, j = chosen
        times.append(p)
        shifts.append(e)
        starts.insert(j, lo)
        ends.insert(j, hi)
    lo, hi = starts[0], ends[-1]
    # a level's two targets share the window [-w, w], so each plants as one
    # slice at its prefix exponent and replaces the other.  In product order
    # witness k differs from witness k - 1 in its last z + 1 levels, z the
    # trailing zeros of k, so one cell buffer is rewritten there and copied
    # once per witness: 2^(L+1) - 2 slice writes.
    # The buffer is a bytearray frozen to bytes, one byte a cell, unless a
    # symbol of a or b past 255 needs a list frozen to tuples
    words = [(A.word, B.word) for A, B in level_sets]
    try:
        words = [(bytes(u), bytes(v)) for u, v in words]
    except ValueError:
        cells, freeze = [0] * (hi - lo + 1), tuple
    else:
        cells, freeze = bytearray(hi - lo + 1), bytes
    cells[base.start - lo : base.end - lo] = words[0][0]
    spans = [slice(A.start + e - lo, A.end + e - lo) for (A, _B), e in zip(level_sets, shifts)]
    for span, (word, _) in zip(spans, words):
        cells[span] = word
    witnesses, zero = {}, (0,)
    labels = map("".join, iter_product("AB", repeat=levels))
    for k, label in enumerate(labels):
        for i in range(levels - (k & -k).bit_length(), levels):
            cells[spans[i]] = words[i][k >> (levels - 1 - i) & 1]
        witnesses[label] = sp.BiWord(lo, freeze(cells), zero, zero)
    if not _verify_itineraries(spec, times, level_sets, witnesses):
        return ItineraryFailure(levels, "stepwise verification failed")
    return ItineraryConstruction(tuple(times), tuple(level_sets), witnesses, True)


def _verify_itineraries(spec, times, level_sets, witnesses) -> bool:
    """Independent check: compose the step maps up to each p_i, one segment
    (p_(i-1), p_i] after another, pull both level-i targets back through
    that map once, and test every witness against the pulled-back cylinders
    at every level.  It never reads prefix exponents or laws, and never
    moves a point.

    When the labels are exactly the A/B words of the levels' length in
    product order and the witnesses share one window of one type (all tuples
    or all bytes), a level is tested for all of them at once: where its two
    pulled-back words span one stretch inside that window, membership is
    equality of the stretch's slice with the label's word converted to the
    windows' type, and in product order those words are the A word and the
    B word in alternating blocks of 2^(L-1-i).
    A word with a symbol no byte holds matches no bytes window.  Every other
    witness dict and level goes through `spaces.contains`."""
    space = spec.space
    pulled, m, n = [], mp.identity_map(space), 0
    for p, targets in zip(times, level_sets):
        for step in range(n + 1, p + 1):
            m = mp.compose(mp.step_normal(spec, step), m)
        n = p
        pulled.append(dict(zip("AB", (mp.preimage(m, t) for t in targets))))
    levels, points = len(pulled), list(witnesses.values())
    if not (len(points) == 1 << levels and all(map(isinstance, points, repeat(sp.BiWord)))
            and all(map(eq, witnesses, map("".join, iter_product("AB", repeat=levels))))):
        return all(
            sp.contains(space, level[choice], x)
            for label, x in witnesses.items()
            for level, choice in zip(pulled, label)
        )
    windows = list(map(attrgetter("window"), points))
    lo, width = points[0].window_start, len(windows[0])
    kind = type(windows[0])
    shared = (set(map(attrgetter("window_start"), points)) == {lo} and set(map(len, windows)) == {width}
              and set(map(type, windows)) == {kind})
    for i, level in enumerate(pulled):
        a, b = level["A"], level["B"]
        if shared and (a.start, a.end) == (b.start, b.end) and lo <= a.start and a.end <= lo + width:
            try:
                a_word, b_word = kind(a.word), kind(b.word)
            except ValueError:  # a symbol no byte holds, so no bytes window has it
                return False
            block = 1 << (levels - 1 - i)
            expected = ([a_word] * block + [b_word] * block) * (1 << i)
            cut = itemgetter(slice(a.start - lo, a.end - lo))
            held = all(map(eq, map(cut, windows), expected))
        else:
            held = all(sp.contains(space, level[label[i]], x) for label, x in witnesses.items())
        if not held:
            return False
    return True
