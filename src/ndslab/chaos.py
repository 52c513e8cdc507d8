"""Li-Yorke pair scanning and the desk-scale inductive construction of
itinerary witnesses: points driven through arbitrary A/B target sequences at
increasing times.  Both run on shift systems.

Scan reports are finite evidence for liminf/limsup behaviour, not proofs;
the tail convention (n >= H/2) and the thresholds are fixed.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, islice, product as iter_product, repeat
from operator import attrgetter, eq

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


EPS_LOW = Fraction(1, 1024)
DELTA_HIGH = Fraction(1, 2)


def li_yorke_scan(spec: mp.SystemSpec, candidates: list, horizon: int) -> list:
    """Exact orbit-distance extremes for candidate pairs on a shift system; a
    pair qualifies when its tail (n >= horizon/2) dips below EPS_LOW and also
    exceeds DELTA_HIGH.  The tail is read off the exponents of its distinct
    prefix maps f_1^n (`spaces.shift_distance_extremes`)."""
    if not isinstance(spec.space, sp.ShiftSpace):
        raise sp.SpaceMismatch("the Li-Yorke scan runs on shift systems")
    if horizon < 1:
        raise ValueError(f"the Li-Yorke horizon must be at least 1, got {horizon}")
    exponents = sorted(set(mp.prefix_exponents(spec, horizon)[max(1, horizon // 2):]))
    reports = []
    for idx, (x, y) in enumerate(candidates):
        try:
            lo, hi = sp.shift_distance_extremes(x, y, exponents)
        except OverflowError:
            raise ValueError(f"the exact tail distances of pair-{idx} need a denominator "
                             "with too many digits for an integer") from None
        reports.append(LiYorkeReport(lo, hi, lo < EPS_LOW and hi > DELTA_HIGH))
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
# the witnesses are planted, and checked, this many rows of the product order
# at a time, so neither holds a buffer of all 2^L windows
_CHUNK_ROWS = 1 << 8


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
    size = spec.space.alphabet_size
    for name, point in (("a", a), ("b", b)):
        bad = next((s for s in chain(point.window, point.left, point.right) if not 0 <= s < size), None)
        if bad is not None:
            raise ValueError(f"reference point {name} has the symbol {bad}, "
                             f"which is not in the alphabet 0..{size - 1}")
    if a == b:
        raise ValueError("the two reference points must differ")
    if levels < 0:
        raise ValueError(f"the number of itinerary levels must be at least 0, got {levels}")
    if levels > MAX_ITINERARY_LEVELS:
        raise ValueError(f"the number of itinerary levels must be at most MAX_ITINERARY_LEVELS = "
                         f"{MAX_ITINERARY_LEVELS} ({1 << MAX_ITINERARY_LEVELS} witnesses), got {levels}")
    if size > 256:
        raise ValueError(f"the itinerary construction holds a cell in a byte: its alphabet may "
                         f"have at most 256 symbols, got {size}")
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
    lo, width = starts[0], ends[-1] - starts[0] + 1
    # one byte a cell
    words = [(bytes(A.word), bytes(B.word)) for A, B in level_sets]
    row = bytearray(width)
    row[base.start - lo : base.end - lo] = words[0][0]
    # a level's two targets share the window [-w, w], so either word covers
    # the same cells: its span starts at the level's prefix exponent
    spans = [A.start + e - lo for (A, _B), e in zip(level_sets, shifts)]
    rows = min(_CHUNK_ROWS, 1 << levels)
    cuts = list(map(slice, range(0, rows * width, width), range(width, rows * width + 1, width)))
    labels = map("".join, iter_product("AB", repeat=levels))
    witnesses, zero = {}, (0,)
    for first in range(0, 1 << levels, rows):
        chunk = bytes(_plant_chunk(row, rows, first, spans, words))
        points = map(sp.BiWord, repeat(lo), map(chunk.__getitem__, cuts), repeat(zero), repeat(zero))
        witnesses.update(zip(islice(labels, rows), points))
    if not _verify_itineraries(spec, times, level_sets, witnesses):
        return ItineraryFailure(levels, "stepwise verification failed")
    return ItineraryConstruction(tuple(times), tuple(level_sets), witnesses, True)


def _plant_chunk(row, rows, first, spans, words):
    """Witnesses first .. first + rows - 1 of the product order as one buffer
    of `rows` rows, `rows` a power of two dividing `first`: `row` repeated,
    then each cell of level i's span (at `spans[i]` in the row) written for
    the whole chunk as one strided slice.  In product order that cell's
    column holds the A and the B word's symbol in blocks of 2^(L-1-i)."""
    width, levels = len(row), len(spans)
    chunk = row * rows
    for i, (start, (u, v)) in enumerate(zip(spans, words)):
        block = 1 << (levels - 1 - i)
        for c in range(len(u)):
            if block < rows:
                column = (u[c : c + 1] * block + v[c : c + 1] * block) * (rows // (2 * block))
            else:  # the chunk lies inside one block
                column = (u, v)[first // block & 1][c : c + 1] * rows
            chunk[start + c :: width] = column
    return chunk


def _verify_itineraries(spec, times, level_sets, witnesses) -> bool:
    """Independent check: compose the step maps up to each p_i, one segment
    (p_(i-1), p_i] after another, pull both level-i targets back through
    that map once, and test every witness against the pulled-back cylinders
    at every level.  It never reads prefix exponents or laws, never moves a
    point, and calls nothing the construction plants with: each expected
    column comes from the product order and the pulled-back cylinders alone,
    never from the construction's spans or words.

    When the labels are exactly the A/B words of the levels' length in
    product order and the witnesses share one `bytes` window, a level is
    tested for all of them at once: where its two pulled-back words span one
    stretch inside that window, membership is equality of the stretch with
    the label's word as bytes, and in product order a cell of the stretch
    reads the A word's and the B word's symbol in alternating blocks of
    2^(L-1-i) down the witnesses.  The windows are joined a chunk of rows at
    a time and each cell is compared as one strided slice of that buffer.
    A word with a symbol no byte holds matches no window.  Every other
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
    shared = (set(map(attrgetter("window_start"), points)) == {lo} and set(map(len, windows)) == {width}
              and set(map(type, windows)) == {bytes})
    rows = min(_CHUNK_ROWS, len(points))
    # (cell of the window, level block, column of a chunk whose rows read A
    # at that level, column of one whose rows read B) of each level cell read
    # by slices: a chunk covers whole blocks, or lies inside one block
    cells = []
    for i, level in enumerate(pulled):
        a, b = level["A"], level["B"]
        if shared and (a.start, a.end) == (b.start, b.end) and lo <= a.start and a.end <= lo + width:
            try:
                a_word, b_word = bytes(a.word), bytes(b.word)
            except ValueError:  # a symbol no byte holds, so no bytes window has it
                return False
            block = 1 << (levels - 1 - i)
            for c in range(len(a_word)):
                a_col, b_col = a_word[c : c + 1], b_word[c : c + 1]
                if block < rows:
                    a_col = b_col = (a_col * block + b_col * block) * (rows // block // 2)
                else:
                    a_col, b_col = a_col * rows, b_col * rows
                cells.append((a.start - lo + c, block, a_col, b_col))
        elif not all(sp.contains(space, level[label[i]], x) for label, x in witnesses.items()):
            return False
    if not cells:  # no level read by slices, so the windows need not be bytes
        return True
    for first in range(0, len(points), rows):
        buf = b"".join(windows[first : first + rows])
        for cell, block, a_col, b_col in cells:
            # `first & block` is set only for a chunk that lies inside a B block
            if buf[cell::width] != (b_col if first & block else a_col):
                return False
    return True
