"""Li-Yorke pair scanning and the desk-scale inductive construction of
itinerary witnesses: points driven through arbitrary A/B target sequences at
increasing times.  Both run on shift systems.

Scan reports are finite evidence for liminf/limsup behaviour, not proofs;
the tail convention (n >= H/2) and the thresholds are fixed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from io import BytesIO
from itertools import chain, product as iter_product, repeat
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


def _check_alphabet(spec: mp.SystemSpec, name: str, point: sp.BiWord) -> None:
    """Raise SpaceMismatch when `point` is no BiWord, and ValueError naming
    it (`name`, whose `{point}` reads the point's repr) and the symbol when
    one of its cells holds a symbol outside the alphabet of spec's shift:
    such a word is no point of the space, though its orbit could be read."""
    if not isinstance(point, sp.BiWord):
        raise sp.SpaceMismatch(f"{type(point).__name__} is not a point of ShiftSpace")
    size = spec.space.alphabet_size
    bad = next((s for s in chain(point.window, point.left, point.right) if not 0 <= s < size), None)
    if bad is not None:
        raise ValueError(f"{name.format(point=point)} has the symbol {bad}, "
                         f"which is not in the alphabet 0..{size - 1}")


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
    for idx, pair in enumerate(candidates):
        for point in pair:
            _check_alphabet(spec, f"the point {{point!r}} of pair-{idx}", point)
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
# the witnesses are checked this many rows of the product order at a time,
# so the check of a dict of witnesses joins no buffer of all 2^L windows
_CHUNK_ROWS = 1 << 8


class WitnessTable(Mapping):
    """The read-only table {word: x_word} of the 2^L witnesses of an L-level
    construction, keyed by the A/B words of length L in
    itertools.product("AB", repeat=L) order: `windows` is one `bytes`
    buffer of their windows in that order, `width` cells (one byte a cell)
    each, every window starting at `start`, with the tails (0,).  A witness,
    a BiWord, is built only when read; any key that is not such a word
    raises KeyError.  It equals its dict, which dict(table) copies."""

    __slots__ = ("levels", "start", "width", "windows")

    def __init__(self, levels: int, start: int, width: int, windows: bytes):
        if not (levels >= 0 and width >= 1 and type(windows) is bytes and len(windows) == width << levels):
            raise ValueError(f"a witness table of {levels} levels holds 2^{levels} windows of "
                             f"{width} cells in a bytes buffer, got {type(windows).__name__} "
                             f"of length {len(windows)}")
        self.levels, self.start, self.width, self.windows = levels, start, width, windows

    def __len__(self) -> int:
        return 1 << self.levels

    def __iter__(self):
        return map("".join, iter_product("AB", repeat=self.levels))

    def __getitem__(self, word):
        if not (isinstance(word, str) and len(word) == self.levels) or word.strip("AB"):
            raise KeyError(word)
        at = int("0" + word.translate(_BITS), 2) * self.width
        return sp.normal_biword(self.start, self.windows[at : at + self.width], _ZERO, _ZERO)

    def values(self):
        return _WitnessValues(self)

    def items(self):
        return _WitnessItems(self)

    def __repr__(self) -> str:
        return f"<WitnessTable of {len(self)} witnesses, windows of {self.width} cells from {self.start}>"


_BITS, _ZERO = str.maketrans("AB", "01"), (0,)


class _WitnessValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        table = self._mapping
        width, size = table.width, len(table.windows)
        cuts = map(slice, range(0, size, width), range(width, size + 1, width))
        return map(sp.normal_biword, repeat(table.start), map(table.windows.__getitem__, cuts),
                   repeat(_ZERO), repeat(_ZERO))


class _WitnessItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


@record
class ItineraryConstruction:
    times: tuple  # p_1 < ... < p_K
    levels: tuple  # (A_i, B_i) cylinder pairs per level
    witnesses: Mapping  # itinerary word (e.g. "ABBA") -> BiWord: a WitnessTable, {} with no levels
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
    _check_alphabet(spec, "reference point a", a)
    _check_alphabet(spec, "reference point b", b)
    if a == b:
        raise ValueError("the two reference points must differ")
    if levels < 0:
        raise ValueError(f"the number of itinerary levels must be at least 0, got {levels}")
    if levels > MAX_ITINERARY_LEVELS:
        raise ValueError(f"the number of itinerary levels must be at most MAX_ITINERARY_LEVELS = "
                         f"{MAX_ITINERARY_LEVELS} ({1 << MAX_ITINERARY_LEVELS} witnesses), got {levels}")
    size = spec.space.alphabet_size
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
    witnesses = WitnessTable(levels, lo, width, _plant(row, spans, words))
    if not _verify_itineraries(spec, times, level_sets, witnesses):
        return ItineraryFailure(levels, "stepwise verification failed")
    return ItineraryConstruction(tuple(times), tuple(level_sets), witnesses, True)


def _plant(row, spans, words) -> bytes:
    """The windows of all 2^L witnesses of the product order as one buffer.
    The first is `row` with every level's A word written at its span
    (`spans[i]` in the row).  In product order level i is worth n =
    2^(L-1-i) rows, so rows n .. 2n-1 are rows 0 .. n-1 with level i's B
    word: the last level is doubled first, each cell of its span written
    for the copied rows as one strided slice.  The buffer is written in
    place, in a BytesIO whose getvalue hands over its own bytes, so the
    build peaks near the buffer itself."""
    row = bytearray(row)
    for start, (u, _v) in zip(spans, words):
        row[start : start + len(u)] = u
    width = len(row)
    out = BytesIO(bytes(width << len(spans)))
    with out.getbuffer() as buf:
        buf[:width] = row
        for k, (start, (_u, v)) in enumerate(zip(reversed(spans), reversed(words))):
            n = 1 << k  # the worth of level L-1-k, whose B word rows n .. 2n-1 take
            at, end = n * width, 2 * n * width
            buf[at:end] = buf[:at]
            for c in range(len(v)):
                buf[at + start + c : end : width] = v[c : c + 1] * n
    return out.getvalue()


def _verify_itineraries(spec, times, level_sets, witnesses) -> bool:
    """Independent check: compose the step maps up to each p_i, one segment
    (p_(i-1), p_i] after another, pull both level-i targets back through
    that map once, and test every witness against the pulled-back cylinders
    at every level.  It never reads prefix exponents or laws, never moves a
    point, and calls nothing the construction plants with: each expected
    column comes from the product order and the pulled-back cylinders alone,
    never from the construction's spans or words.

    A WitnessTable of the levels' count is read as its buffer's rows.  Any
    other mapping whose labels are exactly the A/B words of the levels'
    length in product order, its witnesses sharing one `bytes` window, is
    read as those windows joined, a chunk of rows at a time.  Either way a
    level is tested for all witnesses at once: where its two pulled-back
    words span one stretch inside that window, membership is equality of
    the stretch with the label's word as bytes, and in product order a cell
    of the stretch reads the A word's and the B word's symbol in
    alternating blocks of 2^(L-1-i) down the witnesses, so each cell of a
    chunk of rows is compared as one strided slice.  A word with a symbol
    no byte holds matches no window.  Every other mapping and level goes
    through `spaces.contains`."""
    space = spec.space
    pulled, m, n = [], mp.identity_map(space), 0
    for p, targets in zip(times, level_sets):
        for step in range(n + 1, p + 1):
            m = mp.compose(mp.step_normal(spec, step), m)
        n = p
        pulled.append(dict(zip("AB", (mp.preimage(m, t) for t in targets))))
    levels = len(pulled)
    if isinstance(witnesses, WitnessTable) and witnesses.levels == levels:
        lo, width, count, shared = witnesses.start, witnesses.width, len(witnesses), True
        rows = min(_CHUNK_ROWS, count)
        buffer, size = witnesses.windows, rows * width
        chunks = (buffer[at : at + size] for at in range(0, len(buffer), size))
    else:
        points = list(witnesses.values())
        if not (len(points) == 1 << levels and all(map(isinstance, points, repeat(sp.BiWord)))
                and all(map(eq, witnesses, map("".join, iter_product("AB", repeat=levels))))):
            return all(
                sp.contains(space, level[choice], x)
                for label, x in witnesses.items()
                for level, choice in zip(pulled, label)
            )
        windows = list(map(attrgetter("window"), points))
        lo, width, count = points[0].window_start, len(windows[0]), len(points)
        shared = (set(map(attrgetter("window_start"), points)) == {lo} and set(map(len, windows)) == {width}
                  and set(map(type, windows)) == {bytes})
        rows = min(_CHUNK_ROWS, count)
        chunks = (b"".join(windows[first : first + rows]) for first in range(0, count, rows))
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
    for first, chunk in zip(range(0, count, rows), chunks):
        for cell, block, a_col, b_col in cells:
            # `first & block` is set only for a chunk that lies inside a B block
            if chunk[cell::width] != (b_col if first & block else a_col):
                return False
    return True
