"""Li-Yorke pair scanning and the desk-scale inductive construction of
itinerary witnesses: points driven through arbitrary A/B target sequences at
increasing times.

Scan reports are finite evidence for liminf/limsup behaviour, not proofs;
the tail convention (n >= H/2) and the thresholds are configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from . import maps as mp
from . import spaces as sp


@dataclass(frozen=True)
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


def li_yorke_scan(
    spec: mp.SystemSpec,
    candidates: list,
    horizon: int,
    eps_low: Fraction = Fraction(1, 1024),
    delta_high: Fraction = Fraction(1, 2),
) -> list:
    """Exact orbit-distance traces for candidate pairs; a pair qualifies when
    its tail (n >= horizon/2) dips below eps_low and also exceeds delta_high."""
    eps_low, delta_high = Fraction(eps_low), Fraction(delta_high)
    if not eps_low < delta_high:
        raise ValueError("eps_low must be below delta_high")
    tail_from = horizon // 2
    reports = []
    for idx, (x, y) in enumerate(candidates):
        trace = orbit_distance_trace(spec, x, y, horizon)
        tail = trace[tail_from - 1 :]
        lo, hi = min(tail), max(tail)
        reports.append(
            LiYorkeReport(
                pair_label=f"pair-{idx}",
                liminf_estimate=lo,
                limsup_estimate=hi,
                qualifies=(lo < eps_low and hi > delta_high),
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


@dataclass(frozen=True)
class ItineraryConstruction:
    times: tuple  # p_1 < ... < p_K
    levels: tuple  # (A_i, B_i) cylinder pairs per level
    witnesses: dict  # itinerary word (e.g. "ABBA") -> BiWord
    verified: bool


@dataclass(frozen=True)
class ItineraryFailure:
    level: int
    itinerary: str
    reason: str


def _target_cylinder(point: sp.BiWord, level: int) -> sp.Cylinder:
    """Inside approximation of the radius-1/level ball around the point: its
    cylinder on [-w, w] with 2^(1-w) <= 1/level."""
    w = 1
    while Fraction(2, 1 << w) > Fraction(1, level):
        w += 1
    return sp.Cylinder(-w, tuple(point.coord(i) for i in range(-w, w + 1)))


def lemma21_construct(
    spec: mp.SystemSpec, a: sp.BiWord, b: sp.BiWord, levels: int, horizon: int
):
    """Build times p_1 < ... < p_levels and, for every A/B itinerary word C of
    that length, a point x_C with f_1^(p_i)(x_C) in C_i for all i, verified by
    stepwise orbit computation.

    Works on shift systems: the time-n prefix is a shift power, so the
    constraint at time p is the target word planted at coordinates shifted by
    the prefix exponent; times are chosen so the planted blocks are pairwise
    disjoint and clear of each other."""
    if not isinstance(spec.space, sp.ShiftSpace):
        raise sp.SpaceMismatch("the itinerary construction runs on shift systems")
    if a == b:
        raise ValueError("the two reference points must differ")
    if levels == 0:
        return ItineraryConstruction((), (), {}, True)
    level_sets = [(_target_cylinder(a, i), _target_cylinder(b, i)) for i in range(1, levels + 1)]
    # every witness starts inside the level-1 cylinder of a; its window is a
    # claimed block that no later target may overwrite
    base = level_sets[0][0]
    blocks = [(base.start, base.end - 1)]
    times = []
    for i, (A_i, _B_i) in enumerate(level_sets, start=1):
        chosen = None
        for p in range(times[-1] + 1 if times else 1, horizon + 1):
            e = mp.prefix_compose(spec, p).exponent
            lo, hi = A_i.start + e, A_i.end - 1 + e
            if all(hi < blo - 1 or lo > bhi + 1 for blo, bhi in blocks):
                chosen = (p, lo, hi)
                break
        if chosen is None:
            return ItineraryFailure(
                i, "", f"no time <= {horizon} moves the level-{i} targets clear of earlier blocks"
            )
        times.append(chosen[0])
        blocks.append((chosen[1], chosen[2]))
    lo = min(b0 for b0, _ in blocks)
    hi = max(b1 for _, b1 in blocks)
    witnesses = {}
    for word in iter_product("AB", repeat=levels):
        label = "".join(word)
        cells = [0] * (hi - lo + 1)
        for j, s in base.constrained():
            cells[j - lo] = s
        for i, choice in enumerate(word):
            target = level_sets[i][0] if choice == "A" else level_sets[i][1]
            e = mp.prefix_compose(spec, times[i]).exponent
            for j, s in target.constrained():
                cells[j + e - lo] = s
        witnesses[label] = sp.BiWord(lo, tuple(cells), (0,), (0,))
    if not _verify_itineraries(spec, times, level_sets, witnesses):
        return ItineraryFailure(levels, "", "stepwise verification failed")
    return ItineraryConstruction(tuple(times), tuple(level_sets), witnesses, True)


def _verify_itineraries(spec, times, level_sets, witnesses) -> bool:
    """Independent check: fold each witness through the step maps f_1..f_pK
    (built once) one at a time, testing cylinder membership at each p_i."""
    space = spec.space
    steps = [mp.step_normal(spec, n) for n in range(1, times[-1] + 1)]
    for label, x in witnesses.items():
        point = x
        n = 0
        for i, p in enumerate(times):
            for m in steps[n:p]:
                point = mp.apply(m, point)
            n = p
            target = level_sets[i][0] if label[i] == "A" else level_sets[i][1]
            if not sp.contains(space, target, point):
                return False
    return True
