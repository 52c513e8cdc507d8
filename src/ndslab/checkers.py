"""Verdict engine: horizon-bounded witnessing and law-backed structural
refutation for the transitivity / mixing / sensitivity properties, over the
finite basis of the phase space.

Quantifiers over "all nonempty open sets" run over the basis at the given
resolution, so a witnessed verdict always means "witnessed up to basis
resolution r and horizon H" and says so in its evidence.  A refuted verdict
always carries a structural argument: a validated law plus the concrete open
sets it collides with, or an exact finite-space table law.  Anything else is
inconclusive with its exhausted bounds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, islice, product
from math import comb, gcd, isqrt, prod
from operator import and_

from . import hitting as ht
from . import maps as mp
from . import spaces as sp
from .record import record

WITNESSED = "witnessed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@record
class Param:
    """One property parameter: the PropertyKind field it sets, its default
    (None: the parameter is required) and its kind: an integer of at least
    `least`, or (integer False) a positive fraction."""

    field: str
    default: int | None = None
    least: int = 1
    integer: bool = True


@record
class PropertyKind:
    """A checkable property with its parameters.

    name is the kebab-case identifier also used by the NDSL check directive
    and the command line; PROPERTIES lists the parameters each name takes:
    order carries m / s bounds, delta the sensitivity constant, run_length
    the thick-sensitivity run requirement.  A parameter left None takes its
    default there; a bad name or parameter raises ValueError."""

    name: str
    order: int | None = None
    delta: Fraction | None = None
    run_length: int | None = None
    point: object | None = None

    def __post_init__(self):
        if self.name not in PROPERTIES:
            raise ValueError(f"unknown property {self.name!r}")
        params = PROPERTIES[self.name][1]
        for field in ("order", "delta", "run_length"):
            if getattr(self, field) is not None and field not in (p.field for p in params):
                raise ValueError(f"{self.name} takes no {field}")
        for p in params:
            label = p.field.replace("_", " ")
            value = getattr(self, p.field)
            if value is None:
                if p.default is None:
                    raise ValueError(f"{self.name} needs a {label}")
                value = p.default
            value = Fraction(value)
            if p.integer and (value.denominator != 1 or value < p.least):
                raise ValueError(
                    f"{self.name} needs an integer {label} of at least {p.least}, got {value}"
                )
            if value <= 0:
                raise ValueError(f"{self.name} needs a positive {label}, got {value}")
            object.__setattr__(self, p.field, int(value) if p.integer else value)

    def render(self) -> str:
        """The form ndsl.read_property reads back: the name, then a colon and
        the parameters in PROPERTIES order; the first is always written, a
        later one only when it differs from its default."""
        params = PROPERTIES[self.name][1]
        values = [getattr(self, p.field) for p in params]
        while len(values) > 1 and values[-1] == params[len(values) - 1].default:
            values.pop()
        return self.name + (":" + ",".join(map(str, values)) if values else "")


@record
class Verdict:
    property: str
    status: str
    config: dict
    evidence: dict
    caveats: tuple = ()

    @property
    def witnessed(self) -> bool:
        return self.status == WITNESSED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


# ---------------------------------------------------------------------------
# shared machinery


_MASK_CACHE: dict = {}
_LAW_CACHE: dict = {}


class scoped_caches:
    """`with scoped_caches():` scopes the pair masks and laws checks share to
    the block: it empties _MASK_CACHE and _LAW_CACHE on entry and on exit,
    so a process keeps none of them between blocks.  cli.main runs each
    command in one."""

    def __enter__(self):
        _MASK_CACHE.clear()
        _LAW_CACHE.clear()

    def __exit__(self, *exc_info):
        self.__enter__()


def system_laws(spec: mp.SystemSpec, law_horizon: int) -> mp.SystemLaws:
    """The laws of `spec` at `law_horizon`, derived once and shared by every
    check in a `scoped_caches` block."""
    if (spec, law_horizon) not in _LAW_CACHE:
        _LAW_CACHE[spec, law_horizon] = mp.derive_laws(spec, law_horizon)
    return _LAW_CACHE[spec, law_horizon]


def _pair_masks(spec: mp.SystemSpec, resolution: int, horizon: int):
    """(basis, masks): masks[i * len(basis) + j] is the bitmask of N(B_i, B_j)
    within [1, horizon] (bit n for member n), the row-major list of
    hitting.pair_masks without its undecided times, kept for the checks of a
    scoped_caches block.  A verdict names index k as the pair divmod(k, len(basis))."""
    key = (spec, resolution, horizon)
    if key not in _MASK_CACHE:
        basis = sp.enumerate_basis(spec.space, resolution)
        _MASK_CACHE[key] = basis, ht.pair_masks(spec, basis, basis, horizon)[0]
    return _MASK_CACHE[key]


def _sep_masks(spec: mp.SystemSpec, resolution: int, horizon: int, delta: Fraction):
    """(basis, mask): mask is the bitmask of N(B, delta) within [1, horizon]
    for every basis open B alike, since they share their image diameter
    under each prefix map, so hitting.separation_mask reads it off B0."""
    basis = sp.enumerate_basis(spec.space, resolution)
    return basis, ht.separation_mask(spec, basis[0], delta, horizon)


def _first_bit(mask: int) -> int | None:
    if mask == 0:
        return None
    return (mask & -mask).bit_length() - 1


def _label(basis, i: int) -> str:
    return f"B{i}:{ht._describe_open(basis[i])}"


def _reason_keys(spec, laws: mp.SystemLaws, r: int) -> tuple:
    """(key, reps): key(i, j) is what hitting.pair_reason reads of the basis
    pair (B_i, B_j), from the indices alone (None: it gives no reason), and
    reps maps each key to a pair that has it, or is None under a table law,
    which reads the pair itself.  An exponent law reads whether the opens
    differ (are disjoint), a product its factors' pairs (by index tuple)."""
    if laws.table is not None:
        return (lambda i, j: (i, j)), None
    if laws.exponent is not None:
        return (lambda i, j: i != j or None), {None: (0, 0), True: (0, 1)}
    if not laws.components:
        return (lambda i, j: None), {None: (0, 0)}
    keys, reps = zip(*(_reason_keys(p, p_laws, r) for p, p_laws in zip(spec.parts, laws.components)))
    index = list(product(*(range(len(sp.enumerate_basis(p.space, r))) for p in spec.parts)))
    place = {sides: i for i, sides in enumerate(index)}

    def key(i, j):
        sides = tuple(k(a, b) for k, a, b in zip(keys, index[i], index[j]))
        return sides if sides.count(None) < len(sides) else None

    if None in reps:
        return key, None
    pairs = (map(place.get, zip(*combo)) for combo in product(*(rep.values() for rep in reps)))
    return key, {key(i, j): (i, j) for i, j in pairs}


def _refute_pair(basis, i, j, reason, **extra) -> tuple:
    """Refuted, citing the pair (B_i, B_j) and the structural `reason`."""
    pair = [_label(basis, i), _label(basis, j)]
    return REFUTED, {**extra, "refuting_pair": pair, "structural": reason}, ()


def _refute_unhit(spec, laws, r, basis, pairs, grades=("never",)) -> tuple | None:
    """Refuted, citing the first of `pairs` that hitting.pair_reason has a
    reason of `grades` for; None when it has none.  Pairs of one key (see
    _reason_keys) share their reason, so each key is asked once: every
    listed key before the walk, which is skipped when none has a reason,
    or else each key the first time the walk meets it."""
    key, reps = _reason_keys(spec, laws, r)
    reasons = {}
    if reps is not None:
        reasons = {k: ht.pair_reason(spec, laws, basis[i], basis[j], i != j, grades)
                   for k, (i, j) in reps.items() if k is not None}
        if not any(reasons.values()):
            return None
    for i, j in pairs:
        k = key(i, j)
        if reps is None and k is not None and k not in reasons:
            reasons[k] = ht.pair_reason(spec, laws, basis[i], basis[j], i != j, grades)
        if reasons.get(k):
            return _refute_pair(basis, i, j, reasons[k][1])
    return None


def _refute_open(basis, idx, reason) -> tuple:
    """Refuted, citing the basis open B_idx and the structural reason."""
    return REFUTED, {"refuting_open": _label(basis, idx), "structural": reason}, ()


def _subset_search(masks, m: int, k: int = 1) -> tuple:
    """(failing, worst) over every m-subset of masks: failing is the first
    subset with fewer than k common members (worst is then None); otherwise
    worst is (t, subset) for the subset whose k-th common member t is the
    latest, or None when there is no m-subset.

    AND is idempotent and commutative, so a subset's verdict depends only on
    its set of distinct mask values: each such set is decided once (its
    k-th common member, or None when it has fewer than k), and the scan
    keeps combinations order for the first failing and first worst."""
    values = list(dict.fromkeys(masks))
    index = {mask: i for i, mask in enumerate(values)}
    ids = [index[mask] for mask in masks]
    decided = {}
    worst = None
    for subset in combinations(range(len(masks)), m):
        key = frozenset(ids[idx] for idx in subset)
        t = decided.get(key, False)
        if t is False:
            inter = reduce(and_, (values[i] for i in key), -1)
            t = decided[key] = _nth_bit(inter, k) if inter.bit_count() >= k else None
        if t is None:
            return subset, None
        if worst is None or t > worst[0]:
            worst = (t, subset)
    return None, worst


def _pair_labels(n: int):
    """The labels "i->j" of the pairs of n basis opens, in row-major order,
    lazily: each row puts its "i->" before the one column of "j"s."""
    column = [*map(str, range(n))]
    return chain.from_iterable(map(f"{i}->".__add__, column) for i in range(n))


def _pair_table(n: int, masks, value: dict) -> dict:
    """{"i->j": value[mask]} over masks, the row-major pair masks of n basis
    opens; value holds one entry per distinct mask, since pairs share masks."""
    return dict(zip(_pair_labels(n), map(value.__getitem__, masks)))


def _witness_entries(n: int, masks) -> dict:
    """The first member of every pair, which must be hit, keyed "i->j"."""
    return _pair_table(n, masks, {mask: _first_bit(mask) for mask in set(masks)})


def _quantifier_note(resolution: int, horizon: int) -> str:
    return f"quantifiers finitized over the basis at resolution {resolution}, horizon {horizon}"


# ---------------------------------------------------------------------------
# the checker


# the sizes of a check when neither a flag nor a directive sets them
DEFAULT_BASIS, DEFAULT_HORIZON, DEFAULT_LAW_HORIZON = 2, 512, 2048


def check_property(
    spec: mp.SystemSpec,
    prop: PropertyKind,
    basis_resolution: int = DEFAULT_BASIS,
    horizon: int = DEFAULT_HORIZON,
    law_horizon: int = DEFAULT_LAW_HORIZON,
) -> Verdict:
    """Machine-checked verdict for one property of one system, reading the
    system's laws at `law_horizon` (system_laws).  The checker of the
    property (PROPERTIES) returns (status, evidence, caveats); the verdict
    adds the property's rendering and the configuration."""
    if basis_resolution < 1 or horizon < 1:
        raise ValueError("basis resolution and horizon must be positive")
    laws = system_laws(spec, law_horizon)
    status, evidence, caveats = PROPERTIES[prop.name][0](spec, prop, basis_resolution, horizon, laws)
    cfg = {"basis": basis_resolution, "horizon": horizon, "law_horizon": law_horizon}
    return Verdict(prop.render(), status, cfg, evidence, caveats)


def _check_transitive(spec, prop, r, H, laws) -> tuple:
    basis, masks = _pair_masks(spec, r, H)
    if 0 not in masks:
        entries = _witness_entries(len(basis), masks)
        return WITNESSED, {
            "witness_times": entries,
            "latest_first_hit": max(entries.values()),
            "pairs_checked": len(masks),
        }, (_quantifier_note(r, H),)
    empty = [divmod(k, len(basis)) for k, mask in enumerate(masks) if not mask]
    return _refute_unhit(spec, laws, r, basis, empty) or (
        INCONCLUSIVE,
        {"unhit_pairs": [f"{i}->{j}" for i, j in empty[:8]], "unhit_count": len(empty)},
        ("horizon exhausted without a structural refutation",),
    )


def _check_weakly_mixing(spec, prop, r, H, laws) -> tuple:
    basis, masks = _pair_masks(spec, r, H)
    n = len(basis)
    if 0 in masks:
        unhit = [divmod(k, n) for k, mask in enumerate(masks) if not mask]
        return _refute_unhit(spec, laws, r, basis, unhit) or (
            INCONCLUSIVE,
            {"unhit_pair": "%d->%d" % unhit[0]},
            ("a single pair already fails transitivity at this horizon",),
        )
    common = reduce(and_, masks)
    if common:
        return WITNESSED, {
            "common_time_all_pairs": _first_bit(common),
            "pairs_checked": len(masks),
            "per_pair_first_hit": _witness_entries(n, masks),
        }, (_quantifier_note(r, H),)
    # no single universal time: every m-subset of pairs must share one (with
    # fewer than m pairs, the m-tuples repeat pairs: the largest is them all)
    m = min(prop.order, len(masks))
    if comb(len(masks), m) > 2_000_000:
        return (
            INCONCLUSIVE,
            {"note": "tuple space too large without a universal common time"},
            ("lower the basis resolution or widen the horizon",),
        )
    failing, worst = _subset_search(masks, m)
    if failing:
        return (
            INCONCLUSIVE,
            {"failing_tuple": [str(divmod(idx, n)) for idx in failing]},
            ("no common time within the horizon; no structural refutation found",),
        )
    return WITNESSED, {
        "latest_common_time": worst[0],
        "worst_tuple": [str(divmod(idx, n)) for idx in worst[1]],
        "tuples_checked": "all size-%d pair subsets" % m,
    }, (_quantifier_note(r, H),)


def _check_mixing(spec, prop, r, H, laws) -> tuple:
    basis, masks = _pair_masks(spec, r, H)
    n = len(basis)
    # the tail start depends on the mask alone, and pairs share masks
    tail_of = {mask: ht._tail_start(mask, H) for mask in set(masks)}
    tailless = [divmod(k, n) for k, mask in enumerate(masks) if tail_of[mask] is None]
    # a law's claim on any pair refutes, whatever the tails seen within the
    # horizon: every pair is asked, the tail-less ones first
    refuted = _refute_unhit(spec, laws, r, basis, chain(tailless, product(range(n), range(n))), ht.GRADES)
    if refuted or tailless:
        return refuted or (
            INCONCLUSIVE,
            {"pair_without_tail": "%d->%d" % tailless[0]},
            ("no cofinite tail within the horizon",),
        )
    tails = _pair_table(n, masks, tail_of)
    return (
        WITNESSED,
        {"tail_start_per_pair": tails, "latest_tail_start": max(tails.values())},
        (_quantifier_note(r, H), "cofinite tails are horizon-censored evidence, not proofs"),
    )


def _check_mildly_mixing(spec, prop, r, H, laws) -> tuple:
    status, evidence, caveats = _check_mixing(spec, prop, r, H, laws)
    if not sp.has_isolated_points(spec.space):
        note = "decided via the equivalence with mixing on spaces without isolated points"
        return status, evidence, caveats + (note,)
    if status == REFUTED:
        return REFUTED, evidence, caveats + ("not mixing, and mildly mixing always implies mixing",)
    return (
        INCONCLUSIVE,
        {"mixing_status": status},
        ("space has isolated points: only the necessity direction applies",),
    )


def _check_totally_transitive(spec, prop, r, H, laws) -> tuple:
    status, evidence, _ = _check_transitive(spec, prop, r, H, laws)
    if status != WITNESSED:
        return status, {"iterate_order": 1, "inner": evidence}, ()
    # iterate s at time n is the base at time s*n, so its mask is the stride-s slice of the
    # base's (see _slot), read over max(1, H // s) times; no law is read for the iterate
    # (a shift or circle iterate has one), so an unhit pair leaves it inconclusive
    basis, masks = _pair_masks(spec, r, max(H, prop.order))
    digits = {mask: bin(mask)[:1:-1] for mask in set(masks)}
    for s in range(2, prop.order + 1):
        stop = s * max(1, H // s) + 1
        unhit = {mask for mask, bits in digits.items() if "1" not in bits[s:stop:s]}
        if unhit:
            empty = [label for label, mask in zip(_pair_labels(len(basis)), masks) if mask in unhit]
            inner = {"unhit_pairs": empty[:8], "unhit_count": len(empty)}
            return INCONCLUSIVE, {"iterate_order": s, "inner": inner}, ()
    statuses = dict.fromkeys(map(str, range(1, prop.order + 1)), WITNESSED)
    return WITNESSED, {"iterates_checked": prop.order, "statuses": statuses}, (_quantifier_note(r, H),)


def _cover_space(space, opens) -> bool:
    """Exact: does the union of these basic opens cover the space?  Covers
    exist for finite spaces, the circle and products of finite spaces (the
    shift never gets here: _check_strongly_transitive refutes it first)."""
    if isinstance(space, sp.FiniteSpace):
        return len(set().union(*(o.ids for o in opens))) == space.point_count
    if isinstance(space, sp.CircleSpace):
        return _cover_circle(space, opens)
    if _finite_product(space):
        points = set().union(*(product(*(part.ids for part in o.parts)) for o in opens))
        return len(points) == prod(part.point_count for part in space.parts)
    raise sp.SpaceMismatch(f"no cover check for {space!r}")


def _finite_product(space) -> bool:
    return isinstance(space, sp.ProductSpace) and all(
        isinstance(part, sp.FiniteSpace) for part in space.parts
    )


def _cover_circle(space, arcs) -> bool:
    """Greedy sweep with exact endpoint comparisons.  Arcs are open, so the
    cover must chain with strict overlaps; the first arc's start endpoint
    needs another arc strictly around it."""
    spans = [sp._span_of(space, a) for a in arcs]
    base = spans[0][0]
    rel = []
    for s, l in spans:
        w = (s - base).wrap()
        rel.append((w, w + l))
        rel.append((w - 1, w + l - 1))  # the same arc reached across the wrap
    covered_to = None
    for lo, hi in rel:
        if sp.value_cmp(lo, 0) < 0 and sp.value_cmp(hi, 0) > 0:
            if covered_to is None or sp.value_cmp(hi, covered_to) > 0:
                covered_to = hi
    if covered_to is None:
        return False
    progress = True
    while progress and sp.value_cmp(covered_to, 1) < 0:
        progress = False
        for lo, hi in rel:
            if sp.value_cmp(lo, covered_to) < 0 and sp.value_cmp(hi, covered_to) > 0:
                covered_to = hi
                progress = True
    return sp.value_cmp(covered_to, 1) >= 0


def _check_strongly_transitive(spec, prop, r, H, laws) -> tuple:
    space = spec.space
    if isinstance(space, sp.ProductSpace) and not _finite_product(space):
        return INCONCLUSIVE, {}, ("no exact cover check for products with a shift or circle factor",)
    if isinstance(space, sp.ShiftSpace):
        # shifted copies of B0's all-0 word miss the constant-1 point (every alphabet has a 1);
        # B0 is the one open cited, so the other a^(2r+1) - 1 are not built
        return _refute_open([sp.Cylinder(-r, (0,) * (2 * r + 1))], 0, (
            "prefix maps are shift powers, so every image is the same word "
            "re-anchored; the constant-1 point avoids each image, whatever the cover length"
        ))
    basis = sp.enumerate_basis(space, r)
    classes = ht.prefix_classes(spec, H)
    covers = {}
    for idx, U in enumerate(basis):
        # the images of U grow only at a class's first time, so the first
        # covering time is the first time of the class that completes a cover
        found = None
        images = []
        for m, times in classes.items():
            images.append(mp.image(m, U))
            try:
                covered = _cover_space(space, images)
            except sp.EnclosureUndecided:
                alpha = space.alpha
                return (
                    INCONCLUSIVE,
                    {"undecided_open": _label(basis, idx), "undecided_time": _first_bit(times)},
                    (f"the declared angle enclosure alpha({alpha.center} +- {alpha.halfwidth}) "
                     "is too wide to decide whether the images cover the circle",),
                )
            if covered:
                found = _first_bit(times)
                break
        if found is None:
            if laws.table is not None:
                all_img = laws.table.reach(U.ids)
                if len(all_img) < space.point_count:
                    return _refute_open(basis, idx, (
                        f"union over every reachable prefix table only reaches "
                        f"{sorted(all_img)}; " + laws.table.describe()
                    ))
            return (
                INCONCLUSIVE,
                {"uncovered_open": _label(basis, idx)},
                ("no cover bound within the horizon",),
            )
        covers[str(idx)] = found
    return (
        WITNESSED,
        {"cover_bound_per_open": covers, "cover_bound": max(covers.values())},
        (_quantifier_note(r, H),),
    )


def _check_multi_transitive(spec, prop, r, H, laws) -> tuple:
    basis, masks = _pair_masks(spec, r, prop.order * H)
    common = reduce(and_, masks)
    law = laws.exponent
    # distinct basis opens are disjoint
    pair = (0, 1) if law is not None and len(basis) > 1 else None
    universal = -1
    per_m = {}
    for m in range(1, prop.order + 1):
        # structural refutation: slot m has identically-zero exponents on the
        # multiples of m, and a disjoint pair can sit in that slot; a lower
        # order already tested every smaller slot
        if pair is not None and law.zero_on_residue(m, 0):
            reason = (
                f"prefix exponent is 0 at every multiple of {m}, so slot {m} "
                "never connects disjoint sets: " + law.describe()
            )
            return _refute_pair(basis, *pair, reason, order=m, slot=m)
        universal &= _slot(common, m, H)
        if universal:
            per_m[str(m)] = _first_bit(universal)
            continue
        # multi-transitivity implies transitivity: a pair that slot 1 never
        # hits refutes both
        unhit = [divmod(k, len(basis)) for k, mask in enumerate(masks) if not mask & ((2 << H) - 2)]
        return _refute_unhit(spec, laws, r, basis, unhit) or (
            INCONCLUSIVE,
            {"order": m, "note": "no universal common l within the horizon"},
            ("per-tuple search not exhausted; widen the horizon",),
        )
    return (
        WITNESSED,
        {"witness_l_per_order": per_m, "largest_witness_l": max(per_m.values())},
        (_quantifier_note(r, H), "witness l is simultaneously valid for every basis tuple"),
    )


def _slot(common: int, j: int, H: int) -> int:
    """Bitmask of the l in [1, H] with j*l in `common`: the stride-j slice of
    its bits, read off the binary digits lowest first."""
    digits = bin(common)[:1:-1][j::j][:H]
    return int(digits[::-1] or "0", 2) << 1


def _universal_l(masks, m: int, H: int) -> int:
    """Bitmask of the l in [1, H] such that j*l is a member of every mask for
    every j <= m: one l that works for every tuple simultaneously.  Bitwise
    extraction commutes with intersection, so the masks are intersected
    first."""
    common = reduce(and_, masks)
    return reduce(and_, (_slot(common, j, H) for j in range(1, m + 1)))


def _check_syndetically_transitive(spec, prop, r, H, laws) -> tuple:
    basis, masks = _pair_masks(spec, r, H)
    n = len(basis)
    # a set that is empty, finite or sparse has unbounded gaps
    refuted = _refute_unhit(spec, laws, r, basis, product(range(n), range(n)), ht.GRADES[:3])
    if refuted or 0 in masks:
        note = "a pair never hit within the horizon"
        return refuted or (INCONCLUSIVE, {"unhit_pair": "%d->%d" % divmod(masks.index(0), n)}, (note,))
    # the gap statistics depend on the mask alone, and pairs share masks
    freq = {mask: ht._frequency(mask, H)[:2] for mask in set(masks)}
    gaps, eventuals = zip(*freq.values())
    return WITNESSED, {
        "max_gap": max(gaps),
        "eventual_max_gap": max(eventuals),
        "pairs_checked": len(masks),
        "per_pair": {
            label: {"max_gap": freq[mask][0], "eventual_max_gap": freq[mask][1]}
            for label, mask in islice(zip(_pair_labels(n), masks), 16)
        },
    }, (_quantifier_note(r, H), "gaps at the horizon edge are censored lower bounds")


def _representatives(space) -> list:
    """The points whose orbits `minimal` reads: on a product, every
    combination of the parts' (every point of a product of finite spaces)."""
    if isinstance(space, sp.FiniteSpace):
        return [sp.FiniteId(i) for i in range(1, space.point_count + 1)]
    if isinstance(space, sp.ShiftSpace):
        return [sp.all_zeros(), sp.all_ones(), _champernowne_window(5)]
    if isinstance(space, sp.CircleSpace):
        return [sp.AffineAngle(Fraction(0), 0)]
    if isinstance(space, sp.ProductSpace):
        return [sp.ProductPoint(point) for point in product(*map(_representatives, space.parts))]
    raise sp.SpaceMismatch(f"no representatives for {space!r}")


def _champernowne_window(max_len: int) -> sp.BiWord:
    cells = []
    for length in range(1, max_len + 1):
        for code in range(1 << length):
            cells.extend((code >> (length - 1 - b)) & 1 for b in range(length))
    return sp.BiWord(0, tuple(cells), (0,), (0,))


def _first_visits(spec, x, basis, classes: dict) -> dict:
    """{i: the first n with f_1^n(x) in B_i} over the opens the orbit visits
    within the horizon of `classes`, the prefix classes; f_1^0 is the
    identity.  The classes come in order of their first time, so the first
    class whose image of x lies in B_i gives the first visit.  Each image
    lies in at most one basis open, read off the point (spaces.basis_reader);
    an undecided membership counts as no visit."""
    read = sp.basis_reader(spec.space, basis)
    hit_at = {}
    images = ((mp.apply(m, x), _first_bit(times)) for m, times in classes.items())
    for point, n in chain([(x, 0)], images):
        i = read(point)
        if i is not None and i not in hit_at:
            hit_at[i] = n
            if len(hit_at) == len(basis):
                break
    return hit_at


def _check_minimal(spec, prop, r, H, laws) -> tuple:
    space = spec.space
    basis = sp.enumerate_basis(space, r)
    reps = _representatives(space)
    exact = isinstance(space, sp.FiniteSpace) and laws.table is not None
    per_rep = {}
    # every representative's orbit reads the same prefix classes
    classes = None if exact else ht.prefix_classes(spec, H)
    for idx, x in enumerate(reps):
        if exact:
            tab = laws.table
            # a loop whose values fill the space makes each orbit through it
            # dense: only a point on a shorter loop needs its own orbit
            if tab.loop_size(x.index) < space.point_count:
                orbit = {x.index} | tab.reach({x.index})
                if len(orbit) < space.point_count:
                    return REFUTED, {
                        "point": repr(x),
                        "structural": (
                            f"exact orbit {sorted(orbit)} over every prefix table misses "
                            f"part of the space; " + tab.describe()
                        ),
                    }, ()
            per_rep[f"point-{idx}"] = "dense (exact)"
            continue
        hit_at = _first_visits(spec, x, basis, classes)
        if len(hit_at) == len(basis):
            per_rep[f"point-{idx}"] = max(hit_at.values())
            continue
        missed = next(i for i in range(len(basis)) if i not in hit_at)
        # a fixed point of every prefix has a one-point orbit, exactly
        fixed = _is_prefix_invariant(spec, laws, x)
        evidence = {"point": repr(x), "missed_open": _label(basis, missed)}
        if fixed and not sp.contains(space, basis[missed], x):
            return REFUTED, {**evidence, "structural": fixed}, ()
        return INCONCLUSIVE, evidence, ("orbit did not reach every basis element within the horizon",)
    caveat = () if exact else ("minimality checked on representative points only",)
    return (
        WITNESSED,
        {"per_representative": per_rep, "representatives": len(reps)},
        (_quantifier_note(r, H),) + caveat,
    )


def _is_prefix_invariant(spec, laws, x) -> str | None:
    space = spec.space
    if isinstance(space, sp.ShiftSpace) and isinstance(x, sp.BiWord):
        if x.shifted(1) == x:
            return "the point is shift-invariant and every prefix map is a shift power"
    law = laws.exponent
    if law is not None and law.is_identity():
        return "every prefix map is the identity: " + law.describe()
    return None


def _check_feeble_open(spec, prop, r, H, laws) -> tuple:
    space = spec.space
    if isinstance(space, (sp.ShiftSpace, sp.CircleSpace)):
        detail = "shift powers and rotations are homeomorphisms"
    elif isinstance(space, sp.FiniteSpace):
        detail = "finite spaces are discrete: nonempty images are open"
    else:
        detail = "componentwise: each factor map is feeble open"
    return WITNESSED, {"structural": detail}, ()


def _check_dense_periodic(spec, prop, r, H, laws) -> tuple:
    space = spec.space
    basis = sp.enumerate_basis(space, r)
    law = laws.exponent
    if law is not None:
        for k in (2, 3, 4):
            if law.zero_on_residue(k, 0):
                return WITNESSED, {
                    "period": k,
                    "structural": (
                        f"the prefix exponent vanishes on every multiple of {k}, "
                        f"so every point is {k}-periodic; any interior point "
                        "witnesses each basis element: " + law.describe()
                    ),
                }, ()
    if isinstance(space, sp.ShiftSpace):
        # every basis word has length k = 2r + 1, so one certificate serves
        # every open: the periodic extension of its word is k-periodic
        if not _certify_periodicity(law):
            return (
                INCONCLUSIVE,
                {"open_without_witness": _label(basis, 0)},
                ("no periodic witness certified inside this basis element",),
            )
        return WITNESSED, {
            "period_per_open": dict.fromkeys(map(str, range(len(basis))), 2 * r + 1),
            "structural": (
                "the periodic extension of each basis word is fixed by every prefix "
                "whose net exponent is a multiple of the word length: "
                + (law.describe() if law else "")
            ),
        }, (_quantifier_note(r, H),)
    if isinstance(space, sp.FiniteSpace) and laws.table is not None:
        tab = laws.table
        witnesses = {}
        for idx, U in enumerate(basis):
            k_found = _finite_period(tab, min(U.ids))
            if k_found is None:
                return INCONCLUSIVE, {"open_without_witness": _label(basis, idx)}, ()
            witnesses[str(idx)] = k_found
        return WITNESSED, {"period_per_open": witnesses, "structural": "exact table-law periodicity"}, ()
    return INCONCLUSIVE, {}, ("no periodicity argument available",)


def _certify_periodicity(law) -> bool:
    """Certify that the prefix exponent E(kn) is a multiple of k for every
    k and n, so the periodic extension of a word of any length k is a
    k-periodic point: every piece is zero or the constant-sequence
    catch-all E(n) = a*n, whose E(kn) = a*k*n."""
    return law is not None and all(
        piece.is_zero() or piece.pattern == mp.ArithProgPattern(1, 1) and piece.constant == 0
        for piece in law.pieces
    )


def _finite_period(tab: mp.TableLaw, x: int) -> int | None:
    """The least k with T(k)(x) = T(2k)(x) = ... = x, or None.  Past `start`
    the visits of x repeat with a period l, and the multiples of k past it
    fall on every residue mod l that is a multiple of g = gcd(k, l), so
    whether they all visit x depends on g alone.  A k up to start must be a
    visit whose multiples up to start are visits too; past start the least
    k is the least multiple of a divisor g of l that works."""
    pre, start, loop, l = tab.visits(x, {x})
    hits, works = set(pre), {}

    def on_loop(g):  # every multiple of g past start visits x
        if g not in works:
            works[g] = all((r - start) % l in loop for r in range(0, l, g))
        return works[g]

    for k in pre:
        if on_loop(gcd(k, l)) and all(n in hits for n in range(k, start + 1, k)):
            return k
    divisors = [g for d in range(1, isqrt(l) + 1) if l % d == 0 for g in (d, l // d)]
    return min(((start // g + 1) * g for g in divisors if on_loop(g)), default=None)


def _check_almost_periodic(spec, prop, r, H, laws) -> tuple:
    x = prop.point if prop.point is not None else _representatives(spec.space)[0]
    space = spec.space
    images = [(mp.apply(m, x), times) for m, times in ht.prefix_classes(spec, H).items()]
    out = {}
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        returns = 0
        for point, times in images:
            try:
                if sp.value_cmp(sp.distance(space, point, x), eps) < 0:
                    returns |= times
            except sp.EnclosureUndecided:
                pass  # an undecided return test counts as no return at n
        if not returns:
            return INCONCLUSIVE, {"epsilon": str(eps)}, ("no return times within the horizon",)
        out[str(eps)] = {"max_gap": ht._frequency(returns, H)[0], "returns": returns.bit_count()}
    return WITNESSED, {"per_epsilon": out}, ("finite-horizon return-gap evidence only",)


_SENSITIVE_NOTES = {
    "sensitive": "some pair separates past delta for every basis open",
    "syndetically-sensitive": "separation sets have the reported gap bounds within the horizon",
    "thickly-sensitive": "runs of length >= {} found for every basis open",
}


def _check_sensitive(spec, prop, r, H, laws) -> tuple:
    """Sensitive, syndetically, thickly and multi-sensitive: every basis
    open must separate past delta.  The opens share one separation mask and
    one diameter (see _sep_masks), so B0 decides for the whole basis: the
    first three read its separation set and cite it for every open,
    multi-sensitive reports its first time, which separates them all."""
    delta = Fraction(prop.delta)
    multi = prop.name == "multi-sensitive"
    if delta >= sp.space_diameter(spec.space):
        return (
            REFUTED,
            {"structural": f"delta {delta} is at least the space diameter"},
            () if multi else ("trivial refutation: no pair can ever separate that far",),
        )
    basis, mask = _sep_masks(spec, r, H, delta)
    grade, detail = ht.separation_reason(spec, laws, basis[0], delta) or (None, "")
    if grade == "never":
        return _refute_open(basis, 0, detail)
    if mask == 0:
        return (
            INCONCLUSIVE,
            {"silent_open": _label(basis, 0)},
            () if multi else ("no separation witnessed within the horizon",),
        )
    if multi:
        return WITNESSED, {
            "common_separation_time": _first_bit(mask),
            "orders_checked": prop.order,
            "note": "one time separates every basis open past delta",
        }, (_quantifier_note(r, H),)
    if prop.name == "sensitive":
        entry = {"first": _first_bit(mask)}
    elif prop.name == "syndetically-sensitive":
        max_gap, eventual, _, _ = ht._frequency(mask, H)
        entry = {"max_gap": max_gap, "eventual_max_gap": eventual}
    else:
        if grade == "excluded-residue":
            return _refute_open(basis, 0, (
                "separation times avoid a whole residue class, so runs never "
                "reach length 2: " + detail
            ))
        longest_run = ht._frequency(mask, H)[2]
        if longest_run < prop.run_length:
            return (
                INCONCLUSIVE,
                {"open": _label(basis, 0), "longest_run": longest_run},
                (f"no run of length {prop.run_length} within the horizon",),
            )
        entry = {"longest_run": longest_run}
    return WITNESSED, {
        "per_open": dict.fromkeys(map(str, range(len(basis))), entry),
        "note": _SENSITIVE_NOTES[prop.name].format(prop.run_length),
    }, (_quantifier_note(r, H),)


def _check_surjective(spec, prop, r, H, laws) -> tuple:
    if mp.spec_is_surjective_structurally(spec):
        detail = "every rule term is surjective (shift powers, rotations, bijective tables)"
        return WITNESSED, {"structural": detail}, ()
    for i in range(1, H + 1):
        m = mp.step_normal(spec, i)
        if isinstance(m, mp.FiniteFnTerm) and not m.surjective:
            return REFUTED, {"index": i, "table": list(m.table)}, ()
        if isinstance(m, mp.ProductMap) and any(
            isinstance(p, mp.FiniteFnTerm) and not p.surjective for p in m.parts
        ):
            return REFUTED, {"index": i}, ()
    return INCONCLUSIVE, {}, ("all step maps surjective up to the horizon, but no structural argument",)


_DELTA = Param("delta", integer=False)

# every property: its checker and its parameters in the order a rendering
# (`name:p1,p2`) lists them
PROPERTIES = {
    "transitive": (_check_transitive, ()),
    "weakly-mixing": (_check_weakly_mixing, (Param("order", 2, least=2),)),
    "mixing": (_check_mixing, ()),
    "mildly-mixing": (_check_mildly_mixing, ()),
    "totally-transitive": (_check_totally_transitive, (Param("order", 3),)),
    "strongly-transitive": (_check_strongly_transitive, ()),
    "multi-transitive": (_check_multi_transitive, (Param("order", 2),)),
    "syndetically-transitive": (_check_syndetically_transitive, ()),
    "minimal": (_check_minimal, ()),
    "feeble-open": (_check_feeble_open, ()),
    "dense-periodic-points": (_check_dense_periodic, ()),
    "almost-periodic-point": (_check_almost_periodic, ()),
    "sensitive": (_check_sensitive, (_DELTA,)),
    "syndetically-sensitive": (_check_sensitive, (_DELTA,)),
    "thickly-sensitive": (_check_sensitive, (_DELTA, Param("run_length", 3))),
    "multi-sensitive": (_check_sensitive, (_DELTA, Param("order", 3))),
    "surjective-sequence": (_check_surjective, ()),
}


# ---------------------------------------------------------------------------
# the mixing-gap adversary


def build_gap_adversary(miss_times, law_horizon: int = 1024):
    """Given strictly increasing miss times with consecutive differences > 2,
    build the shift system applying the n_k-th shift power exactly at index
    n_k and undoing it at n_k + 1, so its prefix exponent is n_k at n = n_k
    and 0 everywhere else.  Returns (spec, validated law)."""
    miss = list(miss_times)
    if any(b - a <= 2 for a, b in zip(miss, miss[1:])):
        raise ValueError("consecutive miss times must differ by more than 2")
    if any(n < 1 for n in miss):
        raise ValueError("miss times must be positive")
    rules = []
    for n in miss:
        rules.append(mp.Rule(mp.EqualsPattern(n), mp.ShiftPowTerm(n)))
        rules.append(mp.Rule(mp.EqualsPattern(n + 1), mp.ShiftPowTerm(-n)))
    spec = mp.NdsSpec(sp.ShiftSpace(), tuple(rules), name="gap-adversary")
    horizon = max(law_horizon, (miss[-1] + 2) if miss else 1)
    law = mp.derive_exponent_law(spec, horizon)
    if law is None:
        raise mp.LawValidationError("adversary law derivation unexpectedly failed")
    return spec, law


# ---------------------------------------------------------------------------
# consistency of infinite common-hitting claims


@record
class ConsistencyReport:
    ok: bool
    members_required: int
    kth_common_time: int | None
    detail: str


def hitting_infinity_consistency(
    spec: mp.SystemSpec,
    prop: PropertyKind,
    basis_resolution: int,
    horizon: int,
    members_required: int,
) -> ConsistencyReport:
    """For a system already witnessed for the property, confirm the common
    hitting sets keep producing members: at least `members_required` inside
    the (extended) horizon, reporting the k-th common time."""
    verdict = check_property(spec, prop, basis_resolution, horizon)
    if verdict.status != WITNESSED:
        return ConsistencyReport(
            False, members_required, None,
            f"precondition failed: property is {verdict.status} at this configuration",
        )
    if prop.name == "weakly-mixing":
        basis, masks = _pair_masks(spec, basis_resolution, horizon)
        failing, worst = _subset_search(masks, 2, members_required)
        if failing:
            a, b = failing
            count = (masks[a] & masks[b]).bit_count()
            n = len(basis)
            return ConsistencyReport(
                False, members_required, None,
                f"tuple ({divmod(a, n)}, {divmod(b, n)}) has only {count} common times",
            )
        return ConsistencyReport(
            True, members_required, worst and worst[0],
            "every pair tuple reaches the required count; worst k-th common time reported",
        )
    if prop.name == "multi-transitive":
        _, masks = _pair_masks(spec, basis_resolution, prop.order * horizon)
        universal = _universal_l(masks, prop.order, horizon)
        count = universal.bit_count()
        if count < members_required:
            return ConsistencyReport(
                False, members_required, None,
                f"universal common-l set has only {count} members within the horizon",
            )
        return ConsistencyReport(
            True, members_required, _nth_bit(universal, members_required),
            "the universal common-l set lower-bounds every tuple's set",
        )
    raise ValueError("consistency checks cover weakly-mixing and multi-transitive")


def _nth_bit(mask: int, n: int) -> int:
    if mask.bit_count() < n:
        raise ValueError("mask has fewer set bits than requested")
    for _ in range(n - 1):
        mask &= mask - 1
    return _first_bit(mask)


# ---------------------------------------------------------------------------
# evidence re-checking


def recheck_verdict(spec: mp.SystemSpec, verdict: Verdict) -> bool:
    """Independently re-check a verdict's evidence: re-run the exact
    membership test behind each witness entry, re-derive cited laws (afresh,
    never from system_laws, validating index by index; a decided verdict must
    cite the describe() of a law of the system or a factor), and re-check cited
    open-set conflicts.  A cited pair must bear out its reason up to the
    horizon (see _pair_claim_holds), and a transitive or weakly-mixing
    refutation must cite one; a minimal refutation must cite a
    representative point whose folded orbit misses (see _orbit_misses).
    Returns False on the first discrepancy."""
    r = verdict.config["basis"]
    H = verdict.config["horizon"]
    basis = sp.enumerate_basis(spec.space, r)
    ev = verdict.evidence
    text = str(ev)
    if verdict.status != INCONCLUSIVE and "validated to" in text:
        laws = mp.derive_laws(spec, verdict.config["law_horizon"]).exponent_laws()
        if not any(law.describe() in text for law in laws):
            return False
    if verdict.status == WITNESSED:
        for key, n in ev.get("witness_times", {}).items():
            i, j = (int(p) for p in key.split("->"))
            m = mp.prefix_compose(spec, n)
            try:
                if not sp.intersects(spec.space, mp.image(m, basis[i]), basis[j]):
                    return False
            except sp.EnclosureUndecided:
                return False
        for key, t in ev.get("tail_start_per_pair", {}).items():
            i, j = (int(p) for p in key.split("->"))
            for n in {t, min(t + 1, H), H}:
                m = mp.prefix_compose(spec, n)
                if not sp.intersects(spec.space, mp.image(m, basis[i]), basis[j]):
                    return False
        for m_str, l in ev.get("witness_l_per_order", {}).items():
            if not all(_all_pairs_meet(spec, basis, j * l) for j in range(1, int(m_str) + 1)):
                return False
        if "common_time_all_pairs" in ev:
            return _all_pairs_meet(spec, basis, ev["common_time_all_pairs"])
        return True
    if verdict.status == REFUTED:
        kind = verdict.property.split(":")[0]
        pair = ev.get("refuting_pair")
        if kind in ("transitive", "weakly-mixing") and not pair:
            return False
        if pair and not _pair_claim_holds(spec, basis, kind, pair, ev.get("structural", ""), H):
            return False
        if kind == "minimal":
            return _orbit_misses(spec, basis, ev, H)
        return True
    return True  # inconclusive verdicts claim nothing to re-check


# the openings of hitting.pair_reason's "never" reasons
_NEVER = ("every prefix is the identity", "no reachable prefix table", "parity coverage")


def _pair_claim_holds(spec, basis, kind: str, pair, reason: str, H: int) -> bool:
    """Does the cited pair (U, V) bear out `reason` up to the horizon?  U and
    V must be disjoint where the reason says so, and the step fold may hit
    them only where the reason allows: never for a "never" reason or a
    transitive or weakly-mixing refutation, only at the listed indices of a
    finite support, and not on an excluded residue or slot multiple."""
    U, V = (basis[_label_index(label)] for label in pair)
    if not reason or "disjoint" in reason and ht._meets(spec.space, U, V) is not False:
        return False
    hits = ht.brute_force_hitting(spec, U, V, H)
    if kind in ("transitive", "weakly-mixing") or any(phrase in reason for phrase in _NEVER):
        return not hits
    listed = re.search(r"only prefix indices \[([\d, ]*)\]", reason)
    if listed:
        return set(hits) <= set(map(int, re.findall(r"\d+", listed[1])))
    residue = re.search(r"n≡(\d+) \(mod (\d+)\)", reason)
    if residue:
        r, m = map(int, residue.groups())
        return all(n % m != r for n in hits)
    multiple = re.search(r"every multiple of (\d+)", reason)
    return not multiple or all(n % int(multiple[1]) for n in hits)


def _label_index(label: str) -> int:
    """i of a basis label B{i}:... (see _label)."""
    return int(label.split(":")[0][1:])


def _orbit_misses(spec, basis, ev, H: int) -> bool:
    """Does the orbit of the representative `point` cited in `ev`, folded
    one step map at a time to the horizon, stay out of the cited
    `missed_open`, or, when no open is cited, leave some point of the finite
    space unvisited?  False when `point` names no representative."""
    x = next((p for p in _representatives(spec.space) if repr(p) == ev.get("point")), None)
    if x is None:
        return False
    orbit = accumulate(range(1, H + 1), lambda y, n: mp.apply(mp.step_normal(spec, n), y), initial=x)
    if "missed_open" not in ev:
        return isinstance(spec.space, sp.FiniteSpace) and len(set(orbit)) < spec.space.point_count
    missed = basis[_label_index(ev["missed_open"])]
    try:
        return not any(sp.contains(spec.space, missed, y) for y in orbit)
    except sp.EnclosureUndecided:
        return False


def _all_pairs_meet(spec, basis, n: int) -> bool:
    """Does f_1^n(U) meet V for every pair of basis opens U, V?"""
    m = mp.prefix_compose(spec, n)
    return all(sp.intersects(spec.space, mp.image(m, U), V) for U in basis for V in basis)
