"""Itinerary construction and Li-Yorke pair scanning."""

import gc
import re
import sys
from fractions import Fraction
from math import lcm
from itertools import product as iter_product
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from ndslab import chaos, maps, spaces
from ndslab.chaos import (
    MAX_ITINERARY_LEVELS,
    ItineraryConstruction,
    ItineraryFailure,
    lemma21_construct,
    li_yorke_scan,
    orbit_distance_trace,
    proximal_scrambled_candidates,
)
from ndslab.maps import (
    ArithProgPattern,
    EqualsPattern,
    FamilyTerm,
    FiniteFnTerm,
    IdentityTerm,
    NdsSpec,
    ProductSpec,
    RotPowTerm,
    Rule,
    ShiftPowTerm,
    apply,
    prefix_compose,
    step_normal,
)
from ndslab.ndsl import parse
from ndslab.spaces import (
    AffineAngle,
    BiWord,
    CircleSpace,
    Cylinder,
    FiniteId,
    FiniteSpace,
    ProductPoint,
    ShiftSpace,
    SpaceMismatch,
    all_ones,
    all_zeros,
    contains,
    disagreement_mask,
    shift_distance,
)

SHIFT = ShiftSpace()
CONST_SIGMA = NdsSpec(SHIFT, (), ShiftPowTerm(1))
CONST_ID = NdsSpec(SHIFT, (), IdentityTerm())
AP12 = NdsSpec(SHIFT, (
    Rule(ArithProgPattern(1, 2), FamilyTerm("shift", 1)),
    Rule(ArithProgPattern(2, 2), FamilyTerm("shift", -1)),
))
ITINERARY_SYSTEMS = [CONST_SIGMA, NdsSpec(SHIFT, (), ShiftPowTerm(-2)), AP12,
                     maps.tail(CONST_SIGMA, 3), maps.iterate(CONST_SIGMA, 2)]


def folded_memberships(spec, res, label, x):
    """Cylinder membership of x at each p_i, folding one step map at a time."""
    point, n, out = x, 0, []
    for i, p in enumerate(res.times):
        while n < p:
            n += 1
            point = apply(step_normal(spec, n), point)
        target = res.levels[i][0] if label[i] == "A" else res.levels[i][1]
        out.append(contains(SHIFT, target, point))
    return out


def planted_cell_by_cell(spec, res):
    """The witnesses of a construction, planted one cell at a time
    over the window spanning the level-1 block of the first reference point
    and every level's block at its prefix exponent."""
    if not res.times:
        return {}
    shifts = [prefix_compose(spec, p).exponent for p in res.times]
    base = res.levels[0][0]
    blocks = [(base.start, base.end - 1)] + [
        (A.start + e, A.end - 1 + e) for (A, _B), e in zip(res.levels, shifts)
    ]
    lo, hi = min(b0 for b0, _ in blocks), max(b1 for _, b1 in blocks)
    planted = [
        {choice: [(j + e - lo, s) for j, s in enumerate(target.word, target.start)]
         for choice, target in zip("AB", pair)}
        for pair, e in zip(res.levels, shifts)
    ]
    start = [0] * (hi - lo + 1)
    for j, s in enumerate(base.word, base.start):
        start[j - lo] = s
    witnesses = {}
    for word in iter_product("AB", repeat=len(res.times)):
        cells = list(start)
        for level, choice in zip(planted, word):
            for j, s in level[choice]:
                cells[j] = s
        witnesses["".join(word)] = BiWord(lo, tuple(cells), (0,), (0,))
    return witnesses


reference_points = st.builds(
    BiWord,
    window_start=st.integers(-4, 4),
    window=st.lists(st.integers(0, 1), max_size=6).map(tuple),
    left=st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
    right=st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
)


class TestItineraryConstruction:
    def test_constant_shift_three_levels(self):
        res = lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), 3, 256)
        assert isinstance(res, ItineraryConstruction)
        assert len(res.witnesses) == 8
        assert list(res.times) == sorted(res.times)
        assert len(set(res.times)) == 3

    def test_witnesses_verified_independently(self):
        res = lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), 3, 256)
        for label, x in res.witnesses.items():
            point = x
            n = 0
            for i, p in enumerate(res.times):
                while n < p:
                    n += 1
                    point = apply(step_normal(CONST_SIGMA, n), point)
                target = res.levels[i][0] if label[i] == "A" else res.levels[i][1]
                assert contains(SHIFT, target, point)

    @pytest.mark.parametrize("spec", ITINERARY_SYSTEMS)
    def test_each_time_is_the_first_whose_block_clears_every_earlier_one(self, spec):
        """Oracle: scan every candidate time against every claimed block, the
        base window included, each at least one cell apart."""
        res = lemma21_construct(spec, all_zeros(), all_ones(), 8, 512)
        assert isinstance(res, ItineraryConstruction)
        E = maps.prefix_exponents(spec, 512)
        base = res.levels[0][0]
        blocks, p = [(base.start, base.end - 1)], 0
        for (A, _B), time in zip(res.levels, res.times):
            p += 1
            while not all(A.end - 1 + E[p] < lo - 1 or A.start + E[p] > hi + 1 for lo, hi in blocks):
                p += 1
            assert time == p
            blocks.append((A.start + E[p], A.end - 1 + E[p]))

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_segment_fold_agrees_with_point_fold(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        assert isinstance(res, ItineraryConstruction)
        for label, x in res.witnesses.items():
            assert all(folded_memberships(spec, res, label, x))
        assert chaos._verify_itineraries(spec, res.times, res.levels, res.witnesses)
        # flip one planted cell of one level: both folds must reject it
        label = data.draw(st.sampled_from(sorted(res.witnesses)))
        i = data.draw(st.integers(0, levels - 1))
        target = res.levels[i][0] if label[i] == "A" else res.levels[i][1]
        j, s = data.draw(st.sampled_from(list(enumerate(target.word, target.start))))
        x = res.witnesses[label]
        cell = j + prefix_compose(spec, res.times[i]).exponent
        assert x.coord(cell) == s
        window = list(x.window)
        window[cell - x.window_start] = 1 - s
        tampered = BiWord(x.window_start, tuple(window), x.left, x.right)
        assert folded_memberships(spec, res, label, tampered) == [k != i for k in range(levels)]
        assert not chaos._verify_itineraries(
            spec, res.times, res.levels, {**res.witnesses, label: tampered}
        )
        # a time moved by one pulls its targets back off the planted blocks
        for k in range(levels):
            for d in (-1, 1):
                moved = [p + d * (n == k) for n, p in enumerate(res.times)]
                if moved[0] >= 1 and all(a < b for a, b in zip(moved, moved[1:])):
                    assert not chaos._verify_itineraries(spec, moved, res.levels, res.witnesses)

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(0, 8),
           st.one_of(st.just((all_zeros(), all_ones())), st.tuples(reference_points, reference_points)))
    @settings(max_examples=60, deadline=None)
    def test_slice_planting_matches_the_cell_by_cell_oracle(self, spec, levels, ab):
        a, b = ab
        assume(a != b)
        res = lemma21_construct(spec, a, b, levels, 512)
        assert isinstance(res, ItineraryConstruction)
        oracle = planted_cell_by_cell(spec, res)
        # no levels, no witnesses
        words = ["".join(w) for w in iter_product("AB", repeat=levels)] if levels else []
        assert list(res.witnesses) == list(oracle) == words
        assert [repr(x) for x in res.witnesses.values()] == [repr(x) for x in oracle.values()]

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_other_window_representations_are_decided_exactly(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        labels = sorted(res.witnesses)
        # wider or shifted windows of the same points: equal, so accepted
        moved = {}
        for label in data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)):
            x = res.witnesses[label]
            s = x.window_start - data.draw(st.integers(0, 4))
            t = x.window_end + data.draw(st.integers(0, 4))
            moved[label] = BiWord(s, tuple(map(x.coord, range(s, t))), (0,), (0,))
            assert moved[label] == x
        assert chaos._verify_itineraries(spec, res.times, res.levels, {**res.witnesses, **moved})
        # a window cut short on either side, the rest read off new tails
        label = data.draw(st.sampled_from(labels))
        x = res.witnesses[label]
        left = data.draw(st.integers(0, len(x.window)))
        right = data.draw(st.integers(left, len(x.window)))
        tails = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
        cut = BiWord(x.window_start + left, x.window[left:right], data.draw(tails), data.draw(tails))
        assert chaos._verify_itineraries(spec, res.times, res.levels, {**res.witnesses, label: cut}) \
            == all(folded_memberships(spec, res, label, cut))
        # the same window at another start: another point, of the same width
        d = data.draw(st.integers(-3, 3))
        other = BiWord(x.window_start + d, x.window, x.left, x.right)
        assert chaos._verify_itineraries(spec, res.times, res.levels, {**res.witnesses, label: other}) \
            == all(folded_memberships(spec, res, label, other))
        # the same point with its window rebuilt as a tuple: windows of two types
        rebuilt = BiWord(x.window_start, tuple(x.window), x.left, x.right)
        assert type(rebuilt.window) is not type(x.window) and rebuilt == x
        mixed = {**res.witnesses, label: rebuilt}
        assert chaos._verify_itineraries(spec, res.times, res.levels, mixed) \
            == folded_verdict(spec, res, mixed)

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_targets_off_the_shared_window_are_decided_exactly(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        # loosen one target: a shorter window than its partner's
        i, k = data.draw(st.integers(0, levels - 1)), data.draw(st.integers(0, 1))
        target = res.levels[i][k]
        j = data.draw(st.integers(0, len(target.word) - 1))
        loose = Cylinder(target.start + j, target.word[j:])
        levels_ = tuple(
            tuple(loose if (n, c) == (i, k) else t for c, t in enumerate(pair))
            for n, pair in enumerate(res.levels)
        )
        loosened = ItineraryConstruction(res.times, levels_, res.witnesses, True)
        # flip one cell of one witness at the loosened level
        label = data.draw(st.sampled_from(sorted(res.witnesses)))
        x = res.witnesses[label]
        cell = data.draw(st.integers(x.window_start, x.window_end - 1))
        window = list(x.window)
        window[cell - x.window_start] ^= 1
        witnesses = {**res.witnesses, label: BiWord(x.window_start, tuple(window), x.left, x.right)}
        expected = all(all(folded_memberships(spec, loosened, lb, w)) for lb, w in witnesses.items())
        assert chaos._verify_itineraries(spec, res.times, levels_, witnesses) == expected

    def test_time_search_reads_the_exponent_array_lazily(self, monkeypatch):
        reads = []
        fill = maps.prefix_exponents

        def counted(spec, upto):
            reads.append(upto)
            return fill(spec, upto)

        monkeypatch.setattr(maps, "prefix_exponents", counted)
        res = lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), 3, horizon=10**7)
        assert isinstance(res, ItineraryConstruction)
        assert reads and max(reads) < 300

    def test_zero_levels_trivial(self):
        res = lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), 0, 16)
        assert isinstance(res, ItineraryConstruction)
        assert res.witnesses == {}

    def test_identity_fails_at_level_one(self):
        res = lemma21_construct(CONST_ID, all_zeros(), all_ones(), 1, 64)
        assert isinstance(res, ItineraryFailure)
        assert res.level == 1

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            lemma21_construct(CONST_SIGMA, all_zeros(), all_zeros(), 2, 64)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be at least 0"):
            lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), -1, 64)

    @pytest.mark.parametrize("symbol", [7, 2, -1])
    @pytest.mark.parametrize("point", [
        lambda s: BiWord.constant(s),
        lambda s: BiWord(-1, (0, s, 1), (1,), (0,)),
        lambda s: BiWord(0, (1, 0), (0, s), (1,)),
        lambda s: BiWord(0, (1,), (0,), (1, 1, s)),
    ], ids=["constant", "window", "left", "right"])
    def test_a_symbol_outside_the_alphabet_is_refused_before_any_work(self, monkeypatch, symbol, point):
        def refuse(spec, upto):
            raise AssertionError("the time search started")

        monkeypatch.setattr(maps, "prefix_exponents", refuse)
        spec = parse("space shift(2); system S { else: sigma^1; }").system("S")
        bad = point(symbol)
        for a, b, name in ((all_zeros(), bad, "b"), (bad, all_ones(), "a")):
            with pytest.raises(ValueError, match=f"reference point {name} has the symbol {symbol},"):
                lemma21_construct(spec, a, b, 2, 64)
        # refused even where the two points are equal
        with pytest.raises(ValueError, match=f"the symbol {symbol},"):
            lemma21_construct(spec, bad, bad, 2, 64)


class TestWitnessRecords:
    @pytest.mark.parametrize("spec", ITINERARY_SYSTEMS[:3], ids=["sigma", "sigma-2", "ap12"])
    def test_each_witness_is_the_point_the_constructor_builds(self, spec):
        fields = attrgetter("window_start", "window", "left", "right")
        for levels in range(1, 11):
            res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 4096)
            assert res.verified and len(res.witnesses) == 1 << levels
            for w in res.witnesses.values():
                built = BiWord(w.window_start, w.window, w.left, w.right)
                assert type(w) is BiWord and type(w.window) is bytes
                assert fields(w) == fields(built)
                # the fields are held as a constructed point holds them, which
                # from Python 3.11 on is inline, with no instance __dict__
                assert list(map(type, gc.get_referents(w))) == list(map(type, gc.get_referents(built)))
                if sys.version_info >= (3, 11):
                    assert not any(isinstance(r, dict) for r in gc.get_referents(w))


class TestWindowTypes:
    def test_an_alphabet_past_a_byte_is_refused_before_any_work(self, monkeypatch):
        def refuse(spec, upto):
            raise AssertionError("the time search started")

        monkeypatch.setattr(maps, "prefix_exponents", refuse)
        for size in (257, 300):
            with pytest.raises(ValueError, match=f"at most 256 symbols, got {size}"):
                lemma21_construct(NdsSpec(ShiftSpace(size), (), ShiftPowTerm(1)), all_zeros(), all_ones(), 2, 64)
        # a byte holds every symbol of shift(256)
        with pytest.raises(AssertionError, match="the time search started"):
            lemma21_construct(NdsSpec(ShiftSpace(256), (), ShiftPowTerm(1)), all_zeros(), all_ones(), 2, 64)

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_target_symbol_past_a_byte_meets_no_byte_window(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        assert all(type(x.window) is bytes for x in res.witnesses.values())
        i, k = data.draw(st.integers(0, levels - 1)), data.draw(st.integers(0, 1))
        target = res.levels[i][k]
        j = data.draw(st.integers(0, len(target.word) - 1))
        wide = Cylinder(target.start, target.word[:j] + (256,) + target.word[j + 1 :])
        levels_ = tuple(
            tuple(wide if (n, c) == (i, k) else t for c, t in enumerate(pair))
            for n, pair in enumerate(res.levels)
        )
        widened = ItineraryConstruction(res.times, levels_, res.witnesses, True)
        assert not folded_verdict(spec, widened, res.witnesses)
        assert not chaos._verify_itineraries(spec, res.times, levels_, res.witnesses)


def fraction_radius(level):
    """The target radius as the Fraction search found it: the least w >= 1
    with 2^(1-w) <= 1/level."""
    w = 1
    while Fraction(2, 1 << w) > Fraction(1, level):
        w += 1
    return w


# every 2^k and 2^k +- 1 in 1..2^20
POWER_EDGES = sorted({n for k in range(21) for n in (2**k - 1, 2**k, 2**k + 1) if 1 <= n <= 2**20})
TARGET_POINT = BiWord(-2, (1, 0, 1, 1), (0, 1), (1, 1, 0))


def assert_radius(level):
    w = fraction_radius(level)
    cyl = chaos._target_cylinder(TARGET_POINT, level)
    assert (cyl.start, cyl.end) == (-w, w + 1)
    assert cyl.word == tuple(TARGET_POINT.coord(i) for i in range(-w, w + 1))


class TestItineraryScale:
    def test_radius_at_the_powers_of_two(self):
        for level in POWER_EDGES:
            assert_radius(level)

    @given(st.one_of(st.integers(1, 2**20), st.sampled_from(POWER_EDGES)))
    @settings(max_examples=300, deadline=None)
    def test_integer_radius_matches_the_fraction_search(self, level):
        assert_radius(level)

    def test_levels_past_the_bound_are_refused_before_any_work(self, monkeypatch):
        def refuse(spec, upto):
            raise AssertionError("the time search started")

        monkeypatch.setattr(maps, "prefix_exponents", refuse)
        for levels in (MAX_ITINERARY_LEVELS + 1, 40):
            with pytest.raises(ValueError, match="MAX_ITINERARY_LEVELS"):
                lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), levels, 64)
        # at the bound itself the construction starts its time search
        with pytest.raises(AssertionError, match="the time search started"):
            lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), MAX_ITINERARY_LEVELS, 64)

    def test_a_construction_leaves_no_cyclic_garbage(self):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            res = lemma21_construct(AP12, all_zeros(), all_ones(), 8, 512)
            assert isinstance(res, ItineraryConstruction) and len(res.witnesses) == 256
            del res
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def counting_contains(monkeypatch):
    """Patch spaces.contains to append to a list per call; that list."""
    calls = []
    inner = spaces.contains

    def counted(space, A, p):
        calls.append(1)
        return inner(space, A, p)

    monkeypatch.setattr(spaces, "contains", counted)
    return calls


def folded_verdict(spec, res, witnesses):
    return all(all(folded_memberships(spec, res, label, x)) for label, x in witnesses.items())


class TestProductOrderCheck:
    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_construction_order_is_checked_by_slices_alone(self, spec, levels):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        with pytest.MonkeyPatch.context() as mp_:
            calls = counting_contains(mp_)
            assert chaos._verify_itineraries(spec, res.times, res.levels, res.witnesses)
        assert not calls

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_the_check_calls_nothing_the_construction_plants_with(self, spec, levels):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)

        def refuse(*args):
            raise AssertionError("the check called a helper of the construction")

        with pytest.MonkeyPatch.context() as mp_:
            for owner, name in ((chaos, "_plant_chunk"), (chaos, "_target_cylinder"),
                                (maps, "prefix_exponents"), (maps, "prefix_compose")):
                mp_.setattr(owner, name, refuse)
            assert chaos._verify_itineraries(spec, res.times, res.levels, res.witnesses)

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_another_order_goes_through_contains(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        labels = data.draw(st.permutations(list(res.witnesses)))
        assume(labels != list(res.witnesses))
        reordered = {label: res.witnesses[label] for label in labels}
        with pytest.MonkeyPatch.context() as mp_:
            calls = counting_contains(mp_)
            assert chaos._verify_itineraries(spec, res.times, res.levels, reordered)
        assert len(calls) == levels << levels

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_swapped_witnesses_are_refused(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        u, v = data.draw(st.lists(st.sampled_from(list(res.witnesses)), min_size=2, max_size=2,
                                  unique=True))
        swapped = {**res.witnesses, u: res.witnesses[v], v: res.witnesses[u]}
        assert list(swapped) == list(res.witnesses)
        assert not folded_verdict(spec, res, swapped)
        assert not chaos._verify_itineraries(spec, res.times, res.levels, swapped)

    @given(st.sampled_from(ITINERARY_SYSTEMS), st.integers(1, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_missing_word_is_decided_exactly(self, spec, levels, data):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        labels = list(res.witnesses)
        gone = data.draw(st.sampled_from(labels))
        witnesses = {label: x for label, x in res.witnesses.items() if label != gone}
        if data.draw(st.booleans()):
            # and one remaining witness swapped for the missing one's
            other = data.draw(st.sampled_from(list(witnesses)))
            witnesses[other] = res.witnesses[gone]
        assert chaos._verify_itineraries(spec, res.times, res.levels, witnesses) \
            == folded_verdict(spec, res, witnesses)


def level_cells(spec, res):
    """The cells of each level's targets at its prefix exponent, read off
    `prefix_compose`: the only cells of a witness the check reads."""
    return [range(A.start + e, A.end + e)
            for (A, _B), e in ((pair, prefix_compose(spec, p).exponent)
                               for pair, p in zip(res.levels, res.times))]


def flipped(x, cell):
    """x with one window cell flipped, its window of the same type."""
    window = list(x.window)
    window[cell - x.window_start] ^= 1
    return BiWord(x.window_start, type(x.window)(window), x.left, x.right)


class TestColumnCheck:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", ITINERARY_SYSTEMS)
    def test_every_level_cell_is_read_and_no_other(self, spec, levels):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 512)
        read = set().union(*level_cells(spec, res))
        outside = 0
        with pytest.MonkeyPatch.context() as mp_:
            calls = counting_contains(mp_)
            for label, x in res.witnesses.items():
                assert read <= set(range(x.window_start, x.window_end))
                for cell in range(x.window_start, x.window_end):
                    witnesses = {**res.witnesses, label: flipped(x, cell)}
                    held = chaos._verify_itineraries(spec, res.times, res.levels, witnesses)
                    assert held == (cell not in read), (label, cell)
                    outside += held
        assert not calls
        # the base block, at least, lies outside every level's cells
        assert outside

    def test_a_flip_in_the_first_and_in_the_last_chunk_is_refused(self):
        levels = chaos._CHUNK_ROWS.bit_length()  # two chunks of rows
        res = lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), levels, 4096)
        assert isinstance(res, ItineraryConstruction) and len(res.witnesses) == 2 * chaos._CHUNK_ROWS
        labels, cells = list(res.witnesses), level_cells(CONST_SIGMA, res)
        with pytest.MonkeyPatch.context() as mp_:
            calls = counting_contains(mp_)
            # level 0's block is the whole chunk, the last level's a single row
            for label in (labels[0], labels[chaos._CHUNK_ROWS - 1], labels[chaos._CHUNK_ROWS], labels[-1]):
                for i in (0, 1, levels - 1):
                    for cell in (cells[i][0], cells[i][-1]):
                        witnesses = {**res.witnesses, label: flipped(res.witnesses[label], cell)}
                        assert not chaos._verify_itineraries(CONST_SIGMA, res.times, res.levels, witnesses)
        assert not calls

    @pytest.mark.parametrize("spec, levels", [(spec, 4) for spec in ITINERARY_SYSTEMS]
                             + [(CONST_SIGMA, chaos._CHUNK_ROWS.bit_length())])
    def test_a_level_with_its_a_and_b_blocks_swapped_is_refused(self, spec, levels):
        res = lemma21_construct(spec, all_zeros(), all_ones(), levels, 4096)
        points = list(res.witnesses.values())
        for i in range(levels):
            block = 1 << (levels - 1 - i)
            swapped = {label: points[k ^ block] for k, label in enumerate(res.witnesses)}
            if levels <= 4:
                assert not folded_verdict(spec, res, swapped)
            with pytest.MonkeyPatch.context() as mp_:
                calls = counting_contains(mp_)
                assert not chaos._verify_itineraries(spec, res.times, res.levels, swapped)
            assert not calls

    def test_no_levels_and_a_single_witness_keep_their_answers(self):
        assert chaos._verify_itineraries(CONST_SIGMA, (), (), {})
        assert chaos._verify_itineraries(CONST_SIGMA, (), (), {"": all_ones()})
        assert chaos._verify_itineraries(CONST_SIGMA, (), (), {"": BiWord(-3, b"\x01\x00", (0,), (1,))})
        res = lemma21_construct(CONST_SIGMA, all_zeros(), all_ones(), 1, 64)
        x_a, x_b = res.witnesses["A"], res.witnesses["B"]
        for witnesses, held in (({"A": x_a}, True), ({"B": x_b}, True), ({"A": x_b}, False),
                                ({"B": x_a}, False), ({"A": x_a, "B": x_b}, True)):
            assert chaos._verify_itineraries(CONST_SIGMA, res.times, res.levels, witnesses) == held
            assert folded_verdict(CONST_SIGMA, res, witnesses) == held

    @pytest.mark.parametrize("spec", ITINERARY_SYSTEMS)
    def test_a_wrong_plant_is_caught(self, spec, monkeypatch):
        """The construction with its last level's A and B words exchanged
        plants witnesses its own check refuses."""
        plant = chaos._plant_chunk

        def crossed(row, rows, first, spans, words):
            return plant(row, rows, first, spans, words[:-1] + [words[-1][::-1]])

        monkeypatch.setattr(chaos, "_plant_chunk", crossed)
        res = lemma21_construct(spec, all_zeros(), all_ones(), 3, 512)
        assert res == ItineraryFailure(3, "stepwise verification failed")


class TestLiYorkeScan:
    def test_identical_pair_never_qualifies(self):
        p = all_zeros()
        reports = li_yorke_scan(CONST_SIGMA, [(p, p)], 64)
        assert reports[0].liminf_estimate == 0
        assert reports[0].limsup_estimate == 0
        assert not reports[0].qualifies

    def test_single_disagreement_drifts_away(self):
        y = BiWord(0, (1,), (0,), (0,))
        reports = li_yorke_scan(CONST_SIGMA, [(all_zeros(), y)], 64)
        rep = reports[0]
        # the lone disagreement shifts away: liminf small, limsup small too
        assert rep.liminf_estimate < Fraction(1, 1024)
        assert rep.limsup_estimate < Fraction(1, 2)
        assert not rep.qualifies

    def test_trace_matches_closed_form_oracle(self):
        y = BiWord(0, (), (0,), (1, 0, 0, 0))
        trace = orbit_distance_trace(CONST_SIGMA, all_zeros(), y, 40)
        for n in range(1, 41):
            direct = shift_distance(
                apply(prefix_compose(CONST_SIGMA, n), all_zeros()),
                apply(prefix_compose(CONST_SIGMA, n), y),
            )
            assert trace[n - 1] == direct

    def test_block_candidates_qualify(self):
        pairs = proximal_scrambled_candidates(all_zeros(), all_ones(), 4)
        reports = li_yorke_scan(CONST_SIGMA, pairs, 2048)
        assert sum(1 for r in reports if r.qualifies) >= 3

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            li_yorke_scan(CONST_SIGMA, [(all_zeros(), all_ones())], horizon)

    @pytest.mark.parametrize("spec, x, y", [
        (NdsSpec(CircleSpace(), (), RotPowTerm(1)), AffineAngle(0), AffineAngle(0, 1)),
        (ProductSpec((NdsSpec(CircleSpace(), (), RotPowTerm(-1)), CONST_SIGMA)),
         ProductPoint((AffineAngle(0), all_zeros())), ProductPoint((AffineAngle(0, 1), all_ones()))),
        (NdsSpec(FiniteSpace(3), (), FiniteFnTerm((3, 2, 1))), FiniteId(2), FiniteId(3)),
    ], ids=["circle", "product", "finite"])
    def test_a_system_off_the_shift_is_refused(self, spec, x, y):
        with pytest.raises(SpaceMismatch, match="runs on shift systems"):
            li_yorke_scan(spec, [(x, y)], 9)
        with pytest.raises(SpaceMismatch, match="runs on shift systems"):
            lemma21_construct(spec, x, y, 2, 9)

    @pytest.mark.parametrize("symbol", [7, 2, -1])
    @pytest.mark.parametrize("point", [
        lambda s: BiWord.constant(s),
        lambda s: BiWord(0, (s, s, 1), (0,), (0,)),
        lambda s: BiWord(0, (1, 0), (0, s), (1,)),
        lambda s: BiWord(0, (1,), (0,), (1, 1, s)),
    ], ids=["constant", "window", "left", "right"])
    def test_a_symbol_outside_the_alphabet_is_refused_before_any_work(self, monkeypatch, symbol, point):
        def refuse(spec, upto):
            raise AssertionError("the scan read the prefix exponents")

        monkeypatch.setattr(maps, "prefix_exponents", refuse)
        bad = point(symbol)
        for pair in ((bad, all_zeros()), (all_zeros(), bad), (bad, bad)):
            message = re.escape(f"the point {bad!r} of pair-1 has the symbol {symbol}, which is not "
                                "in the alphabet 0..1")
            with pytest.raises(ValueError, match=message):
                li_yorke_scan(CONST_SIGMA, [(all_zeros(), all_ones()), pair], 64)

    def test_denominator_too_large_for_an_integer_is_a_value_error(self):
        spec = parse(f"space shift(2); system S {{ at 5: sigma^{10**40}; }}").system("S")
        pair = (all_zeros(), BiWord(0, (1,), (0,), (0,)))
        with pytest.raises(ValueError, match="too many digits for an integer"):
            li_yorke_scan(spec, [pair], 10)


# ---------------------------------------------------------------------------
# the shift fast path against the stepwise trace

bits = st.integers(0, 1)
words = st.lists(bits, min_size=1, max_size=12).map(tuple)
far_points = st.builds(
    BiWord,
    window_start=st.integers(-300, 300),
    window=st.lists(bits, max_size=10).map(tuple),
    left=words,
    right=words,
)


@st.composite
def far_pairs(draw):
    """Unrelated eventually-periodic points, or two windows over shared tails
    (the shape of the scan candidates)."""
    x = draw(far_points)
    if draw(st.booleans()):
        return x, draw(far_points)
    return x, BiWord(draw(st.integers(-300, 300)), draw(st.lists(bits, max_size=10)), x.left, x.right)


@st.composite
def shift_systems(draw):
    kind = draw(st.sampled_from(("constant", "jump", "ap")))
    if kind == "constant":
        spec = NdsSpec(SHIFT, (), ShiftPowTerm(draw(st.integers(-3, 3))))
    elif kind == "jump":
        # one jump far past the windows: a gap the scan re-seeds, never walks
        jump = ShiftPowTerm(draw(st.integers(200, 2000)) * draw(st.sampled_from([1, -1])))
        spec = NdsSpec(SHIFT, (Rule(EqualsPattern(draw(st.integers(1, 20))), jump),),
                       ShiftPowTerm(draw(st.integers(-1, 1))))
    else:
        step = draw(st.integers(2, 3))
        a, b = draw(st.lists(st.integers(1, step), min_size=2, max_size=2, unique=True))
        c, add = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        spec = NdsSpec(SHIFT, (
            Rule(ArithProgPattern(a, step), FamilyTerm("shift", c, add)),
            Rule(ArithProgPattern(b, step), FamilyTerm("shift", -c, -add)),
        ), ShiftPowTerm(draw(st.integers(-1, 1))))
    wrap = draw(st.sampled_from(("plain", "tail", "iterate")))
    if wrap == "tail":
        return maps.tail(spec, draw(st.integers(2, 5)))
    if wrap == "iterate":
        return maps.iterate(spec, draw(st.integers(2, 3)))
    return spec


# 1, 2 and odd horizons: the tail starts at n = max(1, H // 2)
horizons = st.one_of(st.sampled_from([1, 2]), st.integers(1, 40).map(lambda k: 2 * k + 1))


def traced_extremes(spec, x, y, horizon):
    tail = orbit_distance_trace(spec, x, y, horizon)[max(1, horizon // 2) - 1 :]
    return min(tail), max(tail)


def periodic_point(pattern, start, length):
    """The purely periodic point ...pattern pattern... written with a window
    of `length` cells at `start`."""
    p = len(pattern)
    return BiWord(
        start,
        tuple(pattern[(start + i) % p] for i in range(length)),
        tuple(pattern[(start + i) % p] for i in range(p)),
        tuple(pattern[(start + length + i) % p] for i in range(p)),
    )


def full_list_extremes(x, y, exponents):
    """The tail extremes folded over every exponent, with no residue-class
    pruning: the oracle for `spaces.shift_distance_extremes`."""
    lo, hi = min(x.window_start, y.window_start), max(x.window_end, y.window_end)
    lp, rp = lcm(len(x.left), len(y.left)), lcm(len(x.right), len(y.right))
    lden, rden, w = (1 << lp) - 1, (1 << rp) - 1, hi - lo

    def bits(a, b, leftward=False):
        return disagreement_mask(x, y, a, b, leftward)

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


@st.composite
def pairs_and_exponents(draw):
    """A far pair and an ascending exponent set with members below, inside
    and above the pair's windows, some of them far out."""
    x, y = draw(far_pairs())
    lo, hi = min(x.window_start, y.window_start), max(x.window_end, y.window_end)
    near = st.integers(lo - 120, hi + 120)
    far = st.integers(lo - 2000, hi + 2000)
    inside = st.integers(lo, hi)
    exponents = draw(st.lists(st.one_of(near, inside, far), min_size=1, max_size=160))
    return x, y, sorted(set(exponents))


def whole_run_ends(run, period):
    """The first and the last exponent of each residue class mod `period`,
    off one dict over the whole run in each direction."""
    return {e for side in (run, run[::-1]) for e in dict(zip((e % period for e in side), side)).values()}


@st.composite
def runs_and_periods(draw):
    """An ascending run of exponents, contiguous, strided or sparse, and a
    period up to 64 or longer than the run."""
    start, count = draw(st.integers(-3000, 3000)), draw(st.integers(0, 400))
    shape = draw(st.sampled_from(["contiguous", "strided", "sparse"]))
    if shape == "contiguous":
        run = list(range(start, start + count))
    elif shape == "strided":
        step = draw(st.integers(2, 9))
        run = list(range(start, start + step * count, step))
    else:
        run = sorted(set(draw(st.lists(st.integers(start, start + 5000), max_size=count))))
    period = draw(st.one_of(st.integers(1, 64), st.integers(len(run) + 1, len(run) + 50)))
    return run, period


class TestTailPruning:
    @given(runs_and_periods())
    @settings(max_examples=300, deadline=None)
    def test_class_ends_off_doubling_prefixes_equal_the_whole_run_dicts(self, case):
        run, period = case
        assert set(spaces._class_ends(run, period)) == whole_run_ends(run, period)

    @given(pairs_and_exponents())
    @settings(max_examples=200, deadline=None)
    def test_class_ends_give_the_full_list_extremes(self, case):
        x, y, exponents = case
        assert spaces.shift_distance_extremes(x, y, exponents) == full_list_extremes(x, y, exponents)

    @given(far_pairs(), st.integers(-400, 400), st.integers(1, 600))
    @settings(max_examples=60, deadline=None)
    def test_a_long_run_of_exponents_gives_the_full_list_extremes(self, pair, start, count):
        x, y = pair
        exponents = list(range(start, start + count))
        assert spaces.shift_distance_extremes(x, y, exponents) == full_list_extremes(x, y, exponents)

    def test_the_corpus_candidates_at_horizon_4096(self):
        spec = parse("space shift(2); system CS { else: sigma^1; }").system("CS")
        exponents = sorted(set(maps.prefix_exponents(spec, 4096)[2048:]))
        for x, y in proximal_scrambled_candidates(all_zeros(), all_ones(), 6):
            got = spaces.shift_distance_extremes(x, y, exponents)
            assert got == full_list_extremes(x, y, exponents)
            assert all(isinstance(v, Fraction) for v in got)


BIG = 7 * 10**39 + 12345  # 40 digits


class TestLiYorkeFastPath:
    @given(shift_systems(), far_pairs(), horizons)
    @settings(max_examples=150, deadline=None)
    def test_extremes_equal_the_traced_tail(self, spec, pair, horizon):
        x, y = pair
        rep = li_yorke_scan(spec, [pair], horizon)[0]
        lo, hi = traced_extremes(spec, x, y, horizon)
        assert (rep.liminf_estimate, rep.limsup_estimate) == (lo, hi)
        assert rep.qualifies == (lo < chaos.EPS_LOW and hi > chaos.DELTA_HIGH)

    def test_candidates_on_the_benchmark_systems(self):
        pairs = proximal_scrambled_candidates(all_zeros(), all_ones(), 3)
        for spec in (CONST_SIGMA, AP12, maps.tail(AP12, 2), maps.iterate(CONST_SIGMA, 3)):
            reports = li_yorke_scan(spec, pairs, 301)
            for (x, y), rep in zip(pairs, reports):
                assert (rep.liminf_estimate, rep.limsup_estimate) == traced_extremes(spec, x, y, 301)

    @given(words, words, st.integers(-10**6, 10**6), st.integers(0, 20), st.integers(-10**6, 10**6),
           st.integers(0, 20), st.sampled_from([1, -1]), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_forty_digit_jump_returns_at_once(self, p, q, sx, lx, sy, ly, sign, horizon):
        # at n = 5 the system jumps by 40 digits; periodic points with windows
        # anywhere see the same distances as after the jump reduced mod lcm
        x, y = periodic_point(p, sx, lx), periodic_point(q, sy, ly)
        period = len(p) * len(q)
        big = parse(f"space shift(2); system S {{ at 5: sigma^{sign * BIG}; }}").system("S")
        small = parse(
            f"space shift(2); system S {{ at 5: sigma^{sign * BIG % period}; }}"
        ).system("S")
        rep = li_yorke_scan(big, [(x, y)], horizon)[0]
        assert (rep.liminf_estimate, rep.limsup_estimate) == traced_extremes(small, x, y, horizon)
