"""checkers.PairTable, the per-pair evidence of transitive, weakly-mixing and
mixing: a read-only Mapping equal to the dict it stands for, written by
cli.report_text as that dict's JSON, and built without an object per pair."""

import gc
import json
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from ndslab import checkers as ck
from ndslab import cli, ndsl
from ndslab import maps as mp

SIGMA = "space shift(2);\nsystem F { else: sigma^1; }\n"


def table_and_dict(n: int, seed: int, values: list) -> tuple:
    """(table, expected): a PairTable over n*n codes drawn by `seed` from as
    many codes as `values`, code k taking values[k], and the dict
    {"i->j": value} it stands for, built the plain way."""
    rng = random.Random(seed)
    codes = array("I", (rng.randrange(len(values)) for _ in range(n * n)))
    expected = {f"{i}->{j}": values[codes[i * n + j]] for i in range(n) for j in range(n)}
    return ck.PairTable(n, codes, values), expected


# n = 1 has a single column (one itemgetter index), and from n = 11 on the
# str order of the rows differs from their int order
SIZES = st.one_of(st.integers(0, 70), st.just(100))
TABLES = st.builds(
    table_and_dict, SIZES, st.integers(0, 2**32),
    st.lists(st.one_of(st.integers(-2**70, 2**70), st.none()), min_size=1, max_size=5),
)


@given(TABLES)
@settings(max_examples=60, deadline=None)
def test_a_table_reads_as_its_dict(pair):
    table, expected = pair
    assert table == expected and expected == table
    assert len(table) == len(expected) and list(table) == list(expected)
    assert all(table[label] == value for label, value in expected.items())
    assert list(table.values()) == list(expected.values())
    assert list(table.items()) == list(expected.items())
    assert dict(table) == expected and table.keys() == expected.keys()


def wrapped(obj, depth: int):
    """obj at `depth` in a report: alternately a dict's value and a list's
    item, each beside a scalar sibling."""
    for level in range(depth):
        obj = {"evidence": obj, "status": "witnessed"} if level % 2 == 0 else [{"n": 1}, obj]
    return obj


@given(TABLES, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_a_report_writes_each_table_as_its_dict(pair, depth):
    table, expected = pair
    report = wrapped({"pairs_checked": len(table), "witness_times": table}, depth)
    plain = wrapped({"pairs_checked": len(expected), "witness_times": expected}, depth)
    assert cli.report_text(report) == json.dumps(plain, sort_keys=True, indent=2, default=str)
    assert cli.report_text(wrapped(table, depth)) == json.dumps(
        wrapped(expected, depth), sort_keys=True, indent=2, default=str)


@pytest.mark.parametrize("n", [1, 11, 12])
def test_only_the_pair_labels_are_keys(n):
    table, _ = table_and_dict(n, 0, [3, None])
    for label in ["01->1", "-1->0", "0-0", "٣->0", f"{n}->0", f"0->{n}", "0->01", " 0->0",
                  "0->0 ", "+0->0", "0_0->0", "0->0->0", "", 0, None, (0, 0), b"0->0"]:
        with pytest.raises(KeyError):
            table[label]
        assert label not in table and table.get(label, "absent") == "absent"
    assert "0->0" in table and f"{n - 1}->{n - 1}" in table


def test_a_table_keeps_no_mask():
    """A check's table keeps the kernel's codes themselves and a value a
    code, not the masks."""
    spec = ndsl.parse(SIGMA).system("F")
    with ck.scoped_caches():
        table = ck.check_property(spec, ck.PropertyKind("transitive"), 1, 64).evidence["witness_times"]
        _, values, codes = ck._pair_masks(spec, 1, 64)
    assert table.codes is codes
    assert table.by_code == [(mask & -mask).bit_length() - 1 for mask in values]
    assert all(held is not values for held in gc.get_referents(table))


@pytest.mark.parametrize("prop, field", [
    ("transitive", "witness_times"),
    ("weakly-mixing", "per_pair_first_hit"),
    ("mixing", "tail_start_per_pair"),
])
def test_recheck_reads_a_table_as_its_dict(prop, field):
    spec = ndsl.parse(SIGMA).system("F")
    v = ck.check_property(spec, ndsl.read_property(prop), 1, 64)
    table = v.evidence[field]
    assert isinstance(table, ck.PairTable)
    as_dict = ck.Verdict(v.property, v.status, v.config, {**v.evidence, field: dict(table)})
    assert ck.recheck_verdict(spec, v) is ck.recheck_verdict(spec, as_dict) is True
    # time 1 everywhere: sigma(B0) still pins cells -1 and 0, so B0 misses B7 then
    with ck.scoped_caches():
        _, values, codes = ck._pair_masks(spec, 1, 64)
        wrong = ck.PairTable(table.n, codes, [1] * len(values))
    for evidence in ({**v.evidence, field: wrong}, {**v.evidence, field: dict(wrong)}):
        assert ck.recheck_verdict(spec, ck.Verdict(v.property, v.status, v.config, evidence)) is False


def test_a_table_check_builds_no_pair_label(tmp_path, capsys, monkeypatch):
    path = tmp_path / "product.ndsl"
    path.write_text(SIGMA + "system P = product(F, F);\ncheck P transitive horizon 16 basis 1;\n")
    assert cli.main(["check", str(path)]) == 0
    line = capsys.readouterr().out

    def refuse(n):
        raise AssertionError("a pair label was built")

    monkeypatch.setattr(ck, "_pair_labels", refuse)
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out == line and line.startswith("witnessed")
    v = ck.check_property(ndsl.parse(path.read_text()).system("P"), ck.PropertyKind("transitive"), 1, 16)
    assert "PairTable" in repr(v) and v.evidence["latest_first_hit"] >= 1


def bytes_beyond_the_masks(spec, prop: str) -> tuple:
    """(status, peak): the status of a check of `prop` on `spec` at basis 1,
    horizon 16, and the peak bytes it took, by tracemalloc, beyond its pair
    masks and laws: a first run in the scope makes those (and what a law
    keeps of what it is asked), and a second run is traced."""
    with ck.scoped_caches():
        ck.check_property(spec, ck.PropertyKind(prop), 1, 16)
        tracemalloc.start()
        try:
            v = ck.check_property(spec, ck.PropertyKind(prop), 1, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return v.status, peak


@pytest.mark.parametrize("rules, status", [
    ("else: sigma^1;", ck.WITNESSED),
    ("at ap(1,3): sigma^1; at ap(2,3): sigma^-1;", ck.INCONCLUSIVE),
])
def test_a_check_takes_no_bytes_like_a_label_a_pair(rules, status):
    # 64 opens of product(A, A) against 128 of product(A, A, swap): a label
    # and dict entry a pair took 81 bytes a pair more (witnessed), a list
    # of the unhit pairs 60 (inconclusive); a table's index takes 4
    shift = ndsl.parse(f"space shift(2);\nsystem A {{ {rules} }}\n").system("A")
    swap = ndsl.parse("space finite(2);\nsystem B { else: table{1->2,2->1}; }\n").system("B")
    small = bytes_beyond_the_masks(mp.ProductSpec((shift, shift)), "transitive")
    large = bytes_beyond_the_masks(mp.ProductSpec((shift, shift, swap)), "transitive")
    assert small[0] == large[0] == status
    assert large[1] - small[1] < 8 * (128**2 - 64**2)


def test_the_cached_masks_of_a_million_pairs_hold_a_code_a_pair():
    # CI's pair-table-1m: 1,048,576 pairs of a product at basis 2, 47
    # distinct masks; a mask a pair held about 40 MB in the mask cache
    source = ("space shift(2);\nsystem F { at ap(2,2,k): sigma^-k; at ap(5,2,k): sigma^k; }\n"
              "system G { at ap(1,2,k): sigma^k; at ap(2,2,k): sigma^-k; }\nsystem P = product(F, G);\n")
    spec = ndsl.parse(source).system("P")
    tracemalloc.start()
    try:
        with ck.scoped_caches():
            verdict = ck.check_property(spec, ck.PropertyKind("transitive"), 2, 32)
            assert verdict.witnessed
            ((basis, values, codes),) = ck._MASK_CACHE.values()
            sizes = len(basis), len(values), len(codes)
            del verdict, basis, values, codes
            held = tracemalloc.get_traced_memory()[0]
            ck._MASK_CACHE.clear()
            freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sizes == (1024, 47, 1024**2)
    # the codes' 4 MB, the distinct masks and the 1024 basis rectangles
    assert 4 * 1024**2 <= freed < 5 * 1024**2
