"""Self-tests of the benchmark (they do not run ndslab):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in ("corpus", "check-sweep", "orbit-scan"):
        a, b, c = (tmp_path / f"{workload}-{x}" for x in "abc")
        gen.generate(workload, 7, RUN_SECONDS, a)
        gen.generate(workload, 7, RUN_SECONDS, b)
        gen.generate(workload, 8, RUN_SECONDS, c)
        assert _tree(a) == _tree(b)
        if workload != "corpus":
            assert _tree(a) != _tree(c)


def test_generator_records_family_and_why(tmp_path):
    m = gen.generate("check-sweep", 3, RUN_SECONDS, tmp_path)
    assert len(m["requests"]) >= 100
    families = [r["family"] for r in m["requests"]]
    assert {families.count(f) for f in gen.CHECK_FAMILIES} == {len(families) // len(gen.CHECK_FAMILIES)}
    assert all(r["why"] and 1 <= len(r["properties"]) <= 3 for r in m["requests"])
    assert 0 < m["shares_work_share"] < 1
    assert 0 <= m["repeated_system_share"] < 1
    # enough user-scale files that the p90 falls among them
    assert m["user_scale_share"] > 0.12
    assert all(r["family"] == "finite-long-period" for r in m["probes"])


def test_cache_reset_restores_the_import_time_contents():
    maps = types.SimpleNamespace(_CUM=types.SimpleNamespace(_exponents={}, _tables={}))
    mods = {"checkers": types.SimpleNamespace(_MASK_CACHE={}), "maps": maps,
            "spaces": types.SimpleNamespace(_SQRT2M1_CACHE={72: "bounds"})}
    reset, names = child.cache_reset(mods)
    assert len(names) == len(child.CACHES)
    mods["checkers"]._MASK_CACHE["k"] = 1
    maps._CUM._tables["s"] = [0]
    mods["spaces"]._SQRT2M1_CACHE[96] = "more"
    reset()
    assert mods["checkers"]._MASK_CACHE == {} and maps._CUM._tables == {}
    assert mods["spaces"]._SQRT2M1_CACHE == {72: "bounds"}
    # a cache a later version renames or drops is skipped, not an error
    del mods["checkers"]._MASK_CACHE
    assert "checkers._MASK_CACHE" not in child.cache_reset(mods)[1]


def test_orbit_requests_are_all_pinned(tmp_path):
    pinned = json.loads((HERE / "pinned.json").read_text())["orbit"]
    grid = {gen.orbit_key(r) for r in gen.orbit_grid()}
    assert grid == set(pinned)
    costs = set()
    for seed in range(5):
        m = gen.generate("orbit-scan", seed, RUN_SECONDS, tmp_path / str(seed))
        assert len(m["requests"]) >= 100
        assert {r["key"] for r in m["requests"]} <= grid
        # the seed varies order and cost-neutral parameters, not the costs
        costs.add(tuple(sorted(
            (r["kind"], r["system"], r["params"].get("horizon"), r["params"].get("levels"),
             r["params"].get("k"), r["params"].get("candidate")) for r in m["requests"])))
    assert len(costs) == 1


def test_tracer_self_time_on_a_toy_call_tree():
    clock = types.SimpleNamespace(t=0.0)
    ns = types.SimpleNamespace()

    def leaf():
        clock.t += 1

    def mid():
        clock.t += 2
        ns.leaf()
        clock.t += 3

    def top():
        clock.t += 1
        ns.mid()
        ns.mid()

    def rec(n):
        clock.t += 1
        if n:
            ns.rec(n - 1)

    def boom():
        clock.t += 4
        raise KeyError("x")

    ns.leaf, ns.mid, ns.top, ns.rec, ns.boom = leaf, mid, top, rec, boom
    tr = Tracer(clock=lambda: clock.t)
    for name in ("leaf", "mid", "top", "rec", "boom"):
        tr.patch(ns, name, name, span=(name == "top"))
    ns.top()
    ns.rec(2)
    try:
        ns.boom()
    except KeyError:
        pass
    tr.restore()
    assert ns.top is top
    s = tr.snapshot()
    assert (s["leaf"]["calls"], s["leaf"]["self_s"], s["leaf"]["incl_s"]) == (2, 2, 2)
    assert (s["mid"]["calls"], s["mid"]["self_s"], s["mid"]["incl_s"]) == (2, 10, 12)
    assert (s["top"]["calls"], s["top"]["self_s"], s["top"]["incl_s"]) == (1, 1, 13)
    # recursion: three activations of one unit each, counted once inclusively
    assert (s["rec"]["calls"], s["rec"]["self_s"], s["rec"]["incl_s"]) == (3, 3, 3)
    assert (s["boom"]["raised"], s["boom"]["self_s"]) == (1, 4)
    assert tr.spans == [("top", 13)]


def test_scaled_leaves_samples_out_and_rates_each_stretch_by_its_samples():
    # samples of 1 s, then 2 s, then 1 s (reference 1 s): the host ran at half
    # speed around the middle one
    samples = [(0, 1), (3, 5), (7, 8)]
    # stretches [1, 3] and [5, 7], each rated by the mean of its two samples
    assert speed.scaled(0, 8, samples, ref_s=1) == (4, 2 / 1.5 + 2 / 1.5)
    assert speed.scaled(2, 3, samples, ref_s=1) == (1, 1 / 1.5)
    raw, scaled = speed.scaled(4, 6, samples, ref_s=2)
    assert (raw, scaled) == (1, 2 / 1.5)


def test_sampler_samples_at_both_ends_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval_s=0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 4
    assert all(s < e <= s2 for (s, e), (s2, _e2) in zip(sampler.samples, sampler.samples[1:]))


def test_quantile_is_harrell_davis():
    values = [float(v) for v in range(1, 102)]
    assert abs(run._quantile(values, 0.5) - 51) < 1e-9
    assert run._quantile([7.0], 0.9) == 7.0
    # one value crossing a gap moves the estimate by far less than the gap
    low = [10.0] * 50 + [20.0] * 51
    high = [10.0] * 49 + [20.0] * 52
    assert 0 < run._quantile(high, 0.5) - run._quantile(low, 0.5) < 1


def _corpus_report(pinned: list) -> dict:
    scenarios = {}
    for scen, desc, expected, digest in pinned:
        scenarios.setdefault(scen, []).append(
            {"description": desc, "expected": expected, "actual": expected,
             "evidence_digest": digest})
    return {"scenarios": [{"name": k, "results": v} for k, v in scenarios.items()]}


def test_corpus_gate_catches_a_flipped_digest_and_a_wrong_status():
    pinned = json.loads((HERE / "pinned.json").read_text())["corpus"]
    assert len(pinned) == 44
    assert gate.corpus_gate(_corpus_report(pinned), pinned) == []

    report = _corpus_report(pinned)
    row = report["scenarios"][0]["results"][0]
    row["evidence_digest"] = row["evidence_digest"][::-1]
    failures = gate.corpus_gate(report, pinned)
    assert len(failures) == 1 and "digest" in failures[0][1]

    report = _corpus_report(pinned)
    row = report["scenarios"][-1]["results"][-1]
    row["actual"] = "refuted" if row["actual"] != "refuted" else "witnessed"
    failures = gate.corpus_gate(report, pinned)
    assert len(failures) == 1 and "status" in failures[0][1]

    report = _corpus_report(pinned)
    del report["scenarios"][2]["results"][0]
    assert len(gate.corpus_gate(report, pinned)) == 1


def test_orbit_gate_catches_a_changed_result():
    req = {"kind": "equicontinuity", "key": "k"}
    payload = {"xi": "1/16", "note": "n"}
    pinned = {"k": gate.digest(payload)}
    assert gate.orbit_gate([req], [payload], pinned) == []
    assert len(gate.orbit_gate([req], [{"xi": "1/32", "note": "n"}], pinned)) == 1
    assert len(gate.orbit_gate([{**req, "key": "other"}], [payload], pinned)) == 1


def test_layers_cover_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    groups = json.loads((HERE / "layers.json").read_text())["layers"]
    listed = [name for g in groups for name in g["metrics"]]
    assert len(listed) == len(set(listed))
    assert set(listed) == {m["name"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert all(set(g["moves"]) <= workloads for g in groups)
