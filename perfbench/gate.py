"""Correctness gate of the ndslab benchmark, run after the timed region.

Each gate returns a list of failures, one (request index, reason) pair per
request that failed; nothing is dropped and nothing aborts the run.  A
request fails when it raised, when its status differs from the reference,
when a digest does not match the pinned one, or when an oracle disagrees.
"""

from __future__ import annotations

import hashlib
import json

DECIDED = ("witnessed", "refuted", "pass")
# evidence entries mapping "i->j" to a time n with f_1^n(B_i) meeting B_j,
# which the stepwise oracle can confirm
HIT_TIME_EVIDENCE = ("witness_times", "per_pair_first_hit", "tail_start_per_pair")
ORACLE_SAMPLES_PER_CHECK = 2


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def corpus_results(report: dict) -> list:
    """(scenario, description, expected, actual, evidence digest) per
    expectation of an `ndslab corpus --format json` report, in report order."""
    return [
        (s["name"], r["description"], r["expected"], r["actual"], r["evidence_digest"])
        for s in report["scenarios"]
        for r in s["results"]
    ]


def corpus_gate(report: dict, pinned: list) -> list:
    """Compare a corpus report with the pinned expectations: every status
    must equal the expectation written in corpus.py (pinned alongside) and
    every evidence digest must equal the pinned one."""
    got = {(scen, desc): (exp, act, dig) for scen, desc, exp, act, dig in corpus_results(report)}
    failures = []
    for idx, (scen, desc, expected, pinned_digest) in enumerate(pinned):
        if (scen, desc) not in got:
            failures.append((idx, f"{scen}: {desc}: missing from the report"))
            continue
        exp, act, dig = got[(scen, desc)]
        if exp != expected or act != expected:
            failures.append((idx, f"{scen}: {desc}: status {act!r}, expected {expected!r}"))
        elif dig != pinned_digest:
            failures.append((idx, f"{scen}: {desc}: evidence digest {dig} != pinned {pinned_digest}"))
    return failures


def orbit_payload(kind: str, result) -> dict:
    """The comparable content of an orbit-scan result."""
    if kind == "li-yorke":
        (rep,) = result
        return {"liminf": str(rep.liminf_estimate), "limsup": str(rep.limsup_estimate),
                "qualifies": rep.qualifies}
    if kind == "lemma21":
        if not hasattr(result, "witnesses"):
            return {"failure": repr(result)}
        return {"times": list(result.times), "verified": result.verified,
                "witnesses": {k: repr(v) for k, v in sorted(result.witnesses.items())}}
    if kind == "equicontinuity":
        xi, note = result
        return {"xi": str(xi), "note": note}
    if kind == "collective":
        return {"status": result.status, "refuting_pair": str(result.refuting_pair),
                "detail": result.detail}
    raise ValueError(f"unknown orbit-scan kind {kind!r}")


def orbit_decided(kind: str, payload: dict) -> bool:
    """A definite answer: every scan report, a verified construction, a
    modulus or a proof that none exists, a convergence verdict."""
    if kind == "lemma21":
        return payload.get("verified") is True
    if kind == "collective":
        return payload["status"] in DECIDED
    return True


def orbit_gate(requests: list, payloads: list, pinned: dict) -> list:
    failures = []
    for idx, (req, payload) in enumerate(zip(requests, payloads)):
        if payload is None:
            continue  # raised: already counted by the caller
        if req["kind"] == "lemma21" and payload.get("verified") is not True:
            failures.append((idx, f"{req['key']}: construction not verified"))
            continue
        want = pinned.get(req["key"])
        if want is None:
            failures.append((idx, f"{req['key']}: no pinned result"))
        elif digest(payload) != want:
            failures.append((idx, f"{req['key']}: digest {digest(payload)} != pinned {want}"))
    return failures


def check_sweep_gate(requests: list, outputs: list, inputs_dir, rng) -> tuple:
    """Re-check every decided verdict of every `ndslab check` report with
    checkers.recheck_verdict, and confirm a seeded sample of witness times
    with the stepwise oracle hitting.brute_force_hitting.

    outputs[i] is (exit code, stdout text) or None when the request raised.
    Returns (failures, decided checks, checks)."""
    from ndslab import checkers as ck
    from ndslab import hitting as ht
    from ndslab import ndsl
    from ndslab import spaces as sp

    failures, decided, total = [], 0, 0
    for idx, (req, out) in enumerate(zip(requests, outputs)):
        if out is None:
            continue
        rc, text = out
        label = f"{req['file']} ({req['family']}: {req['system']})"
        try:
            report = json.loads(text)
        except ValueError:
            failures.append((idx, f"{label}: exit {rc} without a JSON report"))
            continue
        checks = report["checks"]
        total += len(checks)
        statuses = [c["status"] for c in checks]
        decided += sum(s in DECIDED for s in statuses)
        want_rc = max([0] + [{"refuted": 1, "inconclusive": 2}.get(s, 0) for s in statuses])
        if len(checks) != len(req["properties"]) or rc != want_rc:
            failures.append((idx, f"{label}: exit {rc} for statuses {statuses}"))
            continue
        doc = ndsl.parse((inputs_dir / req["file"]).read_text())
        for c in checks:
            spec = doc.system(c["system"])
            cfg = {"basis": c["basis"], "horizon": c["horizon"],
                   "law_horizon": report["configuration"]["law_horizon"],
                   "property": c["property"]}
            verdict = ck.Verdict(c["property"], c["status"], cfg, c["evidence"], tuple(c["caveats"]))
            if c["status"] in DECIDED and not ck.recheck_verdict(spec, verdict):
                failures.append((idx, f"{label}: {c['property']} {c['status']} fails recheck"))
                break
            if c["status"] != "witnessed":
                continue
            hits = [(f"{key}:{pair}", pair, n) for key in HIT_TIME_EVIDENCE
                    for pair, n in sorted(c["evidence"].get(key, {}).items())]
            if not hits:
                continue
            basis = sp.enumerate_basis(spec.space, c["basis"])
            sample = rng.sample(hits, min(ORACLE_SAMPLES_PER_CHECK, len(hits)))
            bad = [
                entry for entry, pair, n in sample
                if n not in ht.brute_force_hitting(
                    spec, *(basis[int(p)] for p in pair.split("->")), n)
            ]
            if bad:
                failures.append((idx, f"{label}: {c['property']} witness {bad} not confirmed "
                                      "by the stepwise oracle"))
                break
    return failures, decided, total
