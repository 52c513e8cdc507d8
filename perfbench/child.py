"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --src SRC --workload W --inputs DIR --result FILE
                               [--seed N] [--trace] [--setup-only]

Set-up is importing ndslab from SRC and reading the generated inputs.  The
timed region is a closed loop: one client issues each request only after the
previous verdict, and before each request (outside the timed region)
ndslab's module-level caches go back to their state after set-up.  With
--trace the layers' public functions are wrapped (tracer.py) for the timed
region only, and its times are raw.  Otherwise speed.Sampler samples the
host's speed through the timed region and each request's time is scaled to
the reference speed (speed.py); set-up time is scaled the same way in every
run.  The correctness gate runs after the timed region.  Everything measured
is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import gate
import gen
import speed
from tracer import Tracer

# (module, function) of every layer entry point the traced run wraps
LAYER_FUNCTIONS = (
    ("ndsl", "parse"),
    ("maps", "image"),
    ("maps", "prefix_compose"),
    ("maps", "derive_laws"),
    ("maps", "step_normal"),
    ("maps", "apply"),
    ("spaces", "intersects"),
    ("spaces", "diameter"),
    ("spaces", "shift_distance"),
    ("spaces", "distance"),
    ("spaces", "enumerate_basis"),
    ("hitting", "separation_set"),
    ("hitting", "classify_frequency"),
    ("checkers", "check_property"),
    ("chaos", "li_yorke_scan"),
    ("chaos", "orbit_distance_trace"),
    ("chaos", "lemma21_construct"),
    ("convergence", "sup_distance"),
    ("convergence", "check_uniform_convergence"),
    ("convergence", "check_collective_convergence"),
    ("convergence", "equicontinuity_modulus"),
    ("cli", "main"),
)


def _count_true(st, result):
    if result:
        st.bump("true")


def _count_opens(st, result):
    st.bump("opens", len(result))


def _count_status(st, verdict):
    st.bump(verdict.status)


HOOKS = {
    "spaces.intersects": _count_true,
    "spaces.enumerate_basis": _count_opens,
    "checkers.check_property": _count_status,
}


def install_tracer(modules: dict) -> Tracer:
    tracer = Tracer()
    for mod, fn in LAYER_FUNCTIONS:
        name = f"{mod}.{fn}"
        tracer.patch(modules[mod], fn, name, HOOKS.get(name))
    # corpus expectations dispatch through this table; one span per expectation
    executors = getattr(modules["corpus"], "_EXECUTORS", {})
    for kind in list(executors):
        tracer.patch(executors, kind, "corpus.expectation", span=True)
    return tracer


def _cli_call(cli, argv: list) -> tuple:
    """Run the command line in-process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _probe(cli, path: Path) -> str:
    """What `ndslab check` does today on a known-failure probe input."""
    try:
        rc, _text = _cli_call(cli, ["check", str(path), "--format", "json"])
    except Exception as exc:  # the probe records the failure, it does not count it
        return f"raised {type(exc).__name__}: {exc}"
    return f"exit {rc}"


def orbit_request(mods: dict, specs: dict, pairs: list, req: dict):
    """Execute one orbit-scan request through the library API."""
    chaos, cv, mp, sp = mods["chaos"], mods["convergence"], mods["maps"], mods["spaces"]
    spec, p = specs[req["system"]], req["params"]
    kind = req["kind"]
    if kind == "li-yorke":
        return chaos.li_yorke_scan(spec, [pairs[p["candidate"]]], p["horizon"])
    if kind == "lemma21":
        return chaos.lemma21_construct(spec, sp.all_zeros(), sp.all_ones(), p["levels"], p["horizon"])
    if kind == "equicontinuity":
        return cv.equicontinuity_modulus(spec, Fraction(p["epsilon"]), p["k"], p["horizon"])
    if kind == "collective":
        return cv.check_collective_convergence(spec, mp.IDENTITY, p["horizon"], p["max_window"])
    raise ValueError(f"unknown orbit-scan kind {kind!r}")


def orbit_inputs(mods: dict, manifest: dict) -> tuple:
    """Parsed systems and candidate pairs for the orbit-scan requests."""
    specs = {name: mods["ndsl"].parse(src).system("S") for name, src in manifest["systems"].items()}
    sp = mods["spaces"]
    pairs = mods["chaos"].proximal_scrambled_candidates(sp.all_zeros(), sp.all_ones(), gen.LY_CANDIDATES)
    return specs, pairs


def import_ndslab(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import ndslab
    import ndslab.cli

    where = Path(ndslab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"imported ndslab from {where}, not from {src}")
    return {name: getattr(ndslab, name) for name in (
        "chaos", "checkers", "cli", "convergence", "corpus", "hitting", "maps", "ndsl", "spaces")}


# ndslab's module-level caches, as (module, attribute path); a fresh process
# has them as import left them
CACHES = (
    ("checkers", "_MASK_CACHE"),
    ("maps", "_CUM._exponents"),
    ("maps", "_CUM._tables"),
    ("spaces", "_SQRT2M1_CACHE"),
)


def cache_reset(mods: dict) -> tuple:
    """(reset, names): `reset()` puts every cache of CACHES that exists back
    to its contents at the time of this call; `names` lists those caches."""
    found = []
    for mod, path in CACHES:
        obj = mods[mod]
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if isinstance(obj, dict):
            found.append((f"{mod}.{path}", obj, dict(obj)))

    def reset():
        for _name, cache, saved in found:
            cache.clear()
            cache.update(saved)

    return reset, [name for name, _c, _s in found]


def _timed(requests: list, call, before) -> tuple:
    """The closed loop: (outputs, errors, (start, end) of each request).
    A request that raises gets output None and its error text.  `before()`
    runs ahead of each request, outside the timed region."""
    outputs, errors, spans = [], [], []
    for req in requests:
        before()
        t0 = time.perf_counter()
        try:
            outputs.append(call(req))
            errors.append(None)
        except Exception as exc:  # every failure is counted, none aborts the run
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        spans.append((t0, time.perf_counter()))
    return outputs, errors, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    inputs = Path(args.inputs)

    speed.reference_work()  # warm, outside the timing
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        mods = import_ndslab(Path(args.src))
        manifest = json.loads((inputs / "manifest.json").read_text())
        requests = manifest["requests"]
        if args.workload == "check-sweep":
            for req in requests:
                (inputs / req["file"]).read_bytes()
        elif args.workload == "orbit-scan":
            specs, pairs = orbit_inputs(mods, manifest)
        t1 = time.perf_counter()
    raw_setup_s, setup_s = speed.scaled(t0, t1, sampler.samples)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
              "ndslab_version": sys.modules["ndslab"].__version__}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    cli = mods["cli"]
    # every request starts with the caches a fresh process has (a check-sweep
    # file is one `ndslab check` invocation), so no request reuses an earlier
    # one's work and its cost does not depend on the order the seed drew
    before, result["cache_reset"] = cache_reset(mods)
    if args.workload == "corpus":
        def call(req):
            return _cli_call(cli, req["argv"])
    elif args.workload == "check-sweep":
        def call(req):
            return _cli_call(cli, ["check", str(inputs / req["file"]), "--format", "json"])
    else:
        def call(req):
            return orbit_request(mods, specs, pairs, req)

    if args.trace:
        tracer = install_tracer(mods)
        try:
            outputs, errors, spans = _timed(requests, call, before)
        finally:
            tracer.restore()
        raw_lat = lat = [t1 - t0 for t0, t1 in spans]
        samples = []
    else:
        tracer = None
        speed.reference_work()
        with speed.Sampler() as sampler:
            outputs, errors, spans = _timed(requests, call, before)
        samples = sampler.samples
        raw_lat, lat = zip(*(speed.scaled(t0, t1, samples) for t0, t1 in spans))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())
    failures = [(i, f"raised {e}") for i, e in enumerate(errors) if e is not None]
    family = [r["family"] for r in requests]
    report_bytes = sum(len(o[1].encode()) for o in outputs if o) if args.workload != "orbit-scan" else 0
    if args.workload == "corpus":
        # one request carrying one verdict per pinned expectation
        attempted = verdicts = len(pinned["corpus"])
        family = ["corpus"] * attempted
        try:
            report = json.loads(outputs[0][1]) if outputs[0] else None
        except ValueError:
            report, errors[0] = None, "printed no JSON report"
        if report is None:
            failures, decided = [(i, f"corpus {errors[0]}") for i in range(attempted)], 0
        else:
            failures = gate.corpus_gate(report, pinned["corpus"])
            rows = gate.corpus_results(report)
            decided = sum(r[3] in gate.DECIDED for r in rows)
            result["corpus_rows"] = [{"scenario": r[0], "description": r[1]} for r in rows]
    elif args.workload == "check-sweep":
        attempted = len(requests)
        more, decided, verdicts = gate.check_sweep_gate(
            requests, outputs, inputs, random.Random(f"oracle:{args.seed}"))
        failures += more
        result["probes"] = [{**probe, "outcome": _probe(cli, inputs / probe["file"])}
                            for probe in manifest["probes"]]
    else:
        attempted = verdicts = len(requests)
        payloads = [None if o is None else gate.orbit_payload(r["kind"], o)
                    for r, o in zip(requests, outputs)]
        failures += gate.orbit_gate(requests, payloads, pinned["orbit"])
        decided = sum(p is not None and gate.orbit_decided(r["kind"], p)
                      for r, p in zip(requests, payloads))

    result.update({
        "wall_s": sum(lat),
        "raw_wall_s": sum(raw_lat),
        "latencies_s": list(lat),
        "speed_samples": len(samples),
        "median_sample_s": speed.median_sample_s(samples) if samples else None,
        "request_spans": spans,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len({i for i, _ in failures}),
        "failures": [{"request": i, "family": family[i], "reason": why} for i, why in failures],
        "decided": decided,
        "verdicts": verdicts,
        "report_bytes": report_bytes,
    })
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
